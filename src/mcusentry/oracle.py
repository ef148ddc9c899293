"""Brute-force atomic-execution oracle, independent of the monitor.

The oracle re-derives the atomicity verdict straight from trace records:
it cuts the trace into window episodes and applies four clauses to each,
every clause escaping on a reset-tagged record (a punished violation is a
neutralized one):

    legal entry      first episode record executes the window's first word
    legal exit       last episode record executes the window's last word
    self-contained   every record executes inside the window
    quiet            no interrupt and no DMA activity on any record

An episode ends at the first record executing the last word (consecutive
exit-word records are absorbed), at a reset-tagged record, or at the first
record outside the window (that boundary record carries the exit
judgment). A trace that ends with control still inside the window has no
exit to judge: the exit clause is vacuous there, consistent with the
stutter completion used by the trace checker, and such non-terminating
runs are denial-of-service outcomes, never wins.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .layout import ErWindow
from .machine import StateRecord

TOP = True
BOTTOM = False

Bounds = ErWindow | tuple[int, int]


def _bounds(er: Bounds) -> tuple[int, int]:
    if isinstance(er, tuple):
        return er
    return er.er_min, er.er_max


@dataclass(frozen=True)
class Episode:
    records: tuple[StateRecord, ...]
    start_index: int
    complete: bool  # an exit judgment exists (exit word, reset, or boundary)


def episodes(records: Sequence[StateRecord], er: Bounds) -> list[Episode]:
    """Cut a record sequence into window-execution episodes."""
    er_min, er_max = _bounds(er)

    def inside(rec: StateRecord) -> bool:
        return er_min <= rec.pc <= er_max

    out: list[Episode] = []
    i = 0
    n = len(records)
    while i < n:
        if not inside(records[i]):
            i += 1
            continue
        start = i
        chunk: list[StateRecord] = []
        complete = False
        while i < n:
            rec = records[i]
            chunk.append(rec)
            i += 1
            if rec.reset:
                complete = True
                break
            if rec.pc == er_max:
                while i < n and records[i].pc == er_max and not records[i].reset:
                    chunk.append(records[i])
                    i += 1
                complete = True
                break
            if not inside(rec):
                complete = True  # boundary record included; carries the judgment
                break
        out.append(Episode(tuple(chunk), start, complete))
    return out


def _is_reset(rec: StateRecord) -> bool:
    return rec.reset


def atomic_exec_oracle(records: Sequence[StateRecord] | Iterable[StateRecord],
                       er: Bounds) -> bool:
    """Evaluate the four clauses over every episode of the trace."""
    er_min, er_max = _bounds(er)
    recs = list(records)
    if not recs:
        raise ValueError("oracle needs a nonempty trace")
    for ep in episodes(recs, (er_min, er_max)):
        first = ep.records[0]
        if not (first.pc == er_min or _is_reset(first)):
            return BOTTOM
        if ep.complete:
            last = ep.records[-1]
            if not (last.pc == er_max or _is_reset(last)):
                return BOTTOM
        for rec in ep.records:
            if not (er_min <= rec.pc <= er_max or _is_reset(rec)):
                return BOTTOM
            if (rec.irq or rec.dma_en) and not _is_reset(rec):
                return BOTTOM
    return TOP


def monitor_flagged_episode(records: Sequence[StateRecord], er: Bounds,
                            atom_resets: Sequence[bool]) -> bool:
    """True when the atomicity FSM's local reset fired inside any episode.

    ``atom_resets[i]`` is that FSM's output at record ``i``, as
    ``monitor.step_atomicity_fsm`` gives it on the record's letter; used
    by the oracle agreement checks.
    """
    for ep in episodes(list(records), er):
        for offset in range(len(ep.records)):
            if atom_resets[ep.start_index + offset]:
                return True
    return False
