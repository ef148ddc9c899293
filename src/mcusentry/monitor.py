"""The hardware monitor: three Mealy FSMs stepped once per cycle.

Each FSM reads the same per-cycle letter and emits a local reset; the
global reset is their disjunction. Reset output convention: a local reset
is 1 on the transition into RESET and while staying in RESET; the letter
where an FSM cleanly leaves RESET (pc = 0 with no violating access)
outputs 0, otherwise the reset loop would never settle. Any global reset
re-initialises *all* FSMs to RESET, matching a shared hardware reset
line; without this, an unlock could survive a reset caused by a sibling
FSM and defeat the one-shot rule.

FSM transition corners follow the access-control formulas, not the state
diagrams, where the two disagree:

- a read of GPIO or the key region at the exit address itself resets
  (the one-shot rule re-arms *at* the exit cycle, inclusive);
- a write to the window or its metadata while pc sits at the
  authorization address resets rather than merely re-locking.

A letter is one int holding the 17 comparator outputs the FSMs read, bit
``i`` being the ``props`` entry ``LETTER[i]``. ``table_letter(layout)``
computes it from a record (bus signals plus the live window bounds) and
is the monitor's only reader of records, so ``Monitor.step`` memoizes
each (state, letter) transition. The fixed regions never change for a
layout, so the letter looks them up in per-address ``bytes`` class
tables (pc, CPU read, CPU write, DMA; 4 x 64 KB) built once per layout
value from the ``build_props`` entries of their bits, so ``props`` alone
says which region a bit tests. The live window's bits stay comparisons
against the record's own ``er_min``/``er_max``, so a metadata rewrite is
seen on the next cycle.

Each FSM reads only part of the letter. The GPIO FSM (``GPIO_READS``, 12
bits) reads pc at zero, at i_auth, in the window and at er_max, CPU reads
and DMA touches of GPIO and the key region, and CPU writes and DMA touches
of the window and its metadata. The key-write FSM (``EKR_READS``, 4)
reads pc at zero and in VR, CPU writes and DMA touches of the key region.
The atomicity FSM (``ATOM_READS``, 6) reads pc at zero, in the window, at
er_min and at er_max, irq and dmaen. One ``compiled_monitor`` per guard
set holds the live memo, the 30 composed states numbered once (a global
reset lands in ``INITIAL_STATE``, number 0), and the successor function
the checker's rows come from. Memo misses, those rows and the checker's
quiet tails and replays all step ``monitor_step``, so the checker judges
the step function the device runs, on the letters ``table_letter``
makes. A monitor is a layout and a guard set, nothing else: a device
without a key region runs ``GuardFlags.keyless()``.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import product
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .layout import ADDRESS_SPACE, MemoryLayout
from .machine import StateRecord
from .props import build_props


# Enum members are singletons, so identity hashing agrees with equality and
# spares ``Enum.__hash__``'s Python-level call on every monitor-state hash.

class GpioState(Enum):
    __hash__ = object.__hash__

    RESET = "RESET"
    RLOCK = "rLOCK"
    RUNLOCK = "rUNLOCK"


class EkrState(Enum):
    __hash__ = object.__hash__

    RESET = "RESET"
    WUNLOCK = "wUNLOCK"


class AtomState(Enum):
    __hash__ = object.__hash__

    RESET = "RESET"
    NOT_ER = "notER"
    FIRST_ER = "firstER"
    MID_ER = "midER"
    LAST_ER = "lastER"


# The letter's bits, low to high, by the ``props`` entry each one equals.
LETTER = ("pc_at zero", "pc_at iauth", "pc_in VR", "pc_in ER",
          "pc_at ermin", "pc_at ermax", "irq", "dmaen",
          "cpu_read GPIO", "cpu_read EKR",
          "cpu_write ER", "cpu_write METADATA", "cpu_write EKR",
          "dma_touch GPIO", "dma_touch EKR", "dma_touch ER", "dma_touch METADATA")
(PC_ZERO, PC_IAUTH, PC_VR, PC_ER, PC_ERMIN, PC_ERMAX, IRQ, DMA_EN,
 READ_GPIO, READ_EKR, WRITE_ER, WRITE_META, WRITE_EKR,
 DMA_GPIO, DMA_EKR, DMA_ER, DMA_META) = (1 << bit for bit in range(len(LETTER)))

# CPU or DMA access to the window or its metadata: the writes that revoke.
_PROTECTED_WRITES = WRITE_ER | DMA_ER | WRITE_META | DMA_META


@lru_cache(maxsize=8)
def table_letter(layout: MemoryLayout):
    """The function from a record to its letter over ``layout``'s fixed
    regions, which it reads from its pc, CPU read, CPU write and DMA
    tables, each entry in units of its table's lowest letter bit. A table
    holds its fixed-region bits, the ``build_props(layout)`` entries in
    ``LETTER``, each evaluated once with every address as pc, CPU and DMA
    address; the window's bits are compared per record."""
    props, every = build_props(layout), np.arange(ADDRESS_SPACE, dtype=np.uint16)
    view = SimpleNamespace(pc=every, d_addr=every, dma_addr=every,
                           r_en=True, w_en=True, dma_en=True)
    tables = np.zeros((4, ADDRESS_SPACE), np.uint8)
    for table, (unit, bits) in zip(tables, (
            (PC_ZERO, PC_ZERO | PC_IAUTH | PC_VR), (READ_GPIO, READ_GPIO | READ_EKR),
            (WRITE_ER, WRITE_META | WRITE_EKR), (DMA_GPIO, DMA_GPIO | DMA_EKR | DMA_META))):
        for bit, name in enumerate(LETTER):
            if bits >> bit & 1:
                table[props[name](view)] |= (1 << bit) // unit
    pc_t, read_t, write_t, dma_t = map(bytes, tables)

    def letter(rec):
        pc, lo, hi = rec.pc, rec.er_min, rec.er_max
        d, a, w, dma = rec.d_addr, rec.dma_addr, rec.w_en, rec.dma_en
        return (pc_t[pc] | ((lo <= pc) & (pc <= hi)) << 3
                | (pc == lo) << 4 | (pc == hi) << 5 | rec.irq << 6 | dma << 7
                | read_t[d] * rec.r_en << 8
                | (write_t[d] | (lo <= d) & (d <= hi)) * w << 10
                | (dma_t[a] | ((lo <= a) & (a <= hi)) << 2) * dma << 13)
    return letter


@dataclass(frozen=True)
class GuardFlags:
    """Single-guard switches; flipping exactly one yields a mutant monitor.

    A device without a key region is the monitor with both key guards
    off (``keyless``): no key access then resets.
    """

    gpio_rlock_read_resets: bool = True
    gpio_unlock_requires_iauth: bool = True
    gpio_outside_read_resets: bool = True
    gpio_exit_read_resets: bool = True
    gpio_relock_on_exit: bool = True
    gpio_relock_on_write: bool = True
    gpio_iauth_write_resets: bool = True
    atom_entry_guard: bool = True
    atom_exit_guard: bool = True
    atom_irq_dma_resets: bool = True
    ekr_write_guard: bool = True
    ekr_read_guard: bool = True

    def keyless(self) -> "GuardFlags":
        """These guards on a device without a key region."""
        return replace(self, ekr_write_guard=False, ekr_read_guard=False)


DEFAULT_GUARDS = GuardFlags()


def step_gpio_fsm(state: GpioState, letter: int,
                  guards: GuardFlags = DEFAULT_GUARDS) -> tuple[GpioState, bool]:
    """Read-access control for GPIO and the key region (three states)."""
    if state is GpioState.RESET:
        if not letter & PC_ZERO:
            return GpioState.RESET, True
        state = GpioState.RLOCK  # leaving RESET: judge this cycle from rLOCK

    guarded = READ_GPIO | DMA_GPIO
    if guards.ekr_read_guard:
        guarded |= READ_EKR | DMA_EKR
    reads = letter & guarded
    writes = letter & _PROTECTED_WRITES
    if state is GpioState.RLOCK:
        if guards.gpio_rlock_read_resets and reads:
            return GpioState.RESET, True
        if letter & PC_IAUTH:
            if guards.gpio_iauth_write_resets and writes:
                return GpioState.RESET, True
            if guards.gpio_unlock_requires_iauth:
                return GpioState.RUNLOCK, False
        if not guards.gpio_unlock_requires_iauth and not reads:
            return GpioState.RUNLOCK, False
        return GpioState.RLOCK, False

    # rUNLOCK
    if reads and guards.gpio_outside_read_resets and not letter & PC_ER:
        return GpioState.RESET, True
    if reads and guards.gpio_exit_read_resets and letter & PC_ERMAX:
        return GpioState.RESET, True
    if letter & PC_IAUTH and guards.gpio_iauth_write_resets and writes:
        return GpioState.RESET, True
    if guards.gpio_relock_on_exit and letter & PC_ERMAX:
        return GpioState.RLOCK, False
    if guards.gpio_relock_on_write and writes:
        return GpioState.RLOCK, False
    return GpioState.RUNLOCK, False


def step_ekr_write_fsm(state: EkrState, letter: int,
                       guards: GuardFlags = DEFAULT_GUARDS) -> tuple[EkrState, bool]:
    """Write-access control for the key region (two states).

    Any DMA transaction touching the key region resets: DMA carries no
    pc authority, so it can never count as trusted-verifier execution.
    """
    if state is EkrState.RESET:
        if not letter & PC_ZERO:
            return EkrState.RESET, True
        state = EkrState.WUNLOCK

    if guards.ekr_write_guard:
        cpu_write = letter & WRITE_EKR and not letter & PC_VR
        if cpu_write or letter & DMA_EKR:
            return EkrState.RESET, True
    return EkrState.WUNLOCK, False


def _atom_enter(letter: int) -> AtomState:
    return AtomState.LAST_ER if letter & PC_ERMAX else AtomState.FIRST_ER


def step_atomicity_fsm(state: AtomState, letter: int,
                       guards: GuardFlags = DEFAULT_GUARDS) -> tuple[AtomState, bool]:
    """Window atomicity and controlled invocation (five states).

    Entry only at er_min, exit only via er_max, and no interrupt or DMA
    activity while pc is inside the window. A degenerate one-word window
    (er_min == er_max) enters directly in the exit state.
    """
    if state is AtomState.RESET:
        if not letter & PC_ZERO:
            return AtomState.RESET, True
        state = AtomState.NOT_ER

    inside = letter & PC_ER
    if inside and guards.atom_irq_dma_resets and letter & (IRQ | DMA_EN):
        return AtomState.RESET, True

    if state is AtomState.NOT_ER:
        if not inside:
            return AtomState.NOT_ER, False
        if letter & PC_ERMIN or not guards.atom_entry_guard:
            return _atom_enter(letter), False
        return AtomState.RESET, True

    if state is AtomState.FIRST_ER:
        if not inside:
            if guards.atom_exit_guard:
                return AtomState.RESET, True
            return AtomState.NOT_ER, False
        if letter & PC_ERMAX:
            return AtomState.LAST_ER, False
        if letter & PC_ERMIN:
            return AtomState.FIRST_ER, False
        return AtomState.MID_ER, False

    if state is AtomState.MID_ER:
        if not inside:
            if guards.atom_exit_guard:
                return AtomState.RESET, True
            return AtomState.NOT_ER, False
        if letter & PC_ERMAX:
            return AtomState.LAST_ER, False
        return AtomState.MID_ER, False

    # lastER: the only legal continuations are leaving or re-entering at er_min
    if not inside:
        return AtomState.NOT_ER, False
    if letter & PC_ERMIN:
        return _atom_enter(letter), False
    if letter & PC_ERMAX:
        return AtomState.LAST_ER, False
    if guards.atom_entry_guard:
        return AtomState.RESET, True
    return AtomState.MID_ER, False


# The letter bits each FSM reads; ``test_monitor`` shows that flipping any
# other bit leaves its step unchanged.
GPIO_READS = (PC_ZERO | PC_IAUTH | PC_ER | PC_ERMAX | READ_GPIO | READ_EKR
              | DMA_GPIO | DMA_EKR | _PROTECTED_WRITES)
EKR_READS = PC_ZERO | PC_VR | WRITE_EKR | DMA_EKR
ATOM_READS = PC_ZERO | PC_ER | PC_ERMIN | PC_ERMAX | IRQ | DMA_EN


class MonitorState(NamedTuple):
    """Composed state of the three FSMs."""

    gpio: GpioState = GpioState.RESET
    ekr: EkrState = EkrState.RESET
    atom: AtomState = AtomState.RESET


INITIAL_STATE = MonitorState()


def monitor_step(state: MonitorState, letter: int,
                 guards: GuardFlags = DEFAULT_GUARDS) -> tuple[MonitorState, bool]:
    """Advance all three FSMs on one letter; OR their local resets.

    On a global reset every FSM is forced back to RESET so that no unlock
    survives a violation detected by a sibling FSM.
    """
    gpio_next, gpio_reset = step_gpio_fsm(state.gpio, letter, guards)
    ekr_next, ekr_reset = step_ekr_write_fsm(state.ekr, letter, guards)
    atom_next, atom_reset = step_atomicity_fsm(state.atom, letter, guards)
    if gpio_reset or ekr_reset or atom_reset:
        return INITIAL_STATE, True
    return MonitorState(gpio_next, ekr_next, atom_next), False


class CompiledMonitor:
    """The monitor compiled for one guard set.

    ``memo[state][letter]`` is ``monitor_step``'s (next state, reset),
    entered by ``Monitor.step`` on a miss; a letter names comparator
    outputs, not addresses, so monitors over any layout share it.
    ``states`` numbers the 30 composed states once, in enum product order,
    so ``INITIAL_STATE``, where every reset lands, is 0.
    """

    states = tuple(MonitorState(*triple)
                   for triple in product(GpioState, EkrState, AtomState))
    number = {state: sid for sid, state in enumerate(states)}

    def __init__(self, guards: GuardFlags):
        self.memo: defaultdict = defaultdict(dict)
        self.guards = guards

    def successors(self, sid: int, letters) -> tuple[np.ndarray, np.ndarray]:
        """The next state's number and the reset output (0/1) from state
        number ``sid`` on each of ``letters`` (17-bit ints), as uint8
        arrays, one ``monitor_step`` per letter. The memo is left alone:
        it holds the transitions live runs take, not a checker's rows."""
        state, guards, number = self.states[sid], self.guards, self.number
        steps = [monitor_step(state, letter, guards) for letter in letters]
        return (np.array([number[nxt] for nxt, _ in steps], np.uint8),
                np.array([out for _, out in steps], np.uint8))


# One per guard set: the healthy guards and the 12 mutants, each also keyless
# (24 sets: the two key mutants' keyless sets are the healthy one's).
compiled_monitor = lru_cache(maxsize=26)(CompiledMonitor)


class Monitor:
    """Stateful wrapper used by the stepping loops: the monitor over one
    layout with one guard set.

    A step looks up (state, letter) in the memo of its guard set's
    ``compiled_monitor``, shared by every monitor of that set, and steps
    the FSMs only on a miss; it reports the global reset only.
    ``step_run`` steps a whole run of records the same way, for
    ``machine.commit_run``, and stops at the first that resets. A check
    that needs one FSM's own output steps that FSM
    (``step_atomicity_fsm`` and its siblings) on ``table_letter(layout)``
    of each record. ``local_resets_log`` is always empty: the benchmark
    sizes its ``Monitor.step`` span by it.
    """

    def __init__(self, layout: MemoryLayout, guards: GuardFlags = DEFAULT_GUARDS):
        self.guards = guards
        self.state = INITIAL_STATE
        self.local_resets_log: list[tuple[bool, bool, bool]] = []
        self._letter, self._memo = table_letter(layout), compiled_monitor(guards).memo

    def step(self, rec: StateRecord) -> bool:
        state = self.state
        letter = self._letter(rec)
        hit = self._memo[state].get(letter)
        if hit is None:
            hit = self._memo[state][letter] = monitor_step(state, letter, self.guards)
        self.state, out = hit
        return out

    def step_run(self, records) -> int:
        """Step over ``records`` in order, as ``step`` on each one would, up
        to and including the first that resets; return that record's index,
        or ``len(records)`` when none resets. The state is left as that
        record's step leaves it. Same memo and miss rule as ``step``."""
        state, letter, memo, guards = self.state, self._letter, self._memo, self.guards
        for i, rec in enumerate(records):
            key = letter(rec)
            hit = memo[state].get(key)
            if hit is None:
                hit = memo[state][key] = monitor_step(state, key, guards)
            state, out = hit
            if out:
                self.state = state
                return i
        self.state = state
        return len(records)

    def force_reset(self) -> None:
        """A machine reset actually happened: re-initialise all FSMs.
        Called for machine-fault resets too."""
        self.state = INITIAL_STATE

    @staticmethod
    def for_layout(layout: MemoryLayout, guards: GuardFlags = DEFAULT_GUARDS) -> "Monitor":
        return Monitor(layout, guards)
