"""The hardware monitor: three Mealy FSMs stepped once per cycle.

Each FSM reads the same per-cycle StateRecord (bus signals plus the live
window bounds) and emits a local reset; the global reset is their
disjunction. Reset output convention: a local reset is 1 on the
transition into RESET and while staying in RESET; the record where an
FSM cleanly leaves RESET (pc = 0 with no violating access) outputs 0,
otherwise the reset loop would never settle. Any global reset
re-initialises *all* FSMs to RESET, matching a shared hardware reset
line; without this, an unlock could survive a reset caused by a sibling
FSM and defeat the one-shot rule.

FSM transition corners follow the access-control formulas, not the state
diagrams, where the two disagree:

- a read of GPIO or the key region at the exit address itself resets
  (the one-shot rule re-arms *at* the exit cycle, inclusive);
- a write to the window or its metadata while pc sits at the
  authorization address resets rather than merely re-locking.

The live monitor memoizes the transition. ``monitor_step`` is a pure
function of (state, record, config, guards) that reads the record only
through the 17 predicates ``TransitionTable.key`` packs into one int: pc
at 0, at the authorization address, in the verifier region, in the live
window, at er_min and at er_max; the interrupt line; the DMA enable; CPU
reads of GPIO and the key region; CPU writes of the window, its metadata
and the key region; and DMA transfers at GPIO, the key region, the window
and its metadata. Two records with one key therefore step every state
alike, and ``Monitor.step`` looks up (state, key) in the table of its
(config, guards) pair, calling ``monitor_step`` only on a miss. The
checker fills the same tables from its alphabet's column view.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .layout import MemoryLayout, Region
from .machine import StateRecord
from .props import read_mem, write_mem


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


@dataclass(frozen=True)
class MonitorConfig:
    """Static inputs of the monitor: guarded regions and key addresses."""

    gpio: Region
    ekr: Region
    vr: Region
    i_auth: int
    metadata: Region
    ekr_enabled: bool = True

    @staticmethod
    def from_layout(layout: MemoryLayout, ekr_enabled: bool = True) -> "MonitorConfig":
        return MonitorConfig(
            gpio=layout.gpio, ekr=layout.ekr, vr=layout.vr,
            i_auth=layout.i_auth, metadata=layout.er_metadata,
            ekr_enabled=ekr_enabled,
        )


@dataclass(frozen=True)
class GuardFlags:
    """Single-guard switches; flipping exactly one yields a mutant monitor."""

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


DEFAULT_GUARDS = GuardFlags()


def _guarded_reads(cfg: MonitorConfig, guards: GuardFlags, rec: StateRecord) -> bool:
    hit = read_mem(rec, cfg.gpio)
    if cfg.ekr_enabled and guards.ekr_read_guard:
        hit = hit or read_mem(rec, cfg.ekr)
    return hit


def _protected_writes(cfg: MonitorConfig, rec: StateRecord) -> bool:
    return write_mem(rec) or write_mem(rec, cfg.metadata)


def step_gpio_fsm(state: GpioState, rec: StateRecord, cfg: MonitorConfig,
                  guards: GuardFlags = DEFAULT_GUARDS) -> tuple[GpioState, bool]:
    """Read-access control for GPIO and the key region (three states)."""
    if state is GpioState.RESET:
        if rec.pc != 0:
            return GpioState.RESET, True
        state = GpioState.RLOCK  # leaving RESET: judge this cycle from rLOCK

    if state is GpioState.RLOCK:
        if guards.gpio_rlock_read_resets and _guarded_reads(cfg, guards, rec):
            return GpioState.RESET, True
        if rec.pc == cfg.i_auth:
            if guards.gpio_iauth_write_resets and _protected_writes(cfg, rec):
                return GpioState.RESET, True
            if guards.gpio_unlock_requires_iauth:
                return GpioState.RUNLOCK, False
        if not guards.gpio_unlock_requires_iauth and not _guarded_reads(cfg, guards, rec):
            return GpioState.RUNLOCK, False
        return GpioState.RLOCK, False

    # rUNLOCK
    reads = _guarded_reads(cfg, guards, rec)
    inside = rec.er_min <= rec.pc <= rec.er_max
    if reads and guards.gpio_outside_read_resets and not inside:
        return GpioState.RESET, True
    if reads and guards.gpio_exit_read_resets and rec.pc == rec.er_max:
        return GpioState.RESET, True
    if rec.pc == cfg.i_auth and guards.gpio_iauth_write_resets \
            and _protected_writes(cfg, rec):
        return GpioState.RESET, True
    if guards.gpio_relock_on_exit and rec.pc == rec.er_max:
        return GpioState.RLOCK, False
    if guards.gpio_relock_on_write and _protected_writes(cfg, rec):
        return GpioState.RLOCK, False
    return GpioState.RUNLOCK, False


def step_ekr_write_fsm(state: EkrState, rec: StateRecord, cfg: MonitorConfig,
                       guards: GuardFlags = DEFAULT_GUARDS) -> tuple[EkrState, bool]:
    """Write-access control for the key region (two states).

    Any DMA transaction touching the key region resets: DMA carries no
    pc authority, so it can never count as trusted-verifier execution.
    """
    if not cfg.ekr_enabled:
        return EkrState.WUNLOCK, False
    if state is EkrState.RESET:
        if rec.pc != 0:
            return EkrState.RESET, True
        state = EkrState.WUNLOCK

    if guards.ekr_write_guard:
        cpu_write = rec.w_en and rec.d_addr in cfg.ekr and rec.pc not in cfg.vr
        dma_touch = rec.dma_en and rec.dma_addr in cfg.ekr
        if cpu_write or dma_touch:
            return EkrState.RESET, True
    return EkrState.WUNLOCK, False


def _atom_enter(rec: StateRecord) -> AtomState:
    return AtomState.LAST_ER if rec.pc == rec.er_max else AtomState.FIRST_ER


def step_atomicity_fsm(state: AtomState, rec: StateRecord, cfg: MonitorConfig,
                       guards: GuardFlags = DEFAULT_GUARDS) -> tuple[AtomState, bool]:
    """Window atomicity and controlled invocation (five states).

    Entry only at er_min, exit only via er_max, and no interrupt or DMA
    activity while pc is inside the window. A degenerate one-word window
    (er_min == er_max) enters directly in the exit state.
    """
    if state is AtomState.RESET:
        if rec.pc != 0:
            return AtomState.RESET, True
        state = AtomState.NOT_ER

    inside = rec.er_min <= rec.pc <= rec.er_max
    if inside and guards.atom_irq_dma_resets and (rec.irq or rec.dma_en):
        return AtomState.RESET, True

    if state is AtomState.NOT_ER:
        if not inside:
            return AtomState.NOT_ER, False
        if rec.pc == rec.er_min or not guards.atom_entry_guard:
            return _atom_enter(rec), False
        return AtomState.RESET, True

    if state is AtomState.FIRST_ER:
        if not inside:
            if guards.atom_exit_guard:
                return AtomState.RESET, True
            return AtomState.NOT_ER, False
        if rec.pc == rec.er_max:
            return AtomState.LAST_ER, False
        if rec.pc == rec.er_min:
            return AtomState.FIRST_ER, False
        return AtomState.MID_ER, False

    if state is AtomState.MID_ER:
        if not inside:
            if guards.atom_exit_guard:
                return AtomState.RESET, True
            return AtomState.NOT_ER, False
        if rec.pc == rec.er_max:
            return AtomState.LAST_ER, False
        return AtomState.MID_ER, False

    # lastER: the only legal continuations are leaving or re-entering at er_min
    if not inside:
        return AtomState.NOT_ER, False
    if rec.pc == rec.er_min:
        return _atom_enter(rec), False
    if rec.pc == rec.er_max:
        return AtomState.LAST_ER, False
    if guards.atom_entry_guard:
        return AtomState.RESET, True
    return AtomState.MID_ER, False


class MonitorState(NamedTuple):
    """Composed state of the three FSMs plus the last global output."""

    gpio: GpioState = GpioState.RESET
    ekr: EkrState = EkrState.RESET
    atom: AtomState = AtomState.RESET
    global_reset: bool = False


def _step_fsms(state: MonitorState, rec: StateRecord, cfg: MonitorConfig,
               guards: GuardFlags) -> tuple[MonitorState, tuple[bool, bool, bool]]:
    """Advance the three FSMs on one record, before the shared reset line.

    Returns their next states (``global_reset`` is the OR of the local
    resets) and the local resets in (gpio, ekr, atomicity) order.
    """
    gpio_next, gpio_reset = step_gpio_fsm(state.gpio, rec, cfg, guards)
    ekr_next, ekr_reset = step_ekr_write_fsm(state.ekr, rec, cfg, guards)
    atom_next, atom_reset = step_atomicity_fsm(state.atom, rec, cfg, guards)
    nxt = MonitorState(gpio_next, ekr_next, atom_next,
                       gpio_reset or ekr_reset or atom_reset)
    return nxt, (gpio_reset, ekr_reset, atom_reset)


INITIAL_STATE = MonitorState()
RESET_STATE = MonitorState(GpioState.RESET, EkrState.RESET, AtomState.RESET, True)


def monitor_step(state: MonitorState, rec: StateRecord, cfg: MonitorConfig,
                 guards: GuardFlags = DEFAULT_GUARDS) -> tuple[MonitorState, bool]:
    """Advance all three FSMs on one record; OR their local resets.

    On a global reset every FSM is forced back to RESET so that no unlock
    survives a violation detected by a sibling FSM.
    """
    nxt, _ = _step_fsms(state, rec, cfg, guards)
    if nxt.global_reset:
        return RESET_STATE, True
    return nxt, False


def _key_function(cfg: MonitorConfig):
    gpio_lo, gpio_hi = cfg.gpio.start, cfg.gpio.end
    ekr_lo, ekr_hi = cfg.ekr.start, cfg.ekr.end
    vr_lo, vr_hi = cfg.vr.start, cfg.vr.end
    meta_lo, meta_hi = cfg.metadata.start, cfg.metadata.end
    i_auth = cfg.i_auth

    def key(rec):
        pc, lo, hi = rec.pc, rec.er_min, rec.er_max
        d, a, r, w, dma = rec.d_addr, rec.dma_addr, rec.r_en, rec.w_en, rec.dma_en
        return ((pc == 0)
                | (pc == i_auth) << 1
                | ((vr_lo <= pc) & (pc <= vr_hi)) << 2
                | ((lo <= pc) & (pc <= hi)) << 3
                | (pc == lo) << 4
                | (pc == hi) << 5
                | rec.irq << 6
                | dma << 7
                | (r & (gpio_lo <= d) & (d <= gpio_hi)) << 8
                | (r & (ekr_lo <= d) & (d <= ekr_hi)) << 9
                | (w & (lo <= d) & (d <= hi)) << 10
                | (w & (meta_lo <= d) & (d <= meta_hi)) << 11
                | (w & (ekr_lo <= d) & (d <= ekr_hi)) << 12
                | (dma & (gpio_lo <= a) & (a <= gpio_hi)) << 13
                | (dma & (ekr_lo <= a) & (a <= ekr_hi)) << 14
                | (dma & (lo <= a) & (a <= hi)) << 15
                | (dma & (meta_lo <= a) & (a <= meta_hi)) << 16)
    return key


class TransitionTable:
    """Memo of ``monitor_step`` for one (config, guards) pair.

    ``key(rec)`` packs the 17 predicates the FSMs read (see the module
    docstring) into one int; written like the ``props`` entries, it also
    takes a ``machine.RecordColumns`` view and then gives an int array.
    ``entries[state][key]`` is ``monitor_step``'s (next state, reset) from
    ``state`` on any record with that key. Sharing the table is sound
    because it memoizes a pure function of its key and the pair: an entry,
    once made, is what ``monitor_step`` returns for every such record,
    whichever caller made it. It holds only immutable values (states,
    ints, bools, and each distinct result once), never a record.
    """

    def __init__(self, cfg: MonitorConfig, guards: GuardFlags):
        self.cfg = cfg
        self.guards = guards
        self.key = _key_function(cfg)
        self.entries: defaultdict[MonitorState, dict[int, tuple[MonitorState, bool]]] \
            = defaultdict(dict)
        self._results: dict[tuple[MonitorState, bool], tuple[MonitorState, bool]] = {}

    def store(self, state: MonitorState, key: int,
              result: tuple[MonitorState, bool]) -> tuple[MonitorState, bool]:
        """Enter ``monitor_step``'s result for (state, key); returns the
        table's copy of it."""
        result = self._results.setdefault(result, result)
        self.entries[state][key] = result
        return result


@lru_cache(maxsize=1)
def transition_table(cfg: MonitorConfig, guards: GuardFlags) -> TransitionTable:
    """The table of a (config, guards) pair; a new ``Monitor`` per round
    reuses it, and monitors with other guards get their own. Only the
    latest pair's table is kept: a campaign steps one pair throughout,
    while a checker's table holds about 1,000 keys per monitor state
    (0.36 MB at width 6), so keeping one per mutant of a sweep would hold
    several MB."""
    return TransitionTable(cfg, guards)


class Monitor:
    """Stateful wrapper used by the stepping loops.

    A step looks up (state, key) in the pair's ``transition_table`` and
    calls ``monitor_step`` only on a miss. In observe-only mode the
    monitor never requests a reset: each FSM continues from its own next
    state without the shared reset line, and ``local_resets_log`` collects
    the per-FSM outputs of every step for agreement checks. Otherwise the
    log stays empty.
    """

    def __init__(self, cfg: MonitorConfig, guards: GuardFlags = DEFAULT_GUARDS,
                 observe_only: bool = False):
        self.cfg = cfg
        self.guards = guards
        self.state = INITIAL_STATE
        self.observe_only = observe_only
        self.local_resets_log: list[tuple[bool, bool, bool]] = []
        self._table = transition_table(cfg, guards)
        self._key, self._entries = self._table.key, self._table.entries

    def step(self, rec: StateRecord) -> bool:
        state = self.state
        if self.observe_only:
            self.state, local = _step_fsms(state, rec, self.cfg, self.guards)
            self.local_resets_log.append(local)
            return False
        key = self._key(rec)
        hit = self._entries[state].get(key)
        if hit is None:
            hit = self._table.store(state, key, monitor_step(state, rec, self.cfg,
                                                             self.guards))
        self.state, out = hit
        return out

    def force_reset(self) -> None:
        """A machine reset actually happened: re-initialise all FSMs.

        Called for machine-fault resets too; observe-only mode suppresses
        the monitor's own output wiring, not genuine machine resets.
        """
        self.state = RESET_STATE

    @staticmethod
    def for_layout(layout: MemoryLayout, ekr_enabled: bool = True,
                   guards: GuardFlags = DEFAULT_GUARDS,
                   observe_only: bool = False) -> "Monitor":
        return Monitor(MonitorConfig.from_layout(layout, ekr_enabled), guards,
                       observe_only)
