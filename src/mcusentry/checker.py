"""Exhaustive verification of the monitor against the property catalogue:
the walks over (monitor state, obligation) products and counterexample
replay. What a formula means, progression included, is ``ltl``'s.

The input space is reduced to a configurable address width. Letters
(per-cycle signal assignments, including the live window bounds, which
are free inputs the attacker can steer via metadata writes) are
generated concretely from boundary-biased candidate sets over the six
curated windows of ``default_er_choices``; the machine never asserts CPU
read and write together, so neither do they. One class key deduplicates
them, in one pass over every window's candidates: the value of each
``build_props`` entry the monitor letter is made of (``monitor.LETTER``,
the 17 predicates the FSMs read), the catalogue names or the checked
formula names. The monitor and the formula see a letter only through
that key, so the first candidate of a class stands for all of it
(predicate abstraction keeps every predicate the property names; Graf &
Saïdi, CAV 1997). Every catalogue proposition is a function of the
monitor letter, so the catalogue adds no class, and every catalogue
formula over one space gets the same ``Alphabet`` from
``build_alphabet``, which keeps the last few it built. An ``Alphabet``
reads its proposition table from its space (``build_props``). It holds
every table the walk reads: each letter's ``table_letter`` int, each
obligation's progressions and, per guard set, each reached monitor
state's row.
Coverage is exhaustive only over the classes the curated windows
produce: the FSM state (rUNLOCK, wUNLOCK, lastER) is never reached
(ROADMAP open item 19).

Checking walks the reachable product of monitor state with a pending
obligation: each letter progresses a node's obligation over the letter's
propositions (``ltl.progress``, obligations numbered in
``ltl.OBLIGATIONS``); ``false`` is a violation and ``true`` is not
queued. A conjunct outside the safe fragment (``ltl.is_safe``; the
before-operator end-to-end goal) is refused with ``FormulaError`` and
checked on traces. A monitor state is its number in the guard set's
``monitor.compiled_monitor``, whose successor function gives each
reachable state one row: the next state's number and the reset output
on every letter, each from one ``monitor_step`` on the letter's
``table_letter`` int: the step and letter functions the live ``Monitor``
runs. A node expands by gathering its obligation's progressions at its
row's reset outputs, then in one first-occurrence pass over its letters,
with no sort over them (``_expand``): each letter is keyed on (next
obligation, next state) and each key's first letter taken with one
``np.minimum.at``. New nodes are queued in the order of the first letter
that reaches them, and the violation reported is the first violating
letter. A device without a key region is a guard set equal to its own
``keyless()``; the catalogue formulas that need the key region are left
out for it (``check_catalogue``, ``first_violation``). Counterexamples
are rebuilt as concrete lassos and replay through ``monitor_step`` and
``eval_naive``, apart from the walk's rows and obligations, which must
bring the FSMs back to their loop-entry states.

Bounded lasso enumeration (``brute_force_check``) can show a violation
but not its absence, so it is no verdict path; it cross-checks the walk
and searches the end-to-end goal for mutant convictions. It steps the
same product over a small curated alphabet (one ``Alphabet`` per space,
kept as ``build_alphabet``'s are), progressing the formula
letter by letter as the walk does (U and B included), and judges what
each bounded prefix leaves pending on its quiet tail with
``eval_naive``, once per (obligation, monitor state): the tail's
propositions depend on the state alone. So every lasso's verdict is a
function of the product node its letters end in, and the search walks
one layer of nodes per length, each node kept with the least letter
sequence that reaches it: the first violating node of the shortest
violating length gives the first violating lasso in letter order, and
the lassos before it are counted, not built. That is bounded search over
a finite alphabet (Biere, Cimatti, Clarke & Zhu, TACAS 1999); past its
bound it stays incomplete.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .catalogue import CatalogueEntry, all_formulas
from .errors import BudgetError, FormulaError
from .layout import Region
from .ltl import (OBLIGATIONS, And, Formula, LassoTrace, Prop, check_props,
                  eval_naive, flatten, is_safe, to_text)
from .machine import RecordColumns, StateRecord
from .monitor import (DEFAULT_GUARDS, INITIAL_STATE, LETTER, CompiledMonitor,
                      GuardFlags, MonitorState, compiled_monitor, monitor_step,
                      table_letter)
from .mutants import mutant_guards
from .props import build_props


@dataclass(frozen=True)
class ScaledSpace:
    """Reduced-width address map exposing the MemoryLayout surface the
    propositions need."""

    width: int
    rom: Region
    pmem: Region
    dmem: Region
    gpio: Region
    ekr: Region
    vr: Region
    er_metadata: Region
    i_auth: int


def scaled_space(width: int = 6) -> ScaledSpace:
    """Regions scaled proportionally into a 2**width address space.

    The authorization address stays distinct from the boot address and
    outside the verifier region at every width.
    """
    if width < 5:
        raise ValueError(f"width {width} is below 5 and cannot host all regions")
    if width > 16:
        raise ValueError(f"width {width} exceeds the 16-bit address space")
    size = 1 << width
    q = size // 8  # one eighth per coarse band
    return ScaledSpace(
        width=width,
        rom=Region(0, q - 1),
        vr=Region(2, 3),
        i_auth=q - 2 if q - 2 > 3 else 1,
        er_metadata=Region(q, q + 1),
        pmem=Region(q, 4 * q - 1),
        dmem=Region(4 * q, 6 * q - 1),
        gpio=Region(6 * q, 7 * q - 1),
        ekr=Region(7 * q, size - 1),
    )


def default_er_choices(space: ScaledSpace) -> list[tuple[int, int]]:
    """Window inputs: a normal window, a degenerate one, shifted, plus
    hostile values (window over ROM/auth address, inverted bounds)."""
    p = space.pmem.start
    return [
        (p + 4, p + 8),
        (p + 6, p + 6),
        (p + 8, p + 12),
        (0, 4),
        (space.i_auth, space.i_auth + 4),
        (p + 8, p + 4),
    ]


def _candidates(space: ScaledSpace, er_min: int, er_max: int) -> dict[str, np.ndarray]:
    """Every candidate letter of one window as columns (int32 addresses,
    bool flags), ordered by pc, then CPU access, then DMA access, then irq."""
    top = (1 << space.width) - 1
    pcs = {0, space.i_auth, space.vr.start, space.rom.end,
           er_min, er_max, space.pmem.end - 1,
           space.dmem.start, space.gpio.start}
    if er_min < er_max:
        pcs.add(er_min + 1)
    pcs.add(min(er_max + 1, top))
    addrs = {space.gpio.start, space.gpio.end, space.ekr.start,
             space.er_metadata.start, space.er_metadata.end,
             er_min, er_max, min(er_max + 1, top),
             space.dmem.start, space.vr.start, 0}
    if er_min < er_max:
        addrs.add(er_min + 1)
    n = len(addrs)
    addrs = np.array([0] + sorted(addrs), dtype=np.int32)
    # CPU access: none, a read of each address, or a write of each address;
    # DMA access: none, or a transfer at each address.
    i_pc, i_cpu, i_dma, irq = np.indices(
        (len(pcs), 1 + 2 * n, 1 + n, 2), dtype=np.int32).reshape(4, -1)
    return {
        "pc": np.array(sorted(pcs), dtype=np.int32)[i_pc],
        "r_en": (0 < i_cpu) & (i_cpu <= n),
        "w_en": i_cpu > n,
        "d_addr": np.concatenate([addrs, addrs[1:]])[i_cpu],
        "dma_en": i_dma > 0,
        "dma_addr": addrs[i_dma],
        "irq": irq == 1,
        "reset": np.zeros(irq.size, dtype=bool),  # the walk bakes it in
        "er_min": np.full(irq.size, er_min, dtype=np.int32),
        "er_max": np.full(irq.size, er_max, dtype=np.int32),
    }


class Alphabet(tuple):
    """Letters (``StateRecord``s) with the tables the walks read over
    them: their column view, each one's monitor letter
    (``monitor_letters``, the ``table_letter`` int the device's monitor
    steps on) and, filled at first use, each obligation's progressions
    (``next_obligations``) and each guard set's rows (``row``).
    ``props`` is ``build_props(space)`` and ``names`` the propositions
    the letters' class key carries.
    """

    def __new__(cls, letters: Iterable[StateRecord], space: ScaledSpace,
                names: frozenset[str] = frozenset()):
        self = super().__new__(cls, letters)
        self.space, self.props, self.names = space, build_props(space), names
        self.view = RecordColumns(self)
        self.monitor_letters = tuple(map(table_letter(space), self))
        self._next: dict[int, np.ndarray] = {}
        self._rows: dict[tuple[GuardFlags, int], tuple[np.ndarray, np.ndarray]] = {}
        return self

    def row(self, guards: GuardFlags, sid: int) -> tuple[np.ndarray, np.ndarray]:
        """Next-state numbers and reset outputs (0/1) of state ``sid`` in
        ``guards``' compiled monitor, both indexed by letter; kept per
        guard set."""
        row = self._rows.get((guards, sid))
        if row is None:
            row = self._rows[guards, sid] = compiled_monitor(guards).successors(
                sid, self.monitor_letters)
        return row

    def step(self, guards: GuardFlags, sid: int,
             oid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Product node (``sid``, obligation ``oid``) of ``guards``'
        monitor on every letter: the next state's number, the reset output
        and the next obligation."""
        nxt_ids, outs = self.row(guards, sid)
        no_reset, reset = self.next_obligations(oid)
        return nxt_ids, outs, np.where(outs, reset, no_reset)

    def column(self, p: Prop) -> np.ndarray:
        """A proposition on every letter under either reset output, a (2,
        letters) bool array: the ``props`` entry on the column view, or for
        ``reset``, which no other entry reads, the reset output itself."""
        shape = (2, len(self))
        if p.name == "reset":
            return np.broadcast_to([[False], [True]], shape)
        return np.broadcast_to(np.asarray(self.props[p.name](self.view), bool), shape)

    def next_obligations(self, oid: int) -> np.ndarray:
        """Obligation ``oid`` progressed over every letter, indexed
        ``[reset output, letter]``: once per distinct code of the
        propositions it reads (``reads[i]`` at bit ``i``; the table's 51
        names fit an int64), then gathered at each letter's code."""
        nxt = self._next.get(oid)
        if nxt is None:
            packed = np.zeros((2, len(self)), dtype=np.intp)
            for bit, name in enumerate(OBLIGATIONS.entries[oid][1]):  # its reads
                packed |= self.column(Prop(name)).astype(np.intp) << bit
            codes, index = np.unique(packed, return_inverse=True)
            lut = np.array([OBLIGATIONS.next(oid, code) for code in codes.tolist()])
            nxt = self._next[oid] = lut[index.reshape(packed.shape)]
        return nxt


@lru_cache(maxsize=8)
def build_alphabet(space: ScaledSpace, names: frozenset[str]) -> Alphabet:
    """Concrete letters: the first candidate of each class of the key
    that extends the monitor letter with ``names``, in candidate order,
    the windows' candidates taken one after another. The key holds one bit
    per ``build_props`` entry, at most the table's 51, so an int64.
    Memoised on its (hashable) arguments, hence immutable but for the
    tables it fills at first use, which every check over it shares."""
    props = build_props(space)
    windows = [_candidates(space, lo, hi) for lo, hi in default_er_choices(space)]
    view = SimpleNamespace(**{name: np.concatenate([w[name] for w in windows])
                              for name in windows[0]})
    del windows  # frees the per-window copies before the key pass
    keys = np.zeros(view.pc.shape, np.int64)
    for name in sorted(set(LETTER) | names):
        keys = keys << 1 | np.broadcast_to(props[name](view), keys.shape)  # constants too
    first = np.sort(np.unique(keys, return_index=True)[1])
    columns = {name: col[first].tolist() for name, col in vars(view).items()}
    return Alphabet((StateRecord(cycle=0, **dict(zip(columns, row)))
                     for row in zip(*columns.values())), space, names)


# ---------------------------------------------------------------------------
# Results


@dataclass
class CheckResult:
    verdict: str  # "holds" | "violated"
    counterexample: LassoTrace | None
    explored_states: int
    formula_name: str = ""

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _quiet_tail(state: MonitorState, start: int, space: ScaledSpace,
                guards: GuardFlags):
    """Quiet letters from ``state`` until the monitor state recurs, as the
    records before the loop and the loop, cycles numbered from ``start``."""
    er_min, er_max = default_er_choices(space)[0]
    quiet = StateRecord(cycle=0, pc=space.pmem.end - 1, er_min=er_min, er_max=er_max)
    letter = table_letter(space)(quiet)
    seen: dict[MonitorState, int] = {}
    tail: list[StateRecord] = []
    while state not in seen:
        seen[state] = len(tail)
        state, out = monitor_step(state, letter, guards)
        tail.append(quiet._replace(reset=out, cycle=start + len(tail)))
    cut = seen[state]
    return tail[:cut], tail[cut:]


@lru_cache(maxsize=8)
def _catalogue_key(space: ScaledSpace) -> frozenset[str]:
    """The propositions the catalogue's formulas name, which every check's
    class key carries."""
    props = build_props(space)
    return frozenset().union(*(check_props(e.formula, props) for e in all_formulas()))


def _expand(nxt_ids: np.ndarray, outs: np.ndarray, nxt_oids: np.ndarray,
            n_oids: int):
    """One node's letters in one first-occurrence pass: each letter keyed
    on (next obligation, next state), with obligation ids below
    ``n_oids``, and each key's first letter taken with one
    ``np.minimum.at``. Returns the first letter whose next obligation is
    ``false`` (or None) and, in letter order, each key's (first letter,
    next state, next obligation, reset output)."""
    n_states, n = len(CompiledMonitor.states), len(nxt_ids)
    first = np.full(n_oids * n_states, n)
    np.minimum.at(first, nxt_oids * n_states + nxt_ids, np.arange(n))
    bad = int(first[:n_states].min())  # the keys of ``false``, obligation 0
    idxs = np.sort(first[first < n])
    return (bad if bad < n else None,
            list(zip(idxs.tolist(), nxt_ids[idxs].tolist(),
                     nxt_oids[idxs].tolist(), outs[idxs].tolist())))


def _bfs(formula: Formula, guards: GuardFlags, alphabet: Alphabet,
         state_budget: int):
    """BFS over (monitor state, obligation) nodes of ``guards``' monitor
    over ``alphabet`` from (initial state, ``formula``). Returns the
    violation path (letters with baked outputs) and the monitor state
    after it, or (None, None), plus the explored count."""
    states = CompiledMonitor.states
    start = (CompiledMonitor.number[INITIAL_STATE], OBLIGATIONS.intern(formula))
    parents: dict = {start: None}
    queue = deque([start])
    explored = 0
    while queue:
        node = queue.popleft()
        explored += 1
        if explored > state_budget:
            raise BudgetError(f"state budget {state_budget} exceeded")
        nxt_ids, outs, nxt_oids = alphabet.step(guards, *node)
        idx, successors = _expand(nxt_ids, outs, nxt_oids,
                                  len(OBLIGATIONS.entries))
        if idx is not None:
            path = [alphabet[idx]._replace(reset=bool(outs[idx]))]
            while parents[node] is not None:
                node, prev, reset = parents[node]
                path.append(alphabet[prev]._replace(reset=bool(reset)))
            return path[::-1], states[nxt_ids[idx]], explored
        for idx, sid, oid, reset in successors:
            succ = (sid, oid)
            if oid != OBLIGATIONS.true and succ not in parents:
                parents[succ] = (node, idx, reset)
                queue.append(succ)
    return None, None, explored


def exhaustive_check(formula: Formula, space: ScaledSpace,
                     guards: GuardFlags = DEFAULT_GUARDS, *,
                     state_budget: int = 2_000_000,
                     name: str = "") -> CheckResult:
    """Check a formula over the full reduced-width input space.

    Conjunctions are split and each conjunct is walked on the product over
    the alphabet whose class key carries the catalogue's propositions and
    the formula's own. A conjunct outside the safe fragment (see the
    module docstring) raises ``FormulaError`` before any alphabet is
    built, and so does a proposition that is not a ``build_props`` entry.
    """
    conjuncts = flatten(formula, And)
    for conjunct in conjuncts:
        if not is_safe(conjunct):
            raise FormulaError(f"{to_text(conjunct)} is outside the exhaustive "
                               "checker's safe fragment; it is checked on traces")
    names = _catalogue_key(space) | check_props(formula, build_props(space))
    alphabet = build_alphabet(space, names)
    explored_total = 0
    for conjunct in conjuncts:
        violation, state, explored = _bfs(conjunct, guards, alphabet, state_budget)
        explored_total += explored
        if violation is not None:
            # Close the lasso with quiet letters until the state recurs.
            lead, loop = _quiet_tail(state, len(violation), space, guards)
            return CheckResult("violated", LassoTrace(violation + lead, loop),
                               explored_total, name)
    return CheckResult("holds", None, explored_total, name)


def curated_alphabet(space: ScaledSpace) -> list[StateRecord]:
    """Small pivotal letter set for bounded enumeration."""
    er_min, er_max = default_er_choices(space)[0]
    mid = er_min + 1

    def rec(pc, **kw):
        return StateRecord(cycle=0, pc=pc, er_min=er_min, er_max=er_max, **kw)

    return [
        rec(0),                                   # boot
        rec(space.pmem.end - 1),                  # quiet, outside everything
        rec(space.i_auth),                        # authorization cycle
        rec(er_min),                              # window entry
        rec(mid),                                 # inside the window
        rec(mid, r_en=True, d_addr=space.gpio.start),   # sensing read inside
        rec(er_max),                              # window exit
        rec(space.pmem.end - 1, r_en=True, d_addr=space.gpio.start),
        rec(space.pmem.end - 1, w_en=True, d_addr=er_min),       # window write
        rec(space.i_auth, dma_en=True, dma_addr=space.er_metadata.start),
        rec(mid, irq=True),
        rec(mid, r_en=True, d_addr=space.ekr.start),
    ]


@lru_cache(maxsize=8)
def _curated(space: ScaledSpace) -> Alphabet:
    """``curated_alphabet`` as an ``Alphabet``, one per space, so every
    bounded search over the space shares the tables it fills, as the
    checks over one of ``build_alphabet``'s alphabets do."""
    return Alphabet(curated_alphabet(space), space)


def brute_force_check(formula: Formula, space: ScaledSpace,
                      guards: GuardFlags = DEFAULT_GUARDS, *,
                      max_len: int = 5, name: str = "") -> CheckResult:
    """Enumerate every letter sequence up to ``max_len``, close each to a
    lasso with quiet letters, and decide the formula on it.

    Complete only to the bound, so a "holds" proves nothing past it: this is
    the independent cross-check for the product exploration, and the search
    ``first_violation`` runs on formulas outside its safe fragment.
    Sequences go shortest first, each length in letter order, and the first
    violating lasso is returned. Layer L maps each product node that
    exactly L letters reach to the least sequence of (letter index, reset
    output) pairs reaching it, its nodes in that order (see the module
    docstring). The explored count is every lasso up to the violating one:
    n + n² + … + n^(L-1) for the shorter lengths, then the sequence's rank
    in base n, plus one, for n letters. ``max_len`` below 1 raises
    ``ValueError``, and a proposition that is no ``build_props`` entry
    ``FormulaError``.
    """
    if max_len < 1:
        raise ValueError(f"max_len {max_len} is below 1: no lasso to search")
    props = build_props(space)
    check_props(formula, props)
    alphabet = _curated(space)
    start = (CompiledMonitor.number[INITIAL_STATE], OBLIGATIONS.intern(formula))
    layer: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {start: ()}
    verdicts: dict[tuple[int, int], bool] = {}
    explored = 0
    for length in range(1, max_len + 1):
        reached = {}
        # Stepped in path order, letters in index order: the first path to
        # reach a node is its least, and the nodes come in that order.
        for (sid, oid), path in layer.items():
            steps = zip(*(a.tolist() for a in alphabet.step(guards, sid, oid)))
            for idx, (nxt, out, nxt_oid) in enumerate(steps):
                reached.setdefault((nxt, nxt_oid), path + ((idx, out),))
        layer = reached
        for (sid, oid), path in layer.items():
            if (sid, oid) not in verdicts:  # no proposition reads cycle
                lead, loop = _quiet_tail(CompiledMonitor.states[sid], 0, space, guards)
                verdicts[sid, oid] = eval_naive(OBLIGATIONS.entries[oid][0],
                                                LassoTrace(lead, loop), 0, props)
            if not verdicts[sid, oid]:
                rank = 0
                for idx, _ in path:
                    rank = rank * len(alphabet) + idx
                letters = [alphabet[idx]._replace(reset=bool(out), cycle=i)
                           for i, (idx, out) in enumerate(path)]
                lead, loop = _quiet_tail(CompiledMonitor.states[sid], length,
                                         space, guards)
                return CheckResult("violated", LassoTrace(letters + lead, loop),
                                   explored + rank + 1, name)
        explored += len(alphabet) ** length
    return CheckResult("holds", None, explored, name)


def replay_counterexample(formula: Formula, lasso: LassoTrace,
                          space: ScaledSpace,
                          guards: GuardFlags = DEFAULT_GUARDS) -> bool:
    """Re-step the monitor over the lasso letters and re-evaluate.

    Returns True when the replay reproduces the recorded reset outputs,
    the FSMs are back in their loop-entry states after the loop (so the
    lasso is a run of the monitor), and the formula is violated.
    """
    letter, props = table_letter(space), build_props(space)
    state = entry = INITIAL_STATE
    for pos, rec in enumerate(lasso.states):
        if pos == lasso.loop_start:
            entry = state
        state, out = monitor_step(state, letter(rec), guards)
        if out != rec.reset:
            return False
    if state != entry:
        return False
    return not eval_naive(formula, lasso, 0, props)


def _entries(guards: GuardFlags) -> list[CatalogueEntry]:
    """The catalogue, less its key formulas if ``guards`` has no key region."""
    keyed = guards != guards.keyless()
    return [entry for entry in all_formulas() if keyed or not entry.needs_ekr]


def check_catalogue(space: ScaledSpace,
                    guards: GuardFlags = DEFAULT_GUARDS) -> list[CheckResult]:
    """Exhaustively check every safe formula in the catalogue that applies
    to ``guards``; the others (the end-to-end goal) are checked on traces."""
    return [exhaustive_check(entry.formula, space, guards, name=entry.name)
            for entry in _entries(guards) if is_safe(entry.formula)]


def first_violation(space: ScaledSpace, guards: GuardFlags):
    """Search the catalogue formulas that apply to ``guards`` for one
    their monitor violates: exhaustively where the formula is safe, by
    bounded search where it is not.

    Returns (formula_name, CheckResult with a replayable counterexample),
    or (None, None) when it violates none.
    """
    for entry in _entries(guards):
        if is_safe(entry.formula):
            result = exhaustive_check(entry.formula, space, guards, name=entry.name)
        else:
            result = brute_force_check(entry.formula, space, guards,
                                       max_len=4, name=entry.name)
        if not result.holds:
            return entry.name, result
    return None, None


def find_mutant_violation(mutant_id: str, space: ScaledSpace):
    """``first_violation`` of the named mutant's guards."""
    return first_violation(space, mutant_guards(mutant_id))
