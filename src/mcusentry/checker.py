"""Exhaustive verification of the monitor against the property catalogue.

The input space is reduced to a configurable address width. Letters
(per-cycle signal assignments, including the live window bounds, which are
free inputs the attacker can steer via metadata writes) are generated
concretely from boundary-biased candidate sets over the six curated
windows of ``default_er_choices``; the machine never asserts CPU read and
write together, so neither do they. One class key deduplicates them: the
monitor letter (``MonitorConfig.letter``, the 17 predicates the FSMs
read) plus the value of each ``build_props`` proposition the checked
formulas name. The monitor and those formulas see a letter only through
that key, so the first candidate of a class stands for all of it
(predicate abstraction keeps every predicate the property names; Graf &
Saïdi, CAV 1997). A formula naming a proposition outside an explorer's key
is refused. The alphabet depends only on the space and the key's names, so
``build_alphabet`` keeps the last few it built: a catalogue sweep and each
mutant conviction share one. Coverage is exhaustive only over the classes
the curated windows produce: the FSM state (rUNLOCK, wUNLOCK, lastER) is
never reached (ROADMAP open item 5).

Checking walks the reachable product of monitor state with a small-int
tracking value per conjunct (0 for a safety formula ``G p``, an armed bit
for a triggered weak-until ``G (a -> (b W c))``, 1 + the previous letter's
propositions for a formula with next operators), which covers every lasso
of the product implicitly: a safety or weak-until violation shows up on
some reachable edge. Each conjunct compiles into two tables indexed by
reset output and letter (Havelund & Roşu, TACAS 2002): the letters that
violate from each tracking value, and each letter's next value. The
monitor is a transition table over the alphabet: a monitor state is its
number in the guard set's ``monitor.compiled_monitor``, and each reachable
state gets one row holding, for every letter, the next state's number and
the reset output: that object's successor function (one lookup per FSM
table at every letter's read bits, plus the shared reset) at the
alphabet's table indices. ``monitor_step`` runs only in the quiet tails
and the replays, a path independent of the tables. Each propositional
subformula becomes one bool column per reset output: the alphabet is one
lasso, and ``ltl.eval_vector`` evaluates the formula on it with ``reset``
fixed to each output (``_fixed``). A product node then
expands with array lookups over its whole row; new nodes are queued in the
order of the first letter that reaches them, and the violation reported is
the first violating letter. Counterexamples are rebuilt as concrete lassos
and replay through the real transition function, which must bring the
FSMs back to their loop-entry states.

A formula without temporal operators constrains position 0 only, so it
is judged on each letter read from the initial monitor state. A conjunct
outside these fragments (the before-operator end-to-end goal) is refused
with ``FormulaError``: it is checked on traces. Bounded lasso enumeration
(``brute_force_check``) can show a violation but not its absence, so it is
no verdict path; it cross-checks the walk and searches the end-to-end goal
for mutant convictions. It decides each distinct proposition word (the
formula's propositions at each position plus the loop start) once, as
bounded search over a finite alphabet may (Biere, Cimatti, Clarke & Zhu,
TACAS 1999); past its bound it stays incomplete.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence, Set
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from .catalogue import all_formulas
from .errors import BudgetError, FormulaError
from .layout import Region
from .ltl import (And, Formula, G, Implies, LassoTrace, Not, Or, Prop, W, X,
                  check_props, eval_naive, eval_vector, to_text)
from .machine import StateRecord
from .monitor import (DEFAULT_GUARDS, INITIAL_STATE, GuardFlags, MonitorConfig,
                      MonitorState, compiled_monitor, monitor_step)
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

    def region_named(self, name: str) -> Region:
        return getattr(self, name)


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
        "reset": np.zeros(irq.size, dtype=bool),  # the explorer bakes it in
        "er_min": np.full(irq.size, er_min, dtype=np.int32),
        "er_max": np.full(irq.size, er_max, dtype=np.int32),
    }


def _class_key(space: ScaledSpace, names: Set[str]):
    """A candidate view's class keys: the 17-bit monitor letter, then one
    bit per named proposition; past 46 names, Python ints, not int64."""
    letter = MonitorConfig.from_layout(space).letter
    props = build_props(space)
    names = sorted(names)
    dtype = np.int64 if len(names) <= 46 else object

    def class_key(view) -> np.ndarray:
        keys = np.asarray(letter(view)).astype(dtype)
        for name in names:
            value = np.broadcast_to(props[name](view), keys.shape)  # constants too
            keys = keys << 1 | value.astype(dtype)
        return keys
    return class_key


def _first_of_each_class(columns: dict[str, np.ndarray], class_key):
    """The columns cut to the first candidate of each class, in order, and
    those candidates' class keys."""
    keys = class_key(SimpleNamespace(**columns))
    first = np.sort(np.unique(keys, return_index=True)[1])
    return {name: col[first] for name, col in columns.items()}, keys[first]


@lru_cache(maxsize=8)
def build_alphabet(space: ScaledSpace,
                   names: frozenset[str]) -> tuple[StateRecord, ...]:
    """Concrete letters: the first candidate of each class of the key
    that extends the monitor letter with ``names``, in candidate order.
    Memoised on its (hashable) arguments, hence immutable."""
    class_key = _class_key(space, names)
    kept = [_first_of_each_class(_candidates(space, lo, hi), class_key)
            for lo, hi in default_er_choices(space)]
    first = np.sort(np.unique(np.concatenate([keys for _, keys in kept]),
                              return_index=True)[1])
    columns = {name: np.concatenate([c[name] for c, _ in kept])[first].tolist()
               for name in kept[0][0]}
    return tuple(StateRecord(cycle=0, **dict(zip(columns, row)))
                 for row in zip(*columns.values()))


# ---------------------------------------------------------------------------
# Formula classification


def _is_propositional(f: Formula, next_ok: bool = False) -> bool:
    """A boolean combination of propositions, and with ``next_ok`` also of
    X(propositional)."""
    if isinstance(f, Prop):
        return True
    if isinstance(f, X):
        return next_ok and _is_propositional(f.sub)
    if isinstance(f, Not):
        return _is_propositional(f.sub, next_ok)
    if isinstance(f, (And, Or, Implies)):
        return _is_propositional(f.left, next_ok) \
            and _is_propositional(f.right, next_ok)
    return False


def _flatten_and(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        return _flatten_and(f.left) + _flatten_and(f.right)
    return [f]


def _plan(f: Formula):
    if not isinstance(f, G):
        return ("initial", f) if _is_propositional(f) else None
    body = f.sub
    if _is_propositional(body):
        return ("local", body)
    if isinstance(body, Implies) and _is_propositional(body.left) \
            and isinstance(body.right, W) \
            and _is_propositional(body.right.left) \
            and _is_propositional(body.right.right):
        return ("tracker", body.left, body.right.left, body.right.right)
    if _is_propositional(body, next_ok=True):
        return ("pair", body)
    return None


def _fixed(f: Formula, values: dict[str, bool]) -> Formula:
    """``f`` with each proposition named in ``values`` outside X replaced
    by ``true`` or ``false``, and each ``X(sub)`` by ``sub``."""
    if isinstance(f, Prop):
        if f.name not in values:
            return f
        return Prop("true" if values[f.name] else "false")
    if isinstance(f, X):
        return f.sub
    if isinstance(f, Not):
        return Not(_fixed(f.sub, values))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(_fixed(f.left, values), _fixed(f.right, values))
    raise TypeError(f"{to_text(f)} is not propositional")


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
                cfg: MonitorConfig, guards: GuardFlags):
    """Quiet letters from ``state`` until the monitor state recurs, as the
    records before the loop and the loop, cycles numbered from ``start``."""
    er_min, er_max = default_er_choices(space)[0]
    quiet = StateRecord(cycle=0, pc=space.pmem.end - 1, er_min=er_min, er_max=er_max)
    letter = cfg.letter(quiet)
    seen: dict[MonitorState, int] = {}
    tail: list[StateRecord] = []
    while state not in seen:
        seen[state] = len(tail)
        state, out = monitor_step(state, letter, guards, cfg.ekr_enabled)
        tail.append(quiet._replace(reset=out, cycle=start + len(tail)))
    cut = seen[state]
    return tail[:cut], tail[cut:]


def _collect_a_props(f: Formula, out: set[str]) -> None:
    """Prop names evaluated at the current position (not under X)."""
    if isinstance(f, Prop):
        out.add(f.name)
    elif isinstance(f, X):
        pass
    elif isinstance(f, Not):
        _collect_a_props(f.sub, out)
    elif isinstance(f, (And, Or, Implies)):
        _collect_a_props(f.left, out)
        _collect_a_props(f.right, out)


def _key_names(formulas: Iterable[Formula], props: dict) -> frozenset[str]:
    """The propositions ``formulas`` name, which a class key must carry;
    ``FormulaError`` for one that is no ``props`` entry."""
    return frozenset().union(*(check_props(f, props) for f in formulas))


class _Explorer:
    """The monitor as a transition table over one alphabet, shared by the
    formulas checked against it.

    A monitor state is its number in ``monitor`` (``monitor.states[sid]``),
    the guard set's compiled monitor. ``row(sid)`` holds, for every letter,
    the next state's number and the reset output: ``monitor.successors``
    at every letter's table indices, taken once per explorer from
    ``MonitorConfig.letter``, and kept per state. ``column(f)`` holds a
    propositional formula's value on every letter under either reset
    output, as a (2, letters) bool array: ``eval_vector`` with the
    ``props`` entries on the alphabet as one lasso (``lasso``), once with
    ``reset`` fixed false and once true. ``names`` are the propositions
    the alphabet's class key carries.
    """

    def __init__(self, cfg: MonitorConfig, guards: GuardFlags,
                 alphabet: Sequence[StateRecord], props: dict,
                 names: frozenset[str] = frozenset()):
        self.cfg = cfg
        self.guards = guards
        self.alphabet = alphabet
        self.props = props
        self.names = names
        self.monitor = compiled_monitor(guards, cfg.ekr_enabled)
        self._indices = self.monitor.indices(cfg.letter(self.lasso.columns))
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._columns: dict[Formula, np.ndarray] = {}

    def row(self, sid: int) -> tuple[np.ndarray, np.ndarray]:
        """Next-state numbers and reset outputs (0/1) of state ``sid``,
        both indexed by letter."""
        row = self._rows.get(sid)
        if row is None:
            row = self._rows[sid] = self.monitor.successors(sid, self._indices)
        return row

    @cached_property
    def lasso(self) -> LassoTrace:
        """The alphabet as one lasso: a propositional formula's value at
        position ``i`` is its value on letter ``i``."""
        return LassoTrace.from_records(self.alphabet)

    def column(self, f: Formula) -> np.ndarray:
        col = self._columns.get(f)
        if col is None:
            col = self._columns[f] = np.stack([
                eval_vector(_fixed(f, {"reset": out}), self.lasso, self.props)
                for out in (False, True)])
        return col

    def record(self, idx: int, out: int) -> StateRecord:
        return self.alphabet[idx]._replace(reset=bool(out))


def _compile(plan, explorer: _Explorer):
    """One plan as two tables over small-int tracking values, both indexed
    ``[reset output, letter]``: ``bad[v]`` marks the letters that violate
    from tracking value ``v`` and ``nxt[v]`` gives each letter's next value.
    The walk starts at value 0."""
    kind = plan[0]
    zero = np.zeros((2, len(explorer.alphabet)), dtype=np.intp)
    if kind in ("initial", "local"):
        return {0: ~explorer.column(plan[1])}, {0: zero}
    if kind == "tracker":
        # Value 1: armed by the trigger and not yet released.
        trig, safe, unlock = (explorer.column(f) for f in plan[1:])
        bad = {0: trig & ~safe & ~unlock, 1: ~safe & ~unlock}
        nxt = {0: (trig & ~unlock).astype(np.intp), 1: (~unlock).astype(np.intp)}
        return bad, nxt

    # pair: 0 before the first letter, else 1 + the previous letter's code,
    # its propositions outside X packed into bits in sorted name order.
    body = plan[1]
    names: set[str] = set()
    _collect_a_props(body, names)
    names = sorted(names)
    codes = zero.copy()
    for bit, name in enumerate(names):
        codes |= explorer.column(Prop(name)).astype(np.intp) << bit
    bad = {0: np.zeros(zero.shape, dtype=bool)}
    for code in set(codes.ravel().tolist()):
        values = {name: bool(code >> bit & 1) for bit, name in enumerate(names)}
        bad[1 + code] = ~explorer.column(_fixed(body, values))
    return bad, dict.fromkeys(bad, 1 + codes)


def _bfs(plan, explorer: _Explorer, state_budget: int):
    """BFS over (monitor state, tracking value) nodes.

    Returns the violation path (letters with baked outputs) and the
    monitor state after it, or (None, None), plus the explored count.
    """
    bad, nxt = _compile(plan, explorer)
    n_values = max(bad) + 1
    letters = np.arange(len(explorer.alphabet))
    start = (explorer.monitor.number[INITIAL_STATE], 0)
    parents: dict = {start: None}
    queue = deque([start])
    explored = 0
    while queue:
        node = queue.popleft()
        explored += 1
        if explored > state_budget:
            raise BudgetError(f"state budget {state_budget} exceeded")
        sid, value = node
        nxt_ids, outs = explorer.row(sid)
        violating = bad[value][outs, letters]
        if violating.any():
            idx = int(np.argmax(violating))
            path = _path(parents, node, explorer) + [explorer.record(idx, outs[idx])]
            return path, explorer.monitor.states[nxt_ids[idx]], explored
        if plan[0] == "initial":
            break  # only position 0 is constrained
        values = nxt[value][outs, letters]
        keys = nxt_ids * n_values + values
        for idx in np.sort(np.unique(keys, return_index=True)[1]).tolist():
            succ = (int(nxt_ids[idx]), int(values[idx]))
            if succ not in parents:
                parents[succ] = (node, idx, int(outs[idx]))
                queue.append(succ)
    return None, None, explored


def _path(parents, node, explorer: _Explorer) -> list[StateRecord]:
    out = []
    while parents[node] is not None:
        node, idx, reset = parents[node]
        out.append(explorer.record(idx, reset))
    out.reverse()
    return out


def _explorer(space: ScaledSpace, guards: GuardFlags, ekr_enabled: bool,
              formulas: Iterable[Formula]) -> _Explorer:
    """An explorer whose alphabet's class key carries every proposition
    ``formulas`` name."""
    props = build_props(space)
    names = _key_names(formulas, props)
    return _Explorer(MonitorConfig.from_layout(space, ekr_enabled), guards,
                     build_alphabet(space, names), props, names)


def _catalogue_explorer(space: ScaledSpace, guards: GuardFlags,
                        ekr_enabled: bool) -> _Explorer:
    """The explorer ``check_catalogue`` and ``find_mutant_violation`` use,
    keyed on every catalogue formula."""
    return _explorer(space, guards, ekr_enabled,
                     [e.formula for e in all_formulas(ekr_enabled)])


def exhaustive_check(formula: Formula, space: ScaledSpace,
                     guards: GuardFlags = DEFAULT_GUARDS,
                     ekr_enabled: bool = True,
                     state_budget: int = 2_000_000,
                     name: str = "",
                     explorer: "_Explorer | None" = None) -> CheckResult:
    """Check a formula over the full reduced-width input space.

    Conjunctions are split and each conjunct is walked on the product. A
    conjunct outside the fragments (see the module docstring) raises
    ``FormulaError`` before any alphabet is built, and so does a
    proposition that is not a ``build_props`` entry; a handed-in
    ``explorer`` whose class key lacks a named proposition raises
    ``ValueError``.
    """
    plans = []
    for conjunct in _flatten_and(formula):
        plan = _plan(conjunct)
        if plan is None:
            raise FormulaError(f"{to_text(conjunct)} is outside the exhaustive "
                               "checker's fragments; it is checked on traces")
        plans.append(plan)
    if explorer is None:
        explorer = _explorer(space, guards, ekr_enabled, [formula])
    outside = _key_names([formula], explorer.props) - explorer.names
    if outside:
        raise ValueError(f"proposition {min(outside)!r} is outside the "
                         "explorer's class key")
    explored_total = 0
    for plan in plans:
        violation, state, explored = _bfs(plan, explorer, state_budget)
        explored_total += explored
        if violation is not None:
            # Close the lasso with quiet letters until the state recurs.
            lead, loop = _quiet_tail(state, len(violation), space,
                                     explorer.cfg, explorer.guards)
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


class _LassoSearch:
    """Bounded lasso enumeration of one formula on one monitor, deciding
    each distinct word once.

    A lasso's word is, at each position, the bits of the formula's
    propositions (``code``) and a mark at the loop start; ``eval_naive``
    reads nothing else. The words seen to hold are a set split above their
    last two positions: ``held`` maps the bits above to a bitmask over the
    low parts, numbered in ``lows``. The width-6 goal search spreads its
    7,080 words over about a thousand high parts and a dozen low parts, so
    this is far smaller than a set of the words. It is a class because a
    recursive closure would be a reference cycle, keeping the memos alive
    until the next full garbage collection.

    Memos: ``rows`` gives (state, letter) -> (state, reset); ``baked``
    keeps each (letter, reset, cycle) record with its code, and ``tails``
    each quiet tail by (end state, prefix length) with its codes packed.
    """

    def __init__(self, formula: Formula, space: ScaledSpace,
                 guards: GuardFlags, ekr_enabled: bool):
        self.formula = formula
        self.space = space
        self.props = build_props(space)
        self.fns = [self.props[p] for p in sorted(check_props(formula, self.props))]
        self.width = len(self.fns) + 1  # per position: the propositions, the mark
        self.alphabet = curated_alphabet(space)
        self.table = _Explorer(MonitorConfig.from_layout(space, ekr_enabled),
                               guards, self.alphabet, self.props)
        self.rows: dict[int, tuple[list[int], list[int]]] = {}
        self.baked: dict[tuple[int, int, int], tuple[StateRecord, int]] = {}
        self.tails: dict[tuple[int, int], tuple[list, list, int, int]] = {}
        self.held: dict[int, int] = {}
        self.lows: dict[int, int] = {}
        self.path: list[StateRecord] = []  # the prefix being extended
        self.explored = 0

    def code(self, rec: StateRecord) -> int:
        return sum(bool(fn(rec)) << bit for bit, fn in enumerate(self.fns))

    def tail(self, sid: int, length: int) -> tuple[list, list, int, int]:
        """The quiet tail after ``length`` letters ending in state ``sid``:
        the records before its loop, the loop, and their bit count and
        codes with the loop start marked."""
        tail = self.tails.get((sid, length))
        if tail is None:
            lead, loop = _quiet_tail(self.table.monitor.states[sid], length, self.space,
                                     self.table.cfg, self.table.guards)
            bits = 0
            for rec in lead + loop:
                bits = bits << self.width | self.code(rec)
            bits |= 1 << (self.width * len(loop) - 1)  # the loop start's mark
            tail = self.tails[sid, length] = (
                lead, loop, self.width * (len(lead) + len(loop)), bits)
        return tail

    def judge(self, word: int, lead: list, loop: list) -> LassoTrace | None:
        """The lasso of ``path``, ``lead`` and ``loop`` if it violates the
        formula; it is evaluated only if its word ``word`` is new."""
        split = 2 * self.width
        high = word >> split
        bit = 1 << self.lows.setdefault(word & ((1 << split) - 1), len(self.lows))
        seen = self.held.get(high, 0)
        if seen & bit:
            return None
        trace = LassoTrace(prefix=self.path + lead, loop=list(loop))
        if not eval_naive(self.formula, trace, 0, self.props):
            return trace
        self.held[high] = seen | bit
        return None

    def extend(self, sid: int, packed: int, length: int) -> LassoTrace | None:
        """Extend ``path`` (ending in monitor state ``sid``, its codes
        ``packed`` after a leading 1) to ``length`` letters in product
        order, judging each lasso; the first violating one, or None."""
        row = self.rows.get(sid)
        if row is None:
            row = self.rows[sid] = tuple(a.tolist() for a in self.table.row(sid))
        path = self.path
        i = len(path)
        for idx, (nxt, out) in enumerate(zip(*row)):
            entry = self.baked.get((idx, out, i))
            if entry is None:
                rec = self.alphabet[idx]._replace(reset=bool(out), cycle=i)
                entry = self.baked[idx, out, i] = (rec, self.code(rec))
            path.append(entry[0])
            word = packed << self.width | entry[1]
            if i + 1 < length:
                found = self.extend(nxt, word, length)
            else:
                self.explored += 1
                lead, loop, shift, bits = self.tail(nxt, length)
                found = self.judge(word << shift | bits, lead, loop)
            path.pop()
            if found is not None:
                return found
        return None


def brute_force_check(formula: Formula, space: ScaledSpace,
                      guards: GuardFlags = DEFAULT_GUARDS,
                      ekr_enabled: bool = True,
                      max_len: int = 5, name: str = "") -> CheckResult:
    """Enumerate every letter sequence up to ``max_len``, close each to a
    lasso with quiet letters, and evaluate the formula directly.

    Complete only to the bound, so a "holds" proves nothing past it: this is
    the independent cross-check for the product exploration, and the search
    ``find_mutant_violation`` runs on formulas outside its fragments.
    Sequences go shortest first, each length in product order, and the
    first violating lasso is returned; ``eval_naive`` runs once per
    distinct word (see ``_LassoSearch``). ``max_len`` below 1 raises
    ``ValueError``.
    """
    if max_len < 1:
        raise ValueError(f"max_len {max_len} is below 1: no lasso to search")
    search = _LassoSearch(formula, space, guards, ekr_enabled)
    start = search.table.monitor.number[INITIAL_STATE]
    for length in range(1, max_len + 1):
        found = search.extend(start, 1, length)
        if found is not None:
            return CheckResult("violated", found, search.explored, name)
    return CheckResult("holds", None, search.explored, name)


def replay_counterexample(formula: Formula, lasso: LassoTrace,
                          space: ScaledSpace,
                          guards: GuardFlags = DEFAULT_GUARDS,
                          ekr_enabled: bool = True) -> bool:
    """Re-step the monitor over the lasso letters and re-evaluate.

    Returns True when the replay reproduces the recorded reset outputs,
    the FSMs are back in their loop-entry states after the loop (so the
    lasso is a run of the monitor), and the formula is violated.
    """
    cfg = MonitorConfig.from_layout(space, ekr_enabled)
    props = build_props(space)
    state = entry = INITIAL_STATE
    for pos, rec in enumerate(lasso.states):
        if pos == lasso.loop_start:
            entry = state
        state, out = monitor_step(state, cfg.letter(rec), guards, ekr_enabled)
        if out != rec.reset:
            return False
    # The last output is no input of the next step: compare the FSMs only.
    if state[:3] != entry[:3]:
        return False
    return not eval_naive(formula, lasso, 0, props)


def check_catalogue(space: ScaledSpace,
                    guards: GuardFlags = DEFAULT_GUARDS,
                    ekr_enabled: bool = True,
                    state_budget: int = 2_000_000) -> list[CheckResult]:
    """Exhaustively check every monitor formula in the catalogue."""
    explorer = _catalogue_explorer(space, guards, ekr_enabled)
    results = []
    for entry in all_formulas(ekr_enabled):
        if entry.name == "e2e-authorized-sensing":
            continue  # before-operator goal; checked on traces
        results.append(exhaustive_check(entry.formula, space, guards,
                                        ekr_enabled, state_budget=state_budget,
                                        name=entry.name, explorer=explorer))
    return results


def find_mutant_violation(mutant_id: str, space: ScaledSpace,
                          ekr_enabled: bool = True,
                          state_budget: int = 2_000_000):
    """Search the catalogue for a formula the mutant violates.

    Returns (formula_name, CheckResult with a replayable counterexample).
    """
    guards = mutant_guards(mutant_id)
    explorer = _catalogue_explorer(space, guards, ekr_enabled)
    for entry in all_formulas(ekr_enabled):
        if _plan_supported(entry.formula):
            result = exhaustive_check(entry.formula, space, guards,
                                      ekr_enabled, state_budget=state_budget,
                                      name=entry.name, explorer=explorer)
        else:
            result = brute_force_check(entry.formula, space, guards,
                                       ekr_enabled, max_len=4, name=entry.name)
        if not result.holds:
            return entry.name, result
    return None, None


def _plan_supported(formula: Formula) -> bool:
    return all(_plan(c) is not None for c in _flatten_and(formula))
