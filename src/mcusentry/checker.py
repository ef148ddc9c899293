"""Exhaustive verification of the monitor against the property catalogue.

The input space is reduced to a configurable address width. Letters
(per-cycle signal assignments, including the live window bounds, which are
free inputs the attacker can steer via metadata writes) are generated
concretely from boundary-biased candidate sets and deduplicated by their
predicate vector: the monitor and every catalogue formula observe a letter
only through that vector, so one representative stands for its whole
class. Simultaneous CPU read and write enables are excluded; the machine
never asserts both.

Coverage is exhaustive only over the classes the six curated windows of
``default_er_choices`` produce, not over every realizable class. A
breadth-first search over ``build_alphabet`` at widths 5 to 8 never
reaches the FSM state (rUNLOCK, wUNLOCK, lastER), which needs a hostile
window whose last word is the authorization address. Making the alphabet
complete is ROADMAP open item 4.

Checking walks the reachable product of monitor state with a small amount
of formula-tracking state (previous letter for next-operator formulas, an
armed bit for triggered weak-until formulas), which covers every lasso of
the product implicitly: a safety or weak-until violation shows up on some
reachable edge. Counterexamples are reconstructed as concrete lassos and
replay through the real transition function.

A formula without temporal operators constrains position 0 only, so it
is judged on each letter read from the initial monitor state. Formulas
outside these fragments (the before-operator end-to-end goal) fall back to
bounded lasso enumeration over a curated alphabet.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from itertools import product as iproduct

from .catalogue import all_formulas
from .errors import BudgetError
from .layout import Region
from .ltl import (And, Formula, G, Implies, LassoTrace, Not, Or, Prop, W, X,
                  check_props, eval_naive)
from .machine import StateRecord
from .monitor import (DEFAULT_GUARDS, INITIAL_STATE, GuardFlags, MonitorConfig,
                      MonitorState, monitor_step)
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
        raise ValueError("width below 5 cannot host all regions")
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


_VECTOR_REGIONS = ("gpio", "ekr", "er_metadata", "vr")


def _letter_vector(rec: StateRecord, space: ScaledSpace) -> tuple:
    """Predicate abstraction: everything the monitor or a formula can see."""
    bits = [
        rec.pc == 0,
        rec.pc == space.i_auth,
        rec.pc in space.vr,
        rec.er_min <= rec.pc <= rec.er_max,
        rec.pc == rec.er_min,
        rec.pc == rec.er_max,
        rec.irq,
        rec.dma_en,
        rec.r_en,
        rec.w_en,
    ]
    for name in _VECTOR_REGIONS:
        region = space.region_named(name)
        bits.append(rec.r_en and rec.d_addr in region)
        bits.append(rec.w_en and rec.d_addr in region)
        bits.append(rec.dma_en and rec.dma_addr in region)
    bits.append(rec.r_en and rec.er_min <= rec.d_addr <= rec.er_max)
    bits.append(rec.w_en and rec.er_min <= rec.d_addr <= rec.er_max)
    bits.append(rec.dma_en and rec.er_min <= rec.dma_addr <= rec.er_max)
    return tuple(bits)


def quiet_letter(space: ScaledSpace) -> StateRecord:
    er = default_er_choices(space)[0]
    return StateRecord(cycle=0, pc=space.pmem.end - 1, er_min=er[0], er_max=er[1])


def build_alphabet(space: ScaledSpace,
                   er_choices: list[tuple[int, int]] | None = None) -> list[StateRecord]:
    """Concrete letters, one representative per predicate class."""
    er_choices = er_choices or default_er_choices(space)
    letters: dict[tuple, StateRecord] = {}
    for er_min, er_max in er_choices:
        pcs = {0, space.i_auth, space.vr.start, space.rom.end,
               er_min, er_max, space.pmem.end - 1,
               space.dmem.start, space.gpio.start}
        if er_min < er_max:
            pcs.add(er_min + 1)
        pcs.add(min(er_max + 1, (1 << space.width) - 1))
        addrs = {space.gpio.start, space.gpio.end, space.ekr.start,
                 space.er_metadata.start, space.er_metadata.end,
                 er_min, er_max, min(er_max + 1, (1 << space.width) - 1),
                 space.dmem.start, space.vr.start, 0}
        if er_min < er_max:
            addrs.add(er_min + 1)
        rw_opts: list[tuple[bool, bool, int]] = [(False, False, 0)]
        rw_opts += [(True, False, a) for a in sorted(addrs)]
        rw_opts += [(False, True, a) for a in sorted(addrs)]
        dma_opts: list[int | None] = [None] + sorted(addrs)
        for pc, (r_en, w_en, d_addr), dma_addr, irq in iproduct(
                sorted(pcs), rw_opts, dma_opts, (False, True)):
            rec = StateRecord(
                cycle=0, pc=pc, r_en=r_en, w_en=w_en, d_addr=d_addr,
                dma_en=dma_addr is not None, dma_addr=dma_addr or 0,
                irq=irq, er_min=er_min, er_max=er_max,
            )
            letters.setdefault(_letter_vector(rec, space), rec)
    return list(letters.values())


# ---------------------------------------------------------------------------
# Formula classification


def _is_propositional(f: Formula) -> bool:
    if isinstance(f, Prop):
        return True
    if isinstance(f, Not):
        return _is_propositional(f.sub)
    if isinstance(f, (And, Or, Implies)):
        return _is_propositional(f.left) and _is_propositional(f.right)
    return False


def _is_pair_body(f: Formula) -> bool:
    """Boolean combination of propositions and X(propositional)."""
    if isinstance(f, Prop):
        return True
    if isinstance(f, X):
        return _is_propositional(f.sub)
    if isinstance(f, Not):
        return _is_pair_body(f.sub)
    if isinstance(f, (And, Or, Implies)):
        return _is_pair_body(f.left) and _is_pair_body(f.right)
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
    if _is_pair_body(body):
        return ("pair", body)
    return None


def _eval_prop(f: Formula, rec, props) -> bool:
    if isinstance(f, Prop):
        return bool(props[f.name](rec))
    if isinstance(f, Not):
        return not _eval_prop(f.sub, rec, props)
    if isinstance(f, And):
        return _eval_prop(f.left, rec, props) and _eval_prop(f.right, rec, props)
    if isinstance(f, Or):
        return _eval_prop(f.left, rec, props) or _eval_prop(f.right, rec, props)
    if isinstance(f, Implies):
        return (not _eval_prop(f.left, rec, props)) or _eval_prop(f.right, rec, props)
    raise TypeError(f"not propositional: {f!r}")


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


def _close_lasso(prefix: list[StateRecord], state: MonitorState,
                 space: ScaledSpace, cfg: MonitorConfig,
                 guards: GuardFlags) -> LassoTrace:
    """Extend with quiet letters until the monitor state recurs, then loop."""
    quiet = quiet_letter(space)
    seen: dict[MonitorState, int] = {}
    tail: list[StateRecord] = []
    while state not in seen:
        seen[state] = len(tail)
        state, out = monitor_step(state, quiet, cfg, guards)
        tail.append(replace(quiet, reset=out, cycle=len(prefix) + len(tail)))
    cut = seen[state]
    return LassoTrace(prefix=prefix + tail[:cut], loop=tail[cut:])


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


def _eval_pair_values(f: Formula, a_values: dict, rec_b, props) -> bool:
    if isinstance(f, X):
        return _eval_prop(f.sub, rec_b, props)
    if isinstance(f, Prop):
        return a_values[f.name]
    if isinstance(f, Not):
        return not _eval_pair_values(f.sub, a_values, rec_b, props)
    if isinstance(f, And):
        return _eval_pair_values(f.left, a_values, rec_b, props) and \
            _eval_pair_values(f.right, a_values, rec_b, props)
    if isinstance(f, Or):
        return _eval_pair_values(f.left, a_values, rec_b, props) or \
            _eval_pair_values(f.right, a_values, rec_b, props)
    if isinstance(f, Implies):
        return (not _eval_pair_values(f.left, a_values, rec_b, props)) or \
            _eval_pair_values(f.right, a_values, rec_b, props)
    raise TypeError(f"not a pair body: {f!r}")


class _Explorer:
    """Caches the monitor transition relation over the deduped alphabet so
    several formulas can share one exploration context."""

    def __init__(self, space: ScaledSpace, cfg: MonitorConfig,
                 guards: GuardFlags, alphabet: list[StateRecord],
                 props: dict):
        self.space = space
        self.cfg = cfg
        self.guards = guards
        self.alphabet = alphabet
        self.props = props
        self._trans: dict[tuple[MonitorState, int], tuple[MonitorState, bool]] = {}

    def step(self, mon: MonitorState, idx: int) -> tuple[MonitorState, bool]:
        key = (mon, idx)
        hit = self._trans.get(key)
        if hit is None:
            hit = monitor_step(mon, self.alphabet[idx], self.cfg, self.guards)
            self._trans[key] = hit
        return hit

    def record(self, idx: int, out: bool) -> StateRecord:
        return replace(self.alphabet[idx], reset=out)


def _bfs(plan, explorer: _Explorer, state_budget: int):
    """BFS over (monitor x tracking) nodes; returns a violation path
    (letters with baked outputs) or None, plus the explored-state count."""
    kind = plan[0]
    props = explorer.props
    n_letters = len(explorer.alphabet)
    if kind == "initial":
        # Only position 0 is constrained: every letter read from the
        # initial state, with the reset the monitor outputs on it.
        for idx in range(n_letters):
            _, out = explorer.step(INITIAL_STATE, idx)
            rec = explorer.record(idx, out)
            if not _eval_prop(plan[1], rec, props):
                return [rec], 1
        return None, 1

    local_bad: dict[tuple[int, bool], bool] = {}
    tracker_vals: dict[tuple[int, bool], tuple[bool, bool, bool]] = {}
    a_prop_names: tuple[str, ...] = ()
    a_vals_cache: dict[tuple[int, bool], tuple] = {}
    if kind == "pair":
        names: set[str] = set()
        _collect_a_props(plan[1], names)
        a_prop_names = tuple(sorted(names))

    def letter_info(idx: int, out: bool):
        key = (idx, out)
        if kind == "local":
            val = local_bad.get(key)
            if val is None:
                val = not _eval_prop(plan[1], explorer.record(idx, out), props)
                local_bad[key] = val
            return val
        if kind == "tracker":
            val = tracker_vals.get(key)
            if val is None:
                rec = explorer.record(idx, out)
                val = (_eval_prop(plan[1], rec, props),
                       _eval_prop(plan[2], rec, props),
                       _eval_prop(plan[3], rec, props))
                tracker_vals[key] = val
            return val
        val = a_vals_cache.get(key)
        if val is None:
            rec = explorer.record(idx, out)
            val = tuple(bool(props[name](rec)) for name in a_prop_names)
            a_vals_cache[key] = val
        return val

    start = (INITIAL_STATE, None) if kind != "tracker" else (INITIAL_STATE, False)
    parents: dict = {start: None}
    queue = deque([start])
    explored = 0
    while queue:
        node = queue.popleft()
        explored += 1
        if explored > state_budget:
            raise BudgetError(f"state budget {state_budget} exceeded")
        mon, extra = node
        for idx in range(n_letters):
            nxt_mon, out = explorer.step(mon, idx)
            if kind == "local":
                if letter_info(idx, out):
                    return _path(parents, node) + [explorer.record(idx, out)], explored
                nxt = (nxt_mon, None)
            elif kind == "pair":
                a_vals = letter_info(idx, out)
                if extra is not None:
                    a_values = dict(zip(a_prop_names, extra))
                    rec_b = explorer.record(idx, out)
                    if not _eval_pair_values(plan[1], a_values, rec_b, props):
                        return _path(parents, node) + [rec_b], explored
                nxt = (nxt_mon, a_vals)
            else:  # tracker
                trig, safe, unlock = letter_info(idx, out)
                armed = extra or trig
                if unlock:
                    armed_next = False
                elif armed and not safe:
                    return _path(parents, node) + [explorer.record(idx, out)], explored
                else:
                    armed_next = armed
                nxt = (nxt_mon, armed_next)
            if nxt not in parents:
                parents[nxt] = (node, explorer.record(idx, out))
                queue.append(nxt)
    return None, explored


def _path(parents, node) -> list[StateRecord]:
    out = []
    while parents[node] is not None:
        node, rec = parents[node]
        out.append(rec)
    out.reverse()
    return out


def _final_state(letters: list[StateRecord], cfg, guards) -> MonitorState:
    state = INITIAL_STATE
    for rec in letters:
        state, _ = monitor_step(state, rec, cfg, guards)
    return state


def exhaustive_check(formula: Formula, space: ScaledSpace | None = None,
                     guards: GuardFlags = DEFAULT_GUARDS,
                     ekr_enabled: bool = True,
                     er_choices: list[tuple[int, int]] | None = None,
                     state_budget: int = 2_000_000,
                     name: str = "",
                     explorer: "_Explorer | None" = None) -> CheckResult:
    """Check a formula over the full reduced-width input space.

    Every proposition must name an entry of ``build_props`` (else
    ``FormulaError``). Conjunctions are split and checked piecewise.
    Formulas outside the supported fragment fall back to bounded
    enumeration (see ``brute_force_check``), which is complete only to its
    bound.
    """
    space = space or scaled_space()
    props = build_props(space) if explorer is None else explorer.props
    check_props(formula, props)
    cfg = MonitorConfig.from_layout(space, ekr_enabled)
    if explorer is None:
        explorer = _Explorer(space, cfg, guards,
                             build_alphabet(space, er_choices), props)
    explored_total = 0
    for conjunct in _flatten_and(formula):
        plan = _plan(conjunct)
        if plan is None:
            result = brute_force_check(conjunct, space, guards, ekr_enabled,
                                       name=name)
            explored_total += result.explored_states
            if not result.holds:
                return CheckResult("violated", result.counterexample,
                                   explored_total, name)
            continue
        violation, explored = _bfs(plan, explorer, state_budget)
        explored_total += explored
        if violation is not None:
            state = _final_state(violation, cfg, guards)
            lasso = _close_lasso(violation, state, space, cfg, guards)
            return CheckResult("violated", lasso, explored_total, name)
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


def brute_force_check(formula: Formula, space: ScaledSpace | None = None,
                      guards: GuardFlags = DEFAULT_GUARDS,
                      ekr_enabled: bool = True,
                      alphabet: list[StateRecord] | None = None,
                      max_len: int = 5, name: str = "") -> CheckResult:
    """Enumerate every letter sequence up to ``max_len``, close each to a
    lasso with quiet letters, and evaluate the formula directly.

    Complete only to the bound; used as the independent cross-check for the
    product exploration and as the fallback for formulas it cannot track.
    """
    space = space or scaled_space()
    cfg = MonitorConfig.from_layout(space, ekr_enabled)
    props = build_props(space)
    alphabet = alphabet or curated_alphabet(space)
    explored = 0
    for length in range(1, max_len + 1):
        for combo in iproduct(range(len(alphabet)), repeat=length):
            explored += 1
            state = INITIAL_STATE
            prefix = []
            for i, idx in enumerate(combo):
                letter = alphabet[idx]
                state, out = monitor_step(state, letter, cfg, guards)
                prefix.append(replace(letter, reset=out, cycle=i))
            lasso = _close_lasso(prefix, state, space, cfg, guards)
            if not eval_naive(formula, lasso, 0, props):
                return CheckResult("violated", lasso, explored, name)
    return CheckResult("holds", None, explored, name)


def replay_counterexample(formula: Formula, lasso: LassoTrace,
                          space: ScaledSpace | None = None,
                          guards: GuardFlags = DEFAULT_GUARDS,
                          ekr_enabled: bool = True) -> bool:
    """Re-step the monitor over the lasso letters and re-evaluate.

    Returns True when the replay reproduces both the recorded reset outputs
    and the violation.
    """
    space = space or scaled_space()
    cfg = MonitorConfig.from_layout(space, ekr_enabled)
    props = build_props(space)
    state = INITIAL_STATE
    for rec in list(lasso.prefix) + list(lasso.loop):
        state, out = monitor_step(state, rec, cfg, guards)
        if out != rec.reset:
            return False
    return not eval_naive(formula, lasso, 0, props)


def check_catalogue(space: ScaledSpace | None = None,
                    guards: GuardFlags = DEFAULT_GUARDS,
                    ekr_enabled: bool = True,
                    include_supplementary: bool = True,
                    state_budget: int = 2_000_000) -> list[CheckResult]:
    """Exhaustively check every monitor formula in the catalogue."""
    space = space or scaled_space()
    explorer = _Explorer(space, MonitorConfig.from_layout(space, ekr_enabled),
                         guards, build_alphabet(space), build_props(space))
    results = []
    for entry in all_formulas(ekr_enabled):
        if entry.group == "machine-axioms":
            continue  # tags are recomputed from signals; checked on traces
        if entry.name == "e2e-authorized-sensing":
            continue  # before-operator goal; checked on traces and by fallback
        if entry.supplementary and not include_supplementary:
            continue
        results.append(exhaustive_check(entry.formula, space, guards,
                                        ekr_enabled, state_budget=state_budget,
                                        name=entry.name, explorer=explorer))
    return results


def find_mutant_violation(mutant_id: str, space: ScaledSpace | None = None,
                          ekr_enabled: bool = True,
                          state_budget: int = 2_000_000):
    """Search the catalogue for a formula the mutant violates.

    Returns (formula_name, CheckResult with a replayable counterexample).
    """
    space = space or scaled_space()
    guards = mutant_guards(mutant_id)
    explorer = _Explorer(space, MonitorConfig.from_layout(space, ekr_enabled),
                         guards, build_alphabet(space), build_props(space))
    for entry in all_formulas(ekr_enabled):
        if entry.group == "machine-axioms":
            continue
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
