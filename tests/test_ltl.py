"""Temporal operator semantics, evaluator agreement, and the text format."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcusentry import ltl
from mcusentry.checker import scaled_space
from mcusentry.errors import FormulaError
from mcusentry.layout import default_layout
from mcusentry.ltl import (MAX_NESTING, PROGRAM_CACHE_SIZE, And, B, G,
                           Implies, LassoTrace, Not, Or, Prop, U, W, X,
                           eval_formula, eval_naive, eval_vector, parse,
                           to_text)
from mcusentry.machine import RecordColumns, StateRecord, Trace
from mcusentry.props import build_props


class S:
    def __init__(self, p=False, q=False, r=False):
        self.p, self.q, self.r = p, q, r

    def __repr__(self):
        return f"S({int(self.p)}{int(self.q)}{int(self.r)})"


def lasso(bits: str, loop_start: int) -> LassoTrace:
    """States from 'p'/'q'/'.' per char triplets like 'p q pq .'."""
    states = []
    for chunk in bits.split():
        states.append(S(p="p" in chunk, q="q" in chunk, r="r" in chunk))
    return LassoTrace(prefix=states[:loop_start], loop=states[loop_start:])


P, Q = Prop("p"), Prop("q")


def test_eval_naive_leaves_no_reference_cycle():
    # Without the cyclic collector, the evaluated lasso (with its cached
    # states) must go as soon as the last reference to it does.
    gc.disable()
    try:
        tr = lasso("p", 0)
        ref = weakref.ref(tr)
        assert eval_naive(G(Or(P, X(Q))), tr, 0)
        del tr
        assert ref() is None
    finally:
        gc.enable()


def test_globally_all_true():
    assert eval_naive(G(P), lasso("p p p", 1), 0)


def test_globally_fails_in_loop():
    assert not eval_naive(G(P), lasso("p p .", 1), 0)


def test_weak_until_holds_when_left_forever():
    assert eval_naive(W(P, Q), lasso("p p p", 0), 0)


def test_weak_until_discharged_by_right():
    assert eval_naive(W(P, Q), lasso("p p q .", 3), 0)


def test_until_requires_right_eventually():
    assert not eval_naive(U(P, Q), lasso("p p p", 0), 0)
    assert eval_naive(U(P, Q), lasso("p q .", 2), 0)


def test_next_wraps_into_loop():
    tr = lasso("p q", 1)
    assert eval_naive(X(Q), tr, 0)
    assert eval_naive(X(Q), tr, 1)  # loop successor of the loop is itself


@pytest.mark.parametrize("evaluate", [eval_naive, eval_formula])
@pytest.mark.parametrize("pos", [-1, 3])
def test_a_position_outside_the_unrolled_trace_is_refused(evaluate, pos):
    # Neither a negative index nor one past the end reads a position.
    with pytest.raises(ValueError, match=f"position {pos} outside unrolled trace"):
        evaluate(P, lasso("p . .", 1), pos)


def test_before_needs_strictly_earlier_witness():
    # q at the very first state has no earlier p.
    assert not eval_naive(B(P, Q), lasso("q .", 1), 0)
    assert eval_naive(B(P, Q), lasso("p q .", 2), 0)
    # p and q simultaneous, no earlier p: still a failure.
    assert not eval_naive(B(P, Q), lasso("pq .", 1), 0)
    # q never happens: vacuously fine.
    assert eval_naive(B(P, Q), lasso(". . .", 0), 0)


@st.composite
def formulas(draw, depth=3, names="pqr"):
    if depth == 0:
        return Prop(draw(st.sampled_from(names)))
    kind = draw(st.integers(0, 9))
    sub = lambda: draw(formulas(depth=depth - 1, names=names))  # noqa: E731
    if kind == 0:
        return Not(sub())
    if kind == 1:
        return And(sub(), sub())
    if kind == 2:
        return Or(sub(), sub())
    if kind == 3:
        return Implies(sub(), sub())
    if kind == 4:
        return X(sub())
    if kind == 5:
        return G(sub())
    if kind == 6:
        return U(sub(), sub())
    if kind == 7:
        return W(sub(), sub())
    if kind == 8:
        return B(sub(), sub())
    return Prop(draw(st.sampled_from(names)))


@st.composite
def lassos(draw):
    n = draw(st.integers(1, 8))
    states = [S(draw(st.booleans()), draw(st.booleans()), draw(st.booleans()))
              for _ in range(n)]
    loop_start = draw(st.integers(0, n - 1))
    return LassoTrace(prefix=states[:loop_start], loop=states[loop_start:])


@settings(max_examples=300, deadline=None)
@given(formulas(), lassos())
def test_vectorized_agrees_with_naive(f, tr):
    vec = eval_vector(f, tr)
    for pos in range(tr.length):
        assert bool(vec[pos]) == eval_naive(f, tr, pos)


@st.composite
def long_lassos(draw):
    """Lassos of 1-150 positions, so the evaluator's words cross the 8- and
    64-bit boundaries, with each proposition drawn as runs of equal values
    so that the carry chains of the until operators run long."""
    n = draw(st.one_of(st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65,
                                        127, 128, 129, 150]),
                       st.integers(1, 150)))
    columns = []
    for _ in "pqr":
        column = []
        while len(column) < n:
            column += [draw(st.booleans())] * draw(st.integers(1, n))
        columns.append(column[:n])
    states = [S(*values) for values in zip(*columns)]
    loop_start = draw(st.one_of(st.sampled_from([0, n - 1]),
                                st.integers(0, n - 1)))
    return LassoTrace(prefix=states[:loop_start], loop=states[loop_start:])


@pytest.mark.parametrize("node", [Not, And, Or, Implies, X, G, U, W, B],
                         ids=lambda node: node.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_vectorized_agrees_with_naive_on_long_lassos(node, data):
    tr = data.draw(long_lassos())
    subs = [data.draw(formulas(depth=1)) for _ in range(2)]
    f = node(subs[0]) if node in (Not, X, G) else node(*subs)
    n = tr.length
    positions = {0, tr.loop_start, n - 1}
    positions |= set(data.draw(st.lists(st.integers(0, n - 1), max_size=3)))
    vec = eval_vector(f, tr)
    assert vec.dtype == bool and vec.shape == (n,)
    for pos in sorted(positions):
        assert bool(vec[pos]) == eval_naive(f, tr, pos), pos


@settings(max_examples=1000, deadline=None)
@given(formulas(depth=2), formulas(depth=2), lassos())
def test_weak_until_defining_equivalence(f, g, tr):
    assert eval_naive(W(f, g), tr, 0) == eval_naive(Or(U(f, g), G(f)), tr, 0)


@settings(max_examples=1000, deadline=None)
@given(formulas(depth=2), formulas(depth=2), lassos())
def test_before_defining_equivalence(f, g, tr):
    assert eval_naive(B(f, g), tr, 0) == eval_naive(Not(U(Not(f), g)), tr, 0)


def test_stutter_lift_from_records():
    states = [S(p=True), S(p=True), S(q=True)]
    tr = LassoTrace.from_records(states)
    assert tr.loop == [states[-1]]
    assert eval_naive(G(Or(P, Q)), tr, 0)


def test_stutter_lift_of_a_trace_shares_its_columns():
    records = [StateRecord(cycle=i, pc=2 * i) for i in range(3)]
    trace = Trace(records)
    lifted = LassoTrace.from_records(trace)
    assert lifted == LassoTrace.from_records(records)
    assert lifted.columns is trace.columns
    assert lifted.columns.pc.tolist() == [0, 2, 4]


class TestTextFormat:
    def test_example_formula_parses(self):
        f = parse("(G (-> (read GPIO) (pc_in ER)))")
        assert isinstance(f, G)
        assert f.sub == Implies(Prop("read GPIO"), Prop("pc_in ER"))

    def test_bare_toplevel_operator(self):
        assert parse("G (-> (read GPIO) (pc_in ER))") == \
            parse("(G (-> (read GPIO) (pc_in ER)))")
        assert parse("W p q") == parse("(W p q)")

    def test_roundtrip(self):
        texts = [
            "(G (-> (read GPIO) (pc_in ER)))",
            "(W (| (! (read GPIO)) reset) (pc_at iauth))",
            "(B (& (pc_at iauth) irq) (U reset dmaen))",
            "(X (G (& p (| q r))))",
        ]
        for text in texts:
            f = parse(text)
            assert parse(to_text(f)) == f

    def test_error_positions(self):
        with pytest.raises(FormulaError) as err:
            parse("(G (-> p q)")
        assert err.value.position is not None
        with pytest.raises(FormulaError):
            parse("(G p) trailing")
        with pytest.raises(FormulaError):
            parse(")")

    @pytest.mark.parametrize("text, paren, offset",
                             [("((a)", "(", 1), ("(G ((a))", "(", 4), ("())", ")", 1)])
    def test_a_parenthesis_is_no_operator_or_name(self, text, paren, offset):
        # Where an operator or a proposition name belongs, a parenthesis
        # is refused, not read as the first word of a name.
        with pytest.raises(FormulaError, match=f"unexpected '\\{paren}'") as err:
            parse(text)
        assert err.value.position == offset

    def test_nesting_limit(self):
        deepest = "(G " * MAX_NESTING + "p" + ")" * MAX_NESTING
        assert parse(deepest) is not None
        # Deeper input is refused before it can overflow the recursive parser.
        with pytest.raises(FormulaError):
            parse("(G " * 2000 + "p" + ")" * 2000)


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_text_roundtrip_random(f):
    assert parse(to_text(f)) == f


# ---------------------------------------------------------------------------
# The proposition table against its per-record reference


def reference_props(layout):
    """The proposition table as plain per-record lambdas (``and``, ``or``,
    ``in``): the reference ``build_props`` must agree with on every record,
    whether an entry is applied to one record or to a column view."""
    def region_of(name):
        return getattr(layout, "er_metadata" if name == "METADATA"
                       else name.lower())

    def read_mem(r, region=None):
        lo, hi = (r.er_min, r.er_max) if region is None else (region.start, region.end)
        return (r.r_en and lo <= r.d_addr <= hi) or \
            (r.dma_en and lo <= r.dma_addr <= hi)

    def write_mem(r, region=None):
        lo, hi = (r.er_min, r.er_max) if region is None else (region.start, region.end)
        return (r.w_en and lo <= r.d_addr <= hi) or \
            (r.dma_en and lo <= r.dma_addr <= hi)

    props = {
        "irq": lambda r: r.irq,
        "reset": lambda r: r.reset,
        "dmaen": lambda r: r.dma_en,
        "true": lambda r: True,
        "false": lambda r: False,
        "pc_at zero": lambda r: r.pc == 0,
        "pc_at iauth": lambda r: r.pc == layout.i_auth,
        "pc_at ermin": lambda r: r.pc == r.er_min,
        "pc_at ermax": lambda r: r.pc == r.er_max,
        "pc_in ER": lambda r: r.er_min <= r.pc <= r.er_max,
        "pc_in VR": lambda r: r.pc in layout.vr,
    }
    for name in ("GPIO", "EKR", "METADATA", "VR", "ROM", "PMEM", "DMEM"):
        region = region_of(name)
        props[f"read {name}"] = (lambda r, reg=region: read_mem(r, reg))
        props[f"write {name}"] = (lambda r, reg=region: write_mem(r, reg))
        props[f"cpu_read {name}"] = (lambda r, reg=region: r.r_en and r.d_addr in reg)
        props[f"cpu_write {name}"] = (lambda r, reg=region: r.w_en and r.d_addr in reg)
        props[f"dma_touch {name}"] = (lambda r, reg=region: r.dma_en and r.dma_addr in reg)
    props["read ER"] = read_mem
    props["write ER"] = write_mem
    props["cpu_read ER"] = lambda r: r.r_en and r.er_min <= r.d_addr <= r.er_max
    props["cpu_write ER"] = lambda r: r.w_en and r.er_min <= r.d_addr <= r.er_max
    props["dma_touch ER"] = lambda r: r.dma_en and r.er_min <= r.dma_addr <= r.er_max
    return props


LAYOUT = default_layout()
PROPS = build_props(LAYOUT)
REFERENCE = reference_props(LAYOUT)
_EDGES = sorted({a for r in (LAYOUT.rom, LAYOUT.pmem, LAYOUT.dmem, LAYOUT.gpio,
                             LAYOUT.ekr, LAYOUT.vr, LAYOUT.er_metadata)
                 for e in (r.start, r.end) for a in (e - 1, e, e + 1)
                 if 0 <= a <= 0xFFFF} | {0, LAYOUT.i_auth, 0xFFFF})


@st.composite
def state_records(draw, cycle=0):
    """Records hugging region and window boundaries; windows may be
    inverted or start at 0, and ``executed`` may be ``None``."""
    er_min = draw(st.one_of(st.sampled_from(_EDGES), st.integers(0, 0xFFFF)))
    er_max = draw(st.one_of(st.sampled_from(_EDGES), st.integers(0, 0xFFFF)))
    near = sorted({a for e in (er_min, er_max) for a in (e - 1, e, e + 1)
                   if 0 <= a <= 0xFFFF})
    addr = st.one_of(st.sampled_from(_EDGES + near), st.integers(0, 0xFFFF))
    return StateRecord(
        cycle=cycle, pc=draw(addr), r_en=draw(st.booleans()),
        w_en=draw(st.booleans()), d_addr=draw(addr), dma_en=draw(st.booleans()),
        dma_addr=draw(addr), dma_write=draw(st.booleans()),
        irq=draw(st.booleans()), reset=draw(st.booleans()),
        executed=draw(st.one_of(st.none(), addr)), er_min=er_min, er_max=er_max)


@st.composite
def record_lassos(draw):
    n = draw(st.integers(1, 8))
    records = [draw(state_records(cycle=i)) for i in range(n)]
    loop_start = draw(st.integers(0, n - 1))
    return LassoTrace(prefix=records[:loop_start], loop=records[loop_start:])


def test_table_matches_reference_names():
    assert set(PROPS) == set(REFERENCE)


def test_one_read_only_table_per_layout_value():
    # Built once per layout value: every reader shares the same entries.
    assert build_props(default_layout()) is PROPS
    assert build_props(scaled_space(5)) is build_props(scaled_space(5))
    assert build_props(scaled_space(5)) is not build_props(scaled_space(6))
    with pytest.raises(TypeError):
        PROPS["irq"] = lambda r: False
    with pytest.raises(TypeError):
        PROPS["new"] = lambda r: True
    assert PROPS["irq"](StateRecord(cycle=0, pc=0, irq=True))


@settings(max_examples=150, deadline=None)
@given(st.lists(state_records(), min_size=1, max_size=6))
def test_table_on_records_and_columns_matches_reference(records):
    view = RecordColumns(records)
    for name, fn in PROPS.items():
        expected = [bool(REFERENCE[name](r)) for r in records]
        assert [bool(fn(r)) for r in records] == expected, name
        column = np.empty(len(records), dtype=bool)
        column[...] = fn(view)
        assert column.tolist() == expected, name


_NAMES = sorted(PROPS)


@settings(max_examples=150, deadline=None)
@given(formulas(names=_NAMES), formulas(names=_NAMES), record_lassos())
def test_vectorized_agrees_with_naive_on_records(f, g, tr):
    # Two formulas on one lasso: the second reuses the proposition columns
    # the first left on it.
    for formula in (f, g):
        vec = eval_vector(formula, tr, PROPS)
        for pos in range(tr.length):
            assert bool(vec[pos]) == eval_naive(formula, tr, pos, PROPS)


# ---------------------------------------------------------------------------
# Compiled programs: shared subtrees, several tables, the bounded cache


@st.composite
def sharing_formulas(draw):
    """Two to four formulas over "pqr" built from one pool of subtrees:
    each leaf is a pool entry, taken by reference or as a structurally
    equal copy (parsed back from its text), so equal subtrees recur
    within a formula and across formulas."""
    pool = draw(st.lists(formulas(depth=2), min_size=1, max_size=4))

    def build(depth):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            sub = draw(st.sampled_from(pool))
            return parse(to_text(sub)) if draw(st.booleans()) else sub
        node = draw(st.sampled_from([Not, And, Or, Implies, X, G, U, W, B]))
        if node in (Not, X, G):
            return node(build(depth - 1))
        return node(build(depth - 1), build(depth - 1))

    return [build(3) for _ in range(draw(st.integers(2, 4)))]


# Two tables over the same names, both written to the table contract.
_TABLES = (
    {"p": lambda r: r.irq, "q": lambda r: r.reset,
     "r": lambda r: r.pc == r.er_min},
    {"p": lambda r: r.r_en | r.w_en, "q": lambda r: r.dma_en,
     "r": lambda r: (r.er_min <= r.pc) & (r.pc <= r.er_max)},
)


@settings(max_examples=150, deadline=None)
@given(sharing_formulas(), lassos(), record_lassos())
def test_programs_agree_with_naive_on_shared_subtrees(fs, tr, records):
    # One formula after another on the same lassos: the states' own
    # attributes on ``tr``, and two different tables on ``records``.
    for f in fs:
        for lasso, props in ((tr, None), (records, _TABLES[0]),
                             (records, _TABLES[1])):
            vec = eval_vector(f, lasso, props)
            assert vec.tolist() == [eval_naive(f, lasso, pos, props)
                                    for pos in range(lasso.length)], props


def test_program_cache_stays_at_its_bound():
    tr = lasso("p q pq . p", 2)
    made = []
    for i in range(PROGRAM_CACHE_SIZE + 40):
        f = P
        for bit in bin(i)[2:]:  # a distinct shape per i
            f = X(f) if bit == "1" else Or(Not(f), Q)
        f = W(f, G(Q))
        made.append(f)
        assert eval_vector(f, tr).tolist() == \
            [eval_naive(f, tr, pos) for pos in range(tr.length)], i
        assert len(ltl._PROGRAMS) <= PROGRAM_CACHE_SIZE
    assert len(ltl._PROGRAMS) == PROGRAM_CACHE_SIZE
    # The first formulas were evicted; they compile again, still right.
    assert all(id(f) not in ltl._PROGRAMS for f in made[:40])
    first = made[1]
    assert eval_vector(first, tr).tolist() == \
        [eval_naive(first, tr, pos) for pos in range(tr.length)]
    assert ltl._program(first) is ltl._program(first)
    assert len(ltl._PROGRAMS) == PROGRAM_CACHE_SIZE


def test_program_merges_equal_subtrees():
    # (G (-> p q)) twice, once a parsed copy: one value for both.
    f = And(G(Implies(P, Q)), Or(parse("(G (-> p q))"), X(P)))
    program = ltl._program(f)
    assert program.props == ((0, "p"), (1, "q"))
    assert [step[0] for step in program.steps] == \
        [ltl._IMPLIES, ltl._G, ltl._X, ltl._OR, ltl._AND]
    assert program.size == 7 and program.steps[-1][-1] == 6
