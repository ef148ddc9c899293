"""Temporal operator semantics, evaluator agreement, and the text format."""

import pytest
from hypothesis import given, settings, strategies as st

from mcusentry.errors import FormulaError
from mcusentry.ltl import (MAX_NESTING, And, B, G, Implies, LassoTrace, Not,
                           Or, Prop, U, W, X, eval_naive, eval_vector, parse,
                           to_text)


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


def test_before_needs_strictly_earlier_witness():
    # q at the very first state has no earlier p.
    assert not eval_naive(B(P, Q), lasso("q .", 1), 0)
    assert eval_naive(B(P, Q), lasso("p q .", 2), 0)
    # p and q simultaneous, no earlier p: still a failure.
    assert not eval_naive(B(P, Q), lasso("pq .", 1), 0)
    # q never happens: vacuously fine.
    assert eval_naive(B(P, Q), lasso(". . .", 0), 0)


@st.composite
def formulas(draw, depth=3):
    if depth == 0:
        return Prop(draw(st.sampled_from("pqr")))
    kind = draw(st.integers(0, 9))
    sub = lambda: draw(formulas(depth=depth - 1))  # noqa: E731
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
    return Prop(draw(st.sampled_from("pqr")))


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
