"""Exhaustive product checking, counterexamples, and mutant coverage."""

import hashlib
import time
from itertools import product as iproduct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mcusentry import checker
from mcusentry.catalogue import (all_formulas, authorized_sensing_goal,
                                 builtin_formulas, catalogue_by_name)
from mcusentry.checker import (Alphabet, _bfs, _expand, _quiet_tail,
                               brute_force_check, build_alphabet,
                               check_catalogue, curated_alphabet,
                               default_er_choices, exhaustive_check,
                               find_mutant_violation, first_violation,
                               replay_counterexample, scaled_space)
from mcusentry.errors import BudgetError, FormulaError
from mcusentry.ltl import (And, B, G, Implies, LassoTrace, Not, Or, Prop, U,
                           W, X, check_props, eval_naive, flatten, is_safe,
                           parse, progress)
from mcusentry.machine import StateRecord
from mcusentry import monitor
from mcusentry.monitor import (DEFAULT_GUARDS, INITIAL_STATE, LETTER,
                               CompiledMonitor, compiled_monitor, monitor_step,
                               table_letter)
from mcusentry.mutants import MUTANTS, mutant_guards
from mcusentry.props import build_props

SPACE5 = scaled_space(5)
_GUARD_SETS = [DEFAULT_GUARDS] + [guards for _, guards in MUTANTS.values()]


def test_catalogue_names_and_count():
    entries = builtin_formulas()
    assert len(entries) == 11
    groups = {e.group for e in entries}
    assert {"gpio-read-control", "immutability",
            "atomicity", "key-protection", "end-to-end"} == groups
    assert len(all_formulas()) == 13  # plus two supplementary revocations


def test_catalogue_text_roundtrip():
    from mcusentry.ltl import parse, to_text
    for entry in all_formulas():
        assert parse(to_text(entry.formula)) == entry.formula


def test_monitor_formulas_hold_at_width_5():
    results = check_catalogue(SPACE5)
    assert all(r.holds for r in results)
    assert {r.formula_name for r in results} >= {
        "mon-gpio-read-in-er", "mon-gpio-one-shot", "mon-er-no-irq-dma",
        "e2e-atomic-execution", "mon-revoke-gpio-on-write"}


def test_trivially_true_formula_holds():
    result = exhaustive_check(G(Prop("true")), SPACE5, name="g-true")
    assert result.holds and result.explored_states > 0


def test_trivially_false_formula_gives_counterexample():
    result = exhaustive_check(G(Prop("false")), SPACE5)
    assert not result.holds
    assert result.counterexample is not None


def test_mutants_are_convicted_with_replayable_counterexamples():
    entries = catalogue_by_name()
    for mutant_id in MUTANTS:
        name, result = find_mutant_violation(mutant_id, SPACE5)
        assert name is not None, f"mutant {mutant_id} not convicted"
        assert result.counterexample is not None
        assert replay_counterexample(entries[name].formula,
                                     result.counterexample, SPACE5,
                                     mutant_guards(mutant_id))


def test_counterexample_does_not_replay_on_healthy_monitor():
    entries = catalogue_by_name()
    name, result = find_mutant_violation("irq-dma-ignored", SPACE5)
    assert not replay_counterexample(entries[name].formula,
                                     result.counterexample, SPACE5)


def test_state_budget_is_enforced():
    entry = catalogue_by_name()["mon-gpio-one-shot"]
    with pytest.raises(BudgetError):
        exhaustive_check(entry.formula, SPACE5, state_budget=2)


def accepted_names(space) -> list[str]:
    """Every ``build_props`` entry the exhaustive checker accepts."""
    props = build_props(space)
    names = []
    for name in props:
        try:
            check_props(Prop(name), props)
        except FormulaError:
            continue
        names.append(name)
    return names


def catalogue_names(space) -> frozenset[str]:
    """The propositions the catalogue names, which every check's class key
    carries."""
    props = build_props(space)
    return frozenset().union(*(check_props(e.formula, props) for e in all_formulas()))


def catalogue_alphabet(space) -> Alphabet:
    """The alphabet every catalogue formula over ``space`` is checked on."""
    return build_alphabet(space, catalogue_names(space))


def test_checker_accepts_every_proposition():
    # One record encoding: every table entry can be keyed, and a name
    # outside the table is the only proposition refused.
    props = build_props(SPACE5)
    assert accepted_names(SPACE5) == list(props)
    with pytest.raises(FormulaError, match="unknown proposition 'tag READ GPIO'"):
        exhaustive_check(G(Not(Prop("tag READ GPIO"))), SPACE5)


@pytest.mark.parametrize("width", [5, 6])
def test_every_accepted_proposition_takes_both_values(width):
    # A class key that dropped a named proposition would merge its witness
    # into another class and give a false "holds" for G(!p) or G(p).
    space = scaled_space(width)
    for name in accepted_names(space):
        if name in ("true", "false"):
            continue
        for formula in (G(Not(Prop(name))), G(Prop(name))):
            result = exhaustive_check(formula, space)
            assert not result.holds, (name, formula)
            assert replay_counterexample(formula, result.counterexample, space)


def test_alphabet_is_deduplicated_and_bounded():
    names = catalogue_names(SPACE5)
    alphabet = catalogue_alphabet(SPACE5)
    assert 100 < len(alphabet) < 20000
    keys = set()
    letter_of, props = table_letter(SPACE5), build_props(SPACE5)
    for letter in alphabet:
        key = reference_class_key(letter, letter_of, props, names)
        assert key not in keys
        keys.add(key)


class TestBruteForceAgreement:
    """The product exploration and bounded enumeration must agree."""

    def test_agreement_on_healthy_monitor(self):
        for entry in all_formulas():
            brute = brute_force_check(entry.formula, SPACE5, max_len=3)
            assert brute.holds, entry.name
            if entry.name == "e2e-authorized-sensing":
                continue
            exhaustive = exhaustive_check(entry.formula, SPACE5)
            assert exhaustive.holds == brute.holds, entry.name

    def test_agreement_on_a_violated_guard(self):
        guards = mutant_guards("irq-dma-ignored")
        entry = catalogue_by_name()["mon-er-no-irq-dma"]
        brute = brute_force_check(entry.formula, SPACE5, guards, max_len=3)
        exhaustive = exhaustive_check(entry.formula, SPACE5, guards)
        assert not brute.holds and not exhaustive.holds

    def test_agreement_on_unlock_guard(self):
        guards = mutant_guards("rlock-reads-allowed")
        entry = catalogue_by_name()["mon-gpio-read-in-er"]
        brute = brute_force_check(entry.formula, SPACE5, guards, max_len=3)
        exhaustive = exhaustive_check(entry.formula, SPACE5, guards)
        assert not brute.holds and not exhaustive.holds


def test_formula_text_accepted_by_checker():
    formula = parse("(G (-> (& (read GPIO) (! (pc_in ER))) reset))")
    result = exhaustive_check(formula, SPACE5)
    assert result.holds


@pytest.mark.parametrize("formula", [
    parse("(U (! reset) (pc_at iauth))"),
    parse("(G (-> (read GPIO) (B (pc_at iauth) (read GPIO))))"),
    parse("(! (G (! reset)))"),
    parse("(G (-> (G (! reset)) (! (read GPIO))))"),
    parse("(& (G (! (read EKR))) (| reset (! (W (! irq) reset))))"),
    authorized_sensing_goal()],
    ids=["until", "before", "negated-globally", "globally-in-an-antecedent",
         "negated-weak-until-in-a-conjunct", "e2e-authorized-sensing"])
def test_conjunct_outside_the_fragments_is_refused(formula, monkeypatch):
    # Refused before any alphabet is built, never settled by bounded search.
    def no_alphabet(*args):
        raise AssertionError("alphabet built for a refused formula")
    monkeypatch.setattr(checker, "build_alphabet", no_alphabet)
    monkeypatch.setattr(checker, "brute_force_check", no_alphabet)
    with pytest.raises(FormulaError, match="checked on traces"):
        exhaustive_check(formula, SPACE5)


def test_propositional_formula_skips_brute_force():
    start = time.perf_counter()
    result = exhaustive_check(parse("true"), SPACE5)
    assert result.holds and result.explored_states == 1
    assert time.perf_counter() - start < 2


def test_propositional_counterexample_replays():
    formula = parse("(! reset)")
    result = exhaustive_check(formula, SPACE5)
    assert not result.holds
    assert replay_counterexample(formula, result.counterexample, SPACE5)


def test_replay_refuses_a_lasso_whose_loop_is_no_run_of_the_monitor():
    # After the loop's GPIO read the monitor sits in RESET, not in the state
    # it entered the loop with: the real run goes on resetting (1, 1, ...)
    # and satisfies the formula that this lasso violates.
    er_min, er_max = SPACE5.pmem.start + 4, SPACE5.pmem.start + 8

    def rec(pc, reset, **kw):
        return StateRecord(cycle=0, pc=pc, reset=reset, er_min=er_min,
                           er_max=er_max, **kw)
    lasso = LassoTrace(prefix=[rec(0, False)],
                       loop=[rec(SPACE5.i_auth, False),
                             rec(SPACE5.pmem.end - 1, True, r_en=True,
                                 d_addr=SPACE5.gpio.start)])
    formula = parse("(G (-> reset (X reset)))")
    assert not eval_naive(formula, lasso, 0, build_props(SPACE5))
    assert not replay_counterexample(formula, lasso, SPACE5)


@pytest.mark.parametrize("text", ["true", "(! reset)", "(| reset (! reset))",
                                  "(! (read GPIO))"])
def test_propositional_verdict_matches_brute_force(text):
    # Without a temporal operator only position 0 counts, so sequences of
    # two letters decide as much as the default bound of five.
    formula = parse(text)
    assert exhaustive_check(formula, SPACE5).verdict == \
        brute_force_check(formula, SPACE5, max_len=2).verdict


# ---------------------------------------------------------------------------
# Pinned results of the product exploration at width 5

CATALOGUE_AT_5 = [
    ("mon-gpio-read-in-er", "holds", 8),
    ("mon-gpio-one-shot", "holds", 12),
    ("mon-no-write-at-auth", "holds", 8),
    ("mon-er-exit-at-end", "holds", 8),
    ("mon-er-entry-at-start", "holds", 8),
    ("mon-er-no-irq-dma", "holds", 8),
    ("mon-ekr-read-in-er", "holds", 8),
    ("mon-ekr-one-shot", "holds", 12),
    ("mon-ekr-write-vr-only", "holds", 8),
    ("e2e-atomic-execution", "holds", 16),
    ("mon-revoke-gpio-on-write", "holds", 13),
    ("mon-revoke-ekr-on-write", "holds", 13),
]

CATALOGUE_AT_6 = [
    ("mon-gpio-read-in-er", "holds", 8),
    ("mon-gpio-one-shot", "holds", 12),
    ("mon-no-write-at-auth", "holds", 8),
    ("mon-er-exit-at-end", "holds", 8),
    ("mon-er-entry-at-start", "holds", 8),
    ("mon-er-no-irq-dma", "holds", 8),
    ("mon-ekr-read-in-er", "holds", 8),
    ("mon-ekr-one-shot", "holds", 12),
    ("mon-ekr-write-vr-only", "holds", 8),
    ("e2e-atomic-execution", "holds", 16),
    ("mon-revoke-gpio-on-write", "holds", 13),
    ("mon-revoke-ekr-on-write", "holds", 13),
]

# mutant: (violated formula, explored states, prefix length, loop length)
MUTANTS_AT_5 = {
    "rlock-reads-allowed": ("mon-gpio-read-in-er", 1, 1, 1),
    "unlock-without-auth": ("mon-gpio-one-shot", 9, 4, 1),
    "outside-reads-allowed": ("mon-gpio-read-in-er", 4, 3, 1),
    "exit-reads-allowed": ("mon-gpio-one-shot", 5, 4, 1),
    "no-relock-on-exit": ("mon-gpio-one-shot", 12, 5, 1),
    "no-relock-on-write": ("mon-revoke-gpio-on-write", 14, 5, 1),
    "auth-write-relocks-only": ("mon-no-write-at-auth", 2, 2, 1),
    "entry-anywhere": ("mon-er-entry-at-start", 2, 3, 1),
    "exit-anywhere": ("mon-er-exit-at-end", 3, 2, 1),
    "irq-dma-ignored": ("mon-er-no-irq-dma", 1, 2, 1),
    "ekr-write-anywhere": ("mon-ekr-write-vr-only", 1, 1, 1),
    "ekr-reads-ignored": ("mon-ekr-read-in-er", 1, 1, 1),
}


# mutant: (violated formula, explored states, prefix length, loop length,
# SHA-256 of the counterexample's repr)
MUTANTS_AT_6 = {
    "rlock-reads-allowed": ("mon-gpio-read-in-er", 1, 1, 1,
        "e1fa0651d020d7c0fa53e0998b7ee8ceefd07551d540bb4332858b679b1093dd"),
    "unlock-without-auth": ("mon-gpio-one-shot", 9, 4, 1,
        "0ac822afc2eb29ae45da727fe3b7909c0b6af865737b2fb364180ee2029206e2"),
    "outside-reads-allowed": ("mon-gpio-read-in-er", 4, 3, 1,
        "6cb40f539a54f0f32af39d524ce4e7186755742732c19f29569eb603f4d257ad"),
    "exit-reads-allowed": ("mon-gpio-one-shot", 5, 4, 1,
        "797a82ad96e90afbf97acefddccc42d305ae768478a6f6670ae89d0df729bdbb"),
    "no-relock-on-exit": ("mon-gpio-one-shot", 11, 5, 1,
        "85519eff5341d0cf6d1ff765585d4e5dec055ff507e18725d48c1052b70a43fc"),
    "no-relock-on-write": ("mon-revoke-gpio-on-write", 13, 5, 1,
        "5bf26fe31877fdddbfd15c2584ece38622123324c91b8df1e6e2e54986b60f23"),
    "auth-write-relocks-only": ("mon-no-write-at-auth", 2, 2, 1,
        "5f25f9946cf297625d10d0a4f77f8f8beeac0c7aba1f26a7f53f69d547d2be67"),
    "entry-anywhere": ("mon-er-entry-at-start", 2, 3, 1,
        "2ec1696c3dfaf27144a61aa33be0f0d8987f184d609be514146708a36f64d56f"),
    "exit-anywhere": ("mon-er-exit-at-end", 3, 2, 1,
        "189f65dd019ee3bb35eec265c13c3071309d619132b98ed649abdbc0bdcdc785"),
    "irq-dma-ignored": ("mon-er-no-irq-dma", 1, 2, 1,
        "017dfc29d49b6aff944f0c501171f59704f98db3e8e2e9e09c973f3ccde0410e"),
    "ekr-write-anywhere": ("mon-ekr-write-vr-only", 1, 1, 1,
        "210686568114780e890e6193b7632b4849e710ab3e32dc71765a4d55767f0f1f"),
    "ekr-reads-ignored": ("mon-ekr-read-in-er", 1, 1, 1,
        "d3ac7cfcc03dd421e27907ad836a7b0cbc8273f92bc58583d3b7001d4a6c93d4"),
}


def test_catalogue_results_are_pinned_at_width_5():
    results = check_catalogue(SPACE5)
    assert [(r.formula_name, r.verdict, r.explored_states)
            for r in results] == CATALOGUE_AT_5


@pytest.mark.parametrize("mutant_id", sorted(MUTANTS_AT_5))
def test_mutant_convictions_are_pinned_at_width_5(mutant_id):
    name, result = find_mutant_violation(mutant_id, SPACE5)
    lasso = result.counterexample
    assert (name, result.explored_states, len(lasso.prefix),
            len(lasso.loop)) == MUTANTS_AT_5[mutant_id]


def test_state_budget_is_exact():
    # A budget of exactly the pinned explored count suffices, one less
    # does not; the count includes the node whose letter violates.
    entries = catalogue_by_name()
    explored = {name: count for name, _, count in CATALOGUE_AT_5}
    formula = entries["mon-gpio-one-shot"].formula
    budget = explored["mon-gpio-one-shot"]
    assert exhaustive_check(formula, SPACE5, state_budget=budget).holds
    with pytest.raises(BudgetError):
        exhaustive_check(formula, SPACE5, state_budget=budget - 1)
    name, budget = MUTANTS_AT_5["unlock-without-auth"][:2]
    result = exhaustive_check(entries[name].formula, SPACE5,
                              mutant_guards("unlock-without-auth"),
                              state_budget=budget)
    assert result.verdict == "violated" and result.explored_states == budget


def reference_expand(nxt_ids, outs, nxt_oids):
    """A node's first violating letter and successors by sorting: the
    first index of each distinct (obligation, state) key, in index order."""
    violating = nxt_oids == 0
    bad = int(np.argmax(violating)) if violating.any() else None
    keys = nxt_oids * len(CompiledMonitor.states) + nxt_ids
    firsts = np.sort(np.unique(keys, return_index=True)[1]).tolist()
    return bad, [(i, int(nxt_ids[i]), int(nxt_oids[i]), int(outs[i]))
                 for i in firsts]


@st.composite
def node_rows(draw):
    """One node's row as the walk sees it: next states, reset outputs and
    next obligations, the obligations from a few ids up to 5,000 and
    ``false`` (0) among them or not."""
    n = draw(st.integers(1, 2000))
    pool = draw(st.lists(st.integers(1, 5000), min_size=1, max_size=8))
    if draw(st.booleans()):
        pool.append(0)
    return (draw(arrays(np.uint8, n, elements=st.integers(0, 29))),
            draw(arrays(np.uint8, n, elements=st.integers(0, 1))),
            draw(arrays(np.intp, n, elements=st.sampled_from(pool))))


@settings(max_examples=200, deadline=None)
@given(row=node_rows())
def test_expand_equals_the_sorting_reference(row):
    nxt_ids, outs, nxt_oids = row
    assert _expand(nxt_ids, outs, nxt_oids, int(nxt_oids.max()) + 1) == \
        reference_expand(nxt_ids, outs, nxt_oids)


SPACE6 = scaled_space(6)


def test_catalogue_results_are_pinned_at_width_6():
    results = check_catalogue(SPACE6)
    assert [(r.formula_name, r.verdict, r.explored_states)
            for r in results] == CATALOGUE_AT_6


@pytest.mark.parametrize("mutant_id", sorted(MUTANTS_AT_6))
def test_mutant_convictions_are_pinned_at_width_6(mutant_id):
    name, result = find_mutant_violation(mutant_id, SPACE6)
    lasso = result.counterexample
    assert (name, result.explored_states, len(lasso.prefix), len(lasso.loop),
            hashlib.sha256(repr(lasso).encode()).hexdigest()) \
        == MUTANTS_AT_6[mutant_id]


# Without a key region (guards equal to their own ``keyless()``): the
# catalogue drops its key formulas, and the two key mutants violate none of
# those left.

CATALOGUE_AT_5_KEYLESS = [
    ("mon-gpio-read-in-er", "holds", 8),
    ("mon-gpio-one-shot", "holds", 12),
    ("mon-no-write-at-auth", "holds", 8),
    ("mon-er-exit-at-end", "holds", 8),
    ("mon-er-entry-at-start", "holds", 8),
    ("mon-er-no-irq-dma", "holds", 8),
    ("e2e-atomic-execution", "holds", 16),
    ("mon-revoke-gpio-on-write", "holds", 13),
]

# mutant: (violated formula, explored states, prefix length, loop length,
# SHA-256 of the counterexample's repr), or None
MUTANTS_AT_5_KEYLESS = {
    "rlock-reads-allowed": ("mon-gpio-read-in-er", 1, 1, 1,
        "25f822942710c0ed565b5fa2153143d27f4873b5385b85a454a0776d54b35027"),
    "unlock-without-auth": ("mon-gpio-one-shot", 9, 4, 1,
        "2ca61328808ea168e530569970fd3c085fdfcdf1440e9bbb89e10cebc2f8bbf7"),
    "outside-reads-allowed": ("mon-gpio-read-in-er", 4, 3, 1,
        "12060a5d7c2331561852970cf790fbc792f71b507deaf7dfb8f0536904970767"),
    "exit-reads-allowed": ("mon-gpio-one-shot", 5, 4, 1,
        "7c5b6a8e8b8fa67d9ee475b14547f5ca6816201679c5ce37e94a8451b2fc26f2"),
    "no-relock-on-exit": ("mon-gpio-one-shot", 12, 5, 1,
        "a484048ae8acdacfbc88703c207ecda0cf786bc4ad7d68809b532a2c3e90c73d"),
    "no-relock-on-write": ("mon-revoke-gpio-on-write", 14, 5, 1,
        "79c4b0e1b3a54605ce2019701844ce2f2ebb6d57b8312bd1583505b7101dad34"),
    "auth-write-relocks-only": ("mon-no-write-at-auth", 2, 2, 1,
        "6a4020c0d7ba10abc08be069fbe0c6620a276a61feb8968f69af12a7d0442f43"),
    "entry-anywhere": ("mon-er-entry-at-start", 2, 3, 1,
        "dafa6d2b6dc17e6c36519fed928c3a7be6a1b94707f9435a9ac99940e66946c7"),
    "exit-anywhere": ("mon-er-exit-at-end", 3, 2, 1,
        "5ca48380e4ba7c7d9784c09d2bde4197082820dc549688f943306b611c05f044"),
    "irq-dma-ignored": ("mon-er-no-irq-dma", 1, 2, 1,
        "545804b21db914220266358f796a48e282f490fe9b6459cf205f8f5990f5280d"),
    "ekr-write-anywhere": None,
    "ekr-reads-ignored": None,
}


def test_keyless_catalogue_results_are_pinned_at_width_5():
    results = check_catalogue(SPACE5, DEFAULT_GUARDS.keyless())
    assert [(r.formula_name, r.verdict, r.explored_states)
            for r in results] == CATALOGUE_AT_5_KEYLESS


@pytest.mark.parametrize("mutant_id", sorted(MUTANTS_AT_5_KEYLESS))
def test_keyless_mutant_convictions_are_pinned_at_width_5(mutant_id):
    name, result = first_violation(SPACE5, mutant_guards(mutant_id).keyless())
    if result is None:
        assert name is None and MUTANTS_AT_5_KEYLESS[mutant_id] is None
        return
    lasso = result.counterexample
    assert (name, result.explored_states, len(lasso.prefix), len(lasso.loop),
            hashlib.sha256(repr(lasso).encode()).hexdigest()) \
        == MUTANTS_AT_5_KEYLESS[mutant_id]


_KEY_FORMULAS = {e.name for e in all_formulas() if e.needs_ekr}


@pytest.mark.parametrize("keyless", [False, True])
@pytest.mark.parametrize("mutant_id", ["healthy"] + sorted(MUTANTS))
def test_the_guard_set_alone_decides_the_key_formulas(mutant_id, keyless):
    # Every mutant flips one guard, so only a set with both key guards off
    # (its own keyless()) is a device without a key region.
    guards = DEFAULT_GUARDS if mutant_id == "healthy" else mutant_guards(mutant_id)
    guards = guards.keyless() if keyless else guards
    checked = {r.formula_name for r in check_catalogue(SPACE5, guards)}
    keyed = guards != guards.keyless()
    assert keyed == (not keyless)
    assert (checked & _KEY_FORMULAS) == (_KEY_FORMULAS if keyed else set())


@pytest.mark.parametrize("mutant_id", sorted(MUTANTS))
def test_a_mutant_conviction_is_the_first_violation_of_its_guards(mutant_id):
    assert first_violation(SPACE5, mutant_guards(mutant_id)) == \
        find_mutant_violation(mutant_id, SPACE5)


# ---------------------------------------------------------------------------
# The alphabet against a scalar enumeration of its class key


def reference_class_key(rec: StateRecord, letter_of, props, names) -> tuple:
    """The monitor letter of one record, then each named entry evaluated
    on it."""
    return (letter_of(rec),) + tuple(bool(props[n](rec)) for n in sorted(names))


def reference_alphabet(space, names) -> list[StateRecord]:
    """One record per class, first candidate first, enumerated one
    candidate at a time."""
    letter_of, props = table_letter(space), build_props(space)
    letters: dict[tuple, StateRecord] = {}
    for er_min, er_max in default_er_choices(space):
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
        rw_opts = [(False, False, 0)]
        rw_opts += [(True, False, a) for a in sorted(addrs)]
        rw_opts += [(False, True, a) for a in sorted(addrs)]
        dma_opts = [None] + sorted(addrs)
        for pc, (r_en, w_en, d_addr), dma_addr, irq in iproduct(
                sorted(pcs), rw_opts, dma_opts, (False, True)):
            rec = StateRecord(
                cycle=0, pc=pc, r_en=r_en, w_en=w_en, d_addr=d_addr,
                dma_en=dma_addr is not None, dma_addr=dma_addr or 0,
                irq=irq, er_min=er_min, er_max=er_max)
            letters.setdefault(reference_class_key(rec, letter_of, props, names), rec)
    return list(letters.values())


def assert_alphabet_equals_scalar_enumeration(space, names):
    alphabet = build_alphabet(space, names)
    expected = reference_alphabet(space, names)
    assert len(alphabet) == len(expected)
    for got, want in zip(alphabet, expected):
        assert repr(got) == repr(want)  # field types too, not just values


@pytest.mark.parametrize("width", [5, 6, 7, 8])
def test_alphabet_equals_scalar_enumeration(width):
    space = scaled_space(width)
    assert_alphabet_equals_scalar_enumeration(space, catalogue_names(space))


def test_alphabet_keyed_on_48_names_equals_scalar_enumeration():
    # 48 names and the 17-bit monitor letter: the reference key runs past
    # 63 bits, while the checker's keeps one int64 bit per entry, 49 here. The
    # three entries left out are those that tell a DMA transfer at the
    # metadata apart, so only the letter's own entry among them,
    # ``dma_touch METADATA``, keeps that class.
    names = set(accepted_names(SPACE5)) - {
        "dma_touch METADATA", "read METADATA", "write METADATA"}
    assert len(names) == 48
    assert_alphabet_equals_scalar_enumeration(SPACE5, frozenset(names))


def two_pass_alphabet(space, names) -> list[StateRecord]:
    """The alphabet built window by window: each window's first candidate
    of each class, then the first of each class among those survivors."""
    props, key = build_props(space), sorted(set(LETTER) | names)
    kept = []
    for er_min, er_max in default_er_choices(space):
        columns = checker._candidates(space, er_min, er_max)
        view = SimpleNamespace(**columns)
        keys = np.zeros(view.pc.shape, np.int64)
        for name in key:
            keys = keys << 1 | np.broadcast_to(props[name](view), keys.shape)
        first = np.sort(np.unique(keys, return_index=True)[1])
        kept.append(({name: col[first] for name, col in columns.items()}, keys[first]))
    first = np.sort(np.unique(np.concatenate([keys for _, keys in kept]),
                              return_index=True)[1])
    columns = {name: np.concatenate([c[name] for c, _ in kept])[first].tolist()
               for name in kept[0][0]}
    return [StateRecord(cycle=0, **dict(zip(columns, row)))
            for row in zip(*columns.values())]


@pytest.mark.parametrize("width", [5, 6, 7])
@pytest.mark.parametrize("catalogue, extra", [
    (True, ()), (True, ("cpu_read DMEM", "read ROM")), (False, ("dma_touch PMEM",))])
def test_alphabet_equals_the_per_window_two_pass_reference(width, catalogue, extra):
    # One class pass over every window's candidates keeps the first
    # candidate of a class in the earliest window that has it, in order.
    space = scaled_space(width)
    names = (catalogue_names(space) if catalogue else frozenset()) | frozenset(extra)
    alphabet, expected = build_alphabet(space, names), two_pass_alphabet(space, names)
    assert [repr(letter) for letter in alphabet] == [repr(letter) for letter in expected]


def test_alphabet_columns_equal_the_table_on_each_letter():
    # Every entry the checker accepts, on every third letter of an alphabet
    # keyed on all of them, under both reset outputs.
    props = build_props(SPACE5)
    names = accepted_names(SPACE5)
    alphabet = build_alphabet(SPACE5, frozenset(names))
    for name in names:
        fn = props[name]
        column = alphabet.column(Prop(name))
        assert column.shape == (2, len(alphabet))
        for idx in range(0, len(alphabet), 3):
            for out in (False, True):
                expected = bool(fn(alphabet[idx]._replace(reset=out)))
                assert column[int(out), idx] == expected, (name, idx, out)


# ---------------------------------------------------------------------------
# One alphabet per space, its tables shared by every guard set

_CATALOGUE = [e.formula for e in all_formulas()]
_ALL_GUARD_SETS = list(dict.fromkeys(
    flags for guards in _GUARD_SETS for flags in (guards, guards.keyless())))


def built_alphabets(monkeypatch) -> list[Alphabet]:
    """Every alphabet ``checker.build_alphabet`` returns from now on."""
    built = []
    inner = checker.build_alphabet

    def counted(*args):
        built.append(inner(*args))
        return built[-1]
    monkeypatch.setattr(checker, "build_alphabet", counted)
    return built


def test_each_check_builds_its_alphabet_once_and_the_catalogue_shares_one(
        monkeypatch):
    # The bench spans build_alphabet: every check must call it, even when
    # the alphabet it returns is already kept.
    built = built_alphabets(monkeypatch)
    checks = 0
    for guards in _GUARD_SETS:
        for formula in filter(is_safe, _CATALOGUE):
            exhaustive_check(formula, SPACE5, guards)
            checks += 1
    assert len(built) == checks == 12 * len(_GUARD_SETS)
    assert len({id(alphabet) for alphabet in built}) == 1


def test_guard_sets_share_one_alphabet_and_keep_their_own_rows(monkeypatch):
    built = built_alphabets(monkeypatch)
    healthy, mutant = DEFAULT_GUARDS, mutant_guards("rlock-reads-allowed")
    for guards in (healthy, mutant):
        check_catalogue(SPACE5, guards)
    alphabet = built[0]
    assert all(other is alphabet for other in built)
    assert any((a != b).any() for sid in range(len(CompiledMonitor.states))
               for a, b in zip(alphabet.row(healthy, sid), alphabet.row(mutant, sid)))


def test_walks_over_the_shared_alphabet_equal_walks_over_a_fresh_one():
    # Every guard set walks every safe catalogue conjunct over the one
    # shared alphabet, its tables filled by the guard sets before it.
    assert len(_ALL_GUARD_SETS) == 24
    shared = catalogue_alphabet(SPACE5)
    conjuncts = [c for f in _CATALOGUE for c in flatten(f, And) if is_safe(c)]
    for guards in _ALL_GUARD_SETS:
        for conjunct in conjuncts:
            fresh = Alphabet(tuple(shared), SPACE5, shared.names)
            assert _bfs(conjunct, guards, shared, 10_000) == \
                _bfs(conjunct, guards, fresh, 10_000), (guards, conjunct)


# Safe formulas naming propositions the catalogue does not.
_OUTSIDE_THE_CATALOGUE = [
    "(G (! (cpu_read DMEM)))",
    "(G (-> (dma_touch ROM) (X reset)))",
    "(G (-> (cpu_write PMEM) (X (X (! (read VR))))))",
    "(& (G (! (write ROM))) (X (X (! (dma_touch DMEM)))))",
    "(W (! (cpu_read ER)) (pc_at iauth))",
    "(G (-> (read GPIO) (| (cpu_read DMEM) (X (X reset)))))",
]


@pytest.mark.parametrize("text", _OUTSIDE_THE_CATALOGUE)
def test_a_formula_outside_the_catalogue_checks_alike_on_either_key(
        text, monkeypatch):
    # Every catalogue proposition is a function of the monitor letter, so
    # keying on the catalogue's names as well as the formula's own adds no
    # class: verdict, explored count and counterexample stay as they are.
    formula = parse(text)
    assert check_props(formula, build_props(SPACE5)) - catalogue_names(SPACE5)

    def results() -> list[tuple]:
        checked = [exhaustive_check(formula, SPACE5, guards) for guards in _ALL_GUARD_SETS]
        return [(r.verdict, r.explored_states, repr(r.counterexample)) for r in checked]
    with_catalogue = results()
    monkeypatch.setattr(checker, "_catalogue_key", lambda space: frozenset())
    assert results() == with_catalogue


# ---------------------------------------------------------------------------
# Progression against the semantics, and nested temporal shapes

_CATALOGUE_PROPS = sorted(set().union(*(check_props(e.formula, build_props(SPACE5))
                                        for e in all_formulas())))
_LEAVES = st.sampled_from([Prop(name) for name in _CATALOGUE_PROPS + ["true", "false"]])


@st.composite
def safe_formulas(draw, depth=3, positive=True):
    """Syntactically safe formulas: G and W only under an even number of
    negations, where an implication's antecedent counts as one."""
    kind = draw(st.integers(0, 7)) if depth else 7
    sub = lambda flip=False: draw(  # noqa: E731
        safe_formulas(depth - 1, positive != flip))
    if kind == 0:
        return Not(sub(flip=True))
    if kind in (1, 2):
        return (And, Or)[kind - 1](sub(), sub())
    if kind == 3:
        return Implies(sub(flip=True), sub())
    if kind == 4:
        return X(sub())
    if kind == 5 and positive:
        return G(sub())
    if kind == 6 and positive:
        return W(sub(), sub())
    return draw(_LEAVES)


@st.composite
def letter_lassos(draw):
    """Lassos of 2-6 catalogue-alphabet letters with drawn reset outputs."""
    alphabet = catalogue_alphabet(SPACE5)
    n = draw(st.integers(2, 6))
    records = [draw(st.sampled_from(alphabet))._replace(
        cycle=i, reset=draw(st.booleans())) for i in range(n)]
    loop_start = draw(st.integers(0, n - 1))
    return LassoTrace(prefix=records[:loop_start], loop=records[loop_start:])


@settings(max_examples=300, deadline=None)
@given(f=safe_formulas(), w=letter_lassos())
def test_progression_is_one_step_of_the_semantics(f, w):
    # f holds at 0 iff what it progresses to over w[0] holds at 1.
    props = build_props(SPACE5)
    assert is_safe(f)
    values = {name: bool(props[name](w.states[0])) for name in check_props(f, props)}
    assert eval_naive(f, w, 0, props) == eval_naive(progress(f, values), w, 1, props)


@st.composite
def any_formulas(draw, depth=2):
    """Formulas of every node type over the catalogue propositions, half
    of them leaves, so that the operands of the U or B above change value
    along short lassos."""
    node = draw(st.one_of(st.none(), st.sampled_from([Not, And, Or, Implies,
                                                      X, G, U, W, B])))
    if node is None or not depth:
        return draw(_LEAVES)
    if node in (Not, X, G):
        return node(draw(any_formulas(depth - 1)))
    return node(draw(any_formulas(depth - 1)), draw(any_formulas(depth - 1)))


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from([U, B]), left=any_formulas(), right=any_formulas(),
       w=letter_lassos())
def test_progression_past_the_safe_fragment_is_one_step_of_the_semantics(
        op, left, right, w):
    # The bounded search progresses U and B too, which the walk refuses.
    f = op(left, right)
    props = build_props(SPACE5)
    values = {name: bool(props[name](w.states[0])) for name in check_props(f, props)}
    assert eval_naive(f, w, 0, props) == eval_naive(progress(f, values), w, 1, props)


# Safe shapes beyond G of a propositional, next-step or triggered weak-until
# body: nested next steps, a weak until under a next step, and top-level
# next and weak-until formulas.
_NESTED_SHAPES = [
    "(G (-> (read GPIO) (X (X reset))))",
    "(G (-> (pc_at ermax) (X (X (| (! (read GPIO)) reset)))))",
    "(G (-> reset (X (W (| (! (read GPIO)) reset) (pc_at iauth)))))",
    "(G (-> (pc_at iauth) (X (W (! (write ER)) (pc_at ermin)))))",
    "(W (! (read GPIO)) (pc_at iauth))",
    "(X (X (! reset)))",
]


@pytest.mark.parametrize("text", _NESTED_SHAPES)
def test_nested_shapes_agree_with_bounded_search(text):
    formula = parse(text)
    for guards in _GUARD_SETS:
        result = exhaustive_check(formula, SPACE5, guards)
        if not result.holds:
            assert replay_counterexample(formula, result.counterexample,
                                         SPACE5, guards), guards
        if not brute_force_check(formula, SPACE5, guards, max_len=3).holds:
            assert not result.holds, guards


# ---------------------------------------------------------------------------
# Rows against monitor_step on every letter


def assert_rows_equal_monitor_step(guards, alphabet: Alphabet) -> None:
    """Every reachable state's row against ``monitor_step`` on each letter,
    with the initial state numbered 0."""
    compiled = compiled_monitor(guards)
    letters = [table_letter(alphabet.space)(rec) for rec in alphabet]
    assert compiled.number[INITIAL_STATE] == 0
    reached = [INITIAL_STATE]
    for state in reached:  # grows as the rows reach new states
        ids, outs = alphabet.row(guards, compiled.number[state])
        for idx, letter in enumerate(letters):
            expected = monitor_step(state, letter, guards)
            assert (compiled.states[ids[idx]], bool(outs[idx])) == expected, \
                (state, idx)
            if expected[0] not in reached:
                reached.append(expected[0])


@pytest.mark.parametrize("width", [5, 6])
@pytest.mark.parametrize("ekr_enabled", [True, False])
def test_catalogue_rows_equal_monitor_step(width, ekr_enabled):
    alphabet = catalogue_alphabet(scaled_space(width))
    for guards in _GUARD_SETS:
        assert_rows_equal_monitor_step(
            guards if ekr_enabled else guards.keyless(), alphabet)


@pytest.mark.parametrize("width", [5, 6])
@pytest.mark.parametrize("ekr_enabled", [True, False])
def test_curated_rows_equal_monitor_step(width, ekr_enabled):
    space = scaled_space(width)
    for guards in _GUARD_SETS:
        assert_rows_equal_monitor_step(
            guards if ekr_enabled else guards.keyless(),
            Alphabet(curated_alphabet(space), space))


def test_the_checker_judges_monitor_step_itself(monkeypatch):
    # Rows step the monitor module's own monitor_step on each letter's
    # table_letter int, so a fault there is one the checker sees: made to
    # step under rlock-reads-allowed's guards, the healthy monitor breaks
    # that mutant's formula.
    formula = catalogue_by_name()["mon-gpio-read-in-er"].formula
    shared = catalogue_alphabet(SPACE5)

    def fresh(*args):
        return Alphabet(tuple(shared), SPACE5, shared.names)
    monkeypatch.setattr(checker, "build_alphabet", fresh)
    assert exhaustive_check(formula, SPACE5).holds
    inner, mutant = monitor.monitor_step, mutant_guards("rlock-reads-allowed")
    monkeypatch.setattr(monitor, "monitor_step",
                        lambda state, letter, guards: inner(state, letter, mutant))
    result = exhaustive_check(formula, SPACE5)
    assert result.verdict == "violated" and result.counterexample is not None


def test_a_second_sweep_builds_no_tables(monkeypatch):
    # After one sweep every guard set's tables are kept, so the next sweep
    # steps the FSMs only inside monitor_step (quiet tails and replays).
    def sweep():
        check_catalogue(SPACE5)
        for mutant_id in MUTANTS:
            find_mutant_violation(mutant_id, SPACE5)

    sweep()
    calls = dict.fromkeys(["monitor_step", "step_gpio_fsm", "step_ekr_write_fsm",
                           "step_atomicity_fsm"], 0)

    def counting(module, name):
        inner = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, counted)

    counting(checker, "monitor_step")
    for name in list(calls)[1:]:
        counting(monitor, name)
    sweep()
    assert calls["monitor_step"] > 0
    assert set(calls.values()) == {calls["monitor_step"]}, calls
    info = compiled_monitor.cache_info()
    assert info.currsize <= info.maxsize


# ---------------------------------------------------------------------------
# Bounded search against one eval_naive per lasso


def reference_brute_force(formula, space, guards=DEFAULT_GUARDS,
                          max_len: int = 3) -> tuple[str, int, str]:
    """The bounded search with no word memo, every lasso evaluated: its
    verdict, explored count and counterexample ``repr``."""
    props = build_props(space)
    alphabet = Alphabet(curated_alphabet(space), space)
    rows = {}
    start = CompiledMonitor.number[INITIAL_STATE]
    explored = 0
    for length in range(1, max_len + 1):
        for combo in iproduct(range(len(alphabet)), repeat=length):
            explored += 1
            sid = start
            prefix = []
            for i, idx in enumerate(combo):
                if sid not in rows:
                    rows[sid] = tuple(a.tolist() for a in alphabet.row(guards, sid))
                sid, out = rows[sid][0][idx], rows[sid][1][idx]
                prefix.append(alphabet[idx]._replace(reset=bool(out), cycle=i))
            lead, loop = _quiet_tail(CompiledMonitor.states[sid], length, space, guards)
            lasso = LassoTrace(prefix=prefix + lead, loop=list(loop))
            if not eval_naive(formula, lasso, 0, props):
                return "violated", explored, repr(lasso)
    return "holds", explored, repr(None)


@pytest.mark.parametrize("mutant_id", ["healthy"] + sorted(MUTANTS))
def test_bounded_search_equals_one_evaluation_per_lasso(mutant_id):
    guards = DEFAULT_GUARDS if mutant_id == "healthy" else mutant_guards(mutant_id)
    for entry in all_formulas():
        result = brute_force_check(entry.formula, SPACE5, guards, max_len=3)
        assert (result.verdict, result.explored_states,
                repr(result.counterexample)) == \
            reference_brute_force(entry.formula, SPACE5, guards), entry.name


def test_bounded_search_evaluates_each_obligation_once_per_state(monkeypatch):
    # The width-6 sweep's longest search: its 22,620 lassos progress the
    # goal to a few obligations pending in a few monitor states, and
    # eval_naive judges each (obligation, state) pair's quiet tail once.
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return eval_naive(*args)
    monkeypatch.setattr(checker, "eval_naive", counting)
    entry = catalogue_by_name()["e2e-authorized-sensing"]
    result = brute_force_check(entry.formula, SPACE6,
                               mutant_guards("no-relock-on-write"), max_len=4)
    assert result.holds and result.explored_states == 22_620
    assert 0 < calls <= 40


def test_bounded_search_expands_each_node_once(monkeypatch):
    # The search walks one layer per length: it steps each node of a layer
    # once, and the next layer is the set of their successors. Stepping
    # every prefix instead takes 2,056 steps (1 + 13 + 157 + 1,885 over
    # the four lengths).
    step, stepped = Alphabet.step, []

    def stepping(self, guards, sid, oid):
        nxt_ids, outs, nxt_oids = step(self, guards, sid, oid)
        stepped.append(((sid, oid), set(zip(nxt_ids.tolist(), nxt_oids.tolist()))))
        return nxt_ids, outs, nxt_oids
    monkeypatch.setattr(Alphabet, "step", stepping)
    entry = catalogue_by_name()["e2e-authorized-sensing"]
    result = brute_force_check(entry.formula, SPACE6,
                               mutant_guards("no-relock-on-write"), max_len=4)
    assert result.holds and result.explored_states == 22_620
    assert len(stepped) <= 50
    layer, layers = {stepped[0][0]}, []
    while stepped:
        chunk, stepped = stepped[:len(layer)], stepped[len(layer):]
        nodes = [node for node, _ in chunk]
        assert len(set(nodes)) == len(nodes) and set(nodes) == layer
        layers.append(nodes)
        layer = set().union(*(successors for _, successors in chunk))
    assert len(layers) == 4  # lengths 1 to 4 step layers 0 to 3


@pytest.mark.parametrize("width", [5, 6, 7])
def test_goal_bounded_search_past_the_sweeps_bound(width):
    # Cheap only because clean nodes are searched once: the healthy goal
    # over every lasso of up to 6 of the 12 letters, and the relock mutant,
    # which the sweep's bound of 4 does not convict, convicted at 5.
    space, goal = scaled_space(width), authorized_sensing_goal()
    healthy = brute_force_check(goal, space, max_len=6)
    assert (healthy.verdict, healthy.explored_states) == ("holds", 3_257_436)
    guards = mutant_guards("no-relock-on-write")
    result = brute_force_check(goal, space, guards, max_len=5)
    assert (result.verdict, result.explored_states) == ("violated", 27_270)
    assert replay_counterexample(goal, result.counterexample, space, guards)


@pytest.mark.parametrize("max_len", [0, -1])
def test_bounded_search_refuses_a_bound_below_one(max_len, monkeypatch):
    # An empty search is no "holds": refused before any alphabet is built.
    def no_alphabet(*args):
        raise AssertionError("alphabet built for an empty bound")
    monkeypatch.setattr(checker, "curated_alphabet", no_alphabet)
    with pytest.raises(ValueError, match="max_len"):
        brute_force_check(G(Prop("false")), SPACE5, max_len=max_len)
