"""Exhaustive product checking, counterexamples, and mutant coverage."""

import time

import pytest

from mcusentry.catalogue import all_formulas, builtin_formulas, catalogue_by_name
from mcusentry.checker import (brute_force_check, build_alphabet,
                               check_catalogue, curated_alphabet,
                               exhaustive_check, find_mutant_violation,
                               replay_counterexample, scaled_space)
from mcusentry.errors import BudgetError
from mcusentry.ltl import G, Prop, parse
from mcusentry.mutants import MUTANTS, mutant_guards

SPACE5 = scaled_space(5)


def test_catalogue_names_and_count():
    entries = builtin_formulas()
    assert len(entries) == 17
    groups = {e.group for e in entries}
    assert {"machine-axioms", "gpio-read-control", "immutability",
            "atomicity", "key-protection", "end-to-end"} == groups
    assert len(all_formulas()) == 19  # plus two supplementary revocations


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


def test_alphabet_is_deduplicated_and_bounded():
    alphabet = build_alphabet(SPACE5)
    assert 100 < len(alphabet) < 20000
    vectors = set()
    from mcusentry.checker import _letter_vector
    for letter in alphabet:
        vec = _letter_vector(letter, SPACE5)
        assert vec not in vectors
        vectors.add(vec)


class TestBruteForceAgreement:
    """The product exploration and bounded enumeration must agree."""

    def test_agreement_on_healthy_monitor(self):
        alphabet = curated_alphabet(SPACE5)
        for entry in all_formulas():
            if entry.group == "machine-axioms":
                continue
            brute = brute_force_check(entry.formula, SPACE5,
                                      alphabet=alphabet, max_len=3)
            assert brute.holds, entry.name
            if entry.name == "e2e-authorized-sensing":
                continue
            exhaustive = exhaustive_check(entry.formula, SPACE5)
            assert exhaustive.holds == brute.holds, entry.name

    def test_agreement_on_a_violated_guard(self):
        guards = mutant_guards("irq-dma-ignored")
        entry = catalogue_by_name()["mon-er-no-irq-dma"]
        brute = brute_force_check(entry.formula, SPACE5, guards,
                                  alphabet=curated_alphabet(SPACE5), max_len=3)
        exhaustive = exhaustive_check(entry.formula, SPACE5, guards)
        assert not brute.holds and not exhaustive.holds

    def test_agreement_on_unlock_guard(self):
        guards = mutant_guards("rlock-reads-allowed")
        entry = catalogue_by_name()["mon-gpio-read-in-er"]
        brute = brute_force_check(entry.formula, SPACE5, guards,
                                  alphabet=curated_alphabet(SPACE5), max_len=3)
        exhaustive = exhaustive_check(entry.formula, SPACE5, guards)
        assert not brute.holds and not exhaustive.holds


def test_formula_text_accepted_by_checker():
    formula = parse("(G (-> (& (read GPIO) (! (pc_in ER))) reset))")
    result = exhaustive_check(formula, SPACE5)
    assert result.holds


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


@pytest.mark.parametrize("text", ["true", "(! reset)", "(| reset (! reset))",
                                  "(! (read GPIO))"])
def test_propositional_verdict_matches_brute_force(text):
    # Without a temporal operator only position 0 counts, so sequences of
    # two letters decide as much as the default bound of five.
    formula = parse(text)
    assert exhaustive_check(formula, SPACE5).verdict == \
        brute_force_check(formula, SPACE5, max_len=2).verdict
