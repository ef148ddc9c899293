"""Exhaustive product checking, counterexamples, and mutant coverage."""

import time
from itertools import product as iproduct

import pytest

from mcusentry.catalogue import all_formulas, builtin_formulas, catalogue_by_name
from mcusentry.checker import (_Explorer, brute_force_check, build_alphabet,
                               check_catalogue, curated_alphabet,
                               default_er_choices, exhaustive_check,
                               find_mutant_violation, replay_counterexample,
                               scaled_space)
from mcusentry.errors import BudgetError
from mcusentry.ltl import G, Prop, parse
from mcusentry.machine import StateRecord
from mcusentry.monitor import DEFAULT_GUARDS, MonitorConfig
from mcusentry.mutants import MUTANTS, mutant_guards
from mcusentry.props import build_props

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


# ---------------------------------------------------------------------------
# Pinned results of the product exploration at width 5

CATALOGUE_AT_5 = [
    ("mon-gpio-read-in-er", "holds", 9),
    ("mon-gpio-one-shot", "holds", 13),
    ("mon-no-write-at-auth", "holds", 9),
    ("mon-er-exit-at-end", "holds", 13),
    ("mon-er-entry-at-start", "holds", 10),
    ("mon-er-no-irq-dma", "holds", 9),
    ("mon-ekr-read-in-er", "holds", 9),
    ("mon-ekr-one-shot", "holds", 13),
    ("mon-ekr-write-vr-only", "holds", 9),
    ("e2e-atomic-execution", "holds", 19),
    ("mon-revoke-gpio-on-write", "holds", 14),
    ("mon-revoke-ekr-on-write", "holds", 14),
]

# mutant: (violated formula, explored states, prefix length, loop length)
MUTANTS_AT_5 = {
    "rlock-reads-allowed": ("mon-gpio-read-in-er", 1, 1, 1),
    "unlock-without-auth": ("mon-gpio-one-shot", 10, 4, 1),
    "outside-reads-allowed": ("mon-gpio-read-in-er", 5, 3, 1),
    "exit-reads-allowed": ("mon-gpio-one-shot", 6, 4, 1),
    "no-relock-on-exit": ("mon-gpio-one-shot", 13, 5, 1),
    "no-relock-on-write": ("mon-revoke-gpio-on-write", 15, 5, 1),
    "auth-write-relocks-only": ("mon-no-write-at-auth", 2, 2, 1),
    "entry-anywhere": ("mon-er-entry-at-start", 2, 3, 1),
    "exit-anywhere": ("mon-er-exit-at-end", 6, 2, 1),
    "irq-dma-ignored": ("mon-er-no-irq-dma", 1, 2, 1),
    "ekr-write-anywhere": ("mon-ekr-write-vr-only", 1, 1, 1),
    "ekr-reads-ignored": ("mon-ekr-read-in-er", 1, 1, 1),
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


# ---------------------------------------------------------------------------
# The alphabet against the scalar enumeration it replaced


def reference_letter_vector(rec: StateRecord, space) -> tuple:
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
    for name in ("gpio", "ekr", "er_metadata", "vr"):
        region = space.region_named(name)
        bits.append(rec.r_en and rec.d_addr in region)
        bits.append(rec.w_en and rec.d_addr in region)
        bits.append(rec.dma_en and rec.dma_addr in region)
    bits.append(rec.r_en and rec.er_min <= rec.d_addr <= rec.er_max)
    bits.append(rec.w_en and rec.er_min <= rec.d_addr <= rec.er_max)
    bits.append(rec.dma_en and rec.er_min <= rec.dma_addr <= rec.er_max)
    return tuple(bits)


def reference_alphabet(space) -> list[StateRecord]:
    """One record per predicate class, first candidate first, enumerated
    one candidate at a time."""
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
            letters.setdefault(reference_letter_vector(rec, space), rec)
    return list(letters.values())


@pytest.mark.parametrize("width", [5, 6, 7, 8])
def test_alphabet_equals_scalar_enumeration(width):
    space = scaled_space(width)
    alphabet = build_alphabet(space)
    expected = reference_alphabet(space)
    assert len(alphabet) == len(expected)
    for got, want in zip(alphabet, expected):
        assert repr(got) == repr(want)  # field types too, not just values


def test_explorer_columns_equal_the_table_on_each_letter():
    # Every table entry, tag entries included, on every letter under both
    # reset outputs; a stride over the letters keeps the per-record tag
    # sets affordable.
    props = build_props(SPACE5)
    alphabet = build_alphabet(SPACE5)
    explorer = _Explorer(MonitorConfig.from_layout(SPACE5), DEFAULT_GUARDS,
                         alphabet, props)
    for name, fn in props.items():
        column = explorer.column(Prop(name))
        assert column.shape == (2, len(alphabet))
        for idx in range(0, len(alphabet), 3):
            for out in (False, True):
                expected = bool(fn(alphabet[idx]._replace(reset=out)))
                assert column[int(out), idx] == expected, (name, idx, out)
