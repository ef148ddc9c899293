"""FSM transition semantics and the composed monitor."""

from collections import defaultdict
from dataclasses import fields, replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mcusentry import referee
from mcusentry.checker import scaled_space
from mcusentry.layout import Region, default_layout
from mcusentry.machine import StateRecord
from mcusentry.monitor import (ATOM_READS, DEFAULT_GUARDS, DMA_EKR, EKR_READS,
                               GPIO_READS, INITIAL_STATE, LETTER, READ_EKR,
                               WRITE_EKR, AtomState, CompiledMonitor, EkrState,
                               GpioState, GuardFlags, Monitor, MonitorState,
                               compiled_monitor, monitor_step,
                               step_atomicity_fsm, step_ekr_write_fsm,
                               step_gpio_fsm, table_letter)
from mcusentry.mutants import MUTANTS
from mcusentry.props import build_props
from mcusentry.scenarios import CATALOGUE

LAYOUT = default_layout()
LETTER_OF = table_letter(LAYOUT)
ER = (0x4000, 0x4004)


def inp(pc=0x5000, r_en=False, w_en=False, d_addr=0, dma_en=False,
        dma_addr=0, irq=False, er=ER):
    return StateRecord(cycle=0, pc=pc, r_en=r_en, w_en=w_en, d_addr=d_addr,
                       dma_en=dma_en, dma_addr=dma_addr, irq=irq,
                       er_min=er[0], er_max=er[1])


PROPS = build_props(LAYOUT)


class TestAccessPredicates:
    def test_cpu_read_in_region(self):
        assert PROPS["read GPIO"](inp(r_en=True, d_addr=LAYOUT.gpio.start))

    def test_all_quiet_is_no_access(self):
        assert not PROPS["read GPIO"](inp())
        assert not PROPS["write GPIO"](inp())

    def test_dma_counts_as_read_and_write(self):
        i = inp(dma_en=True, dma_addr=LAYOUT.gpio.start)
        assert PROPS["read GPIO"](i)
        assert PROPS["write GPIO"](i)

    def test_cpu_write_to_metadata(self):
        i = inp(w_en=True, d_addr=LAYOUT.er_metadata.start)
        assert PROPS["write METADATA"](i)
        assert not PROPS["read METADATA"](i)


class TestGpioFsm:
    def test_reset_leaves_only_at_zero(self):
        assert step_gpio_fsm(GpioState.RESET, LETTER_OF(inp(pc=0x1234))) == \
            (GpioState.RESET, True)
        assert step_gpio_fsm(GpioState.RESET, LETTER_OF(inp(pc=0))) == \
            (GpioState.RLOCK, False)

    def test_locked_unlocks_on_auth_address(self):
        state, reset = step_gpio_fsm(GpioState.RLOCK, LETTER_OF(inp(pc=LAYOUT.i_auth)))
        assert state is GpioState.RUNLOCK and not reset

    def test_locked_read_resets(self):
        state, reset = step_gpio_fsm(
            GpioState.RLOCK, LETTER_OF(inp(dma_en=True, dma_addr=LAYOUT.gpio.start)))
        assert state is GpioState.RESET and reset

    def test_unlocked_outside_read_resets(self):
        state, reset = step_gpio_fsm(
            GpioState.RUNLOCK,
            LETTER_OF(inp(pc=0x5000, r_en=True, d_addr=LAYOUT.gpio.start)))
        assert state is GpioState.RESET and reset

    def test_unlocked_inside_read_allowed(self):
        state, reset = step_gpio_fsm(
            GpioState.RUNLOCK,
            LETTER_OF(inp(pc=0x4002, r_en=True, d_addr=LAYOUT.gpio.start)))
        assert state is GpioState.RUNLOCK and not reset

    def test_read_at_exit_word_resets(self):
        state, reset = step_gpio_fsm(
            GpioState.RUNLOCK,
            LETTER_OF(inp(pc=ER[1], r_en=True, d_addr=LAYOUT.gpio.start)))
        assert state is GpioState.RESET and reset

    def test_exit_relocks(self):
        state, reset = step_gpio_fsm(GpioState.RUNLOCK, LETTER_OF(inp(pc=ER[1])))
        assert state is GpioState.RLOCK and not reset

    def test_metadata_write_revokes(self):
        state, reset = step_gpio_fsm(
            GpioState.RUNLOCK,
            LETTER_OF(inp(pc=0x5000, w_en=True, d_addr=LAYOUT.er_metadata.start)))
        assert state is GpioState.RLOCK and not reset

    def test_write_during_auth_cycle_resets(self):
        for start in (GpioState.RLOCK, GpioState.RUNLOCK):
            state, reset = step_gpio_fsm(
                start, LETTER_OF(inp(pc=LAYOUT.i_auth, dma_en=True,
                                      dma_addr=ER[0])))
            assert state is GpioState.RESET and reset


class TestEkrWriteFsm:
    def test_boot_unlocks(self):
        assert step_ekr_write_fsm(EkrState.RESET, LETTER_OF(inp(pc=0))) == \
            (EkrState.WUNLOCK, False)

    def test_trusted_write_allowed(self):
        state, reset = step_ekr_write_fsm(
            EkrState.WUNLOCK,
            LETTER_OF(inp(pc=LAYOUT.vr.start, w_en=True,
                           d_addr=LAYOUT.ekr.start)))
        assert state is EkrState.WUNLOCK and not reset

    def test_untrusted_write_resets(self):
        state, reset = step_ekr_write_fsm(
            EkrState.WUNLOCK,
            LETTER_OF(inp(pc=0x5000, w_en=True, d_addr=LAYOUT.ekr.start)))
        assert state is EkrState.RESET and reset

    def test_dma_touch_always_resets(self):
        state, reset = step_ekr_write_fsm(
            EkrState.WUNLOCK,
            LETTER_OF(inp(pc=LAYOUT.vr.start, dma_en=True,
                           dma_addr=LAYOUT.ekr.start)))
        assert state is EkrState.RESET and reset


class TestAtomicityFsm:
    def test_entry_at_first_word(self):
        state, reset = step_atomicity_fsm(AtomState.NOT_ER, LETTER_OF(inp(pc=ER[0])))
        assert state is AtomState.FIRST_ER and not reset

    def test_entry_elsewhere_resets(self):
        state, reset = step_atomicity_fsm(AtomState.NOT_ER,
                                          LETTER_OF(inp(pc=ER[0] + 2)))
        assert state is AtomState.RESET and reset

    def test_irq_inside_resets(self):
        state, reset = step_atomicity_fsm(AtomState.MID_ER,
                                          LETTER_OF(inp(pc=ER[0] + 2, irq=True)))
        assert state is AtomState.RESET and reset

    def test_dma_inside_resets(self):
        state, reset = step_atomicity_fsm(
            AtomState.MID_ER,
            LETTER_OF(inp(pc=ER[0] + 2, dma_en=True, dma_addr=0xE000)))
        assert state is AtomState.RESET and reset

    def test_illegal_exit_resets(self):
        state, reset = step_atomicity_fsm(AtomState.MID_ER, LETTER_OF(inp(pc=0x5000)))
        assert state is AtomState.RESET and reset

    def test_legal_walk(self):
        state = AtomState.NOT_ER
        for pc in (ER[0], ER[0] + 2, ER[1], 0x5000):
            state, reset = step_atomicity_fsm(state, LETTER_OF(inp(pc=pc)))
            assert not reset
        assert state is AtomState.NOT_ER

    def test_reentry_from_exit_word(self):
        state, reset = step_atomicity_fsm(AtomState.LAST_ER, LETTER_OF(inp(pc=ER[0])))
        assert state is AtomState.FIRST_ER and not reset
        state, reset = step_atomicity_fsm(AtomState.LAST_ER,
                                          LETTER_OF(inp(pc=ER[0] + 2)))
        assert state is AtomState.RESET and reset

    def test_degenerate_window_enters_exit_state(self):
        er = (0x4000, 0x4000)
        state, reset = step_atomicity_fsm(AtomState.NOT_ER,
                                          LETTER_OF(inp(pc=0x4000, er=er)))
        assert state is AtomState.LAST_ER and not reset
        state, reset = step_atomicity_fsm(state, LETTER_OF(inp(pc=0x5000, er=er)))
        assert state is AtomState.NOT_ER and not reset


class TestComposition:
    def test_global_reset_is_disjunction(self):
        live = MonitorState(GpioState.RLOCK, EkrState.WUNLOCK, AtomState.NOT_ER)
        nxt, reset = monitor_step(live, LETTER_OF(inp()))
        assert not reset
        nxt, reset = monitor_step(
            live, LETTER_OF(inp(r_en=True, d_addr=LAYOUT.gpio.start)))
        assert reset

    def test_any_reset_reinitializes_all_fsms(self):
        live = MonitorState(GpioState.RUNLOCK, EkrState.WUNLOCK, AtomState.NOT_ER)
        nxt, reset = monitor_step(
            live, LETTER_OF(inp(pc=0x5000, w_en=True, d_addr=LAYOUT.ekr.start)))
        assert reset
        assert nxt == INITIAL_STATE == MonitorState(GpioState.RESET, EkrState.RESET,
                                                    AtomState.RESET)

    def test_boot_record_releases_all_fsms(self):
        state = MonitorState()
        nxt, reset = monitor_step(state, LETTER_OF(inp(pc=0)))
        assert not reset
        assert nxt == MonitorState(GpioState.RLOCK, EkrState.WUNLOCK,
                                   AtomState.NOT_ER)

    def test_dirty_boot_record_stays_reset(self):
        state = MonitorState()
        nxt, reset = monitor_step(
            state, LETTER_OF(inp(pc=0, dma_en=True, dma_addr=LAYOUT.gpio.start)))
        assert reset
        assert nxt.gpio is GpioState.RESET


class TestObserverMode:
    def test_live_monitor_keeps_no_log(self, monkeypatch):
        made = []
        for_layout = Monitor.for_layout

        def capture(*args, **kwargs):
            made.append(for_layout(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(referee.Monitor, "for_layout", staticmethod(capture))
        outcome = referee.run_scenario(CATALOGUE["irq-mid-er"]())
        assert outcome.reset_seen and len(outcome.trace) > 0
        assert len(made) == 1
        assert made[0].local_resets_log == []


# Addresses around every boundary the FSMs compare against.
_ADDRS = sorted({0, 2, LAYOUT.i_auth, LAYOUT.vr.start, LAYOUT.gpio.start,
                 LAYOUT.gpio.end - 1, LAYOUT.ekr.start, LAYOUT.er_metadata.start,
                 ER[0] - 2, ER[0], ER[0] + 2, ER[1], ER[1] + 2, 0xE000})


@st.composite
def records(draw):
    access = draw(st.sampled_from(["none", "read", "write"]))
    dma = draw(st.booleans())
    return StateRecord(
        cycle=0, pc=draw(st.sampled_from(_ADDRS)),
        r_en=access == "read", w_en=access == "write",
        d_addr=draw(st.sampled_from(_ADDRS)),
        dma_en=dma, dma_addr=draw(st.sampled_from(_ADDRS)) if dma else 0,
        irq=draw(st.booleans()),
        er_min=draw(st.sampled_from([ER[0], ER[1], LAYOUT.i_auth])),
        er_max=draw(st.sampled_from([ER[0], ER[1], ER[1] + 2])))


@settings(max_examples=150, deadline=None)
@given(stream=st.lists(records(), max_size=40),
       flags=st.lists(st.booleans(), min_size=len(fields(GuardFlags)),
                      max_size=len(fields(GuardFlags))))
def test_monitor_object_matches_folded_monitor_step(stream, flags):
    guards = GuardFlags(*flags)
    monitor = Monitor(LAYOUT, guards)
    state = INITIAL_STATE
    for rec in stream:
        state, out = monitor_step(state, LETTER_OF(rec), guards)
        assert monitor.step(rec) == out
        assert monitor.state == state


# The memoized step against the folded transition function, on records that
# hug every boundary the transition key compares against.
_EVERY_STATE = [MonitorState(*combo) for combo in product(
    GpioState, EkrState, AtomState)]
# The healthy guards, the 12 mutants, and each of those without a key region
# (the two key mutants' keyless sets are the healthy one's).
_GUARD_SETS = [DEFAULT_GUARDS] + [guards for _, guards in MUTANTS.values()]
_GUARD_SETS = list(dict.fromkeys(_GUARD_SETS + [g.keyless() for g in _GUARD_SETS]))
_WINDOWS = [ER, (ER[0], ER[0]), (ER[1], ER[0]), (LAYOUT.i_auth, LAYOUT.i_auth + 4),
            (LAYOUT.gpio.start, LAYOUT.gpio.start + 4)]


def _hugging(*bounds):
    """start-2, start, end and end+2 of each (start, end) pair, in range."""
    out = set()
    for lo, hi in bounds:
        out |= {lo - 2, lo, hi, hi + 2}
    return sorted(a for a in out if 0 <= a <= 0xFFFF)


_FIXED = [(r.start, r.end) for r in (LAYOUT.gpio, LAYOUT.ekr, LAYOUT.er_metadata,
                                     LAYOUT.vr)]


@st.composite
def hugging_streams(draw):
    """Records over a few boundary-hugging addresses and one window (with
    a word inside it), plus pc at i_auth, er_min and er_max."""
    er = draw(st.sampled_from(_WINDOWS))
    pool = draw(st.lists(st.sampled_from(_hugging(*_FIXED, er) + [er[0] + 2]),
                         min_size=1, max_size=4, unique=True))
    pcs = [0, LAYOUT.i_auth, er[0], er[1]] + pool
    stream = []
    for _ in range(draw(st.integers(1, 12))):
        access = draw(st.sampled_from(["none", "read", "write"]))
        dma = draw(st.booleans())
        stream.append(StateRecord(
            cycle=0, pc=draw(st.sampled_from(pcs)),
            r_en=access == "read", w_en=access == "write",
            d_addr=draw(st.sampled_from(pool)),
            dma_en=dma, dma_addr=draw(st.sampled_from(pool)) if dma else 0,
            dma_write=draw(st.booleans()) if dma else False,
            irq=draw(st.booleans()), er_min=er[0], er_max=er[1]))
    return stream, sorted(set(pcs) | set(_hugging(*_FIXED, er)) | {er[0] + 2})


def _twins(rec, key, addrs):
    """Records that differ from ``rec`` in one field, set to one of
    ``addrs`` or flipped, but share its key."""
    changes = [(name, a) for name in ("pc", "d_addr", "dma_addr") for a in addrs]
    changes += [("irq", not rec.irq), ("dma_write", not rec.dma_write)]
    twins = (rec._replace(**{name: value}) for name, value in changes)
    return [t for t in twins if t != rec and key(t) == key(rec)]


@settings(max_examples=100, deadline=None)
@given(drawn=hugging_streams(), guards=st.sampled_from(_GUARD_SETS))
def test_memoized_step_equals_monitor_step_from_every_state(drawn, guards):
    """Each record, then each of its same-key twins, is stepped from all
    30 monitor states, so the twins' lookups hit the record's entries."""
    stream, addrs = drawn
    monitor = Monitor(LAYOUT, guards)
    for original in stream:
        for rec in [original] + _twins(original, LETTER_OF, addrs):
            for state in _EVERY_STATE:
                expected_state, expected_out = monitor_step(
                    state, LETTER_OF(rec), guards)
                monitor.state = state
                assert monitor.step(rec) == expected_out, (state, rec)
                assert monitor.state == expected_state, (state, rec)


def _resets_by_record(monitor, stream):
    """Indices of the resetting records, stepping one record at a time and
    forcing a reset after each, as ``machine.commit`` does."""
    cuts = []
    for i, rec in enumerate(stream):
        if monitor.step(rec):
            cuts.append(i)
            monitor.force_reset()
    return cuts


def _resets_by_run(monitor, stream):
    """The same through ``step_run``, one run cut after each reset, as
    ``machine.commit_run`` cuts and resets a phase's run."""
    cuts, start = [], 0
    while start < len(stream):
        cut = start + monitor.step_run(stream[start:])
        if cut == len(stream):
            break
        cuts.append(cut)
        monitor.force_reset()
        start = cut + 1
    return cuts


@settings(max_examples=150, deadline=None)
@given(drawn=hugging_streams(), guards=st.sampled_from(_GUARD_SETS),
       start=st.sampled_from(_EVERY_STATE))
def test_step_run_equals_step_record_by_record(drawn, guards, start):
    """From every monitor state, under the healthy and every mutant's guard
    set: the run steps from an empty memo (every first letter a miss), then
    from the filled shared one, and both give the per-record steps' first
    reset, resets after it and final state."""
    stream = drawn[0] * 3  # repeats hit entries the run itself filled
    by_record = Monitor(LAYOUT, guards)
    fresh = Monitor(LAYOUT, guards)
    fresh._memo = defaultdict(dict)
    warm = Monitor(LAYOUT, guards)
    for monitor in (by_record, fresh, warm):
        monitor.state = start
    want = _resets_by_record(by_record, stream)
    assert _resets_by_run(fresh, stream) == want
    assert _resets_by_run(warm, stream) == want
    assert fresh.state == warm.state == by_record.state
    assert _memo_entries_equal_monitor_step(fresh._memo, guards)
    first = Monitor(LAYOUT, guards)
    first.state = start
    assert first.step_run(stream) == (want[0] if want else len(stream))


def _memo_entries_equal_monitor_step(memo, guards):
    return all(entry == monitor_step(state, letter, guards)
               for state, row in memo.items() for letter, entry in row.items())


def test_guard_sets_never_share_a_table():
    stream = [inp(pc=0), inp(r_en=True, d_addr=LAYOUT.gpio.start),
              inp(pc=0), inp(pc=LAYOUT.i_auth), inp(pc=ER[0] + 2), inp(pc=ER[0]),
              inp(pc=ER[0] + 2, irq=True), inp(pc=0),
              inp(w_en=True, d_addr=LAYOUT.ekr.start)]
    memos = []
    for guards in _GUARD_SETS:
        monitor = Monitor(LAYOUT, guards)  # steps on its guard set's memo
        memo = compiled_monitor(guards).memo
        assert monitor._memo is memo
        state = INITIAL_STATE
        for rec in stream:
            state, out = monitor_step(state, LETTER_OF(rec), guards)
            assert monitor.step(rec) == out
            assert monitor.state == state
        # The monitor filled this guard set's memo, with its own guards' steps.
        assert memo and _memo_entries_equal_monitor_step(memo, guards)
        memos.append(memo)
    assert len({id(memo) for memo in memos}) == len(_GUARD_SETS)
    # The stream tells the healthy monitor from some mutants.
    assert len({tuple(_outputs(g, stream)) for g in _GUARD_SETS}) > 1


def _outputs(guards, stream):
    monitor = Monitor(LAYOUT, guards)
    return [monitor.step(rec) for rec in stream]


def test_one_memo_per_guards_across_layouts():
    # A letter names comparator outputs, not addresses: monitors over two
    # layouts with equal guards share one memo, and any other guard set has
    # its own.
    layouts = [default_layout(), scaled_space(5)]
    for guards in _GUARD_SETS:
        memo = compiled_monitor(guards).memo
        for layout in layouts:
            monitor = Monitor.for_layout(layout, guards)
            assert monitor._memo is memo
            for rec in [inp(pc=0), inp(pc=layout.i_auth), inp(pc=layout.vr.start),
                        inp(pc=0, w_en=True, d_addr=layout.ekr.start)]:
                monitor.step(rec)
        assert memo and _memo_entries_equal_monitor_step(memo, guards)
        others = [compiled_monitor(g).memo for g in _GUARD_SETS if g != guards]
        assert all(other is not memo for other in others)


# The checker's rows against monitor_step, on arbitrary letters: all 17
# bits drawn, not only the combinations records make.
_LETTERS = st.integers(0, (1 << len(LETTER)) - 1)


@settings(max_examples=100, deadline=None)
@given(letters=st.lists(_LETTERS, min_size=1, max_size=20),
       guards=st.sampled_from(_GUARD_SETS))
def test_successors_equal_monitor_step_from_every_state(letters, guards):
    compiled = compiled_monitor(guards)
    memo = {state: dict(row) for state, row in compiled.memo.items()}
    for state in _EVERY_STATE:
        nxt, out = compiled.successors(compiled.number[state], letters)
        assert [(compiled.states[n], bool(o)) for n, o in zip(nxt, out)] == \
            [monitor_step(state, letter, guards) for letter in letters], state
    # Rows leave the live memo as they found it.
    assert compiled.memo == memo


# Each FSM with the bits it reads, stepped under a guard set.
_FSMS = [
    (GpioState, GPIO_READS, step_gpio_fsm),
    (EkrState, EKR_READS, step_ekr_write_fsm),
    (AtomState, ATOM_READS, step_atomicity_fsm),
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(letter=_LETTERS)
def test_each_fsm_reads_only_the_bits_of_its_table(letter):
    # An FSM steps alike on every letter that agrees on its read bits; a
    # guard that reads one more bit must add it to the mask.
    assert [reads.bit_count() for _, reads, _ in _FSMS] == [12, 4, 6]
    for states, reads, step in _FSMS:
        for bit in range(len(LETTER)):
            if reads >> bit & 1:
                continue
            flipped = letter ^ 1 << bit
            for guards, state in product(_GUARD_SETS, states):
                assert step(state, flipped, guards) == \
                    step(state, letter, guards), (state, LETTER[bit])


def _letters_within(mask: int) -> list[int]:
    """Every letter with no bit outside ``mask``."""
    return [letter for letter in range(mask + 1) if not letter & ~mask]


def test_keyless_guards_ignore_every_key_bit():
    # Without a key region no key access may change a step: each FSM, from
    # each of its states, on every letter of the bits it reads, the key
    # bits cleared or not. The composed step ORs the three, so it too.
    keyless = dict.fromkeys(g.keyless() for g in _GUARD_SETS)
    assert len(keyless) == 11
    for states, reads, step in _FSMS:
        letters = _letters_within(reads)
        cleared = [letter & ~(READ_EKR | WRITE_EKR | DMA_EKR) for letter in letters]
        for guards, state in product(keyless, states):
            assert [step(state, letter, guards) for letter in letters] == \
                [step(state, letter, guards) for letter in cleared], (guards, state)


def test_compiled_monitors_are_kept_per_guard_set():
    assert len(_GUARD_SETS) == 24
    assert compiled_monitor.cache_info().maxsize >= len(_GUARD_SETS)
    compiled = compiled_monitor(DEFAULT_GUARDS)
    assert compiled_monitor(GuardFlags()) is compiled
    assert compiled_monitor(DEFAULT_GUARDS.keyless()) is not compiled
    # The 30 FSM triples in product order, each numbered by its index.
    assert compiled.number[INITIAL_STATE] == 0
    assert compiled.states == tuple(_EVERY_STATE)
    assert list(compiled.number.values()) == list(range(30))


# The letter against the ``props`` entries its bits are named after, on
# records whose addresses hug every bound the letter compares against.
_LETTER_LAYOUTS = [default_layout(), scaled_space(5), scaled_space(6), scaled_space(7),
                   replace(default_layout(), ekr=Region(0xF100, 0xF107))]


@st.composite
def letter_records(draw, layout):
    top = max(r.end for r in (layout.rom, layout.pmem, layout.dmem,
                              layout.gpio, layout.ekr))
    bounds = {0, layout.i_auth, top}
    for region in (layout.gpio, layout.ekr, layout.er_metadata, layout.vr):
        bounds |= {region.start, region.end}
    near = sorted({b + d for b in bounds for d in (-1, 0, 1) if 0 <= b + d <= top})
    er_min, er_max = draw(st.sampled_from(near)), draw(st.sampled_from(near))
    addrs = st.sampled_from(sorted(set(near) | {
        a for b in (er_min, er_max) for a in (b - 1, b, b + 1) if 0 <= a <= top}))
    return StateRecord(
        cycle=0, pc=draw(addrs), r_en=draw(st.booleans()),
        w_en=draw(st.booleans()), d_addr=draw(addrs), dma_en=draw(st.booleans()),
        dma_addr=draw(addrs), dma_write=draw(st.booleans()),
        irq=draw(st.booleans()), reset=draw(st.booleans()),
        er_min=er_min, er_max=er_max)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), layout=st.sampled_from(_LETTER_LAYOUTS))
def test_letter_bits_are_the_named_propositions(data, layout):
    assert len(LETTER) == 17
    recs = data.draw(st.lists(letter_records(layout), min_size=1, max_size=40))
    letter, props = table_letter(layout), build_props(layout)
    for rec in recs:
        assert letter(rec) >> len(LETTER) == 0, rec
        for bit, name in enumerate(LETTER):
            assert bool(letter(rec) >> bit & 1) == bool(props[name](rec)), (name, rec)


def test_letter_tables_are_built_once_per_layout_value():
    layout, again = default_layout(), default_layout()
    assert layout is not again and table_letter(layout) is table_letter(again)
    # A key-less monitor reads the same letters: its guards drop the key bits.
    assert Monitor(layout, DEFAULT_GUARDS.keyless())._letter is table_letter(again)
    assert table_letter(scaled_space(5)) is not table_letter(layout)
    # Each round's Monitor.for_layout is handed the scenarios' one layout, a
    # different object equal to ``layout``.
    built = table_letter.cache_info().misses
    for _ in range(2):
        referee.run_scenario(CATALOGUE["happy-path"]())
    assert table_letter.cache_info().misses == built


def test_live_rounds_build_no_checker_row(monkeypatch):
    # Live misses step through monitor_step, so rounds never build a row of
    # the checker's, and every round after the first steps on the memo the
    # first one compiled.
    built = []
    monkeypatch.setattr(CompiledMonitor, "successors",
                        lambda *args: built.append(args))
    compiled_monitor.cache_clear()
    misses = []
    for make in CATALOGUE.values():
        referee.run_scenario(make())
        misses.append(compiled_monitor.cache_info().misses)
    assert len(misses) == 15 and built == []
    assert misses[0] > 0 and set(misses) == {misses[0]}
