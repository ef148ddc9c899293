"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Corpus sizes follow the
stated bounds (ten thousand randomized traces/scenarios/messages, the full
reduced-width input space for the monitor, the exhaustive program grid for
the oracle agreement). Tolerances are pinned in the asserts.
"""
from __future__ import annotations

import random
import time

import numpy as np
from hypothesis import given, settings

from machine_facts import (FACTS, MUTANTS as MACHINE_MUTANTS, FactHarness,
                           bare_runs, catalogue_rounds, random_rounds, run_bare)
from mcusentry.catalogue import all_formulas, builtin_formulas, catalogue_by_name
from mcusentry.checker import (build_alphabet, check_catalogue,
                               find_mutant_violation, replay_counterexample,
                               scaled_space)
from mcusentry.crypto import (decrypt_output, derive_enc_key, encrypt_output,
                              hmac_sha256, token_mac)
from mcusentry.isa import HALT, JMP, JMP_R, LOAD_R, NOP, assemble
from mcusentry.layout import ErWindow, default_layout
from mcusentry.ltl import LassoTrace, Prop, check_props, eval_vector
from mcusentry.machine import (DmaRequest, Machine, RunContext, load_image,
                               run)
from mcusentry.monitor import (AtomState, Monitor, step_atomicity_fsm,
                               table_letter)
from mcusentry.mutants import MUTANTS, mutant_guards
from mcusentry.oracle import atomic_exec_oracle, monitor_flagged_episode
from mcusentry.programs import SENSOR_MARKER
from mcusentry.props import build_props
from mcusentry.protocol import (AuthorizationMessage, authorize_ctrl, install,
                                verify_dev, verify_record_count)
from mcusentry.referee import DEFAULT_KEY, run_campaign, run_scenario
from mcusentry.scenarios import CATALOGUE, random_plan

LAYOUT = default_layout()
RANDOM_TRACES = 10_000
RANDOM_SCENARIOS = 10_000
RANDOM_MESSAGES = 10_000
CHECK_WIDTH = 6
FACT_PLANS = 1_000
FACT_PROGRAMS = 500


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_exhaustive_monitor_verification():
    """All monitor properties hold over the full reduced-width space and
    every single-guard mutant is convicted with a replayable counterexample."""
    t0 = time.time()
    space = scaled_space(CHECK_WIDTH)
    results = check_catalogue(space)
    holds = [r for r in results if r.holds]
    construction = [r for r in results
                    if r.formula_name.startswith("mon-")
                    and not r.formula_name.startswith("mon-revoke")]
    entries = catalogue_by_name()
    convicted = 0
    replayed = 0
    for mutant_id in MUTANTS:
        name, result = find_mutant_violation(mutant_id, space)
        if name is None:
            continue
        convicted += 1
        replayed += replay_counterexample(
            entries[name].formula, result.counterexample, space,
            mutant_guards(mutant_id))
    elapsed = time.time() - t0
    # Every proposition the catalogue's class key carries must take both
    # values on its alphabet, or the check could not witness it.
    props = build_props(space)
    alphabet = build_alphabet(space, frozenset().union(
        *(check_props(e.formula, props) for e in all_formulas())))
    keyed = sorted(alphabet.names - {"true", "false"})
    constant = [name for name in keyed
                if len(np.unique(alphabet.column(Prop(name)))) < 2]
    ok = (len(holds) == len(results) and len(construction) == 9
          and convicted == len(MUTANTS) == replayed and len(MUTANTS) >= 9
          and elapsed < 60 and not constant)
    _report(1, ok, f"{len(construction)} construction formulas + "
                   f"{len(results) - len(construction)} more hold with zero "
                   f"counterexamples at width {CHECK_WIDTH}; "
                   f"{convicted}/{len(MUTANTS)} mutants convicted "
                   f"({replayed} replayed) in {elapsed:.1f}s; "
                   f"{len(alphabet)} letters, "
                   f"{len(keyed) - len(constant)}/{len(keyed)} keyed "
                   f"propositions two-valued")
    assert not constant, constant
    assert len(holds) == len(results)
    assert len(construction) == 9
    assert convicted == len(MUTANTS) >= 9
    assert replayed == convicted
    assert elapsed < 60


def test_criterion_2_construction_implies_goals():
    """Over ten thousand randomized traces, every trace satisfying the nine
    construction properties also satisfies both end-to-end goals."""
    props = build_props(LAYOUT)
    entries = [e for e in all_formulas()
               if e.group != "end-to-end"
               and not e.supplementary]
    goals = [e for e in builtin_formulas() if e.group == "end-to-end"]
    assert len(entries) == 9 and len(goals) == 2
    satisfying = 0
    exceptions = 0
    for i in range(RANDOM_TRACES):
        outcome = run_scenario(random_plan(2_001, i), check_goal=False)
        if not outcome.trace.records:
            continue
        lasso = LassoTrace.from_records(outcome.trace)
        if all(bool(eval_vector(e.formula, lasso, props)[0]) for e in entries):
            satisfying += 1
            if not all(bool(eval_vector(g.formula, lasso, props)[0])
                       for g in goals):
                exceptions += 1
    ok = exceptions == 0 and satisfying > 0
    _report(2, ok, f"{satisfying}/{RANDOM_TRACES} traces satisfy the "
                   f"construction set; {exceptions} fail the end-to-end goals")
    assert satisfying > 0
    assert exceptions == 0


def test_criterion_3_game_has_no_winners():
    """Zero adversary wins across the catalogue and ten thousand randomized
    rounds; no un-reset GPIO read ever occurs outside an authorized run."""
    results = run_campaign(names=None, random_count=RANDOM_SCENARIOS, seed=3_001)
    wins = [r["name"] for r in results if r["adversary_wins"]]
    violations = [r["name"] for r in results if r["goal_violations"]]
    ok = not wins and not violations and len(results) >= RANDOM_SCENARIOS + 12
    _report(3, ok, f"{len(results)} rounds ({len(CATALOGUE)} catalogue + "
                   f"{RANDOM_SCENARIOS} randomized): {len(wins)} wins, "
                   f"{len(violations)} sensing-goal violations")
    assert len(CATALOGUE) >= 14
    assert not wins
    assert not violations


def test_criterion_4_oracle_agrees_with_monitor():
    """Exhaustive agreement between the atomicity oracle and the atomicity
    FSM over every program of six one-word instructions from a four-opcode
    subset around a three-word window, under four interference schedules."""
    er = ErWindow(0x4000, 0x4004)
    slots = [0x3FFC, 0x3FFE, 0x4000, 0x4002, 0x4004, 0x4006]
    subset = [NOP(), LOAD_R(0, 1), JMP_R(2), HALT()]
    rom = assemble([JMP(slots[0])])
    schedules = [
        ((), ()),
        ((2,), ()),
        ((), (DmaRequest(2, "read", 0xE000),)),
        ((4,), (DmaRequest(3, "write", 0xE002, 0x55),)),
    ]
    letter = table_letter(LAYOUT)
    disagreements = 0
    runs = 0
    for code in range(len(subset) ** len(slots)):
        picks = []
        c = code
        for _ in slots:
            picks.append(subset[c % len(subset)])
            c //= len(subset)
        image = bytearray(slots[-1] + 2)
        for addr, instr in zip(slots, picks):
            image[addr:addr + 2] = assemble([instr])
        for irq_cycles, dma in schedules:
            machine = load_image(LAYOUT, bytes(image), er, rom=rom)
            machine.gpr[1] = LAYOUT.gpio.start
            machine.gpr[2] = 0x4002
            ctx = RunContext.build(dma=dma, irq_cycles=irq_cycles)
            trace = run(machine, None, ctx, 30)
            runs += 1
            oracle = atomic_exec_oracle(trace.records, er)
            # The atomicity FSM alone, sent back to RESET by each machine reset.
            state, atom_flags = AtomState.RESET, []
            for rec in trace.records:
                state, flag = step_atomicity_fsm(state, letter(rec))
                atom_flags.append(flag)
                if rec.reset:
                    state = AtomState.RESET
            flagged = monitor_flagged_episode(trace.records, er, atom_flags)
            if oracle == flagged:  # agree means oracle <=> not flagged
                disagreements += 1
    ok = disagreements == 0
    _report(4, ok, f"{runs} exhaustive runs "
                   f"({len(subset)}^{len(slots)} programs x "
                   f"{len(schedules)} schedules): {disagreements} disagreements")
    assert disagreements == 0


def test_criterion_5_token_security():
    """Ten thousand tampered, replayed, or stale messages are all rejected;
    fresh legitimate messages are all accepted."""
    rng = random.Random(5_001)
    binary = assemble([NOP(), NOP(), HALT()])
    er = ErWindow(0x4000, 0x4000 + len(binary) - 2)
    machine = load_image(LAYOUT, b"", er)
    machine.pc = 0
    monitor = None  # protocol-level campaign; the monitor is exercised elsewhere
    false_accepts = 0
    false_rejects = 0
    counter = 0
    accepted_fresh = 0
    used: list[AuthorizationMessage] = []
    for i in range(RANDOM_MESSAGES):
        kind = rng.randrange(4) if used else rng.randrange(2)
        if kind == 0:  # fresh legitimate
            msg, counter = authorize_ctrl(DEFAULT_KEY, counter, binary)
            install(msg, machine, er)
            ok, _ = verify_dev(DEFAULT_KEY, machine, monitor)
            false_rejects += not ok
            accepted_fresh += ok
            used.append(msg)
        elif kind == 1:  # tampered field
            msg, counter = authorize_ctrl(DEFAULT_KEY, counter, binary)
            which = rng.randrange(3)
            if which == 0:
                body = bytearray(msg.binary)
                body[rng.randrange(len(body))] ^= 1 << rng.randrange(8)
                bad = AuthorizationMessage(bytes(body), msg.chal, msg.token)
            elif which == 1:
                token = bytearray(msg.token)
                token[rng.randrange(32)] ^= 1 << rng.randrange(8)
                bad = AuthorizationMessage(msg.binary, msg.chal, bytes(token))
            else:
                bad = AuthorizationMessage(msg.binary,
                                           msg.chal + 1 + rng.randrange(50),
                                           msg.token)
            install(bad, machine, er)
            ok, _ = verify_dev(DEFAULT_KEY, machine, monitor)
            false_accepts += ok
        elif kind == 2:  # replay of a consumed message
            install(rng.choice(used), machine, er)
            ok, _ = verify_dev(DEFAULT_KEY, machine, monitor)
            false_accepts += ok
        else:  # stale: correctly formed token under an already-passed challenge
            base = rng.choice(used)
            stale_chal = rng.randrange(max(1, base.chal))
            bad = AuthorizationMessage(
                binary, stale_chal, token_mac(DEFAULT_KEY, stale_chal, binary))
            install(bad, machine, er)
            ok, _ = verify_dev(DEFAULT_KEY, machine, monitor)
            false_accepts += ok
    ok_flag = false_accepts == 0 and false_rejects == 0 and accepted_fresh > 0
    _report(5, ok_flag, f"{RANDOM_MESSAGES} messages "
                        f"({accepted_fresh} fresh accepted): "
                        f"false accepts {false_accepts}, "
                        f"false rejects {false_rejects}")
    assert false_accepts == 0
    assert false_rejects == 0
    assert accepted_fresh > 0


def test_criterion_6_verify_cost_is_affine():
    """Verification record counts over window sizes 64..1024 bytes fit an
    affine model with a coefficient of determination of at least 0.99."""
    spans = [64, 128, 256, 512, 1024]
    counts = []
    for span in spans:
        binary = bytes(assemble([NOP()] * (span // 2 - 1) + [HALT()]))
        er = ErWindow(0x4000, 0x4000 + span - 2)
        machine = load_image(LAYOUT, b"", er)
        msg, _ = authorize_ctrl(DEFAULT_KEY, 0, binary)
        install(msg, machine, er)
        ok, records = verify_dev(DEFAULT_KEY, machine, None)
        assert ok
        assert len(records) == verify_record_count(span)
        counts.append(len(records))
    x = np.asarray(spans, dtype=float)
    y = np.asarray(counts, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot
    ok = r_squared >= 0.99 and slope > 0
    _report(6, ok, f"record counts {counts} over spans {spans}: "
                   f"slope {slope:.3f}/byte, R^2 {r_squared:.6f}")
    assert slope > 0
    assert r_squared >= 0.99


def test_criterion_7_erasure_and_cleanup():
    """Data RAM is entirely zero at the first instant after every reset, and
    the sensing binary leaves no marker byte sequence behind."""
    dmem = LAYOUT.dmem
    observed = []

    def scan(machine: Machine) -> None:
        block = bytes(machine.memory[dmem.start:dmem.end + 1])
        observed.append(not any(block))

    reset_rounds = 0
    for name, factory in CATALOGUE.items():
        plan = factory()
        outcome = run_scenario(plan, check_goal=False, on_reset=scan)
        reset_rounds += outcome.reset_seen
    for i in range(300):
        run_scenario(random_plan(7_001, i), check_goal=False, on_reset=scan)
    dirty = observed.count(False)

    # Self-cleanup: after the full sensing run, no marker fragment survives.
    from mcusentry.scenarios import OUT_BUF, happy_path
    from mcusentry.protocol import xsensing
    plan = happy_path()
    machine = load_image(plan.layout, plan.image, plan.er, rom=plan.rom)
    monitor = Monitor.for_layout(plan.layout)
    from mcusentry.machine import SequenceSensor
    sensor = SequenceSensor(SENSOR_MARKER)
    run(machine, monitor, RunContext.build(sensor=sensor), plan.boot_cycles)
    msg, _ = authorize_ctrl(DEFAULT_KEY, 0, plan.binary, plan.er.byte_span)
    install(msg, machine, plan.er, monitor)
    ok_verify, _ = verify_dev(DEFAULT_KEY, machine, monitor)
    trace, sensed = xsensing(machine, monitor,
                             RunContext.build(sensor=sensor),
                             plan.xsensing_cycles)
    block = bytes(machine.memory[dmem.start:dmem.end + 1])
    fragments = sum(SENSOR_MARKER[i:i + 4] in block
                    for i in range(len(SENSOR_MARKER) - 3))
    ciphertext = bytes(machine.memory[OUT_BUF:OUT_BUF + 32])
    recovered = bytes(c ^ p for c, p in
                      zip(ciphertext, derive_enc_key(DEFAULT_KEY, msg.chal)))
    ok = (dirty == 0 and len(observed) > 0 and reset_rounds > 0
          and ok_verify and sensed and fragments == 0
          and recovered == SENSOR_MARKER)
    _report(7, ok, f"{len(observed)} resets observed, {dirty} with dirty RAM; "
                   f"marker fragments after cleanup: {fragments}; "
                   f"output decrypts: {recovered == SENSOR_MARKER}")
    assert len(observed) > 0 and dirty == 0
    assert reset_rounds > 0
    assert sensed and fragments == 0
    assert recovered == SENSOR_MARKER


def test_criterion_8_crypto_round_trips():
    """Pad encryption round-trips on a thousand random payloads, the keyed
    digest matches its published vectors, and the wire format round-trips
    bit-exactly on a thousand random messages."""
    rng = random.Random(8_001)
    k_enc = derive_enc_key(DEFAULT_KEY, 99)
    otp_failures = 0
    for _ in range(1000):
        payload = rng.randbytes(rng.randrange(0, 256))
        if decrypt_output(k_enc, encrypt_output(k_enc, payload)) != payload:
            otp_failures += 1
    kat_ok = (
        hmac_sha256(b"\x0b" * 20, b"Hi There").hex()
        == "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        and hmac_sha256(b"Jefe", b"what do ya want for nothing?").hex()
        == "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
    wire_failures = 0
    for _ in range(1000):
        msg = AuthorizationMessage(
            binary=rng.randbytes(rng.randrange(1, 200)),
            chal=rng.randrange(1, 2 ** 63),
            token=rng.randbytes(32))
        if AuthorizationMessage.from_wire(msg.to_wire()) != msg:
            wire_failures += 1
    ok = otp_failures == 0 and kat_ok and wire_failures == 0
    _report(8, ok, f"pad round trips: {1000 - otp_failures}/1000; "
                   f"digest vectors: {'ok' if kat_ok else 'FAIL'}; "
                   f"wire round trips: {1000 - wire_failures}/1000")
    assert otp_failures == 0
    assert kat_ok
    assert wire_failures == 0


def test_criterion_9_machine_facts_hold_per_cycle():
    """The frame, sensor and control-flow facts the monitor rests on hold
    on every simulated cycle of the catalogue rounds, a thousand random
    plans and drawn byte programs on a bare machine, and each fact
    convicts a machine mutant that breaks it."""
    harness = FactHarness()
    programs = []

    @settings(max_examples=FACT_PROGRAMS, deadline=None, derandomize=True,
              database=None)
    @given(bare_runs())
    def drawn_programs(spec):
        programs.append(spec)
        run_bare(spec)

    with harness.installed():
        catalogue_rounds()
        random_rounds(FACT_PLANS)
        drawn_programs()
    found = harness.by_fact()
    convicted = []
    for fact, mutant in MACHINE_MUTANTS.items():
        mutant_harness = FactHarness(step=mutant)
        with mutant_harness.installed():
            catalogue_rounds()
        if mutant_harness.by_fact()[fact]:
            convicted.append(fact)
    ok = (not harness.violations and len(programs) >= FACT_PROGRAMS
          and convicted == list(FACTS))
    _report(9, ok, f"{harness.cycles} cycles and {harness.resets} resets "
                   f"({len(CATALOGUE)} catalogue rounds, {FACT_PLANS} random "
                   f"plans, {len(programs)} drawn programs): "
                   + ", ".join(f"{found[f]} {f}" for f in FACTS)
                   + f" violations; {len(convicted)}/{len(FACTS)} machine "
                   "mutants convicted by their own fact")
    assert harness.violations == []
    assert len(programs) >= FACT_PROGRAMS
    assert convicted == list(FACTS)
