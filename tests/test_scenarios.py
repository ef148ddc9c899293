"""Game outcomes for the scenario catalogue and the randomized generator."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mcusentry import machine, referee
from mcusentry.catalogue import authorized_sensing_goal
from mcusentry.layout import default_layout
from mcusentry.ltl import LassoTrace, eval_formula, eval_naive
from mcusentry.machine import SequenceSensor, StateRecord
from mcusentry.programs import SENSOR_MARKER
from mcusentry.props import build_props
from mcusentry.referee import run_campaign, run_scenario, summary_table
from mcusentry.scenarios import CATALOGUE, happy_path, random_plan

LAYOUT = default_layout()


@pytest.fixture(scope="module")
def outcomes():
    return {name: run_scenario(factory()) for name, factory in CATALOGUE.items()}


def test_every_catalogue_scenario_matches_expectations(outcomes):
    for name, factory in CATALOGUE.items():
        plan = factory()
        out = outcomes[name]
        assert not out.adversary_wins, name
        assert not out.goal_violations, name
        if plan.expected_xsensing is not None:
            assert out.xsensing_result == plan.expected_xsensing, name
        if plan.expected_reset is not None:
            assert out.reset_seen == plan.expected_reset, name


def test_catalogue_has_required_coverage():
    required = {
        "unauthorized-cpu-gpio-read", "dma-gpio-snoop", "irq-mid-er",
        "jump-into-mid-er", "jump-out-before-ermax", "modify-er-after-verify",
        "modify-metadata-after-verify", "token-replay", "token-mutation",
        "stale-chal", "ekr-read-unauthorized", "ekr-write-non-vr",
        "happy-path", "no-gpio-binary"}
    assert required <= set(CATALOGUE)
    assert len(CATALOGUE) >= 14


def test_happy_path_decrypts_and_leaves_no_plaintext(outcomes):
    from mcusentry.crypto import derive_enc_key
    from mcusentry.scenarios import OUT_BUF

    out = outcomes["happy-path"]
    assert out.xsensing_result and out.atomic_exec and not out.reset_seen
    assert out.verify_results == [True]

    # Re-run to inspect final memory (run_scenario does not expose the machine).
    plan = happy_path()
    from mcusentry.machine import load_image, run, RunContext
    from mcusentry.monitor import Monitor
    from mcusentry.protocol import authorize_ctrl, install, verify_dev, xsensing
    from mcusentry.referee import DEFAULT_KEY
    machine = load_image(plan.layout, plan.image, plan.er, rom=plan.rom)
    monitor = Monitor.for_layout(plan.layout)
    sensor = SequenceSensor(SENSOR_MARKER)
    run(machine, monitor, RunContext.build(sensor=sensor), plan.boot_cycles)
    msg, _ = authorize_ctrl(DEFAULT_KEY, 0, plan.binary, plan.er.byte_span)
    install(msg, machine, plan.er, monitor)
    ok, _ = verify_dev(DEFAULT_KEY, machine, monitor)
    assert ok
    trace, sensed = xsensing(machine, monitor, RunContext.build(sensor=sensor),
                             plan.xsensing_cycles)
    assert sensed

    ciphertext = bytes(machine.memory[OUT_BUF:OUT_BUF + 32])
    pad = derive_enc_key(DEFAULT_KEY, msg.chal)
    recovered = bytes(c ^ p for c, p in zip(ciphertext, pad))
    assert recovered == SENSOR_MARKER

    dmem = bytes(machine.memory[LAYOUT.dmem.start:LAYOUT.dmem.end + 1])
    assert SENSOR_MARKER not in dmem
    for i in range(0, len(SENSOR_MARKER) - 3):
        assert SENSOR_MARKER[i:i + 4] not in dmem
    assert machine.gpr[:6] == [0] * 6  # working registers scrubbed


def test_monitor_oracle_one_directional_agreement(outcomes):
    # Wherever the monitor never fired inside the sensing run, the oracle
    # must agree the run was atomic.
    for name, out in outcomes.items():
        if not out.reset_seen:
            assert out.atomic_exec, name


def test_scenario_trace_cycles_are_contiguous():
    for name in ("happy-path", "token-replay", "modify-er-after-verify"):
        out = run_scenario(CATALOGUE[name]())
        cycles = [r.cycle for r in out.trace.records]
        assert cycles == list(range(cycles[0], cycles[0] + len(cycles))), name


def test_trace_digests_are_reproducible():
    a = run_scenario(CATALOGUE["irq-mid-er"]())
    b = run_scenario(CATALOGUE["irq-mid-er"]())
    assert a.trace_digest == b.trace_digest


def test_random_plans_are_deterministic():
    a, b = random_plan(7, 3), random_plan(7, 3)
    assert a.binary == b.binary and a.token_strategy == b.token_strategy
    assert run_scenario(a).trace_digest == run_scenario(b).trace_digest
    assert random_plan(7, 4).binary != a.binary or \
        random_plan(7, 4).er != a.er


def test_plans_share_one_boot_rom_and_image():
    # The fixed ROM and code segments are immutable bytes, built once.
    a, b = random_plan(1, 0), random_plan(1, 1)
    assert a.rom is b.rom and a.image is b.image
    assert happy_path().rom is a.rom


def test_random_campaign_has_zero_wins():
    results = run_campaign(names=[], random_count=250, seed=11)
    assert len(results) == 250
    assert all(not r["adversary_wins"] for r in results)
    assert all(not r["goal_violations"] for r in results)


def test_parallel_campaign_matches_serial():
    serial = run_campaign(names=["irq-mid-er", "dma-gpio-snoop"],
                          random_count=4, seed=5, jobs=1)
    parallel = run_campaign(names=["irq-mid-er", "dma-gpio-snoop"],
                            random_count=4, seed=5, jobs=2)
    assert serial == parallel


def test_importing_the_package_leaves_multiprocessing_out():
    # run_campaign imports its process pool only for jobs > 1, so a
    # single-process run does not carry multiprocessing's resident memory.
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, mcusentry; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_reset_scenarios_leave_no_marker_in_ram():
    # The randomized rounds feed the distinctive marker pattern as sensor
    # input; any round that ended in a reset must leave zeroed RAM.
    from mcusentry.machine import load_image, run, RunContext, SequenceSensor
    from mcusentry.monitor import Monitor
    plan = CATALOGUE["unauthorized-cpu-gpio-read"]()
    machine = load_image(plan.layout, plan.image, plan.er, rom=plan.rom)
    monitor = Monitor.for_layout(plan.layout)
    run(machine, monitor, RunContext.build(sensor=SequenceSensor(SENSOR_MARKER)),
        plan.boot_cycles)
    machine.pc = plan.er.er_min
    trace = run(machine, monitor,
                RunContext.build(sensor=SequenceSensor(SENSOR_MARKER)), 60)
    assert any(r.reset for r in trace)
    dmem = bytes(machine.memory[LAYOUT.dmem.start:LAYOUT.dmem.end + 1])
    assert SENSOR_MARKER not in dmem
    assert not any(SENSOR_MARKER[i:i + 2] in dmem
                   for i in range(len(SENSOR_MARKER) - 1))


def test_every_reset_record_runs_the_reset_routine_once():
    # Boot, staging, verification and sensing records all go through one
    # sink: each reset record runs the reset hook exactly once, with the
    # data RAM already zero.
    dmem = LAYOUT.dmem
    plans = [factory() for factory in CATALOGUE.values()]
    plans += [random_plan(1, index) for index in range(2000)]
    mismatched = []
    for plan in plans:
        calls = []
        outcome = run_scenario(plan, check_goal=False, on_reset=lambda m: calls.append(
            not any(m.memory[dmem.start:dmem.end + 1])))
        resets = sum(r.reset for r in outcome.trace.records)
        if len(calls) != resets or not all(calls):
            mismatched.append((plan.name, resets, len(calls)))
    assert mismatched == []


def test_dma_gpio_snoop_resets_on_the_dma_read():
    records = run_scenario(CATALOGUE["dma-gpio-snoop"]()).trace.records
    first = next(r for r in records if r.reset)
    assert first.dma_en and not first.dma_write
    assert first.dma_addr in LAYOUT.gpio
    assert first.executed is not None


def test_summary_table_mentions_wins():
    results = run_campaign(names=["happy-path"])
    table = summary_table(results)
    assert "happy-path" in table and "0 adversary wins" in table


# Digests and dump hashes of three catalogue rounds, recorded before records
# became named tuples; a change of record type must not move them.
PINNED_TRACES = {
    "happy-path": (
        "544a5093ad90108a9450720d9228495e5acbf0b566c870d30f1eaedb56936fdc",
        "88358c5b329c8a1461085c39b1c9d1ca8f4571db986802695b4d8c5517ac58e7"),
    "irq-mid-er": (
        "a6fbae85fa745f6db14b9e6b633d608dad71a1060dade3920c679b96a53ea443",
        "b37f3a696d86766f2fa40b0052f6a7d5430db0db3c3837188392a25d49f06276"),
    "token-replay": (
        "2acf4cc3f067400f329cad491c3461bddf7741506e2d24ee5524f73e1d18a28e",
        "793511861851021e42ed9131861de37fd1226c1b30e62d52ddce0ffdbb473301"),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRACES))
def test_catalogue_trace_digests_are_pinned(outcomes, name):
    digest, dump_sha = PINNED_TRACES[name]
    out = outcomes[name]
    assert out.trace_digest == digest
    assert out.trace.digest(LAYOUT) == digest
    assert hashlib.sha256(out.trace.dump(LAYOUT).encode()).hexdigest() == dump_sha


def test_a_round_packs_its_trace_once_and_the_goal_check_shares_it(monkeypatch):
    # The trace owns its columns: the goal check's lasso and the digest
    # both read them, so a round with the goal check on packs once.
    packs, lassos = [], []
    pack, evaluate = machine.pack_records, referee.eval_formula

    def counted_pack(records):
        packs.append(len(records))
        return pack(records)

    def kept_lasso(formula, lasso, *args):
        lassos.append(lasso)
        return evaluate(formula, lasso, *args)

    monkeypatch.setattr(machine, "pack_records", counted_pack)
    monkeypatch.setattr(referee, "eval_formula", kept_lasso)
    for plan in [happy_path()] + [random_plan(5, i) for i in range(4)]:
        packs.clear()
        lassos.clear()
        out = run_scenario(plan)
        assert packs == [len(out.trace.records)], plan.name
        assert len(lassos) == 1 and lassos[0].columns is out.trace.columns


# ---------------------------------------------------------------------------
# The goal subsumes the referee's former hand-written check


def unreset_gpio_read_outside_window(rec: StateRecord) -> bool:
    """An un-reset CPU read of GPIO with pc outside the record's window."""
    return (rec.r_en and rec.d_addr in LAYOUT.gpio and not rec.reset
            and not rec.er_min <= rec.pc <= rec.er_max)


_GPIO = LAYOUT.gpio
_WINDOWS = [(0x4000, 0x4004), (0x4004, 0x4000), (0x4002, 0x4002)]
_PCS = [0x3FFE, 0x4000, 0x4002, 0x4004, 0x4006, LAYOUT.i_auth]
_ADDRS = [_GPIO.start - 2, _GPIO.start, _GPIO.end - 1, _GPIO.end + 1, 0x4000]


@st.composite
def record_lists(draw):
    records = []
    for cycle in range(draw(st.integers(1, 12))):
        er = draw(st.sampled_from(_WINDOWS))
        dma = draw(st.booleans())
        records.append(StateRecord(
            cycle=cycle, pc=draw(st.sampled_from(_PCS)),
            r_en=draw(st.booleans()), d_addr=draw(st.sampled_from(_ADDRS)),
            dma_en=dma, dma_addr=draw(st.sampled_from(_ADDRS)) if dma else 0,
            irq=draw(st.booleans()), reset=draw(st.booleans()),
            er_min=er[0], er_max=er[1]))
    return records


@settings(max_examples=300, deadline=None)
@given(records=record_lists())
def test_goal_fails_wherever_an_unreset_gpio_read_is_outside_the_window(records):
    if not any(map(unreset_gpio_read_outside_window, records)):
        return
    lasso = LassoTrace.from_records(records)
    props = build_props(LAYOUT)
    assert not eval_formula(authorized_sensing_goal(), lasso, 0, props)
    assert not eval_naive(authorized_sensing_goal(), lasso, 0, props)
