"""Game referee: plays a scenario plan end to end and scores it.

An adversary win is exactly one of:

- a sensing success whose window content at entry was never authorized, or
- a sensing success whose execution fails the independent atomicity oracle.

Verdicts additionally cross-check the monitor against the
authorized-sensing goal over the whole concatenated trace; its first
conjunct puts every un-reset GPIO read, CPU or DMA, inside the window.
Denial-of-service outcomes (endless resets, runs cut by the cycle budget)
are recorded but never count as wins.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .catalogue import authorized_sensing_goal
from .crypto import KEY_BYTES
from .machine import (ConstantSensor, DmaRequest, Machine, RunContext,
                      SequenceSensor, SensorProvider, Trace, load_image, run)
from .ltl import LassoTrace, eval_formula
from .monitor import Monitor
from .oracle import atomic_exec_oracle
from .props import build_props
from .protocol import (AuthorizationMessage, authorize_ctrl, install,
                       verify_dev, xsensing)
from .scenarios import CATALOGUE, ScenarioPlan, random_plan

DEFAULT_KEY = hashlib.sha256(b"pre-shared master key (simulation)").digest()
assert len(DEFAULT_KEY) == KEY_BYTES


@dataclass
class GameOutcome:
    name: str
    xsensing_result: bool
    atomic_exec: bool
    adversary_wins: bool
    reset_seen: bool
    verify_results: list[bool]
    trace: Trace
    trace_digest: str
    goal_violations: list[str]


def _sensor_for(plan: ScenarioPlan) -> SensorProvider:
    if isinstance(plan.sensor_data, bytes):
        return SequenceSensor(plan.sensor_data)
    return ConstantSensor(plan.sensor_data)


def _abs_schedule(base_cycle: int, rel: list[tuple[int, str, int, int]]) -> list[DmaRequest]:
    return [DmaRequest(at_cycle=base_cycle + off, op=op, addr=addr, value=val)
            for off, op, addr, val in rel]


def _window_snapshot(machine: Machine) -> tuple[int, int, bytes]:
    er_min, er_max = machine.er_window()
    if er_min > er_max:
        return er_min, er_max, b""
    return er_min, er_max, bytes(machine.memory[er_min:er_max + 2])


def _mutate(msg: AuthorizationMessage, which: str, seed: int) -> AuthorizationMessage:
    rnd = hashlib.sha256(f"mutate:{which}:{seed}".encode()).digest()
    if which == "token":
        pos = rnd[0] % len(msg.token)
        bit = 1 << (rnd[1] % 8)
        token = bytearray(msg.token)
        token[pos] ^= bit
        return AuthorizationMessage(msg.binary, msg.chal, bytes(token))
    if which == "binary":
        pos = rnd[0] % len(msg.binary)
        bit = 1 << (rnd[1] % 8)
        body = bytearray(msg.binary)
        body[pos] ^= bit
        return AuthorizationMessage(bytes(body), msg.chal, msg.token)
    chal = msg.chal + 1 + rnd[0]  # token no longer matches this challenge
    return AuthorizationMessage(msg.binary, chal, msg.token)


# The goal check's formula, built once and shared by every round.
_SENSING_GOAL = authorized_sensing_goal()


def run_scenario(plan: ScenarioPlan, key: bytes = DEFAULT_KEY,
                 check_goal: bool = True, on_reset=None) -> GameOutcome:
    """Play one game round: boot, stage/verify per the token strategy,
    optional interlude, then the sensing attempt. ``on_reset`` becomes the
    machine's ``Machine.on_reset`` hook once the image is loaded."""
    layout = plan.layout
    machine = load_image(layout, plan.image, plan.er, rom=plan.rom)
    machine.on_reset = on_reset
    monitor = Monitor.for_layout(layout)
    sensor = _sensor_for(plan)
    records: list = []
    verify_results: list[bool] = []
    sw_contents: list[bytes] = []
    ctrl_counter = 0
    span = plan.er.byte_span

    boot_ctx = RunContext.build(sensor=sensor)
    boot = run(machine, monitor, boot_ctx, plan.boot_cycles)
    records.extend(boot.records)

    def do_verify() -> bool:
        ok, vrecs = verify_dev(key, machine, monitor)
        records.extend(vrecs)
        verify_results.append(ok)
        return ok

    def authorize_once(binary: bytes) -> AuthorizationMessage:
        nonlocal ctrl_counter
        msg, ctrl_counter = authorize_ctrl(key, ctrl_counter, binary,
                                           capacity=span)
        sw_contents.append(msg.binary + bytes(span - len(msg.binary)))
        return msg

    strategy = plan.token_strategy
    if strategy == "fresh":
        msg = authorize_once(plan.binary)
        records.extend(install(msg, machine, plan.er, monitor))
        do_verify()
    elif strategy == "mutated":
        msg = authorize_once(plan.binary)
        records.extend(install(_mutate(msg, plan.mutate_field, 1),
                               machine, plan.er, monitor))
        do_verify()
    elif strategy == "stale":
        first = authorize_once(plan.binary)
        second = authorize_once(plan.binary)
        records.extend(install(second, machine, plan.er, monitor))
        do_verify()
        records.extend(install(first, machine, plan.er, monitor))
        do_verify()
    elif strategy == "replay":
        msg = authorize_once(plan.binary)
        records.extend(install(msg, machine, plan.er, monitor))
        if do_verify():
            ctx1 = RunContext.build(sensor=sensor)
            trace1, _ = xsensing(machine, monitor, ctx1, plan.xsensing_cycles)
            records.extend(trace1.records)
        records.extend(install(msg, machine, plan.er, monitor))
        do_verify()
    elif strategy != "none":
        raise ValueError(f"unknown token strategy {strategy!r}")

    if plan.interlude_pc is not None:
        machine.pc = plan.interlude_pc
        machine.halted = False
        ctx = RunContext.build(
            sensor=sensor,
            dma=_abs_schedule(machine.cycle, plan.interlude_dma))
        inter = run(machine, monitor, ctx, plan.interlude_cycles)
        records.extend(inter.records)

    ctx = RunContext.build(
        sensor=sensor,
        dma=_abs_schedule(machine.cycle, plan.xs_dma),
        irq_cycles=[machine.cycle + off for off in plan.xs_irq_offsets])
    entry_snapshot = _window_snapshot(machine)
    xs_trace, xs_ok = xsensing(machine, monitor, ctx, plan.xsensing_cycles,
                               entry=plan.entry_override)
    records.extend(xs_trace.records)

    er_at_entry = (entry_snapshot[0], entry_snapshot[1])
    atomic = atomic_exec_oracle(xs_trace.records, er_at_entry) \
        if xs_trace.records else True
    authorized_content = entry_snapshot[2] in sw_contents
    win_unauthorized = xs_ok and not authorized_content
    win_tampered = xs_ok and not atomic
    wins = win_unauthorized or win_tampered

    full = Trace(records=records, terminal=xs_trace.terminal)
    goal_violations = []
    if check_goal and records:
        lasso = LassoTrace.from_records(full)  # shares the digest's columns
        if not eval_formula(_SENSING_GOAL, lasso, 0, build_props(layout)):
            goal_violations.append("authorized-sensing-goal")

    return GameOutcome(
        name=plan.name,
        xsensing_result=xs_ok,
        atomic_exec=atomic,
        adversary_wins=wins,
        reset_seen=any(r.reset for r in records),
        verify_results=verify_results,
        trace=full,
        trace_digest=full.digest(layout),
        goal_violations=goal_violations,
    )


def _run_named(args) -> dict:
    kind, payload = args
    if kind == "catalogue":
        plan = CATALOGUE[payload]()
    else:
        seed, index = payload
        plan = random_plan(seed, index)
    outcome = run_scenario(plan)
    return {
        "name": outcome.name,
        "xsensing": outcome.xsensing_result,
        "atomic_exec": outcome.atomic_exec,
        "adversary_wins": outcome.adversary_wins,
        "reset_seen": outcome.reset_seen,
        "verify": outcome.verify_results,
        "goal_violations": outcome.goal_violations,
        "digest": outcome.trace_digest,
    }


def run_campaign(names: list[str] | None = None, random_count: int = 0,
                 seed: int = 0, jobs: int = 1) -> list[dict]:
    """Run catalogue scenarios and/or randomized rounds; deterministic order.

    ``names=None`` means the whole catalogue; an empty list means none. An
    unknown name, a negative ``random_count`` or ``jobs`` below 1 raises
    ``ValueError`` before any round runs.
    """
    if random_count < 0:
        raise ValueError(f"random count must not be negative, got {random_count}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    selected = list(CATALOGUE) if names is None else names
    for name in selected:
        if name not in CATALOGUE:
            raise ValueError(f"unknown scenario {name!r}; "
                             f"known: {', '.join(CATALOGUE)}")
    tasks = [("catalogue", n) for n in selected]
    tasks += [("random", (seed, i)) for i in range(random_count)]
    if jobs > 1:
        # Imported here, not at module level: it pulls in
        # ``multiprocessing``, about 1.4 MB of resident memory that a
        # single-process run never uses.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_named, tasks, chunksize=64))
    return [_run_named(t) for t in tasks]


def summary_table(results: list[dict]) -> str:
    wins = sum(1 for r in results if r["adversary_wins"])
    lines = [f"{'scenario':34} {'sense':>5} {'atomic':>6} {'reset':>5} {'win':>4}"]
    for r in results:
        if r["name"].startswith("random-") and not r["adversary_wins"]:
            continue
        lines.append(f"{r['name']:34} {str(r['xsensing']):>5} "
                     f"{str(r['atomic_exec']):>6} {str(r['reset_seen']):>5} "
                     f"{str(r['adversary_wins']):>4}")
    randoms = sum(1 for r in results if r["name"].startswith("random-"))
    lines.append(f"-- {len(results)} scenarios ({randoms} randomized), "
                 f"{wins} adversary wins")
    return "\n".join(lines)
