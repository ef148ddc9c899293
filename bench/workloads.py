"""The four benchmark workloads.

Each workload turns a seed into a list of inputs (``generate``), starts a
fresh program state on them (``start``) and runs one operation at a time
(``call``), returning an ``Op`` with its verdict; ``describe`` reduces the
raw result of an op to the simulated statistics of the fingerprint.
Every input is built before timing starts; a call only hands prebuilt
inputs to the library.

Why these four: ``campaign`` is the end-to-end game and runs every layer
but the checker; ``tracecheck`` puts most of its time into LTL evaluation
over traces of very different lengths; ``modelcheck`` runs only the
checker, the monitor transition function and the naive LTL evaluator;
``attest`` runs the protocol, the crypto and the live monitor on windows up
to 1 KiB, far larger than the game's. So a change to one layer has a
workload where it should show and one where it should not.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from mcusentry import checker, ltl, protocol, referee, scenarios
from mcusentry.catalogue import all_formulas, builtin_formulas
from mcusentry.layout import ErWindow, default_layout
from mcusentry.machine import RunContext, load_image, run
from mcusentry.monitor import Monitor
from mcusentry.mutants import MUTANTS
from mcusentry.programs import boot_rom
from mcusentry.props import build_props

KEY = referee.DEFAULT_KEY


@dataclass
class Op:
    """One operation: its verdict, and what ``describe`` later derives from
    the raw result for the fingerprint."""

    ok: bool
    raw: object = None
    verdict: tuple = ()
    records: int = 0
    resets: int = 0
    verify_accepts: int = 0
    sensing: int = 0
    seconds: float = 0.0


def _describe_round(op: Op, verdict: tuple) -> None:
    outcome = op.raw
    records = outcome.trace.records
    op.verdict = verdict + (len(records),)
    op.records = len(records)
    op.resets = sum(1 for r in records if r.reset)
    op.verify_accepts = sum(outcome.verify_results)
    op.sensing = int(outcome.xsensing_result)


def _game_plans(seed: int, count: int) -> list:
    """The criterion-3 mix: every catalogue scenario, then random plans.

    Random plans share one memory image and one boot ROM by value; they are
    interned so that the inputs do not dominate the process's memory.
    """
    plans = [factory() for factory in scenarios.CATALOGUE.values()]
    images: dict[bytes, bytes] = {}
    for index in range(count):
        plan = scenarios.random_plan(seed, index)
        plan.image = images.setdefault(plan.image, plan.image)
        plan.rom = images.setdefault(plan.rom, plan.rom)
        plans.append(plan)
    return plans


class Campaign:
    """One op is one game round, ``run_scenario(plan)`` with the goal check.

    It fails on an adversary win, a goal violation, or a catalogue scenario
    whose sensing or reset verdict differs from the one it expects.
    """

    name = "campaign"
    warmup_call = 0
    random_plans = 4000
    round_calls = 1
    prefix = 1000  # calls in the fingerprint and in the traced pass

    def generate(self, seed: int) -> list:
        return _game_plans(seed, self.random_plans)

    def start(self, inputs):
        return None

    def call(self, state, inputs, i: int) -> Op:
        plan = inputs[i % len(inputs)]
        outcome = referee.run_scenario(plan)
        ok = not outcome.adversary_wins and not outcome.goal_violations
        if plan.expected_xsensing is not None:
            ok = ok and outcome.xsensing_result == plan.expected_xsensing
        if plan.expected_reset is not None:
            ok = ok and outcome.reset_seen == plan.expected_reset
        return Op(ok, outcome)

    def describe(self, op: Op) -> None:
        o = op.raw
        _describe_round(op, (o.xsensing_result, o.atomic_exec, o.adversary_wins,
                             o.reset_seen, tuple(o.goal_violations)))


class TraceCheck:
    """One op is one round without the goal check, then the nine
    construction formulas over its trace and, when they all hold, the two
    end-to-end goals (criterion 2). It fails when a trace satisfies the
    construction set but not the goals."""

    name = "tracecheck"
    warmup_call = 0
    random_plans = 4000
    round_calls = 1
    prefix = 1000

    def __init__(self):
        self.props = build_props(default_layout())
        self.construction = [e.formula for e in all_formulas()
                             if e.group not in ("machine-axioms", "end-to-end")
                             and not e.supplementary]
        self.goals = [e.formula for e in builtin_formulas()
                      if e.group == "end-to-end"]
        assert len(self.construction) == 9 and len(self.goals) == 2

    def generate(self, seed: int) -> list:
        return _game_plans(seed, self.random_plans)

    def start(self, inputs):
        return None

    def call(self, state, inputs, i: int) -> Op:
        plan = inputs[i % len(inputs)]
        outcome = referee.run_scenario(plan, check_goal=False)
        records = outcome.trace.records
        satisfied = goals_hold = False
        if records:
            lasso = ltl.LassoTrace.from_records(records)
            satisfied = all(bool(ltl.eval_vector(f, lasso, self.props)[0])
                            for f in self.construction)
            if satisfied:
                goals_hold = all(bool(ltl.eval_vector(g, lasso, self.props)[0])
                                 for g in self.goals)
        op = Op(goals_hold or not satisfied, outcome)
        op.verdict = (satisfied, goals_hold)
        return op

    def describe(self, op: Op) -> None:
        _describe_round(op, op.verdict)


class ModelCheck:
    """The criterion-1 corpus at width 6, one call per op: the whole
    ``check_catalogue`` (every formula must hold) and, for each mutant, its
    conviction plus the replay of its counterexample (both must succeed).
    The input space is fixed, so the seed is unused."""

    name = "modelcheck"
    width = 6
    round_calls = 1 + len(MUTANTS)  # timing stops only between sweeps
    prefix = round_calls
    warmup_call = 1  # the quickest mutant, not the whole catalogue

    def generate(self, seed: int):
        space = checker.scaled_space(self.width)
        entries = {e.name: e for e in all_formulas()}
        return space, entries

    def start(self, inputs):
        return None

    def call(self, state, inputs, i: int) -> Op:
        space, entries = inputs
        index = i % self.round_calls
        if index == 0:
            results = checker.check_catalogue(space)
            verdict = tuple((r.formula_name, r.verdict, r.explored_states)
                            for r in results)
            return Op(bool(results) and all(r.holds for r in results),
                      verdict=verdict)
        mutant = list(MUTANTS)[index - 1]
        formula, result = checker.find_mutant_violation(mutant, space)
        replayed = formula is not None and checker.replay_counterexample(
            entries[formula].formula, result.counterexample, space,
            MUTANTS[mutant][1])
        explored = result.explored_states if result is not None else -1
        return Op(bool(replayed), verdict=(mutant, formula, explored, replayed))

    def describe(self, op: Op) -> None:
        pass


SPANS = (16, 64, 256, 1024)
KINDS = ("fresh", "tampered", "replay", "stale")
STACK_TOP = 0xEFFE
ER_MIN = 0x4000


@dataclass
class Message:
    kind: str
    er: ErWindow
    binary: bytes
    tamper: tuple = ()         # (field, position, bit) for tampered messages
    replay_of: int = -1        # index of the fresh message a replay repeats
    stale: protocol.AuthorizationMessage | None = None


@dataclass
class Session:
    """A booted machine with its live monitor, and the controller's side."""

    machine: object
    monitor: Monitor
    ctrl_counter: int = 0
    issued: dict = field(default_factory=dict)


class Attest:
    """One op is one message through ``authorize_ctrl`` (controller),
    ``install``, ``verify_dev`` and ``settle_after_verify`` on a booted
    machine with a live monitor. Fresh messages must be accepted; tampered,
    replayed and stale ones rejected.

    Kinds and window spans are drawn in shuffled blocks holding every
    (kind, span) pair once, so each seed gets the same mix and the spread
    between seeds stays small. The first block starts with its fresh
    messages, so that replayed and stale messages always have an earlier
    accepted message of their span to copy. The message list is one
    session: when it is used up, a new machine is booted and the list is
    replayed, so the memory the monitor holds does not grow with the speed
    of the run.
    """

    name = "attest"
    warmup_call = 0
    messages = 1024
    round_calls = 1
    prefix = 1024

    def generate(self, seed: int) -> list[Message]:
        rng = random.Random(seed)
        out: list[Message] = []
        fresh: dict[int, list[int]] = {span: [] for span in SPANS}
        chal = 0  # the controller's counter, as the session will advance it
        fresh_chal: dict[int, int] = {}
        while len(out) < self.messages:
            block = [(k, s) for k in KINDS for s in SPANS]
            rng.shuffle(block)
            if not out:
                block.sort(key=lambda pair: pair[0] != "fresh")
            for kind, span in block:
                er = ErWindow(ER_MIN, ER_MIN + span - 2)
                # The controller authorizes the whole window content.
                binary = rng.randbytes(span)
                msg = Message(kind, er, binary)
                if kind in ("fresh", "tampered"):
                    chal += 1
                if kind == "fresh":
                    fresh_chal[len(out)] = chal
                    fresh[span].append(len(out))
                elif kind == "tampered":
                    msg.tamper = (rng.choice(("binary", "token", "chal")),
                                  rng.randrange(1 << 16), 1 << rng.randrange(8))
                elif kind == "replay":
                    msg.replay_of = rng.choice(fresh[span])
                else:
                    base = fresh_chal[rng.choice(fresh[span])]
                    stale_chal = rng.randrange(base)
                    msg.stale = protocol.AuthorizationMessage(
                        binary, stale_chal,
                        protocol.token_mac(KEY, stale_chal, binary))
                out.append(msg)
        return out[:self.messages]

    def start(self, inputs) -> Session:
        return Session(*self._boot())

    def _boot(self):
        """Boot with the monitor attached, as ``run_scenario`` does: until
        the boot record at address 0 the monitor holds reset and every
        verification would be refused."""
        layout = default_layout()
        first = ErWindow(ER_MIN, ER_MIN + SPANS[0] - 2)
        machine = load_image(layout, b"", first, rom=boot_rom(STACK_TOP))
        monitor = Monitor.for_layout(layout)
        run(machine, monitor, RunContext.build(), 3)
        return machine, monitor

    def call(self, session: Session, inputs, i: int) -> Op:
        index = i % len(inputs)
        if index == 0 and i:
            session.__init__(*self._boot())
        msg = inputs[index]
        if msg.kind in ("fresh", "tampered"):
            auth, session.ctrl_counter = protocol.authorize_ctrl(
                KEY, session.ctrl_counter, msg.binary, capacity=msg.er.byte_span)
            if msg.kind == "fresh":
                session.issued[index] = auth
            else:
                auth = _tamper(auth, *msg.tamper)
        elif msg.kind == "replay":
            auth = session.issued[msg.replay_of]
        else:
            auth = msg.stale
        staged = protocol.install(auth, session.machine, msg.er, session.monitor)
        accepted, verified = protocol.verify_dev(KEY, session.machine,
                                                 session.monitor)
        protocol.settle_after_verify(session.machine, session.monitor, verified)
        op = Op(accepted == (msg.kind == "fresh"), staged + verified)
        op.verdict = (msg.kind, msg.er.byte_span, accepted)
        return op

    def describe(self, op: Op) -> None:
        records = op.raw
        op.records = len(records)
        op.resets = sum(1 for r in records if r.reset)
        op.verify_accepts = int(op.verdict[2])

    def mix(self, inputs) -> dict[str, int]:
        counts: dict[str, int] = {}
        for msg in inputs:
            key = f"{msg.kind}x{msg.er.byte_span}"
            counts[key] = counts.get(key, 0) + 1
        return counts


def _tamper(msg, which: str, pos: int, bit: int):
    if which == "binary":
        body = bytearray(msg.binary)
        body[pos % len(body)] ^= bit
        return protocol.AuthorizationMessage(bytes(body), msg.chal, msg.token)
    if which == "token":
        token = bytearray(msg.token)
        token[pos % len(token)] ^= bit
        return protocol.AuthorizationMessage(msg.binary, msg.chal, bytes(token))
    return protocol.AuthorizationMessage(msg.binary, msg.chal + 1 + pos % 50,
                                         msg.token)


WORKLOADS = {w.name: w for w in (Campaign, TraceCheck, ModelCheck, Attest)}
