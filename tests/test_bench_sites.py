"""The benchmark's span sites must name code that still exists, and its
workloads must run against the package.

``bench/tracing.py`` wraps named attributes of the package from outside;
a site whose name was deleted or renamed is skipped silently, and the
benchmark's self-test then fails or its per-layer rows read zero.
``bench/workloads.py`` calls the package's public API; a call it makes
that the package no longer takes fails every op of that workload.
"""
import importlib.util
import sys
from pathlib import Path

from mcusentry import checker, ltl, referee
from mcusentry.catalogue import catalogue_by_name
from mcusentry.layout import default_layout
from mcusentry.monitor import Monitor
from mcusentry.mutants import MUTANTS
from mcusentry.scenarios import happy_path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_span_site_resolves():
    sites = _load("tracing").SPAN_SITES
    assert sites
    for owner, attr, _ in sites:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"


def test_the_tracer_wraps_every_span_site_and_restores_it():
    # ``Tracer.install`` passes over a site it cannot find without a word,
    # so a renamed site that no workload requires (``checker.exhaustive_check``,
    # say) would only drop out of the layer rows.
    tracing = _load("tracing")
    originals = [vars(owner).get(attr) for owner, attr, _ in tracing.SPAN_SITES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [vars(owner).get(attr) for owner, attr, _ in tracing.SPAN_SITES]
    finally:
        tracer.remove()
    names = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.SPAN_SITES]
    assert [n for n, o in zip(names, originals) if o is None] == []
    assert [n for n, w, o in zip(names, wrapped, originals) if w is o] == []
    assert [vars(owner).get(attr) for owner, attr, _ in tracing.SPAN_SITES] == originals


def test_monitor_step_span_can_size_itself():
    # The Monitor.step span sizes each call by the monitor's reset log.
    assert isinstance(Monitor.for_layout(default_layout()).local_resets_log, list)


def test_goal_check_goes_through_the_eval_vector_span(monkeypatch):
    # The bench's ltl.eval_vector span and its required calls on campaign
    # and tracecheck see only calls made through the module attribute.
    calls = []
    inner = ltl.eval_vector

    def counted(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(ltl, "eval_vector", counted)
    outcome = referee.run_scenario(happy_path())
    assert outcome.trace.records and not outcome.goal_violations
    assert len(calls) == 1


def test_a_modelcheck_sweep_calls_every_required_checker_span(monkeypatch):
    # The bench's self-test fails when a span it requires on modelcheck
    # records no call; this is a width-5 sweep of that workload's calls, and
    # a second, warm one, as the traced pass runs after the timed one.
    required = [name for name, workloads in _load("tracing").REQUIRED_CALLS.items()
                if "modelcheck" in workloads]
    assert required and all(name.startswith("checker.") for name in required)
    calls = dict.fromkeys(required, 0)

    def counting(span):
        attr = span.split(".", 1)[1]
        inner = getattr(checker, attr)

        def counted(*args, **kwargs):
            calls[span] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(checker, attr, counted)

    for span in required:
        counting(span)

    space = checker.scaled_space(5)
    formulas = catalogue_by_name()
    for _ in range(2):
        assert all(r.holds for r in checker.check_catalogue(space))
        for mutant_id, (_, guards) in MUTANTS.items():
            name, result = checker.find_mutant_violation(mutant_id, space)
            assert checker.replay_counterexample(
                formulas[name].formula, result.counterexample, space, guards)
        assert all(calls.values()), calls
        calls.update(dict.fromkeys(calls, 0))


def test_every_workload_runs_its_calls_on_small_inputs():
    # Each workload's own generate, start, call and describe, on fewer
    # plans and messages than the benchmark (and modelcheck at width 5):
    # every catalogue scenario, every mutant, every message kind and span,
    # and attest's re-boot when its message list is used up.
    workloads = _load("workloads")
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        workload.random_plans, workload.messages, workload.width = 3, 16, 5
        inputs = workload.generate(1)
        state = workload.start(inputs)
        calls = workload.round_calls if name == "modelcheck" else len(inputs) + 1
        for i in range(calls):
            op = workload.call(state, inputs, i)
            assert op.ok, (name, i, op.verdict)
            workload.describe(op)


def test_every_required_span_records_calls_on_small_inputs():
    # The bench's self-test, on small inputs: each workload runs once
    # untraced, then set-up, start and every call under the bench's own
    # tracer, as its traced pass does; every span it requires on that
    # workload must record a call. So attest still reaches Monitor.step
    # through its boot, and campaign the goal check's eval_vector.
    tracing, workloads = _load("tracing"), _load("workloads")
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        workload.random_plans, workload.messages, workload.width = 3, 16, 5
        inputs = workload.generate(1)
        calls = workload.round_calls if name == "modelcheck" else len(inputs)
        state = workload.start(inputs)
        for i in range(calls):
            workload.call(state, inputs, i)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workload.generate(1)
            state = workload.start(inputs)
            for i in range(calls):
                workload.call(state, inputs, i)
        finally:
            tracer.remove()
        assert tracing.missing_calls(tracer.summary(), name) == [], name
