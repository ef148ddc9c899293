"""The benchmark's span sites must name code that still exists.

``bench/tracing.py`` wraps named attributes of the package from outside;
a site whose name was deleted or renamed is skipped silently, and the
benchmark's self-test then fails or its per-layer rows read zero.
"""
import importlib.util
from pathlib import Path

from mcusentry import checker, ltl, referee
from mcusentry.catalogue import catalogue_by_name
from mcusentry.layout import default_layout
from mcusentry.monitor import Monitor
from mcusentry.mutants import MUTANTS
from mcusentry.scenarios import happy_path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_site_resolves():
    sites = _tracing().SPAN_SITES
    assert sites
    for owner, attr, _ in sites:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"


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
    # records no call; this is one width-5 sweep of that workload's calls.
    required = [name for name, workloads in _tracing().REQUIRED_CALLS.items()
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
    assert all(r.holds for r in checker.check_catalogue(space))
    formulas = catalogue_by_name()
    for mutant_id, (_, guards) in MUTANTS.items():
        name, result = checker.find_mutant_violation(mutant_id, space)
        assert checker.replay_counterexample(
            formulas[name].formula, result.counterexample, space, guards)
    assert all(calls.values()), calls
