"""The benchmark's span sites must name code that still exists.

``bench/tracing.py`` wraps named attributes of the package from outside;
a site whose name was deleted or renamed is skipped silently, and the
benchmark's self-test then fails or its per-layer rows read zero.
"""
import importlib.util
from pathlib import Path

from mcusentry.layout import default_layout
from mcusentry.monitor import Monitor

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
