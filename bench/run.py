"""mcusentry benchmark: four seeded single-process workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Workloads are ``campaign``, ``tracecheck``, ``modelcheck`` and ``attest``
(see ``workloads.py`` for what one operation is and why each is here).

``--trace 0`` runs the operations untraced for ``--seconds`` and prints the
end-to-end metrics. ``--trace 1`` runs the fixed fingerprint prefix once
untraced and once with spans on every layer boundary (``tracing.py``), prints
the per-layer metrics with the tracing overhead, and writes the spans to
``.bench_out/``. All timings are host time (``time.perf_counter``); the
simulated hardware has no reference measurements and is unvalidated.

Set-up covers the imports, building the inputs from the seed and one
warm-up operation; the last two are repeated and the median is reported.

On a shared two-CPU virtual machine, host speed was seen to drift by up to
a third within minutes, which would swamp any change worth measuring. So
every half second of the timed pass a fixed pure-Python probe (``_probe``,
independent of mcusentry, about 2% of the run) is timed too, and the
end-to-end timings are scaled to a host on which the probe takes
``PROBE_REFERENCE_S``: rates are multiplied and durations divided by
(mean probe time / ``PROBE_REFERENCE_S``). The raw figures and the factor
are printed beside them. Per-layer timings are raw.

The fingerprint is a set of exact simulated statistics over the first
``prefix`` ops of the workload: records, resets, verification accepts,
sensing successes, the per-op verdicts and, when traced, call counts. It must
repeat exactly for a seed; ``fingerprints.json`` holds the values seen for
some seeds, and a difference is reported as a behaviour change.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 when the run completed,
whatever its verdict, and non-zero when it could not run.
"""
from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
PROBE_INTERVAL_S = 0.5
PROBE_REFERENCE_S = 0.006


def _import_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    package = SRC / "mcusentry"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no mcusentry sources at {package}")
    sys.path.insert(0, str(SRC))
    import mcusentry
    if Path(mcusentry.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported mcusentry from {mcusentry.__file__}, "
                 f"not from {package}")
    import tracing
    import workloads
    return workloads, tracing


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        self.a, self.b, self.c = a, b, c


def _cell(a: int, b: int) -> _Cell:
    return _Cell(a, b, a ^ b)


def _probe() -> float:
    """Seconds a fixed loop of calls, small objects, dict and list work
    takes. Garbage collection is off meanwhile, so that the size of the
    program's heap cannot slow it down."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict[int, tuple[int, int]] = {}
        acc = 0
        for i in range(6000):
            cell = _cell(i, i >> 3)
            table[i & 255] = (cell.a, cell.c)
            acc += table.get((i * 7) & 255, (0, 0))[1] & 0xFF
            acc += len([cell.a, cell.b, cell.c])
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def _pass(workload, state, inputs, *, calls: int, seconds: float = 0.0,
          tracer=None, probes: list | None = None):
    """Run at least ``calls`` ops in order, then more until the next round
    would end after ``seconds``, and return the ops and the seconds spent
    on them. Ops of the fingerprint prefix are described (their raw results
    reduced to statistics) outside their own timing. With ``probes``, the
    host probe runs between ops every ``PROBE_INTERVAL_S``; its times are
    appended there and left out of the seconds returned."""
    ops = []
    i = 0
    start = round_start = last_probe = time.perf_counter()
    probing = 0.0
    while True:
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        op = workload.call(state, inputs, i)
        op.seconds = time.perf_counter() - t0
        if i < workload.prefix:
            workload.describe(op)
        op.raw = None
        ops.append(op)
        i += 1
        if probes is not None and time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
            t0 = time.perf_counter()
            probes.append(_probe())
            last_probe = time.perf_counter()
            probing += last_probe - t0
        if i % workload.round_calls == 0:
            now = time.perf_counter()
            last_round, round_start = now - round_start, now
            if i >= calls and now - start + last_round > seconds:
                break
    return ops, time.perf_counter() - start - probing


def _fingerprint(workload, ops: list, inputs) -> dict:
    fp = {
        "ops": len(ops),
        "failed": sum(not op.ok for op in ops),
        "records": sum(op.records for op in ops),
        "resets": sum(op.resets for op in ops),
        "verify_accepts": sum(op.verify_accepts for op in ops),
        "sensing": sum(op.sensing for op in ops),
        "verdicts": hashlib.sha256(
            repr([op.verdict for op in ops]).encode()).hexdigest()[:16],
    }
    if workload.name == "attest":
        fp["mix"] = workload.mix(inputs)
    return fp


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _check_reference(workload: str, seed: int, part: str, sha: str) -> None:
    path = BENCH / "fingerprints.json"
    known = json.loads(path.read_text()).get(f"{workload}/{seed}/{part}")
    if known is None:
        print(f"fingerprint {part} {sha}: no reference for {workload} seed {seed}")
    elif known != sha:
        print(f"fingerprint {part} {sha}: BEHAVIOUR CHANGE for {workload} "
              f"seed {seed}, {path.name} has {known}")
    else:
        print(f"fingerprint {part} {sha}: matches {path.name}")


def _length_buckets(ops: list) -> dict[str, int]:
    edges = (64, 128, 256, 512)
    counts = {f"<={e}": 0 for e in edges}
    counts[f">{edges[-1]}"] = 0
    for op in ops:
        label = next((f"<={e}" for e in edges if op.records <= e), f">{edges[-1]}")
        counts[label] += 1
    return counts


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest of p99.9, p99 and p90 (nearest rank) with at least ten
    samples beyond it; with too few samples for any of them, the slowest."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 90.0):
        rank = math.ceil(n * pct / 100) - 1
        if n - 1 - rank >= 10:
            return ordered[rank], pct
    return ordered[-1], 100.0


def _setup(workloads, name: str, seed: int):
    """Build inputs and warm up, several times; return the last set-up and
    the median time of one."""
    times = []
    for _ in range(SETUP_REPEATS):
        workload = inputs = None
        t0 = time.perf_counter()
        workload = workloads.WORKLOADS[name]()
        inputs = workload.generate(seed)
        workload.call(workload.start(inputs), inputs, workload.warmup_call)
        times.append(time.perf_counter() - t0)
    return workload, inputs, statistics.median(times)


def _untraced(workload, inputs, seconds: float, import_s: float, setup_s: float):
    probes: list[float] = [_probe()]
    ops, elapsed = _pass(workload, workload.start(inputs), inputs,
                         calls=workload.prefix, seconds=seconds, probes=probes)
    times = [op.seconds for op in ops]
    tail, pct = _tail(times)
    raw = {
        "setup_s": import_s + setup_s,
        "ops_per_s": len(ops) / elapsed,
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_tail": tail * 1e3,
    }
    slowdown = statistics.fmean(probes) / PROBE_REFERENCE_S
    metrics = {
        "setup_s": (raw["setup_s"] / slowdown, "s"),
        "ops_per_s": (raw["ops_per_s"] * slowdown, "ops/s"),
        "op_ms_p50": (raw["op_ms_p50"] / slowdown, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"host probe: mean {statistics.fmean(probes) * 1e3:.3f} ms over "
             f"{len(probes)} probes against {PROBE_REFERENCE_S * 1e3:g} ms; timings "
             f"are scaled by a slowdown of {slowdown:.4f}; raw: "
             + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
             # The tail moved by up to half between runs of one seed even
             # when scaled, so it is reported here but carries no bound.
             f"op_ms_tail = {raw['op_ms_tail'] / slowdown:.6g} ms (scaled), "
             f"p{pct:g} of {len(ops)} ops timed in {elapsed:.2f} s",
             f"setup_s = imports {import_s:.3f} s + median set-up {setup_s:.3f} s (raw)"]
    return ops, metrics, notes


def _traced(workload, inputs, tracing, seed: int):
    ops, plain_s = _pass(workload, workload.start(inputs), inputs,
                         calls=workload.prefix)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.generate(seed)  # set-up spans, op id -1
        traced_ops, traced_s = _pass(workload, workload.start(inputs), inputs,
                                     calls=workload.prefix, tracer=tracer)
    finally:
        tracer.remove()
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.npz")
    summary = tracer.summary()
    stats = {k: sum(getattr(op, k) for op in traced_ops)
             for k in ("records", "resets", "verify_accepts")}
    metrics = tracing.layer_metrics(summary, len(traced_ops), stats)
    metrics["sim.records_per_s"] = (stats["records"] / plain_s, "records/s")
    metrics["trace.overhead"] = (traced_s / plain_s, "ratio")
    calls_fp = {name: summary[name]["calls"] for name in sorted(tracing.REQUIRED_CALLS)}
    calls_fp["checker.letters"] = metrics["checker.letters"][0]
    calls_fp["checker.product_states"] = metrics["checker.product_states"][0]
    calls_fp["checker.brute_force.sequences"] = metrics["checker.brute_force.sequences"][0]
    missing = tracing.missing_calls(summary, workload.name)
    notes = [f"traced {len(traced_ops)} ops in {traced_s:.2f} s against {plain_s:.2f} s "
             f"untraced: overhead x{traced_s / plain_s:.2f}; "
             f"{len(tracer.start)} spans written to .bench_out/"]
    notes += [f"SELFTEST FAIL: span {name} recorded no call on {workload.name}"
              for name in missing]
    consistent = (_fingerprint(workload, ops, inputs)
                  == _fingerprint(workload, traced_ops, inputs))
    if not consistent:
        notes.append("FINGERPRINT FAIL: traced and untraced passes differ")
    return ops + traced_ops, metrics, notes, calls_fp, not missing and consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads, tracing = _import_program()
    import_s = time.perf_counter() - _STARTED
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload, inputs, setup_s = _setup(workloads, args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")

    calls_fp = None
    sound = True
    if args.trace:
        ops, metrics, notes, calls_fp, sound = _traced(
            workload, inputs, tracing, args.seed)
    else:
        ops, metrics, notes = _untraced(workload, inputs, args.seconds,
                                        import_s, setup_s)
    prefix = ops[:workload.prefix]
    failed = sum(not op.ok for op in ops)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / len(ops):.6g} ratio ({failed} of {len(ops)} ops)")
    for note in notes:
        print(note)
    if args.workload in ("campaign", "tracecheck"):
        print(f"trace lengths over the first {len(prefix)} ops (records): "
              f"{_length_buckets(prefix)}")
    fp = _fingerprint(workload, prefix, inputs)
    print(f"fingerprint outputs {json.dumps(fp, sort_keys=True)}")
    _check_reference(args.workload, args.seed, "outputs", _digest(fp))
    if calls_fp is not None:
        print(f"fingerprint calls {json.dumps(calls_fp, sort_keys=True)}")
        _check_reference(args.workload, args.seed, "calls", _digest(calls_fp))
    print(json.dumps({
        "correct": failed == 0 and sound,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
