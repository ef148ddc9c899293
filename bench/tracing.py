"""Spans around calls into each mcusentry layer, recorded from outside.

The package binds its collaborators with ``from .x import y``, so replacing
``mcusentry.machine.run`` would miss the name ``referee.run`` that the
referee actually calls. Every span is therefore installed on the name the
*caller* resolves: a module attribute (``referee.run``, ``machine.decode``,
``checker.monitor_step``) or a method on its class (``Monitor.step``). A span
is named after the place it is installed.

Each span keeps its name, start, end, parent span and the id of the
benchmark operation it belongs to, plus one size figure (records, words,
bytes or states, depending on the call) used to normalise its time. Spans
live in typed arrays while the run is going and are written out once, when
it ends.
"""
from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

from mcusentry import checker, ltl, machine, protocol, referee, scenarios
from mcusentry.machine import Trace
from mcusentry.monitor import Monitor

# (owner, attribute, size of one call from (args, result) or None)
SPAN_SITES = [
    (referee, "run_scenario", lambda a, r: len(r.trace.records)),
    (referee, "run", lambda a, r: len(r.records)),
    (referee, "authorize_ctrl", None),
    (referee, "install", lambda a, r: len(r)),
    (referee, "verify_dev", lambda a, r: len(r[1])),
    (referee, "eval_formula", lambda a, r: a[1].length),
    (referee, "atomic_exec_oracle", lambda a, r: len(a[0])),
    (machine, "exec_step", None),
    (machine, "decode", None),
    (protocol, "authorize_ctrl", None),
    (protocol, "install", lambda a, r: len(r)),
    (protocol, "verify_dev", lambda a, r: len(r[1])),
    (protocol, "token_mac", lambda a, r: len(a[2])),
    (protocol, "derive_enc_key", None),
    (ltl, "eval_vector", lambda a, r: a[1].length),
    (checker, "replay_counterexample", None),
    (checker, "exhaustive_check", lambda a, r: r.explored_states),
    (checker, "build_alphabet", lambda a, r: len(r)),
    (checker, "brute_force_check", lambda a, r: r.explored_states),
    (checker, "monitor_step", None),
    (checker, "eval_naive", None),
    (scenarios, "random_plan", None),
    # The size of a monitor step is the length of its reset log afterwards.
    (Monitor, "step", lambda a, r: len(a[0].local_resets_log)),
    (Trace, "digest", lambda a, r: len(a[0].records)),
]

# Spans that must record calls on the workloads whose speed they set; a
# zero there means the span sits on a name nobody calls any more.
REQUIRED_CALLS = {
    "referee.run": ("campaign", "tracecheck"),
    "referee.install": ("campaign",),
    "referee.verify_dev": ("campaign",),
    "referee.eval_formula": ("campaign",),
    "referee.atomic_exec_oracle": ("campaign",),
    "machine.exec_step": ("campaign", "tracecheck"),
    "machine.decode": ("campaign", "tracecheck"),
    "protocol.token_mac": ("campaign", "attest"),
    "protocol.derive_enc_key": ("attest",),
    "checker.monitor_step": ("modelcheck",),
    "checker.build_alphabet": ("modelcheck",),
    "checker.brute_force_check": ("modelcheck",),
    "checker.eval_naive": ("modelcheck",),
    "Monitor.step": ("campaign", "attest"),
    "Trace.digest": ("campaign", "tracecheck"),
    "ltl.eval_vector": ("campaign", "tracecheck"),
    "scenarios.random_plan": ("campaign", "tracecheck"),
}

LONG_TRACE = 128  # records; eval_vector calls above this count as long


def _site_name(owner) -> str:
    return owner.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Span recorder; ``install`` wraps every site, ``remove`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.op_id = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every site that exists; one that does not records no call,
        which the self-test reports."""
        for owner, attr, size in SPAN_SITES:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(f"{_site_name(owner)}.{attr}",
                                            original, size))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, span_name: str, fn, size):
        nid = len(self.names)
        self.names.append(span_name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, sizes, stack = self.start, self.end, self.size, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            sizes.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            starts[idx] = t0
            ends[idx] = t1
            if size is not None:
                sizes[idx] = size(args, result)
            return result

        return traced

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "size": np.frombuffer(self.size, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, span_names=np.array(self.names), **self.columns())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed and largest
        size. A name that recorded nothing reads as all zeros."""
        cols = self.columns()
        n_names = len(self.names)
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        own = dur - child
        name = cols["name"]
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        self_s = np.bincount(name, weights=own, minlength=n_names)
        size = np.bincount(name, weights=cols["size"].astype(np.float64),
                           minlength=n_names)
        max_size = np.zeros(n_names)
        np.maximum.at(max_size, name, cols["size"].astype(np.float64))
        out = _Summary()
        for nid, span_name in enumerate(self.names):
            out[span_name] = {"calls": int(calls[nid]), "total": float(total[nid]),
                              "self": float(self_s[nid]), "size": float(size[nid]),
                              "max_size": float(max_size[nid])}
        ev = name == (self.names.index("ltl.eval_vector")
                      if "ltl.eval_vector" in self.names else -1)
        long_ = ev & (cols["size"] > LONG_TRACE)
        short = ev & ~long_
        out["ltl.eval_vector.short"] = {
            "calls": int(short.sum()), "total": float(dur[short].sum()),
            "size": float(cols["size"][short].sum())}
        out["ltl.eval_vector.long"] = {
            "calls": int(long_.sum()), "total": float(dur[long_].sum()),
            "size": float(cols["size"][long_].sum())}
        return out


class _Summary(dict):
    def __missing__(self, key):
        return {"calls": 0, "total": 0.0, "self": 0.0, "size": 0.0, "max_size": 0.0}


def missing_calls(summary: dict, workload: str) -> list[str]:
    """Required spans that recorded no call on ``workload``."""
    return [name for name, workloads in REQUIRED_CALLS.items()
            if workload in workloads and summary[name]["calls"] == 0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: dict, ops: int, stats: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, from a span summary of ``ops`` operations and
    the output statistics of the same operations.

    ``records`` counts every record an op emitted, the machine's and the
    protocol's; ``resets`` counts the reset-flagged ones, machine faults
    included, so ``monitor.resets_per_step`` is resets per monitored cycle.
    On a workload that never calls a layer its metrics read 0."""
    def per(name, scale=1e6, by="calls"):
        return _ratio(s[name]["total"] * scale, s[name][by])

    def both(*names):
        return {k: sum(s[n][k] for n in names)
                for k in ("calls", "total", "self", "size")}

    install = both("referee.install", "protocol.install")
    verify = both("referee.verify_dev", "protocol.verify_dev")
    authorize = both("referee.authorize_ctrl", "protocol.authorize_ctrl")
    exhaustive = s["checker.exhaustive_check"]
    brute = s["checker.brute_force_check"]
    return {
        "machine.exec_step.calls": (s["machine.exec_step"]["calls"], "count"),
        "machine.exec_step.us_per_call": (per("machine.exec_step"), "us/call"),
        "machine.run.self_us_per_record": (
            _ratio(s["referee.run"]["self"] * 1e6, s["referee.run"]["size"]), "us/record"),
        "machine.digest.us_per_record": (per("Trace.digest", by="size"), "us/record"),
        "machine.records_per_op": (_ratio(stats["records"], ops), "records/op"),
        "isa.decode.us_per_call": (per("machine.decode"), "us/call"),
        "monitor.step.calls": (s["Monitor.step"]["calls"], "count"),
        "monitor.step.us_per_call": (per("Monitor.step"), "us/call"),
        "monitor.resets_per_step": (
            _ratio(stats["resets"], s["Monitor.step"]["calls"]), "ratio"),
        "monitor.log_entries": (s["Monitor.step"]["max_size"], "count"),
        "monitor.monitor_step.calls": (s["checker.monitor_step"]["calls"], "count"),
        "monitor.monitor_step.us_per_call": (per("checker.monitor_step"), "us/call"),
        "protocol.install.us_per_word": (
            _ratio(install["total"] * 1e6, install["size"]), "us/word"),
        "protocol.verify_dev.us_per_word": (
            _ratio(verify["total"] * 1e6, verify["size"]), "us/word"),
        "protocol.authorize_ctrl.us_per_call": (
            _ratio(authorize["total"] * 1e6, authorize["calls"]), "us/call"),
        "protocol.verify_dev.accept_frac": (
            _ratio(stats["verify_accepts"], verify["calls"]), "ratio"),
        "protocol.records_per_op": (
            _ratio(install["size"] + verify["size"], ops), "records/op"),
        "crypto.token_mac.us_per_kb": (
            _ratio(s["protocol.token_mac"]["total"] * 1e6,
                   s["protocol.token_mac"]["size"] / 1024), "us/KiB"),
        "crypto.derive_enc_key.us_per_call": (per("protocol.derive_enc_key"), "us/call"),
        "ltl.eval_vector.us_per_record_formula.short": (
            per("ltl.eval_vector.short", by="size"), "us/rec-formula"),
        "ltl.eval_vector.us_per_record_formula.long": (
            per("ltl.eval_vector.long", by="size"), "us/rec-formula"),
        "ltl.long_trace_frac": (
            _ratio(s["ltl.eval_vector.long"]["calls"], s["ltl.eval_vector"]["calls"]),
            "ratio"),
        "ltl.eval_naive.calls": (s["checker.eval_naive"]["calls"], "count"),
        "ltl.eval_naive.us_per_call": (per("checker.eval_naive"), "us/call"),
        "oracle.atomic_exec_oracle.us_per_record": (
            per("referee.atomic_exec_oracle", by="size"), "us/record"),
        "checker.build_alphabet.s": (s["checker.build_alphabet"]["total"], "s/sweep"),
        "checker.letters": (s["checker.build_alphabet"]["max_size"], "count"),
        "checker.exhaustive_check.s": (exhaustive["total"], "s/sweep"),
        "checker.product_states": (exhaustive["size"], "count"),
        "checker.brute_force_check.s": (brute["total"], "s/sweep"),
        "checker.brute_force.sequences": (brute["size"], "count"),
        "checker.replay_counterexample.s": (
            s["checker.replay_counterexample"]["total"], "s/sweep"),
        "referee.run_scenario.self_us_per_op": (
            _ratio(s["referee.run_scenario"]["self"] * 1e6,
                   s["referee.run_scenario"]["calls"]), "us/op"),
        "scenarios.random_plan.us_per_call": (per("scenarios.random_plan"), "us/call"),
    }
