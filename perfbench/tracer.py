"""Spans and counts around otasync's layers, recorded from outside the
program by rebinding the module-global names that its callers look up.

Spans stay in memory. Process-pool workers (forked, so they inherit the
rebound names and the open span stack) write theirs to a spool directory
when each chunk task ends; the workload process reads them back after the
sweep. Span times come from time.perf_counter (CLOCK_MONOTONIC), which is
shared across processes, so worker spans nest in the parent's intervals.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from time import perf_counter

# (module, bound name) -> span name, named after the layer that defines it
SPANS = {
    ("otasync.compensation", "batched_op_norms"): "channel.batched_op_norms",
    ("otasync.compensation", "wiener_values_at"): "phase_noise.wiener_values_at",
    ("otasync.compensation", "wrap"): "tracking.wrap",
    ("otasync.compensation", "build_frame_schedule"): "timeline.build_frame_schedule",
    ("otasync.compensation", "build_ap1_only_schedule"): "timeline.build_ap1_only_schedule",
    ("otasync.compensation", "_simulate_chunk"): "compensation.simulate_chunk",
    ("otasync.experiment", "run_cell"): "experiment.run_cell",
    ("otasync.experiment", "monte_carlo_delta"): "compensation.monte_carlo_delta",
    ("otasync.experiment", "per_position_rates"): "rate.per_position_rates",
    ("otasync.experiment", "build_plan"): "compensation.build_plan",
    ("otasync.cli", "run_sweep"): "experiment.run_sweep",
    ("otasync.cli", "load_config_file"): "config.load_config_file",
    ("otasync.cli", "parse_sweep"): "experiment.parse_sweep",
    ("otasync.cli", "emit_csv"): "experiment.emit_csv",
}
# called too often for a span each: counted only
COUNTS = {
    ("otasync.compensation", "kalman_gain"): "tracking.kalman_gain",
    ("otasync.experiment", "spectral_efficiency"): "rate.spectral_efficiency",
    ("otasync.rate", "rate_at_position"): "rate.rate_at_position",
}


def _op_norm_work(args, kwargs):
    params, n = args[1], args[2]
    return [n, params.n_antennas]


def _wiener_work(args, kwargs):
    start_values, gaps = args[1], args[2]
    return start_values.size * len(gaps)


def _mc_work(args, kwargs):
    from otasync.compensation import CHUNK_SIZE
    n_workers = kwargs.get("n_workers", args[4] if len(args) > 4 else 1)
    n_chunks = -(-args[2] // CHUNK_SIZE)
    return n_workers if n_workers > 1 and n_chunks > 1 else 1


WORK = {
    "channel.batched_op_norms": _op_norm_work,        # [matrices, N]
    "phase_noise.wiener_values_at": _wiener_work,     # normal draws
    "compensation.monte_carlo_delta": _mc_work,       # processes running chunks
}


class Tracer:
    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.pid = os.getpid()
        self.main_pid = self.pid
        self.seq = 0
        self.stack = []
        self.spans = []      # [span id, parent id, name, t0, t1, work]
        self.counts = {}

    def span(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.seq += 1
            sid = [self.pid, self.seq]
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.spans.append([sid, parent, name, t0, t1,
                                   work(args, kwargs) if work else None])
        return traced

    def count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def worker_task(self, fn):
        """Root of a pool worker's chunk task: drop the spans inherited from
        the parent at fork, then spool the worker's own when the task ends."""
        inner = self.span("compensation.chunk_task", fn)

        @functools.wraps(fn)
        def task(*args, **kwargs):
            if os.getpid() == self.main_pid:
                return inner(*args, **kwargs)
            if os.getpid() != self.pid:
                self.pid, self.seq = os.getpid(), 0
            self.spans, self.counts = [], {}
            try:
                return inner(*args, **kwargs)
            finally:
                path = self.spool / f"{self.pid}-{self.seq}.json"
                path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))
        return task

    def install(self):
        import importlib
        for table, wrap in ((SPANS, self.span), (COUNTS, self.count)):
            for (module, attr), name in table.items():
                mod = importlib.import_module(module)
                setattr(mod, attr, wrap(name, getattr(mod, attr)))
        comp = importlib.import_module("otasync.compensation")
        comp._chunk_task = self.worker_task(comp._chunk_task)

    def collect(self):
        """All spans and counts: this process's plus every spooled worker's."""
        spans, counts = list(self.spans), dict(self.counts)
        for path in sorted(self.spool.glob("*.json")):
            doc = json.loads(path.read_text())
            spans.extend(doc["spans"])
            for name, n in doc["counts"].items():
                counts[name] = counts.get(name, 0) + n
        return spans, counts


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans, counts) -> dict:
    """Per-layer totals over all processes. A span's self time is its
    duration minus the part of it that its child spans cover."""
    children = {}
    for sid, parent, _, t0, t1, _ in spans:
        if parent is not None:
            children.setdefault(tuple(parent), []).append((t0, t1))
    by_id = {tuple(s[0]): s for s in spans}

    def self_time(s):
        return (s[4] - s[3]) - _covered(children.get(tuple(s[0]), ()), s[3], s[4])

    def in_mc(s):
        while s is not None:
            if s[2] == "compensation.monte_carlo_delta":
                return True
            s = by_id.get(tuple(s[1])) if s[1] is not None else None
        return False

    def total(name):
        return sum(s[4] - s[3] for s in spans if s[2] == name)

    def calls(name):
        return sum(1 for s in spans if s[2] == name)

    m = {}
    for name in ("channel.batched_op_norms", "phase_noise.wiener_values_at",
                 "rate.per_position_rates", "compensation.monte_carlo_delta",
                 "tracking.wrap", "timeline.build_frame_schedule",
                 "timeline.build_ap1_only_schedule", "experiment.run_cell"):
        m[name + ".s"] = total(name)
        m[name + ".calls"] = calls(name)
    for name in ("cli.cli_main", "config.load_config_file", "experiment.parse_sweep",
                 "experiment.emit_csv"):
        m[name + ".s"] = total(name)
    for name in COUNTS.values():
        m[name + ".calls"] = counts.get(name, 0)

    op = [s[5] for s in spans if s[2] == "channel.batched_op_norms"]
    m["channel.matrices"] = sum(n for n, _ in op)
    m["channel.g_bytes_max"] = max((n * N * N * 16 for n, N in op), default=0)
    m["phase_noise.draws"] = sum(s[5] for s in spans if s[2] == "phase_noise.wiener_values_at")

    # processes running chunks x wall time, summed over monte_carlo_delta calls
    chunk_s = total("compensation.simulate_chunk")
    capacity = sum(s[5] * (s[4] - s[3]) for s in spans
                   if s[2] == "compensation.monte_carlo_delta")
    m["channel.share_of_mc"] = (m["channel.batched_op_norms.s"] / capacity
                                if capacity else 0.0)
    m["compensation.chunks"] = calls("compensation.simulate_chunk")
    m["compensation.worker_busy_frac"] = chunk_s / capacity if capacity else 0.0
    m["compensation.self_s"] = sum(self_time(s) for s in spans
                                   if s[2].startswith("compensation.") and in_mc(s))
    m["experiment.self_s"] = sum(self_time(s) for s in spans
                                 if s[2] in ("experiment.run_sweep", "experiment.run_cell"))
    return m
