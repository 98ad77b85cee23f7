"""Span recording around the program's public functions, and per-layer sums.

The tracer replaces each traced function in every ``cogregions`` module
that binds it (``outer_bounds.union_frontier_arrays`` as well as
``region_geometry.union_frontier_arrays``), so calls are seen whichever
module makes them.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc

import numpy as np

# Traced functions, by defining module.  Names are the span names.
TRACED = (
    "channel.classify",
    "region_geometry.union_frontier_arrays",
    "region_geometry.corner_cloud",
    "region_geometry.hull_frontier",
    "region_geometry.concavify",
    "region_geometry.intersect_frontiers",
    "region_geometry.contains",
    "outer_bounds.unifying_region",
    "outer_bounds.cor2_region",
    "outer_bounds.bc_dms_region",
    "outer_bounds.th1_bound",
    "outer_bounds.bc_pr_bound",
    "inner_bounds.scheme_e_region",
    "inner_bounds.capacity_region",
    "oracles.mc_rate_check",
    "oracles.degradedness_check",
    "oracles.verify_condition5",
    "oracles.verify_condition6",
    "oracles.verify_th3_capacity",
    "cli.main",
)

# Leaf calls whose peak traced allocation a ``Tracer(peak=True)`` records.
# tracemalloc runs only inside these; it slows Python loops several-fold,
# so peaks come from their own pass and span times from one without it.
PEAK_MEMORY = ("region_geometry.union_frontier_arrays", "region_geometry.hull_frontier")


def split_count(split_grid) -> int:
    """Number of covariance splits a ``split_grid`` argument spans."""
    if isinstance(split_grid, (int, np.integer)):
        return int(split_grid) ** 4
    total = 1
    for axis in split_grid:
        if isinstance(axis, (int, np.integer)):
            total *= int(axis)
        else:
            total *= int(np.unique(np.asarray(axis, dtype=float)).size)
    return total


def _counts(name, args, result) -> dict:
    """Work counts of one call, from its bound arguments and its result."""
    if name == "region_geometry.union_frontier_arrays":
        return {"pentagons": int(np.size(args["r1_max"])), "vertices": int(result.r1.size)}
    if name == "region_geometry.corner_cloud":
        return {"points": int(result[0].size)}
    if name == "region_geometry.hull_frontier":
        return {"points": int(np.size(args["x"])), "vertices": int(result.r1.size)}
    if name in ("outer_bounds.bc_dms_region", "outer_bounds.bc_pr_bound"):
        return {"splits": split_count(args["split_grid"])}
    if name in ("oracles.mc_rate_check", "oracles.degradedness_check"):
        return {"samples": int(args["n_samples"])}
    return {}


COUNTED = (
    "region_geometry.union_frontier_arrays",
    "region_geometry.corner_cloud",
    "region_geometry.hull_frontier",
    "outer_bounds.bc_dms_region",
    "outer_bounds.bc_pr_bound",
    "oracles.mc_rate_check",
    "oracles.degradedness_check",
)


class Tracer:
    """Records one span per traced call: name, start, end, parent and op id."""

    def __init__(self, peak=False):
        self.peak = peak
        self.spans = []
        self.op = 0
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        signature = inspect.signature(fn) if name in COUNTED else None
        peak = self.peak and name in PEAK_MEMORY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "op": self.op,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            # A nested peak call is measured as part of the enclosing one.
            own_peak = peak and not tracemalloc.is_tracing()
            if own_peak:
                tracemalloc.start()
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                if own_peak:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(_counts(name, bound.arguments, result))
            return result

        return wrapper

    def install(self):
        """Wrap every traced function wherever a ``cogregions`` module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "cogregions" or key.startswith("cogregions.")]
        for name in TRACED:
            module_name, fn_name = name.split(".")
            original = getattr(sys.modules["cogregions." + module_name], fn_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def covered_ns(start, end, intervals) -> int:
    """Length of the part of ``[start, end]`` that the intervals cover."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times_ns(spans) -> dict:
    """Self time of each span: its duration minus what its children cover.

    Spans are keyed by ``(op, id)``, so span lists gathered from several
    processes (each numbering from 0 within an op) can be combined.
    """
    children = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["op"], span["parent"])
            children.setdefault(key, []).append((span["start"], span["end"]))
    return {
        (s["op"], s["id"]): (s["end"] - s["start"])
        - covered_ns(s["start"], s["end"], children.get((s["op"], s["id"]), []))
        for s in spans
    }


def layer_metrics(spans) -> dict:
    """Per-layer sums over all spans: calls, ms, self_ms, counts, peak_mb."""
    selfs = self_times_ns(spans)
    out = {}
    for span in spans:
        name = span["name"]
        row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "peak_mb": 0.0})
        row["calls"] += 1
        row["ms"] += (span["end"] - span["start"]) / 1e6
        row["self_ms"] += selfs[(span["op"], span["id"])] / 1e6
        if "peak_bytes" in span:
            row["peak_mb"] = max(row["peak_mb"], span["peak_bytes"] / 2**20)
        for key in ("pentagons", "vertices", "points", "splits", "samples"):
            if key in span:
                row[key] = row.get(key, 0) + span[key]
    return out
