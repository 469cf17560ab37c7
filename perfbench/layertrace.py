"""Per-layer tracing of parkcp from outside the package.

For the traced pass only, the public functions that the layers call each
other through are swapped, as module attributes, for wrappers that record a
span (name, start, end, parent) and a few counters, and are put back
afterwards. Spans live in flat arrays in memory and are written out once, at
the end of the run. A span's self time is its duration minus the durations
of its direct children; calls are nested and single-threaded, so the
children never overlap.
"""
from __future__ import annotations

import math
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from parkcp import channel, coverage, harness, scenario
from parkcp.model import NodeClass


def _neighbors(c, found, world, vehicle_id, zone):
    c["channel.neighbors.scanned"] += len(world.vehicles)
    c["channel.neighbors.found"] += len(found)


def _select(c, selected, candidates, k=3):
    c["policy.select_neighbors.fill_sum"] += len(selected) / k


def _classify(c, cls, *args):
    c["policy.promotions"] += cls is NodeClass.ANCHOR


def _gcpso(c, result, problem, params, rng):
    used = len(result.history) - 1
    c["localize.gcpso.iterations"] += used
    c["localize.gcpso.early_stops"] += used < params.iterations


def _ekf_update(c, result, state, cov, selected, params):
    c["localize.ekf_update.empty"] += not selected


def _coverage(c, report, area, parked, radius):
    xs = [p.x for poly in area.polygons for p in poly]
    ys = [p.y for poly in area.polygons for p in poly]
    nx = max(1, math.ceil((max(xs) - min(xs)) / area.cell_size))
    ny = max(1, math.ceil((max(ys) - min(ys)) / area.cell_size))
    c["coverage.cells"] += nx * ny


# (module, attribute, span name, counter hook called with the result and the
# call's arguments). A function imported into harness is wrapped there,
# where the episode loop looks it up.
WRAPPED = (
    (harness, "ensemble", "harness.ensemble", None),
    (harness, "run_episode", "harness.run_episode", None),
    (harness, "substream", "harness.substream", None),
    (channel, "neighbors", "channel.neighbors", _neighbors),
    (channel, "measure_range", "channel.measure_range", None),
    (channel, "measure_gps", "channel.measure_gps", None),
    (harness, "select_neighbors", "policy.select_neighbors", _select),
    (harness, "classify_stationary", "policy.classify_stationary", _classify),
    (harness, "gcpso_localize", "localize.gcpso", _gcpso),
    (harness, "ekf_predict", "localize.ekf_predict", None),
    (harness, "ekf_update", "localize.ekf_update", _ekf_update),
    (harness, "trilaterate", "localize.trilaterate", None),
    (harness, "bilaterate_with_prior", "localize.bilaterate", None),
    (harness, "validate_records", "scenario.validate_records", None),
    (harness, "generate", "scenario.generate", None),
    (scenario, "generate", "scenario.generate", None),
    (scenario, "serialize_trace", "scenario.serialize", None),
    (scenario, "parse_trace", "scenario.parse", None),
    (coverage, "coverage_report", "coverage.report", _coverage),
)


_SPANS = (
    "channel.neighbors", "channel.measure_range", "channel.measure_gps",
    "harness.substream", "harness.run_episode", "harness.ensemble",
    "localize.gcpso", "localize.ekf_predict", "localize.ekf_update",
    "localize.trilaterate", "localize.bilaterate",
    "policy.select_neighbors", "policy.classify_stationary",
    "scenario.validate_records", "scenario.generate", "scenario.serialize",
    "scenario.parse", "coverage.report",
)

# (name, unit, better) of every per-layer metric; BENCHMARK.json lists the
# same. Times and counts are per unit of work plus the one set-up.
PER_LAYER = tuple(
    m for span in _SPANS
    for m in ((span + ".calls", "count", "lower"), (span + ".s", "s", "lower"))
) + (
    ("channel.neighbors.scanned", "count", "lower"),
    ("channel.neighbors.hit_ratio", "ratio", "higher"),
    ("harness.episodes", "count", "higher"),
    ("harness.episode.self_s", "s", "lower"),
    ("harness.episode.scaling_exp", "ratio", "lower"),
    ("harness.ensemble.self_s", "s", "lower"),
    ("harness.pool.efficiency", "ratio", "higher"),
    ("harness.improvement_pct", "%", "higher"),
    ("harness.rmse_proposed_m", "m", "lower"),
    ("localize.gcpso.iterations", "count", "lower"),
    ("localize.gcpso.early_stop_ratio", "ratio", "higher"),
    ("localize.ekf_update.empty_ratio", "ratio", "lower"),
    ("localize.trilaterate.degenerate", "count", "lower"),
    ("localize.bilaterate.degenerate", "count", "lower"),
    ("policy.select_neighbors.fill", "ratio", "higher"),
    ("policy.promotions", "count", "higher"),
    ("policy.promotion_ratio", "ratio", "higher"),
    ("scenario.trace_rows", "count", "higher"),
    ("coverage.cells", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


@dataclass
class LayerStats:
    """Spans of one segment of the run, summed by span name."""

    calls: dict
    seconds: dict
    self_seconds: dict
    counters: dict
    spans: int


class Tracer:
    """Span recorder; ``install`` and ``uninstall`` swap the wrappers in and out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict = defaultdict(int)
        self._saved: list = []

    def _wrap(self, name, fn, hook):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        raised = name + ".raised"
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[raised] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, hook in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @staticmethod
    def leftovers() -> list[str]:
        """Wrapped attributes still in place; empty after ``uninstall``."""
        return [f"{m.__name__}.{a}" for m, a, _, _ in WRAPPED
                if hasattr(getattr(m, a), "__wrapped__")]

    def mark(self) -> int:
        """Index of the next span, for cutting the run into segments."""
        return len(self.start)

    def segment(self, first: int) -> LayerStats:
        """Stats of the spans recorded since ``first``; takes the counters."""
        last = len(self.start)
        # slices are copies, so the arrays stay free to grow
        name = np.frombuffer(self.name[first:last], dtype=np.int32)
        parent = np.frombuffer(self.parent[first:last], dtype=np.int32)
        dur = (np.frombuffer(self.end[first:last], dtype=np.float64)
               - np.frombuffer(self.start[first:last], dtype=np.float64))
        inner = parent >= first
        child = np.bincount(parent[inner] - first, weights=dur[inner], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        seconds = np.bincount(name, weights=dur, minlength=k)
        self_seconds = np.bincount(name, weights=dur - child, minlength=k)
        counters = dict(self.counters)
        self.counters.clear()
        return LayerStats(
            calls={n: int(calls[i]) for i, n in enumerate(self.names)},
            seconds={n: float(seconds[i]) for i, n in enumerate(self.names)},
            self_seconds={n: float(self_seconds[i]) for i, n in enumerate(self.names)},
            counters=counters,
            spans=int(last - first),
        )

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
        )


def _ratio(num: float, den: float) -> float:
    """num / den; 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(setup: LayerStats, unit: LayerStats, unit_seconds: dict) -> dict:
    """Per-layer metric values of one set-up plus one unit.

    Counts come from ``unit``; ``unit_seconds`` gives each span name's
    (total, self) seconds per unit as a median over the traced units.
    """
    def calls(n):
        return setup.calls.get(n, 0) + unit.calls.get(n, 0)

    def secs(n):
        return setup.seconds.get(n, 0.0) + unit_seconds.get(n, (0.0, 0.0))[0]

    def self_secs(n):
        return setup.self_seconds.get(n, 0.0) + unit_seconds.get(n, (0.0, 0.0))[1]

    def count(n):
        return setup.counters.get(n, 0) + unit.counters.get(n, 0)

    m = {}
    for span in _SPANS:
        m[span + ".calls"] = calls(span)
        m[span + ".s"] = secs(span)
    m["channel.neighbors.scanned"] = count("channel.neighbors.scanned")
    m["channel.neighbors.hit_ratio"] = _ratio(
        count("channel.neighbors.found"), count("channel.neighbors.scanned"))
    m["harness.episode.self_s"] = self_secs("harness.run_episode")
    m["harness.ensemble.self_s"] = self_secs("harness.ensemble")
    m["localize.gcpso.iterations"] = count("localize.gcpso.iterations")
    m["localize.gcpso.early_stop_ratio"] = _ratio(
        count("localize.gcpso.early_stops"), calls("localize.gcpso"))
    m["localize.ekf_update.empty_ratio"] = _ratio(
        count("localize.ekf_update.empty"), calls("localize.ekf_update"))
    m["localize.trilaterate.degenerate"] = count("localize.trilaterate.raised")
    m["localize.bilaterate.degenerate"] = count("localize.bilaterate.raised")
    m["policy.select_neighbors.fill"] = _ratio(
        count("policy.select_neighbors.fill_sum"), calls("policy.select_neighbors"))
    m["policy.promotions"] = count("policy.promotions")
    m["policy.promotion_ratio"] = _ratio(
        count("policy.promotions"), calls("policy.classify_stationary"))
    m["coverage.cells"] = count("coverage.cells")
    m["trace.spans"] = setup.spans + unit.spans
    return m
