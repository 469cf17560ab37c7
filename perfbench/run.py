#!/usr/bin/env python3
"""parkcp benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload circuit-gcpso --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's unit (see workloads.py) is repeated for
``--seconds`` seconds and the end-to-end metrics are reported, as times at a
fixed reference CPU speed (see speedprobe.py). With
``--trace 1`` the layers are traced for half the time, then the unit runs
untraced for the other half, and the per-layer metrics are reported. Every
unit's output is checked. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A record of the run, with its environment, and
the spans of a traced run are written under ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# (name, unit, better); BENCHMARK.json lists the same metrics
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ref_wall_s", "s", "lower"),
    ("ref_vehicle_steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)


def import_program():
    """Import parkcp from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import parkcp
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import parkcp from {SRC}: {exc}")
    if not Path(parkcp.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: parkcp was imported from {parkcp.__file__}, not {SRC}")


import_program()

import numpy as np  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402
from speedprobe import SpeedProbe  # noqa: E402


def peak_rss_mib() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def environment() -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = out.stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "parkcp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": workloads.usable_cores(),
        "pool_jobs": workloads.pool_jobs(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "start_method": multiprocessing.get_start_method(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Outcome:
    """Operations attempted and failed, with the first failures' reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems[:3])
            for p in problems[:3]:
                print(f"perfbench: FAILED: {p}", file=sys.stderr)


def plain_time(fn):
    t0 = time.perf_counter()
    value = fn()
    wall = time.perf_counter() - t0
    return value, wall, wall


def one_unit(w, inputs, outcome, reference, jobs=None, clock=plain_time):
    """Run and check one unit; returns (wall seconds, seconds at reference
    speed, result or None), both times as ``clock`` measures them.

    The unit's digest must equal ``reference[0]``, which the first unit
    sets when the list is empty.
    """
    t0 = time.perf_counter()
    try:
        result, wall, ref = clock(lambda: w.unit(inputs, jobs))
    except Exception:
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        outcome.record(["unit raised " + traceback.format_exc(limit=1).splitlines()[-1]])
        return wall, wall, None
    problems = w.check(inputs, result)
    digest = w.digest(result)
    if not reference:
        reference.append(digest)
    elif digest != reference[0]:
        problems.append("output differs from the first unit's")
    outcome.record(problems)
    return wall, ref, result


def science(w, result) -> dict:
    if w.episodes_per_unit == 0 or result is None:
        return {"improvement_pct": 0.0, "rmse_proposed_m": 0.0}
    return {
        "improvement_pct": workloads.improvement_pct(result),
        "rmse_proposed_m": workloads.rmse_proposed_m(result),
    }


def untraced(w, args, outcome) -> tuple[dict, dict]:
    """Set-up and unit, alternately, until ``--seconds`` have passed; each
    set-up must rebuild the same inputs and each unit runs on the newest.
    Times are taken at reference speed, with the speed probe running."""
    reference: list[str] = []
    first_inputs = None
    setups, walls, ref_setups, ref_walls = [], [], [], []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            inputs = result = None  # one set of inputs and outputs alive at a time
            inputs, setup, ref_setup = probe.time(lambda: w.setup(args.seed))
            setups.append(setup)
            ref_setups.append(ref_setup)
            digest = workloads.inputs_digest(inputs)
            first_inputs = first_inputs or digest
            outcome.record([] if digest == first_inputs else ["set-up is not deterministic"])
            wall, ref_wall, result = one_unit(w, inputs, outcome, reference, clock=probe.time)
            walls.append(wall)
            ref_walls.append(ref_wall)
    if w.jobs > 1:
        # the pooled summary must equal the serial one
        one_unit(w, inputs, outcome, reference, jobs=1)
    ref_wall = statistics.median(ref_walls)
    metrics = {
        "setup_s": statistics.median(ref_setups),
        "ref_wall_s": ref_wall,
        "ref_vehicle_steps_per_s": w.vehicle_steps(inputs) / ref_wall,
        "peak_rss_mb": peak_rss_mib(),
    }
    wall = statistics.median(walls)
    q1, q3 = quartiles(ref_walls)
    extra = {
        "units": len(walls),
        "ref_wall_s_quartiles": [q1, q3],
        "ref_wall_s_samples": ref_walls,
        "ref_setup_s_samples": ref_setups,
        "wall_s_samples": walls,
        "setup_s_samples": setups,
        "probe_samples": len(probe.samples),
        "probe_median_s": statistics.median(probe.samples),
        "wall_s": wall,
        "raw_setup_s": statistics.median(setups),
        "vehicle_steps_per_s": w.vehicle_steps(inputs) / wall,
        "episodes_per_s": w.episodes_per_unit / wall,
        **science(w, result),
        "error_rate": outcome.failed / max(outcome.attempted, 1),
    }
    return metrics, extra


def traced(w, args, outcome) -> tuple[dict, dict]:
    """Traced units at jobs=1 (forked workers would keep their spans),
    each followed by the same unit untraced, which must give the same bytes,
    and for the pool workload by a pooled unit too."""
    tracer = layertrace.Tracer()
    reference: list[str] = []
    unit_stats, traced_walls, serial_walls, pool_walls = [], [], [], []
    half_stats = None

    def traced_segment(fn):
        tracer.install()
        try:
            first = tracer.mark()
            value = fn()
            return value, tracer.segment(first)
        finally:
            tracer.uninstall()
            outcome.record([f"wrapper left in place: {n}" for n in tracer.leftovers()])

    inputs, setup_stats = traced_segment(lambda: w.setup(args.seed))
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < args.seconds:
        (wall, _, result), stats = traced_segment(
            lambda: one_unit(w, inputs, outcome, reference, jobs=1))
        traced_walls.append(wall)
        unit_stats.append(stats)
        serial_walls.append(one_unit(w, inputs, outcome, reference, jobs=1)[0])
        if w.jobs > 1:
            pool_walls.append(one_unit(w, inputs, outcome, reference)[0])
    if w.half_scenario_of is not None:
        half_inputs = w.setup(args.seed, half=True)
        _, half_stats = traced_segment(lambda: one_unit(w, half_inputs, outcome, [], jobs=1))

    base = unit_stats[0]
    outcome.record([
        f"traced unit {i} counts differ from the first's"
        for i, s in enumerate(unit_stats[1:], start=2)
        if (s.calls, s.counters) != (base.calls, base.counters)
    ])
    unit_seconds = {
        n: (statistics.median(s.seconds[n] for s in unit_stats),
            statistics.median(s.self_seconds[n] for s in unit_stats))
        for n in base.seconds
    }
    metrics = layertrace.layer_metrics(setup_stats, base, unit_seconds)

    scaling = 0.0
    if half_stats is not None and half_stats.calls.get("harness.run_episode"):
        per_episode = unit_seconds["harness.run_episode"][0] / base.calls["harness.run_episode"]
        half_episode = (half_stats.seconds["harness.run_episode"]
                        / half_stats.calls["harness.run_episode"])
        sizes = len(inputs.records) / len(half_inputs.records)
        scaling = math.log(per_episode / half_episode) / math.log(sizes)
    serial = statistics.median(serial_walls)
    efficiency = serial / (w.jobs * statistics.median(pool_walls)) if pool_walls else 0.0
    metrics.update({
        "harness.episodes": w.episodes_per_unit,
        "harness.episode.scaling_exp": scaling,
        "harness.pool.efficiency": efficiency,
        **{"harness." + k: v for k, v in science(w, result).items()},
        "scenario.trace_rows": inputs.rows,
        "trace.overhead_pct": 100.0 * (statistics.median(traced_walls) / serial - 1.0),
    })
    RESULTS.mkdir(exist_ok=True)
    tracer.save(RESULTS / f"spans-{w.name}-seed{args.seed}.npz")
    extra = {
        "traced_wall_s_samples": traced_walls,
        "serial_wall_s_samples": serial_walls,
        "pool_wall_s_samples": pool_walls,
        "spans_recorded": tracer.mark(),
    }
    return metrics, extra


def main(argv=None) -> int:
    specs = workloads.workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(specs))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the smoke test only")
    args = ap.parse_args(argv)
    w = workloads.workloads(tiny=args.tiny)[args.workload]

    outcome = Outcome()
    print(f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    if args.trace:
        values, extra = traced(w, args, outcome)
        units = {name: unit for name, unit, _ in layertrace.PER_LAYER}
    else:
        values, extra = untraced(w, args, outcome)
        units = {name: unit for name, unit, _ in END_TO_END}
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in values.items():
        print(f"  {name:<34} {value!r:>24} {units[name]}")
    if not args.trace:
        q1, q3 = extra["ref_wall_s_quartiles"]
        print(f"  ref_wall_s over {extra['units']} units: p25 {q1!r} p75 {q3!r}")
        print(f"  probe median {extra['probe_median_s']!r} s over "
              f"{extra['probe_samples']} samples")
        shown = [("wall_s", "s"), ("raw_setup_s", "s"), ("vehicle_steps_per_s", "1/s"),
                 ("error_rate", "ratio")]
        if w.episodes_per_unit:
            shown += [("episodes_per_s", "1/s"), ("improvement_pct", "%"),
                      ("rmse_proposed_m", "m")]
        for name, unit in shown:
            print(f"  {name:<34} {extra[name]!r:>24} {unit}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "env": env,
              "failures": outcome.reasons, **result, "extra": extra}
    path = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
