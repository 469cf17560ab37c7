#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/set1.json
    python3 perfbench/spread.py --seeds 1-10 --compare perfbench/results/set1.json

Runs are sequential, one process at a time, with the command and run length
from BENCHMARK.json. For every workload and metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median. End-to-end spreads other than ``setup_s`` are
flagged when they exceed the metric's bound, and noted when they exceed a
third of it. With ``--compare``, each median is also checked against the same
metric's median in an earlier summary: it may be worse by at most the bound.
With ``--trace 1`` the per-layer metrics are summarised instead, and
``--compare`` requires every count metric to repeat exactly, seed by seed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary JSON here")
    ap.add_argument("--compare", help="earlier summary JSON to compare medians with")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    specs = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    seeds = seed_list(args.seeds)
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None

    summary = {"seeds": seeds, "trace": args.trace, "workloads": {}}
    problems = []
    for name in names:
        runs = [run_once(bench["command"], name, s, bench["run_seconds"], args.trace)
                for s in seeds]
        for seed, r in zip(seeds, runs):
            if not r["correct"] or r["failed"]:
                problems.append(f"{name} seed {seed}: correct={r['correct']} "
                                f"failed={r['failed']}/{r['attempted']}")
        metrics = {m: summarise([r["metrics"][m]["value"] for r in runs]) for m in specs}
        summary["workloads"][name] = {
            "metrics": metrics,
            "elapsed_s": [r["elapsed_s"] for r in runs],
        }
        print(f"{name}: {len(runs)} runs, {max(r['elapsed_s'] for r in runs):.1f} s "
              f"longest, {sum(r['elapsed_s'] for r in runs):.0f} s in all")
        for m, st in metrics.items():
            spec = specs[m]
            bound = spec.get("bound")
            note = ""
            if bound is not None and m != "setup_s":
                if st["spread"] > bound:
                    note = "  OVER BOUND"
                    problems.append(f"{name} {m}: spread {st['spread']:.4f} > {bound}")
                elif st["spread"] > bound / 3:
                    note = "  over a third of the bound"
            if earlier is not None and bound is not None:
                before = earlier["workloads"][name]["metrics"][m]["median"]
                worse = (st["median"] - before if spec["better"] == "lower"
                         else before - st["median"]) / before
                note += f"  vs earlier {worse:+.4f}"
                if worse > bound:
                    note += " WORSE THAN BOUND"
                    problems.append(f"{name} {m}: median worse by {worse:.4f} > {bound}")
            if earlier is not None and spec["unit"] == "count":
                if st["values"] != earlier["workloads"][name]["metrics"][m]["values"]:
                    note += "  COUNTS DIFFER"
                    problems.append(f"{name} {m}: counts differ from the earlier set")
            print(f"  {m:<34} median {st['median']:<14.6g} q1 {st['q1']:<12.6g} "
                  f"q3 {st['q3']:<12.6g} spread {st['spread']:.4f}{note}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    for p in problems:
        print("PROBLEM: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
