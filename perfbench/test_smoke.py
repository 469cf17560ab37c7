"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every metric in BENCHMARK.json is printed with its unit, counts repeat
exactly across two traced runs, tracing leaves the program's output
unchanged and its functions restored, and the benchmark refuses to run
without the program's sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def check_metrics(result: dict, specs: list[dict], stdout: str) -> None:
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
        assert any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in stdout.splitlines()), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = run(workload, 0)
    result = result_of(proc)
    check_metrics(result, SPEC["end_to_end"], proc.stdout)
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_print_every_layer_metric_and_repeat_counts(workload):
    first, second = run(workload, 1), run(workload, 1)
    a, b = result_of(first), result_of(second)
    check_metrics(a, SPEC["per_layer"], first.stdout)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: a["metrics"][n] for n in counts} == {n: b["metrics"][n] for n in counts}


def test_tracing_restores_functions_and_leaves_output_unchanged():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import layertrace
        import workloads
    finally:
        del sys.path[:2]
    before = {(m.__name__, a): getattr(m, a) for m, a, _, _ in layertrace.WRAPPED}
    for w in workloads.workloads(tiny=True).values():
        inputs = w.setup(SEED)
        plain = w.digest(w.unit(inputs, 1))
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced = w.digest(w.unit(inputs, 1))
        finally:
            tracer.uninstall()
        assert tracer.mark() > 0
        assert tracer.leftovers() == []
        assert {(m.__name__, a): getattr(m, a) for m, a, _, _ in layertrace.WRAPPED} == before
        assert w.digest(w.unit(inputs, 1)) == traced == plain


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
