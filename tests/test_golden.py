"""Byte-for-byte pin of the simulation results.

The cases are the circuit table of ``scripts/run_circuit_table.py``
(15/100 m zone x GCPSO/EKF x sigma_r 0.2/4) at n_runs = 5, one circuit cell
with broadcast drops, and a small town with choke points and no preloaded
anchors, so every rng substream purpose (gps, vel, range, pso, gnss, drop)
feeds the pinned numbers. ``golden/results.csv`` is the results table of all
cases; ``golden/steps.sha256`` is the sha256 of their per-step error dump.

Regenerate only for an intended change of the output, and give the reason in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import hashlib
from itertools import product
from pathlib import Path

import pytest

from parkcp.channel import CommZone, NoiseModel
from parkcp.harness import (
    Algorithm,
    ensemble,
    format_results_csv,
    format_steps_csv,
    make_run_config,
    summary_rows,
)
from parkcp.policy import PolicyConfig
from parkcp.scenario import ChokePoint, ScenarioConfig

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 1
N_RUNS = 5


def cases():
    circuit = ScenarioConfig(
        kind="circuit", duration=240, n_parked=20, parked_spacing=24.0, seed=SEED
    )
    for radius, algorithm, sigma in product(
        (15.0, 100.0), (Algorithm.GCPSO, Algorithm.EKF), (0.2, 4.0)
    ):
        yield make_run_config(
            algorithm=algorithm, scenario=circuit, zone=CommZone(radius),
            noise=NoiseModel(range_std=sigma), n_runs=N_RUNS, seed=SEED,
        )
    yield make_run_config(
        algorithm=Algorithm.GCPSO, scenario=circuit,
        zone=CommZone(100.0, drop_probability=0.3),
        noise=NoiseModel(range_std=4.0), n_runs=N_RUNS, seed=SEED,
    )
    town = ScenarioConfig(
        seed=SEED, kind="town", duration=80, area=(0.0, 0.0, 200.0, 160.0),
        n_moving=4, n_entering=2, n_parked=16, entry_interval=10,
        choke_points=(ChokePoint(70.0, 60.0, 8.0, 15), ChokePoint(140.0, 100.0, 8.0, 15)),
    )
    for algorithm in (Algorithm.GCPSO, Algorithm.EKF):
        yield make_run_config(
            algorithm=algorithm, scenario=town, zone=CommZone(15.0),
            noise=NoiseModel(range_std=4.0),
            policy=PolicyConfig(anchors_preloaded=False), n_runs=2, seed=SEED,
        )


def render() -> tuple[str, str]:
    """(results CSV, sha256 line of the per-step dump) over all cases."""
    rows, entries = [], []
    for cfg in cases():
        summary = ensemble(cfg, keep_episodes=True)
        rows.extend(summary_rows(summary))
        entries.append((cfg.algorithm, cfg.noise.range_std, summary))
    steps = hashlib.sha256(format_steps_csv(entries).encode()).hexdigest()
    return format_results_csv(rows), steps + "\n"


@pytest.fixture(scope="module")
def rendered():
    return render()


def test_results_csv_matches_golden(rendered):
    assert rendered[0] == (GOLDEN / "results.csv").read_text(encoding="utf-8")


def test_steps_dump_matches_golden(rendered):
    assert rendered[1] == (GOLDEN / "steps.sha256").read_text(encoding="utf-8")


if __name__ == "__main__":
    results, steps = render()
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "results.csv").write_text(results, encoding="utf-8")
    (GOLDEN / "steps.sha256").write_text(steps, encoding="utf-8")
    print(f"wrote {GOLDEN / 'results.csv'} and {GOLDEN / 'steps.sha256'}")
