"""Byte-for-byte pin of the simulation results.

The cases are the circuit table of ``scripts/run_circuit_table.py``
(15/100 m zone x GCPSO/EKF x sigma_r 0.2/4) at n_runs = 5, one circuit cell
with broadcast drops, and a small town with choke points and no preloaded
anchors, so every rng substream purpose (gps, vel, range, pso, gnss, drop)
feeds the pinned numbers. ``golden/results.csv`` is the results table of all
cases; ``golden/steps.sha256`` is the sha256 of their per-step error dump.
``golden/io.txt`` pins the trace CSV and coverage layers: the sha256 of
``serialize_trace`` of that town and of an 80/320 town, and the ``repr`` of
``coverage_report`` of each town's parked cars at DSRC A to D over its area
at 0.5 m cells.

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
from parkcp.coverage import TransitArea, coverage_report, dsrc_radius
from parkcp.harness import (
    Algorithm,
    RunConfig,
    ensemble,
    format_results_csv,
    format_steps_csv,
    summary_rows,
)
from parkcp.model import MotionKind, Position2D
from parkcp.policy import PolicyConfig
from parkcp.scenario import ChokePoint, ScenarioConfig, generate, serialize_trace

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 1
N_RUNS = 5
TOWN = ScenarioConfig(
    seed=SEED, kind="town", duration=80, area=(0.0, 0.0, 200.0, 160.0),
    n_moving=4, n_entering=2, n_parked=16, entry_interval=10,
    choke_points=(ChokePoint(70.0, 60.0, 8.0, 15), ChokePoint(140.0, 100.0, 8.0, 15)),
)
BIG_TOWN = ScenarioConfig(
    seed=SEED, kind="town", duration=240, area=(0.0, 0.0, 500.0, 400.0),
    n_moving=80, n_parked=320,
    choke_points=(ChokePoint(150.0, 120.0, 5.0, 20), ChokePoint(350.0, 280.0, 5.0, 20)),
)
IO_CELL_SIZE = 0.5


def cases():
    circuit = ScenarioConfig(
        kind="circuit", duration=240, n_parked=20, parked_spacing=24.0, seed=SEED
    )
    for radius, algorithm, sigma in product(
        (15.0, 100.0), (Algorithm.GCPSO, Algorithm.EKF), (0.2, 4.0)
    ):
        yield RunConfig(
            algorithm=algorithm, scenario=circuit, zone=CommZone(radius),
            noise=NoiseModel(range_std=sigma), n_runs=N_RUNS, seed=SEED,
        )
    yield RunConfig(
        algorithm=Algorithm.GCPSO, scenario=circuit,
        zone=CommZone(100.0, drop_probability=0.3),
        noise=NoiseModel(range_std=4.0), n_runs=N_RUNS, seed=SEED,
    )
    for algorithm in (Algorithm.GCPSO, Algorithm.EKF):
        yield RunConfig(
            algorithm=algorithm, scenario=TOWN, zone=CommZone(15.0),
            noise=NoiseModel(range_std=4.0),
            policy=PolicyConfig(anchors_preloaded=False), n_runs=2, seed=SEED,
        )


def render() -> tuple[str, str]:
    """(results CSV, sha256 line of the per-step dump) over all cases."""
    summaries = [ensemble(cfg, keep_episodes=True) for cfg in cases()]
    rows = [r for summary in summaries for r in summary_rows(summary)]
    steps = hashlib.sha256(format_steps_csv(summaries).encode()).hexdigest()
    return format_results_csv(rows), steps + "\n"


def render_io() -> str:
    """Trace CSV digest and coverage reports of the pinned towns."""
    lines = []
    for name, scn in (("town", TOWN), ("town-80-320", BIG_TOWN)):
        records = generate(scn)
        text = serialize_trace(records)
        lines.append(f"{name} trace sha256 {hashlib.sha256(text.encode()).hexdigest()}")
        x0, y0, x1, y1 = scn.area
        area = TransitArea(
            ((Position2D(x0, y0), Position2D(x1, y0), Position2D(x1, y1), Position2D(x0, y1)),),
            cell_size=IO_CELL_SIZE,
        )
        parked = [r.positions[0] for r in records if r.kind is MotionKind.PARKED]
        for device_class in ("A", "B", "C", "D"):
            report = coverage_report(area, parked, dsrc_radius(device_class))
            lines.append(f"{name} coverage {device_class} {report!r}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def rendered():
    return render()


def test_results_csv_matches_golden(rendered):
    assert rendered[0] == (GOLDEN / "results.csv").read_text(encoding="utf-8")


def test_steps_dump_matches_golden(rendered):
    assert rendered[1] == (GOLDEN / "steps.sha256").read_text(encoding="utf-8")


def test_trace_io_and_coverage_match_golden():
    assert render_io() == (GOLDEN / "io.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    results, steps = render()
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "results.csv").write_text(results, encoding="utf-8")
    (GOLDEN / "steps.sha256").write_text(steps, encoding="utf-8")
    (GOLDEN / "io.txt").write_text(render_io(), encoding="utf-8")
    print(f"wrote {GOLDEN / 'results.csv'}, {GOLDEN / 'steps.sha256'} and {GOLDEN / 'io.txt'}")
