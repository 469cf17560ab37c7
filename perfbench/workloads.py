"""The benchmark's workloads: inputs built from a seed, one timed unit of
work, and the checks that the unit's outputs are correct.

A unit is what a user runs once: a paired ensemble for the simulation
workloads, a serialize -> parse -> coverage pass for ``trace-coverage``.
Every unit of a run repeats the same work on the same inputs, so unit times
can be summarised by their median and every unit's result must match the
first one exactly.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from parkcp import coverage, harness, scenario
from parkcp.channel import CommZone, NoiseModel
from parkcp.harness import Algorithm, make_run_config
from parkcp.model import MotionKind, Position2D
from parkcp.policy import PolicyConfig
from parkcp.scenario import ChokePoint, ScenarioConfig

RANGE_STD = 4.0


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_jobs() -> int:
    """Worker count of the pool workload: the usable cores, at least 2 so the
    pool path always runs, at most 8 so a large machine stays a small load."""
    return max(2, min(usable_cores(), 8))


def town_config(
    seed: int, n_moving: int, n_entering: int, n_parked: int,
    width: float, height: float, duration: int = 240,
) -> ScenarioConfig:
    """Town with two choke points placed from the seed, inside the middle
    60% of the area so that a scaled-down area keeps them in proportion."""
    rng = np.random.default_rng([seed, 1])
    chokes = tuple(
        ChokePoint(float(rng.uniform(0.2, 0.8) * width),
                   float(rng.uniform(0.2, 0.8) * height), 5.0, 20)
        for _ in range(2)
    )
    return ScenarioConfig(
        seed=seed, kind="town", duration=duration, area=(0.0, 0.0, width, height),
        n_moving=n_moving, n_entering=n_entering, n_parked=n_parked,
        choke_points=chokes,
    )


def trace_rows(records) -> int:
    return sum(len(r.positions) for r in records)


def records_bytes(records) -> bytes:
    """Every field of every record, floats by their bits."""
    head = np.array(
        [(r.vehicle_id, r.start_step, len(r.positions),
          list(MotionKind).index(r.kind)) for r in records], dtype=np.int64,
    )
    body = np.array(
        [(p.x, p.y, v.vx, v.vy) for r in records
         for p, v in zip(r.positions, r.velocities)], dtype=np.float64,
    )
    return head.tobytes() + body.tobytes()


def inputs_digest(inputs) -> str:
    """Digest of the generated trace, to check that set-up is deterministic."""
    return _digest(records_bytes(inputs.records))


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


@dataclass
class SimInputs:
    cfg: harness.RunConfig
    records: list
    rows: int


class SimWorkload:
    """Paired Traditional/Proposed ensemble on one scenario."""

    def __init__(self, name, scenario_of, algorithm, zone_radius, n_runs, jobs=1,
                 preloaded=True, pass_records=True, half_scenario_of=None,
                 check_improvement=False):
        self.name = name
        self.scenario_of = scenario_of
        self.algorithm = algorithm
        self.zone_radius = zone_radius
        self.n_runs = n_runs
        self.jobs = jobs
        self.preloaded = preloaded
        self.pass_records = pass_records
        self.half_scenario_of = half_scenario_of
        self.episodes_per_unit = 2 * n_runs
        self.check_improvement = check_improvement

    def setup(self, seed: int, half: bool = False) -> SimInputs:
        scn = (self.half_scenario_of if half else self.scenario_of)(seed)
        cfg = make_run_config(
            algorithm=self.algorithm,
            scenario=scn,
            zone=CommZone(self.zone_radius),
            noise=NoiseModel(range_std=RANGE_STD),
            policy=PolicyConfig(anchors_preloaded=self.preloaded),
            n_runs=self.n_runs,
            seed=seed,
        )
        # through the module attribute, so the traced pass sees the call
        records = scenario.generate(scn)
        return SimInputs(cfg, records, trace_rows(records))

    def vehicle_steps(self, inputs: SimInputs) -> int:
        """Trace rows advanced by one unit."""
        return inputs.rows * self.episodes_per_unit

    def unit(self, inputs: SimInputs, jobs: int | None = None):
        records = inputs.records if self.pass_records else None
        return harness.ensemble(
            inputs.cfg, records, jobs=self.jobs if jobs is None else jobs,
            keep_episodes=True,
        )

    def digest(self, summary) -> str:
        table = harness.format_results_csv(harness.summary_rows(summary))
        errs = [
            ep.errors[vid].tobytes()
            for _, _, ep in summary.episodes for vid in sorted(ep.errors)
        ]
        return _digest(table.encode(), *errs)

    def check(self, inputs: SimInputs, summary) -> list[str]:
        """Failures found in one ensemble's output."""
        failures = []
        tracked = {r.vehicle_id: r for r in inputs.records if r.kind is MotionKind.MOVING}
        if not tracked:
            failures.append("the scenario has no tracked vehicle")
        if len(summary.episodes) != self.episodes_per_unit:
            failures.append(f"{len(summary.episodes)} episodes kept")
        for run, mode, ep in summary.episodes:
            if set(ep.errors) != set(tracked):
                failures.append(f"run {run} {mode.value}: tracked set differs")
                continue
            for vid, rec in tracked.items():
                errs = ep.errors[vid]
                if len(errs) != len(rec.positions) or ep.first_step[vid] != rec.start_step:
                    failures.append(
                        f"run {run} {mode.value} vehicle {vid}: {len(errs)} errors "
                        f"for {len(rec.positions)} active steps"
                    )
                elif not np.all(np.isfinite(errs)):
                    failures.append(f"run {run} {mode.value} vehicle {vid}: non-finite error")
        if self.check_improvement and not improvement_pct(summary) > 0.0:
            failures.append(f"improvement {improvement_pct(summary)} is not > 0")
        return failures


def improvement_pct(summary) -> float:
    """Mean over tracked vehicles of their average paired improvement."""
    return float(np.mean([v.average_improvement for v in summary.vehicles]))


def rmse_proposed_m(summary) -> float:
    """Mean over tracked vehicles of their ensemble-mean Proposed RMSE."""
    return float(np.mean([v.proposed_mean for v in summary.vehicles]))


@dataclass
class TraceInputs:
    records: list
    area: coverage.TransitArea
    rows: int


@dataclass
class TraceResult:
    text: str
    parsed: list
    reports: list


class TraceCoverageWorkload:
    """Trace CSV write and read of a generated town, then the coverage of its
    parked cars at DSRC classes A and B."""

    episodes_per_unit = 0
    half_scenario_of = None
    jobs = 1

    def __init__(self, name, scenario_of, cell_size):
        self.name = name
        self.scenario_of = scenario_of
        self.cell_size = cell_size

    def setup(self, seed: int) -> TraceInputs:
        scn = self.scenario_of(seed)
        records = scenario.generate(scn)
        x0, y0, x1, y1 = scn.area
        area = coverage.TransitArea(
            ((Position2D(x0, y0), Position2D(x1, y0), Position2D(x1, y1), Position2D(x0, y1)),),
            cell_size=self.cell_size,
        )
        return TraceInputs(records, area, trace_rows(records))

    def vehicle_steps(self, inputs: TraceInputs) -> int:
        """Trace rows written plus rows read by one unit."""
        return 2 * inputs.rows

    def unit(self, inputs: TraceInputs, jobs: int | None = None) -> TraceResult:
        text = scenario.serialize_trace(inputs.records)
        parsed = scenario.parse_trace(text)
        parked = [r.positions[0] for r in parsed if r.kind is MotionKind.PARKED]
        reports = [
            coverage.coverage_report(inputs.area, parked, coverage.dsrc_radius(c))
            for c in ("A", "B")
        ]
        return TraceResult(text, parsed, reports)

    def digest(self, result: TraceResult) -> str:
        return _digest(result.text.encode(), repr(result.reports).encode())

    def check(self, inputs: TraceInputs, result: TraceResult) -> list[str]:
        failures = []
        if records_bytes(result.parsed) != records_bytes(inputs.records):
            failures.append("serialize -> parse is not bit-exact")
        for c, rep in zip("AB", result.reports):
            total = (rep.fraction_level1 + rep.fraction_level2
                     + rep.fraction_level3 + rep.fraction_uncovered)
            if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-12):
                failures.append(f"class {c}: coverage fractions sum to {total!r}")
        return failures


def circuit_config(tiny: bool):
    def make(seed: int) -> ScenarioConfig:
        return ScenarioConfig(seed=seed, kind="circuit", duration=40 if tiny else 240)
    return make


def workloads(tiny: bool = False) -> dict:
    """Workloads by name. ``tiny`` shrinks every size for the smoke test."""
    if tiny:
        town = (8, 2, 16, 200.0, 160.0, 60)
        half_town = (4, 1, 8, 200.0 / math.sqrt(2), 160.0 / math.sqrt(2), 60)
        big_town = (6, 0, 24, 200.0, 160.0, 30)
    else:
        # half the counts of the 40/20/160 town in half its 500 x 400 area,
        # so vehicle density is unchanged and a unit takes a few seconds
        town = (20, 10, 80, 360.0, 280.0, 240)
        half_town = (10, 5, 40, 360.0 / math.sqrt(2), 280.0 / math.sqrt(2), 240)
        big_town = (80, 0, 320, 500.0, 400.0, 240)
    return {
        w.name: w
        for w in (
            SimWorkload("circuit-gcpso", circuit_config(tiny), Algorithm.GCPSO,
                        coverage.dsrc_radius("A"), n_runs=1 if tiny else 10,
                        check_improvement=True),
            SimWorkload("circuit-ekf-pool", circuit_config(tiny), Algorithm.EKF,
                        coverage.dsrc_radius("B"), n_runs=2 if tiny else 10,
                        jobs=pool_jobs(), pass_records=False, check_improvement=True),
            SimWorkload("town-bootstrap", lambda s: town_config(s, *town), Algorithm.EKF,
                        coverage.dsrc_radius("A"), n_runs=1, preloaded=False,
                        half_scenario_of=lambda s: town_config(s, *half_town)),
            TraceCoverageWorkload("trace-coverage", lambda s: town_config(s, *big_town),
                                  cell_size=2.0 if tiny else 0.5),
        )
    }
