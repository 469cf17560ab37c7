"""Acceptance suite. Each criterion prints one [PASS]/[FAIL] line (visible
with ``pytest -s``) and asserts its stated tolerance.

Criteria 1-3 run directional checks on the synthetic circuit: a 480 m
rectangular loop (inside the required 400-800 m band) with 20+ parked cars,
40 paired runs per cell. Criteria 4-8 are oracle/property/determinism suites.
"""
import math
import os
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from parkcp.channel import CommZone, NoiseModel
from parkcp.coverage import TransitArea, coverage_report, dsrc_radius
from parkcp.harness import (
    Algorithm,
    ensemble,
    format_results_csv,
    make_run_config,
    summary_rows,
)
from parkcp.localize import (
    EkfParams,
    GcpsoParams,
    LocalizationProblem,
    RadiusAdaptation,
    ekf_predict,
    ekf_update,
    gcpso_localize,
    trilaterate,
)
from parkcp.model import NodeClass, Position2D, Velocity2D, distance
from parkcp.policy import Candidate, PolicyConfig
from parkcp.scenario import ScenarioConfig, gen_circuit, serialize_trace

JOBS = min(4, os.cpu_count() or 1)
SEED = 20260808

CIRCUIT = ScenarioConfig(
    kind="circuit",
    duration=240,
    n_parked=20,          # >= 20 parked cars
    parked_spacing=24.0,  # evenly spread over the 480 m loop
    seed=SEED,
)

ALGORITHMS = (Algorithm.GCPSO, Algorithm.EKF)
SIGMAS = (0.2, 4.0)


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _cell_config(algorithm, sigma, radius):
    return make_run_config(
        algorithm=algorithm,
        scenario=CIRCUIT,
        zone=CommZone(radius),
        noise=NoiseModel(range_std=sigma),
        policy=PolicyConfig(),
        n_runs=40,
        seed=SEED,
    )


@pytest.fixture(scope="module")
def circuit_cells():
    """All (algorithm, sigma, zone radius) ensembles plus zone-15 runtime."""
    cells = {}
    elapsed = {}
    for radius in (15.0, 100.0):
        t0 = time.perf_counter()
        for algorithm, sigma in product(ALGORITHMS, SIGMAS):
            cfg = _cell_config(algorithm, sigma, radius)
            cells[(algorithm, sigma, radius)] = ensemble(cfg, jobs=JOBS)
        elapsed[radius] = time.perf_counter() - t0
    return cells, elapsed


def test_criterion_1_zone15_improvement(circuit_cells):
    cells, elapsed = circuit_cells
    details = []
    ok = elapsed[15.0] < 300.0
    for algorithm, sigma in product(ALGORITHMS, SIGMAS):
        v = cells[(algorithm, sigma, 15.0)].vehicles[0]
        positive_runs = int((v.improvements > 0).sum())
        cell_ok = v.average_improvement > 0 and positive_runs >= 30
        ok = ok and cell_ok
        details.append(
            f"{algorithm.value}/sigma={sigma}: imp={v.average_improvement:.1f}% "
            f"({positive_runs}/40 runs positive)"
        )
    details.append(f"runtime={elapsed[15.0]:.1f}s (<300s)")
    report("criterion 1 (CZ 15 m improvement, 40 paired runs)", ok, "; ".join(details))


def test_criterion_2_zone_ordering(circuit_cells):
    cells, _ = circuit_cells
    details = []
    ok = True
    for algorithm in ALGORITHMS:
        per_zone = {}
        for radius in (15.0, 100.0):
            imps = [
                cells[(algorithm, sigma, radius)].vehicles[0].average_improvement
                for sigma in SIGMAS
            ]
            per_zone[radius] = float(np.mean(imps))
        ok = ok and per_zone[100.0] > per_zone[15.0]
        details.append(
            f"{algorithm.value}: 15m={per_zone[15.0]:.1f}% < 100m={per_zone[100.0]:.1f}%"
        )
    report("criterion 2 (CZ 100 m beats CZ 15 m)", ok, "; ".join(details))


def _spearman(x, y):
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        return r

    rx, ry = ranks(np.asarray(x)), ranks(np.asarray(y))
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / math.sqrt((rx**2).sum() * (ry**2).sum()))


def test_criterion_3_density_correlation():
    densities = []
    improvements = []
    for n_parked in (2, 4, 8, 16, 32):
        scenario = replace(
            CIRCUIT, n_parked=n_parked, parked_spacing=480.0 / n_parked
        )
        cfg = make_run_config(
            algorithm=Algorithm.EKF,
            scenario=scenario,
            zone=CommZone(15.0),
            noise=NoiseModel(range_std=0.2),
            n_runs=20,
            seed=SEED + n_parked,
        )
        v = ensemble(cfg, jobs=JOBS).vehicles[0]
        densities.append(v.parked_encountered / v.travelled_km)
        improvements.append(v.average_improvement)
    spread = max(densities) / min(densities)
    rho = _spearman(densities, improvements)
    ok = rho >= 0.7 and spread >= 10.0
    report(
        "criterion 3 (parked-density vs improvement)",
        ok,
        f"spearman={rho:.3f} (>=0.7) over densities "
        + ", ".join(f"{d:.1f}/km" for d in densities)
        + f" (spread {spread:.1f}x); improvements "
        + ", ".join(f"{i:.1f}%" for i in improvements),
    )


def _random_instance(rng):
    while True:
        anchors = rng.uniform(0.0, 100.0, (3, 2))
        u, v = anchors[1] - anchors[0], anchors[2] - anchors[0]
        if abs(u[0] * v[1] - u[1] * v[0]) >= 500.0:
            break
    truth = rng.uniform(10.0, 90.0, 2)
    ranges = [float(np.hypot(*(truth - a))) for a in anchors]
    perturb = rng.normal(0.0, 0.3, 2)
    norm = float(np.hypot(*perturb))
    if norm > 0.5:
        perturb *= 0.5 / norm
    prior = truth + perturb
    selected = tuple(
        Candidate(j + 1, NodeClass.ANCHOR, Position2D(*a), r)
        for j, (a, r) in enumerate(zip(anchors, ranges))
    )
    return anchors, ranges, truth, LocalizationProblem(selected, Position2D(*prior))


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    params_pso = GcpsoParams()
    params_ekf = EkfParams(range_std=0.2)
    worst_pso = worst_ekf = worst_residual = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        anchors, ranges, truth, problem = _random_instance(rng)
        oracle, residual = trilaterate([Position2D(*a) for a in anchors], ranges)
        worst_residual = max(worst_residual, residual)

        pso = gcpso_localize(problem, params_pso,
                             np.random.default_rng(int(rng.integers(2**32))))
        worst_pso = max(worst_pso, distance(pso.position, oracle))

        state, cov = problem.prior, 100.0 * np.eye(2)
        for _ in range(3):
            state, cov = ekf_update(state, cov, list(problem.selected), params_ekf)
        worst_ekf = max(worst_ekf, distance(state, oracle))
    ok = worst_pso < 0.5 and worst_ekf < 0.5 and worst_residual < 1e-6
    report(
        "criterion 4 (oracle equivalence, 100 instances)",
        ok,
        f"max |gcpso-trilaterate|={worst_pso:.3f} m, max |ekf-trilaterate|="
        f"{worst_ekf:.3f} m (both <0.5), max residual={worst_residual:.2e} "
        f"(<1e-6), {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_5_gcpso_invariants():
    rng = np.random.default_rng(SEED + 1)
    params = GcpsoParams()
    monotone = True
    for _ in range(1000):
        anchors = rng.uniform(0.0, 60.0, (3, 2))
        truth = rng.uniform(0.0, 60.0, 2)
        ranges = [
            max(0.0, float(np.hypot(*(truth - a)) + rng.normal(0.0, 4.0)))
            for a in anchors
        ]
        prior = truth + rng.normal(0.0, 3.0, 2)
        selected = tuple(
            Candidate(j + 1, NodeClass.ANCHOR, Position2D(*a), r)
            for j, (a, r) in enumerate(zip(anchors, ranges))
        )
        problem = LocalizationProblem(selected, Position2D(*prior))
        res = gcpso_localize(problem, params,
                             np.random.default_rng(int(rng.integers(2**32))))
        if not np.all(np.diff(res.history) <= 1e-12):
            monotone = False
            break

    ctl = RadiusAdaptation(1.0, success_limit=15, failure_limit=5)
    doubling_ok = True
    for i in range(1, 16):
        ctl.update(True)
        expected = 2.0 if i == 15 else 1.0
        doubling_ok = doubling_ok and ctl.radius == expected
    ctl = RadiusAdaptation(1.0, success_limit=15, failure_limit=5)
    halving_ok = True
    for i in range(1, 6):
        ctl.update(False)
        expected = 0.5 if i == 5 else 1.0
        halving_ok = halving_ok and ctl.radius == expected

    ok = monotone and doubling_ok and halving_ok
    report(
        "criterion 5 (GCPSO invariants)",
        ok,
        f"monotone global-best on 1000 seeds={monotone}, radius x2 exactly at "
        f"15 successes={doubling_ok}, radius /2 exactly at 5 failures={halving_ok}",
    )


def test_criterion_6_ekf_invariants():
    params = EkfParams(range_std=0.5, process_std=2.0, velocity_std=0.5,
                       step_seconds=1.0)
    # exact trace inflation: 2 * (2^2 + (1*0.5)^2) = 8.5 on exact inputs
    _, cov1 = ekf_predict(Position2D(0, 0), np.eye(2), Velocity2D(1, 1), params)
    exact_ok = np.trace(cov1) - np.trace(np.eye(2)) == 8.5
    _, cov2 = ekf_predict(Position2D(0, 0), np.diag([2.0, 3.0]), Velocity2D(0, 0), params)
    exact_ok = exact_ok and np.trace(cov2) - 5.0 == 8.5

    rng = np.random.default_rng(SEED + 2)
    state = Position2D(20.0, 20.0)
    cov = 36.0 * np.eye(2)
    psd_ok = True
    min_eig = np.inf
    for _ in range(10_000):
        vel = Velocity2D(*rng.normal(0.0, 3.0, 2))
        state, cov = ekf_predict(state, cov, vel, params)
        n = int(rng.integers(0, 4))
        cands = [
            Candidate(
                j + 1, NodeClass.ANCHOR,
                Position2D(state.x + rng.uniform(-30, 30),
                           state.y + rng.uniform(-30, 30)),
                float(rng.uniform(0.0, 40.0)),
            )
            for j in range(n)
        ]
        state, cov = ekf_update(state, cov, cands, params)
        if not np.allclose(cov, cov.T):
            psd_ok = False
            break
        eig = float(np.linalg.eigvalsh(cov).min())
        min_eig = min(min_eig, eig)
        if eig < -1e-9:
            psd_ok = False
            break
        # keep the filter from collapsing to a numerically trivial state
        if np.trace(cov) < 1e-6:
            cov = cov + 0.1 * np.eye(2)
    ok = exact_ok and psd_ok
    report(
        "criterion 6 (EKF invariants)",
        ok,
        f"predict trace inflation exactly 8.5={exact_ok}, covariance PSD over "
        f"10^4 cycles={psd_ok} (min eigenvalue {min_eig:.2e} >= -1e-9)",
    )


def test_criterion_7_coverage_analytics():
    square = (
        Position2D(0.0, 0.0), Position2D(100.0, 0.0),
        Position2D(100.0, 100.0), Position2D(0.0, 100.0),
    )
    area = TransitArea((square,), cell_size=0.1)
    rep = coverage_report(area, [Position2D(50.0, 50.0)], radius=15.0)
    analytic = math.pi * 15.0**2 / 100.0**2
    disk_err = abs(rep.fraction_level1 - analytic)
    disk_ok = disk_err < 0.002  # 0.2 percentage points
    total = (rep.fraction_level1 + rep.fraction_level2 + rep.fraction_level3
             + rep.fraction_uncovered)
    sum_ok = abs(total - 1.0) < 1e-12
    dsrc_ok = (dsrc_radius("A"), dsrc_radius("B"), dsrc_radius("C"),
               dsrc_radius("D")) == (15.0, 100.0, 400.0, 1000.0)
    ok = disk_ok and sum_ok and dsrc_ok
    report(
        "criterion 7 (coverage analytics)",
        ok,
        f"disk fraction error={disk_err * 100:.3f} pp (<0.2), fractions sum to "
        f"{total!r}, DSRC map exact={dsrc_ok}",
    )


def test_criterion_8_determinism():
    scenario = replace(CIRCUIT, duration=60, n_parked=6, parked_spacing=80.0)
    trace_ok = serialize_trace(gen_circuit(scenario)) == serialize_trace(
        gen_circuit(scenario)
    )

    cfg = make_run_config(
        algorithm=Algorithm.EKF, scenario=scenario, zone=CommZone(15.0),
        noise=NoiseModel(range_std=4.0), n_runs=4, seed=SEED,
    )
    csv_serial = format_results_csv(summary_rows(ensemble(cfg, jobs=1)))
    csv_parallel = format_results_csv(summary_rows(ensemble(cfg, jobs=8)))
    jobs_ok = csv_serial == csv_parallel

    square = (
        Position2D(0.0, 0.0), Position2D(100.0, 0.0),
        Position2D(100.0, 100.0), Position2D(0.0, 100.0),
    )
    area = TransitArea((square,), cell_size=0.5)
    cars = [Position2D(30.0, 30.0), Position2D(60.0, 60.0)]
    cov_ok = coverage_report(area, cars, 15.0) == coverage_report(area, cars, 15.0)

    ok = trace_ok and jobs_ok and cov_ok
    report(
        "criterion 8 (determinism)",
        ok,
        f"trace bytes identical={trace_ok}, jobs 1 vs 8 identical={jobs_ok}, "
        f"coverage repeatable={cov_ok}",
    )
