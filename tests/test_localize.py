import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkcp.errors import DegenerateGeometryError
from parkcp.localize import (
    EkfParams,
    GcpsoParams,
    LocalizationProblem,
    RadiusAdaptation,
    bilaterate_with_prior,
    cost,
    ekf_predict,
    ekf_update,
    gcpso_localize,
    trilaterate,
)
from parkcp.model import NodeClass, Position2D, Velocity2D, distance
from parkcp.policy import Candidate


def anchored_problem(anchors, ranges, prior, node_class=NodeClass.ANCHOR):
    selected = tuple(
        Candidate(j + 1, node_class, Position2D(*a), r)
        for j, (a, r) in enumerate(zip(anchors, ranges))
    )
    return LocalizationProblem(selected, Position2D(*prior))


# ---------------------------------------------------------------------------
# cost


def test_cost_zero_at_truth_with_exact_ranges():
    truth = (10.0, 10.0)
    anchors = [(0.0, 0.0), (40.0, 0.0), (0.0, 30.0)]
    ranges = [math.dist(truth, a) for a in anchors]
    prob = anchored_problem(anchors, ranges, prior=truth)
    assert cost(Position2D(*truth), prob) == pytest.approx(0.0, abs=1e-12)


def test_cost_empty_selected_is_prior_pull():
    prob = LocalizationProblem((), Position2D(2.0, 0.0))
    assert cost(Position2D(5.0, 4.0), prob) == pytest.approx(9.0 + 16.0)


def test_cost_single_neighbor_arithmetic():
    prob = anchored_problem([(0.0, 0.0)], [2.0], prior=(1.0, 0.0))
    assert cost(Position2D(1.0, 0.0), prob) == pytest.approx(1.0)


@settings(max_examples=50)
@given(st.permutations(range(3)))
def test_cost_invariant_under_candidate_order(perm):
    anchors = [(0.0, 0.0), (40.0, 0.0), (0.0, 30.0)]
    ranges = [14.0, 31.0, 22.0]
    prob = anchored_problem(anchors, ranges, prior=(9.0, 9.0))
    shuffled = LocalizationProblem(
        tuple(prob.selected[i] for i in perm), prob.prior
    )
    point = Position2D(12.0, 7.0)
    assert cost(point, prob) == pytest.approx(cost(point, shuffled))


# ---------------------------------------------------------------------------
# GCPSO


def test_gcpso_recovers_target_from_three_anchors():
    truth = (10.0, 10.0)
    anchors = [(0.0, 0.0), (40.0, 0.0), (0.0, 30.0)]
    ranges = [math.dist(truth, a) for a in anchors]
    prob = anchored_problem(anchors, ranges, prior=truth)
    res = gcpso_localize(prob, GcpsoParams(), np.random.default_rng(0))
    assert distance(res.position, Position2D(*truth)) < 0.5


def test_gcpso_with_perturbed_prior_still_close():
    truth = (10.0, 10.0)
    anchors = [(0.0, 0.0), (40.0, 0.0), (0.0, 30.0)]
    ranges = [math.dist(truth, a) for a in anchors]
    prob = anchored_problem(anchors, ranges, prior=(10.3, 9.8))
    res = gcpso_localize(prob, GcpsoParams(), np.random.default_rng(1))
    assert distance(res.position, Position2D(*truth)) < 0.5


def test_gcpso_no_neighbors_returns_prior():
    prior = Position2D(4.5, -2.25)
    prob = LocalizationProblem((), prior)
    res = gcpso_localize(prob, GcpsoParams(), np.random.default_rng(3))
    assert res.position == prior
    assert res.fitness == 0.0


def test_gcpso_history_monotone_nonincreasing():
    rng_master = np.random.default_rng(12)
    for _ in range(200):
        truth = rng_master.uniform(0, 50, 2)
        anchors = rng_master.uniform(0, 50, (3, 2))
        ranges = [float(np.hypot(*(truth - a)) + rng_master.normal(0, 2.0)) for a in anchors]
        prior = truth + rng_master.normal(0, 3.0, 2)
        prob = anchored_problem(
            [tuple(a) for a in anchors], [max(r, 0.0) for r in ranges], tuple(prior)
        )
        seed = int(rng_master.integers(2**32))
        res = gcpso_localize(prob, GcpsoParams(), np.random.default_rng(seed))
        assert np.all(np.diff(res.history) <= 1e-12)
        assert res.fitness == res.history[-1]


def test_gcpso_deterministic_for_fixed_seed():
    prob = anchored_problem([(0.0, 0.0), (30.0, 0.0), (0.0, 30.0)],
                            [15.0, 20.0, 18.0], prior=(12.0, 11.0))
    a = gcpso_localize(prob, GcpsoParams(), np.random.default_rng(77))
    b = gcpso_localize(prob, GcpsoParams(), np.random.default_rng(77))
    assert a.position == b.position and a.fitness == b.fitness


def test_gcpso_translation_equivariance():
    shift = np.array([100.0, -50.0])
    anchors = [(0.0, 0.0), (40.0, 0.0), (0.0, 30.0)]
    ranges = [14.5, 31.2, 22.1]
    prior = (9.5, 10.5)
    base = gcpso_localize(
        anchored_problem(anchors, ranges, prior),
        GcpsoParams(), np.random.default_rng(5),
    )
    moved = gcpso_localize(
        anchored_problem([(a[0] + shift[0], a[1] + shift[1]) for a in anchors],
                         ranges, (prior[0] + shift[0], prior[1] + shift[1])),
        GcpsoParams(), np.random.default_rng(5),
    )
    assert moved.position.x - shift[0] == pytest.approx(base.position.x, abs=1e-6)
    assert moved.position.y - shift[1] == pytest.approx(base.position.y, abs=1e-6)


def test_radius_doubles_after_success_limit():
    ctl = RadiusAdaptation(1.0, success_limit=15, failure_limit=5)
    for _ in range(14):
        ctl.update(True)
    assert ctl.radius == 1.0
    ctl.update(True)  # 15th consecutive success
    assert ctl.radius == 2.0
    for _ in range(15):
        ctl.update(True)
    assert ctl.radius == 4.0


def test_radius_halves_after_failure_limit():
    ctl = RadiusAdaptation(1.0, success_limit=15, failure_limit=5)
    for _ in range(4):
        ctl.update(False)
    assert ctl.radius == 1.0
    ctl.update(False)  # 5th consecutive failure
    assert ctl.radius == 0.5


def test_radius_counters_reset_on_alternation():
    ctl = RadiusAdaptation(1.0, success_limit=15, failure_limit=5)
    for _ in range(14):
        ctl.update(True)
    ctl.update(False)  # breaks the success streak
    for _ in range(14):
        ctl.update(True)
    assert ctl.radius == 1.0
    ctl.update(True)
    assert ctl.radius == 2.0


# ---------------------------------------------------------------------------
# EKF


def test_ekf_predict_moves_state():
    state, cov = ekf_predict(
        Position2D(0.0, 0.0), np.eye(2), Velocity2D(1.0, 2.0),
        EkfParams(range_std=0.2),
    )
    assert state == Position2D(1.0, 2.0)


def test_ekf_predict_inflates_covariance_exactly():
    # process_std=2, velocity_std=0.5, dt=1: per-axis inflation 4 + 0.25
    _, cov = ekf_predict(
        Position2D(0, 0), np.eye(2), Velocity2D(0, 0),
        EkfParams(range_std=0.2, process_std=2.0, velocity_std=0.5, step_seconds=1.0),
    )
    assert np.array_equal(cov, 5.25 * np.eye(2))


def test_ekf_predict_zero_velocity_keeps_state():
    state, cov = ekf_predict(
        Position2D(3.0, 4.0), np.eye(2), Velocity2D(0.0, 0.0), EkfParams(range_std=1.0)
    )
    assert state == Position2D(3.0, 4.0)
    assert cov[0, 0] > 1.0


def test_ekf_predict_rejects_non_psd():
    with pytest.raises(ValueError):
        ekf_predict(Position2D(0, 0), np.array([[1.0, 0.0], [0.0, -1.0]]),
                    Velocity2D(0, 0), EkfParams(range_std=1.0))


def test_ekf_update_empty_is_identity():
    state = Position2D(1.0, 2.0)
    cov = 3.0 * np.eye(2)
    new_state, new_cov = ekf_update(state, cov, [], EkfParams(range_std=0.2))
    assert new_state == state
    assert np.array_equal(new_cov, cov)


def test_ekf_update_converges_to_trilateration():
    truth = (10.0, 10.0)
    anchors = [(0.0, 0.0), (40.0, 0.0), (0.0, 30.0)]
    ranges = [math.dist(truth, a) for a in anchors]
    prob = anchored_problem(anchors, ranges, prior=truth)
    oracle, _ = trilaterate([Position2D(*a) for a in anchors], ranges)
    state = Position2D(9.0, 10.0)
    cov = 100.0 * np.eye(2)
    params = EkfParams(range_std=0.2)
    for _ in range(3):
        state, cov = ekf_update(state, cov, list(prob.selected), params)
    assert distance(state, oracle) < 0.3


def test_ekf_update_never_increases_trace():
    rng = np.random.default_rng(8)
    params = EkfParams(range_std=1.0)
    for _ in range(100):
        state = Position2D(*rng.uniform(0, 50, 2))
        cov = np.eye(2) * rng.uniform(0.5, 50)
        anchors = rng.uniform(0, 50, (2, 2))
        cands = [
            Candidate(j + 1, NodeClass.ANCHOR, Position2D(*a),
                      float(rng.uniform(1, 40)))
            for j, a in enumerate(anchors)
        ]
        _, new_cov = ekf_update(state, cov, cands, params)
        assert np.trace(new_cov) <= np.trace(cov) + 1e-9


def test_ekf_update_skips_coincident_candidate(make_candidate):
    state = Position2D(5.0, 5.0)
    cov = 4.0 * np.eye(2)
    coincident = make_candidate(vehicle_id=1, x=5.0, y=5.0, measured=3.0)
    new_state, new_cov = ekf_update(state, cov, [coincident], EkfParams(range_std=0.2))
    assert new_state == state
    assert np.array_equal(new_cov, cov)


def test_ekf_covariance_stays_psd_through_random_cycles():
    rng = np.random.default_rng(4)
    params = EkfParams(range_std=0.5)
    state = Position2D(10.0, 10.0)
    cov = 36.0 * np.eye(2)
    for _ in range(500):
        vel = Velocity2D(*rng.normal(0, 3, 2))
        state, cov = ekf_predict(state, cov, vel, params)
        n = int(rng.integers(0, 4))
        cands = [
            Candidate(j + 1, NodeClass.ANCHOR,
                      Position2D(state.x + rng.uniform(-30, 30), state.y + rng.uniform(-30, 30)),
                      float(rng.uniform(0, 40)))
            for j in range(n)
        ]
        state, cov = ekf_update(state, cov, cands, params)
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-9


# ---------------------------------------------------------------------------
# trilateration / bilateration


def test_trilaterate_345():
    anchors = [Position2D(0, 0), Position2D(4, 0), Position2D(0, 3)]
    ranges = [5.0, math.sqrt(17.0), math.sqrt(10.0)]
    fix, residual = trilaterate(anchors, ranges)
    # substitution oracle: the fix must satisfy all three range equations
    for a, r in zip(anchors, ranges):
        assert distance(fix, a) == pytest.approx(r, abs=1e-9)
    assert fix.x == pytest.approx(3.0, abs=1e-9)
    assert fix.y == pytest.approx(4.0, abs=1e-9)
    assert residual < 1e-6


def test_trilaterate_zero_range_pins_anchor():
    anchors = [Position2D(2.0, 7.0), Position2D(30.0, 0.0), Position2D(0.0, 25.0)]
    ranges = [0.0] + [distance(anchors[0], a) for a in anchors[1:]]
    fix, _ = trilaterate(anchors, ranges)
    assert distance(fix, anchors[0]) < 1e-9


def test_trilaterate_collinear_rejected():
    anchors = [Position2D(0, 0), Position2D(10, 0), Position2D(20, 0)]
    with pytest.raises(DegenerateGeometryError):
        trilaterate(anchors, [5.0, 5.0, 5.0])


def test_trilaterate_translation_equivariant():
    anchors = [Position2D(0, 0), Position2D(40, 0), Position2D(0, 30)]
    truth = Position2D(12.0, 9.0)
    ranges = [distance(truth, a) for a in anchors]
    base, _ = trilaterate(anchors, ranges)
    t = (55.0, -20.0)
    moved, _ = trilaterate(
        [Position2D(a.x + t[0], a.y + t[1]) for a in anchors], ranges
    )
    assert moved.x - t[0] == pytest.approx(base.x, abs=1e-6)
    assert moved.y - t[1] == pytest.approx(base.y, abs=1e-6)


def test_bilaterate_picks_intersection_near_prior():
    a1, a2 = Position2D(0, 0), Position2D(8, 0)
    up = bilaterate_with_prior(a1, 5.0, a2, 5.0, Position2D(4, 10))
    down = bilaterate_with_prior(a1, 5.0, a2, 5.0, Position2D(4, -10))
    assert up.x == pytest.approx(4.0) and up.y == pytest.approx(3.0)
    assert down.x == pytest.approx(4.0) and down.y == pytest.approx(-3.0)
    # substitution: both circles satisfied
    for p in (up, down):
        assert distance(p, a1) == pytest.approx(5.0, abs=1e-9)
        assert distance(p, a2) == pytest.approx(5.0, abs=1e-9)


def test_bilaterate_concentric_rejected():
    with pytest.raises(DegenerateGeometryError):
        bilaterate_with_prior(Position2D(1, 1), 4.0, Position2D(1, 1), 6.0,
                              Position2D(0, 0))


def test_bilaterate_disjoint_returns_gap_midpoint():
    got = bilaterate_with_prior(Position2D(0, 0), 5.0, Position2D(12, 0), 5.0,
                                Position2D(0, 1))
    assert got.x == pytest.approx(6.0) and got.y == pytest.approx(0.0)


def test_bilaterate_contained_returns_gap_midpoint():
    # circle 2 (r=1 at x=1) sits inside circle 1 (r=5 at origin);
    # nearest approach is between (5,0) and (2,0)
    got = bilaterate_with_prior(Position2D(0, 0), 5.0, Position2D(1, 0), 1.0,
                                Position2D(0, 0))
    assert got.x == pytest.approx(3.5) and got.y == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# cross-oracle agreement


def test_localizers_agree_with_trilateration_on_random_instances():
    rng = np.random.default_rng(2024)
    params_pso = GcpsoParams()
    params_ekf = EkfParams(range_std=0.2)
    for _ in range(30):
        anchors = rng.uniform(0, 100, (3, 2))
        u, v = anchors[1] - anchors[0], anchors[2] - anchors[0]
        cross = abs(u[0] * v[1] - u[1] * v[0])
        if cross < 500.0:
            continue  # skip thin triangles; geometry, not estimator, limits those
        truth = rng.uniform(10, 90, 2)
        ranges = [float(np.hypot(*(truth - a))) for a in anchors]
        perturb = rng.normal(0, 0.3, 2)
        norm = np.hypot(*perturb)
        if norm > 0.5:
            perturb *= 0.5 / norm
        prior = tuple(truth + perturb)
        prob = anchored_problem([tuple(a) for a in anchors], ranges, prior)

        oracle, residual = trilaterate([Position2D(*a) for a in anchors], ranges)
        assert residual < 1e-6

        pso = gcpso_localize(prob, params_pso, np.random.default_rng(rng.integers(2**32)))
        assert distance(pso.position, oracle) < 0.5

        state = Position2D(*prior)
        cov = 100.0 * np.eye(2)
        for _ in range(3):
            state, cov = ekf_update(state, cov, list(prob.selected), params_ekf)
        assert distance(state, oracle) < 0.5


def test_params_validation():
    with pytest.raises(ValueError):
        GcpsoParams(particles=0)
    with pytest.raises(ValueError):
        GcpsoParams(inertia_start=0.1, inertia_end=0.5)
    with pytest.raises(ValueError):
        EkfParams(range_std=0.0)
