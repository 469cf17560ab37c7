import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parkcp.errors import DegenerateGeometryError
from parkcp.localize import (
    EkfParams,
    GcpsoParams,
    GcpsoResult,
    LocalizationProblem,
    RadiusAdaptation,
    bilaterate_with_prior,
    cost,
    ekf_predict,
    ekf_update,
    gcpso_keeps_prior,
    gcpso_localize,
    trilaterate,
    _COINCIDENT,
    _min_eigenvalue,
    _require_psd,
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


def _batch_cost(points, priors, rows, valid):
    """The cost at each point of a batch of problems, in numpy over rows
    padded to (N, 3) per problem; a padded row (valid False) adds an exact 0.
    Each row is added in order, so the sum rounds as the scalar one does."""
    x, y = points[:, 0], points[:, 1]
    dx, dy = x - priors[:, 0], y - priors[:, 1]
    f = dx * dx + dy * dy
    for k in range(rows.shape[1]):
        ex, ey = x - rows[:, k, 0], y - rows[:, k, 1]
        m = np.where(valid[:, k], rows[:, k, 2] - np.sqrt(ex * ex + ey * ey), 0.0)
        f = f + m * m
    return f


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


# offsets from 0 and from +-1e6, where a sum of squares keeps few fraction bits
_coordinate = st.builds(
    lambda base, offset: base + offset,
    st.sampled_from([-1e6, 0.0, 1e6]),
    st.floats(-300.0, 300.0, allow_subnormal=False),
)
_row = st.tuples(_coordinate, _coordinate, st.floats(0.0, 3e6), st.booleans())
_instance = st.tuples(
    st.tuples(_coordinate, _coordinate),  # point
    st.tuples(_coordinate, _coordinate),  # prior
    st.lists(_row, max_size=3),  # (x, y, range, point on the range circle)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_instance, min_size=1, max_size=8), st.integers(3, 5))
def test_numpy_cost_over_padded_rows_equals_cost_bit_for_bit(instances, width):
    points, priors, rows, valid, expected = [], [], [], [], []
    for (x, y), prior, selected in instances:
        candidates = []
        for j, (ax, ay, r, on_circle) in enumerate(selected):
            if on_circle:  # the mismatch of this row is exactly 0 at the point
                r = math.sqrt((x - ax) * (x - ax) + (y - ay) * (y - ay))
            candidates.append(Candidate(j + 1, NodeClass.ANCHOR, Position2D(ax, ay), r))
        problem = LocalizationProblem(tuple(candidates), Position2D(*prior))
        expected.append(cost(Position2D(x, y), problem))
        padded = [(*c.shared_position, c.measured_range) for c in candidates]
        padded += [(0.0, 0.0, 0.0)] * (width - len(candidates))
        points.append((x, y))
        priors.append(prior)
        rows.append(padded)
        valid.append([j < len(candidates) for j in range(width)])
    got = _batch_cost(np.array(points), np.array(priors), np.array(rows), np.array(valid))
    assert _bits(got) == _bits(expected)


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


class _UntouchableRng:
    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used")


@pytest.mark.parametrize("fitness_stop", [0.0, 0.5])
def test_gcpso_without_neighbors_returns_the_prior_without_a_swarm(fitness_stop):
    prior = Position2D(0.1 + 0.2, -0.0)
    params = GcpsoParams(fitness_stop=fitness_stop)
    assert gcpso_keeps_prior((), prior, params)
    res = gcpso_localize(LocalizationProblem((), prior), params, _UntouchableRng())
    assert (res.position.x, res.position.y) == (prior.x, prior.y)
    assert math.copysign(1.0, res.position.y) == -1.0
    assert res.fitness == 0.0
    assert res.history.tolist() == [0.0]


def test_gcpso_without_neighbors_runs_the_swarm_below_a_negative_fitness_stop():
    params = GcpsoParams(fitness_stop=-1.0)
    used = []

    class CountingRng:
        def __getattr__(self, name):
            used.append(name)
            return getattr(np.random.default_rng(3), name)

    res = gcpso_localize(LocalizationProblem((), Position2D(4.5, -2.25)), params, CountingRng())
    assert used
    assert len(res.history) == params.iterations + 1


@pytest.mark.parametrize("prior", [(1.5, -2.0), (math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)])
@pytest.mark.parametrize("fitness_stop", [-math.inf, -1.0, 0.0, 1e-3, math.inf])
@pytest.mark.parametrize("rows", [0, 1])
def test_gcpso_keeps_prior_exactly_where_the_swarm_draws_nothing_and_returns_the_prior(
        prior, fitness_stop, rows):
    problem = anchored_problem([(10.0, 0.0)][:rows], [3.0][:rows], prior)
    params = GcpsoParams(fitness_stop=fitness_stop)
    used = []

    class CountingRng:
        def __getattr__(self, name):
            used.append(name)
            return getattr(np.random.default_rng(3), name)

    res = gcpso_localize(problem, params, CountingRng())
    kept = not used and res.fitness == 0.0 and res.position == problem.prior
    assert gcpso_keeps_prior(problem.selected, problem.prior, params) == kept


def test_gcpso_runs_a_swarm_whose_fitness_is_nan():
    # the prior's cost is nan, so the loop never stops early and must have
    # its draws
    params = GcpsoParams()
    res = gcpso_localize(LocalizationProblem((), Position2D(math.nan, 0.0)), params,
                         np.random.default_rng(3))
    assert math.isnan(res.fitness)
    assert len(res.history) == params.iterations + 1


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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_coordinate, _coordinate, st.floats(0.0, 200.0)), max_size=3),
    st.tuples(_coordinate, _coordinate),
    st.integers(0, 2**32 - 1),
    st.sampled_from([GcpsoParams(), GcpsoParams(particles=3, iterations=7),
                     GcpsoParams(fitness_stop=0.5), GcpsoParams(fitness_stop=-1.0)]),
)
def test_gcpso_fitness_is_the_cost_of_its_position_bit_for_bit(rows, prior, seed, params):
    # the swarm evaluates cost() inline; this pins that copy to cost()
    problem = LocalizationProblem(
        tuple(Candidate(j + 1, NodeClass.ANCHOR, Position2D(x, y), r)
              for j, (x, y, r) in enumerate(rows)),
        Position2D(*prior),
    )
    res = gcpso_localize(problem, params, np.random.default_rng(seed))
    assert _bits([res.fitness]) == _bits([cost(res.position, problem)])
    assert res.fitness == res.history[-1]


def _reference_gcpso_localize(problem, params, rng):
    """The swarm as it was before each particle became one tuple, kept
    verbatim as the oracle of ``gcpso_localize``."""
    if not problem.selected and params.fitness_stop >= 0.0 and problem.prior.is_finite():
        return GcpsoResult(problem.prior, 0.0, np.zeros(1))
    n = params.particles
    rows = tuple((*c.shared_position, c.measured_range) for c in problem.selected)
    px0, py0 = problem.prior
    if problem.selected:
        bx, by = problem.selected[0].shared_position
        xs = [bx if i < n // 2 else px0 for i in range(n)]
        ys = [by if i < n // 2 else py0 for i in range(n)]
    else:
        xs = [px0] * n
        ys = [py0] * n
    vx = [0.0] * n
    vy = [0.0] * n

    best_x = list(xs)
    best_y = list(ys)
    best_f = [cost(Position2D(x, y), problem) for x, y in zip(xs, ys)]
    g = best_f.index(min(best_f))
    gx, gy, gf = best_x[g], best_y[g], best_f[g]
    history = [gf]

    radius = RadiusAdaptation(params.initial_radius, params.success_limit, params.failure_limit)
    iterations, stop = params.iterations, params.fitness_stop
    w_start, w_end = params.inertia_start, params.inertia_end
    c1, c2 = params.cognitive, params.social
    sqrt = math.sqrt
    span = max(iterations - 1, 1)
    # one block holds exactly what one (n, 4) draw per iteration would; a
    # swarm that starts at fitness_stop needs none, and one whose fitness is
    # nan runs the loop, so it draws the block
    draws = rng.random((iterations, n, 4)).tolist() if not gf <= stop else []
    for it in range(iterations):
        if gf <= stop:
            break
        w = w_start + (w_end - w_start) * (it / span)
        rho = radius.radius
        for i, (u0, u1, u2, u3) in enumerate(draws[it]):
            x, y = xs[i], ys[i]
            if i == g:
                nx = gx + w * vx[i] + rho * (1.0 - 2.0 * u0)
                ny = gy + w * vy[i] + rho * (1.0 - 2.0 * u1)
                vx[i], vy[i] = nx - x, ny - y
            else:
                vxi = w * vx[i] + c1 * u0 * (best_x[i] - x) + c2 * u2 * (gx - x)
                vyi = w * vy[i] + c1 * u1 * (best_y[i] - y) + c2 * u3 * (gy - y)
                vx[i], vy[i] = vxi, vyi
                nx, ny = x + vxi, y + vyi
            xs[i], ys[i] = nx, ny
            # cost(), inline
            dx, dy = nx - px0, ny - py0
            f = dx * dx + dy * dy
            for ax, ay, r in rows:
                ex, ey = nx - ax, ny - ay
                m = r - sqrt(ex * ex + ey * ey)
                f += m * m
            if f < best_f[i]:
                best_f[i], best_x[i], best_y[i] = f, nx, ny
        g = best_f.index(min(best_f))
        improved = best_f[g] < gf
        gx, gy, gf = best_x[g], best_y[g], best_f[g]
        radius.update(improved)
        history.append(gf)

    return GcpsoResult(Position2D(gx, gy), gf, np.asarray(history))


_prior = st.one_of(
    st.tuples(_coordinate, _coordinate),
    st.tuples(st.sampled_from([math.nan, math.inf, -math.inf]), _coordinate),
    st.tuples(_coordinate, st.sampled_from([math.nan, math.inf, -math.inf])),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_coordinate, _coordinate, st.floats(0.0, 200.0), st.booleans()),
             max_size=3),
    _prior,
    st.integers(1, 8),
    st.integers(1, 30),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([-math.inf, 0.0, 1e-3, math.inf]),
    st.integers(0, 2**32 - 1),
)
def test_gcpso_equals_the_reference_swarm_bit_for_bit(
        rows, prior, particles, iterations, success_limit, failure_limit, fitness_stop, seed):
    # same position, fitness and history bits, and the same draws consumed
    problem = LocalizationProblem(
        tuple(Candidate(j + 1, NodeClass.ANCHOR, Position2D(*(prior if at_prior else (x, y))), r)
              for j, (x, y, r, at_prior) in enumerate(rows)),
        Position2D(*prior),
    )
    params = GcpsoParams(particles=particles, iterations=iterations,
                         success_limit=success_limit, failure_limit=failure_limit,
                         fitness_stop=fitness_stop)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = gcpso_localize(problem, params, rng)
    want = _reference_gcpso_localize(problem, params, ref_rng)
    assert _bits([*got.position, got.fitness]) == _bits([*want.position, want.fitness])
    assert got.history.tobytes() == want.history.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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


EYE = (1.0, 0.0, 1.0)  # the identity covariance as (a, b, d)


def _matrix(cov):
    a, b, d = cov
    return np.array([[a, b], [b, d]])


def _trace(cov):
    return cov[0] + cov[2]


def test_ekf_predict_moves_state():
    state, cov = ekf_predict(
        Position2D(0.0, 0.0), EYE, Velocity2D(1.0, 2.0),
        EkfParams(range_std=0.2),
    )
    assert state == Position2D(1.0, 2.0)


def test_ekf_predict_inflates_covariance_exactly():
    # process_std=2, velocity_std=0.5, dt=1: per-axis inflation 4 + 0.25
    _, cov = ekf_predict(
        Position2D(0, 0), EYE, Velocity2D(0, 0),
        EkfParams(range_std=0.2, process_std=2.0, velocity_std=0.5, step_seconds=1.0),
    )
    assert cov == (5.25, 0.0, 5.25)


def test_ekf_predict_zero_velocity_keeps_state():
    state, cov = ekf_predict(
        Position2D(3.0, 4.0), EYE, Velocity2D(0.0, 0.0), EkfParams(range_std=1.0)
    )
    assert state == Position2D(3.0, 4.0)
    assert cov[0] > 1.0


def test_ekf_predict_rejects_non_psd():
    with pytest.raises(ValueError):
        ekf_predict(Position2D(0, 0), (1.0, 0.0, -1.0),
                    Velocity2D(0, 0), EkfParams(range_std=1.0))


def _numpy_psd_verdict(cov):
    """What numpy's eigvalsh says of the matrix of the triple ``cov``."""
    if np.linalg.eigvalsh(_matrix(cov)).min() < -1e-9:
        return "semidefinite"
    return None


def _psd_verdict(cov):
    try:
        _require_psd(cov)
    except ValueError as exc:
        return str(exc).rsplit(" ", 1)[-1]
    return None


def _rotated(lo, hi, angle):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([lo, hi]) @ rot.T


def _lower(matrix):
    """The triple of a 2x2 matrix's lower triangle, which eigvalsh reads."""
    return (float(matrix[0, 0]), float(matrix[1, 0]), float(matrix[1, 1]))


def test_require_psd_agrees_with_the_numpy_predicate_on_random_matrices():
    rng = np.random.default_rng(12)
    verdicts = []
    for _ in range(1500):
        scale = 10.0 ** rng.uniform(-10, 4)
        a, b, d = rng.normal(size=3) * scale
        lo = -1e-9 * (1.0 + rng.uniform(-0.5, 0.5))
        for cov in (
            (a, b, d),
            _lower(_rotated(lo, rng.uniform(0.01, 100.0), rng.uniform(0, math.pi))),
            _lower(_rotated(rng.uniform(0, 1e-6), 10.0 ** rng.uniform(-3, 3), rng.uniform(0, 3))),
        ):
            verdict = _numpy_psd_verdict(cov)
            assert _psd_verdict(cov) == verdict, cov
            verdicts.append(verdict)
    # every outcome is exercised
    assert {None, "semidefinite"} <= set(verdicts)


@pytest.mark.parametrize("lo,verdict", [
    (-1e-9 * (1 - 1e-3), None), (-1e-9 * (1 + 1e-3), "semidefinite"),
    (0.0, None), (-1.0, "semidefinite"),
])
@pytest.mark.parametrize("angle", [0.0, 0.3, math.pi / 4, 2.0])
def test_require_psd_eigenvalue_edges(lo, verdict, angle):
    cov = _rotated(lo, 2.0, angle)
    cov = _lower((cov + cov.T) / 2.0)
    assert _numpy_psd_verdict(cov) == verdict
    assert _psd_verdict(cov) == verdict


def _exact_psd_verdict(cov):
    """The verdict of the full check, without the plainly-PSD fast path."""
    a, b, d = cov
    if not all(map(math.isfinite, cov)):
        return "finite"
    return "semidefinite" if _min_eigenvalue(a, b, d) < -1e-9 else None


@st.composite
def _psd_edge_covariances(draw):
    """Covariances at every scale from 1e-12 to 1e12 on the PSD edge: rotated
    singular matrices, rotated smaller eigenvalues at -1e-9 (1 +- 1e-3), and
    near-singular b**2 ~ a*d, a few ulp either side."""
    scale = 10.0 ** draw(st.floats(-12.0, 12.0))
    shape = draw(st.sampled_from(["singular", "edge", "near-singular"]))
    if shape == "near-singular":
        a = scale * draw(st.floats(0.0, 1.0))
        d = scale * draw(st.floats(0.0, 1.0))
        ulps = draw(st.integers(-4, 4))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        return (a, sign * math.sqrt(a * d) * (1.0 + ulps * 2.0**-53), d)
    hi = scale * draw(st.floats(0.5, 2.0))
    lo = 0.0 if shape == "singular" else -1e-9 * (1.0 + draw(st.floats(-1e-3, 1e-3)))
    angle = draw(st.floats(0.0, math.pi))
    c, s = math.cos(angle), math.sin(angle)
    return (hi * c * c + lo * s * s, (hi - lo) * s * c, hi * s * s + lo * c * c)


@settings(max_examples=500, deadline=None)
@given(_psd_edge_covariances())
# singular matrices near 1e7 and 1e8 that a bare b*b <= a*d test accepts
# and the exact check rejects
@example((12813543.803488407, 8761115.91950735, 5990314.102968803))
@example((85628570.35296686, 83249283.23527202, 80936107.31346768))
def test_require_psd_fast_path_never_accepts_what_the_exact_check_rejects(cov):
    assert _psd_verdict(cov) == _exact_psd_verdict(cov)


def test_require_psd_takes_the_fast_path_for_a_plain_covariance(monkeypatch):
    def exact(*args):
        raise AssertionError("exact check reached")

    monkeypatch.setattr("parkcp.localize._min_eigenvalue", exact)
    for cov in (EYE, (36.0, 0.0, 36.0), (2.0, -1.0, 3.0), (0.0, 0.0, 0.0)):
        assert _require_psd(cov) == cov


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_require_psd_rejects_non_finite_entries(bad, where):
    cov = list(EYE)
    cov[where[0] + where[1]] = bad  # both off-diagonal entries are b
    with pytest.raises(ValueError):
        _require_psd(tuple(cov))
    with pytest.raises(ValueError):
        ekf_update(Position2D(0.0, 0.0), tuple(cov), [], EkfParams(range_std=1.0))


def test_require_psd_rejects_wrong_shape():
    # a covariance is the triple (a, b, d); a 2x2 array or four entries
    # do not unpack into one
    for cov in (np.eye(2), (1.0, 0.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="values to unpack"):
            _require_psd(cov)


def test_ekf_update_empty_is_identity():
    state = Position2D(1.0, 2.0)
    cov = (3.0, 0.0, 3.0)
    new_state, new_cov = ekf_update(state, cov, [], EkfParams(range_std=0.2))
    assert new_state == state
    assert new_cov == cov


def test_ekf_update_converges_to_trilateration():
    truth = (10.0, 10.0)
    anchors = [(0.0, 0.0), (40.0, 0.0), (0.0, 30.0)]
    ranges = [math.dist(truth, a) for a in anchors]
    prob = anchored_problem(anchors, ranges, prior=truth)
    oracle, _ = trilaterate([Position2D(*a) for a in anchors], ranges)
    state = Position2D(9.0, 10.0)
    cov = (100.0, 0.0, 100.0)
    params = EkfParams(range_std=0.2)
    for _ in range(3):
        state, cov = ekf_update(state, cov, list(prob.selected), params)
    assert distance(state, oracle) < 0.3


def test_ekf_update_never_increases_trace():
    rng = np.random.default_rng(8)
    params = EkfParams(range_std=1.0)
    for _ in range(100):
        state = Position2D(*rng.uniform(0, 50, 2))
        var = float(rng.uniform(0.5, 50))
        cov = (var, 0.0, var)
        anchors = rng.uniform(0, 50, (2, 2))
        cands = [
            Candidate(j + 1, NodeClass.ANCHOR, Position2D(*a),
                      float(rng.uniform(1, 40)))
            for j, a in enumerate(anchors)
        ]
        _, new_cov = ekf_update(state, cov, cands, params)
        assert _trace(new_cov) <= _trace(cov) + 1e-9


def test_ekf_update_skips_coincident_candidate(make_candidate):
    state = Position2D(5.0, 5.0)
    cov = (4.0, 0.0, 4.0)
    coincident = make_candidate(vehicle_id=1, x=5.0, y=5.0, measured=3.0)
    new_state, new_cov = ekf_update(state, cov, [coincident], EkfParams(range_std=0.2))
    assert new_state == state
    assert new_cov == cov


def test_ekf_covariance_stays_psd_through_random_cycles():
    rng = np.random.default_rng(4)
    params = EkfParams(range_std=0.5)
    state = Position2D(10.0, 10.0)
    cov = (36.0, 0.0, 36.0)
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
        assert len(cov) == 3 and all(math.isfinite(v) for v in cov)
        assert np.linalg.eigvalsh(_matrix(cov)).min() >= -1e-9


def _joint_update(state, cov, selected, params):
    """The joint EKF update over all range rows at once, through LAPACK's
    solve: the oracle for ekf_update's scalar updates."""
    matrix = _matrix(cov)
    rows, innovations = [], []
    for cand in selected:
        sp = cand.shared_position
        dx, dy = state.x - sp.x, state.y - sp.y
        dist = math.hypot(dx, dy)
        if dist < _COINCIDENT:
            continue
        rows.append((dx / dist, dy / dist))
        innovations.append(cand.measured_range - dist)
    if not rows:
        return state, cov
    jac = np.array(rows)
    innov_cov = jac @ matrix @ jac.T + params.range_std**2 * np.eye(len(rows))
    gain = np.linalg.solve(innov_cov, jac @ matrix).T
    delta = gain @ np.array(innovations)
    new = (np.eye(2) - gain @ jac) @ matrix
    new = (new + new.T) / 2.0
    return Position2D(state.x + delta[0], state.y + delta[1]), _lower(new)


_eigenvalue = st.one_of(
    st.just(0.0),
    st.floats(1e-12, 1e-6),
    st.floats(0.0, 400.0),
)
_coordinate = st.floats(-60.0, 60.0)


@st.composite
def _update_instances(draw):
    lo, hi = sorted((draw(_eigenvalue), draw(_eigenvalue)))
    cov = _lower(_rotated(lo, hi, draw(st.floats(0.0, math.pi))))
    state = Position2D(draw(_coordinate), draw(_coordinate))
    shared = []
    for j in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(["free", "coincident", "near", "duplicate"]))
        if where == "coincident":
            pos = state
        elif where == "near":
            pos = Position2D(state.x + draw(st.floats(-2e-6, 2e-6)), state.y)
        elif where == "duplicate" and shared:
            pos = draw(st.sampled_from(shared))
        else:
            pos = Position2D(draw(_coordinate), draw(_coordinate))
        shared.append(pos)
    cands = [
        Candidate(j + 1, NodeClass.ANCHOR, pos, draw(st.floats(0.0, 90.0)))
        for j, pos in enumerate(shared)
    ]
    params = EkfParams(range_std=draw(st.floats(1e-3, 10.0)))
    return state, cov, cands, params


@settings(max_examples=400, deadline=None)
@given(_update_instances())
def test_ekf_update_agrees_with_the_joint_update(instance):
    state, cov, cands, params = instance
    got_state, got_cov = ekf_update(state, cov, cands, params)
    want_state, want_cov = _joint_update(state, cov, cands, params)
    # Both forms subtract P u u^T P / s from P, and so lose about eps * kappa
    # to cancellation, kappa = 1 + tr(P) / r^2. A singular P ranged at
    # range_std = 1e-3 reaches kappa = 1e9, where neither form holds 1e-9;
    # wherever that loss is below 1e-9, they agree to 1e-9.
    kappa = 1.0 + _trace(cov) / params.range_std**2
    tol = max(1e-9, 64 * sys.float_info.epsilon * kappa)
    for got, want in zip((*got_state, *got_cov), (*want_state, *want_cov)):
        assert abs(got - want) <= tol * (abs(want) + 1.0)


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
        cov = (100.0, 0.0, 100.0)
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


@pytest.mark.parametrize("field", ["range_std", "process_std", "velocity_std", "step_seconds"])
def test_ekf_params_reject_nan(field):
    with pytest.raises(ValueError):
        EkfParams(**{"range_std": 1.0, field: math.nan})


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("field", ["range_std", "process_std", "velocity_std", "step_seconds"])
def test_ekf_params_reject_infinite_values(field, value):
    # an infinite process noise used to end an episode in "covariance must be finite"
    with pytest.raises(ValueError, match="finite"):
        EkfParams(**{"range_std": 1.0, field: value})


@pytest.mark.parametrize("field", ["particles", "iterations", "success_limit", "failure_limit"])
@pytest.mark.parametrize("value", [2.5, 3.0, 1.5, True, "4"])
def test_gcpso_params_reject_non_integer_counts(field, value):
    # particles=2.5 used to fail deep in the swarm, success_limit=1.5 to act as 2
    with pytest.raises(ValueError, match=f"{field} must be an int, got {value!r}"):
        GcpsoParams(**{field: value})


@pytest.mark.parametrize("field", ["initial_radius", "cognitive", "social", "inertia_start"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_gcpso_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        GcpsoParams(**{field: value})


def test_gcpso_params_reject_nan_fitness_stop():
    # no fitness is <= a nan stop, so it could never stop a swarm early
    with pytest.raises(ValueError, match="fitness_stop must not be nan"):
        GcpsoParams(fitness_stop=math.nan)
