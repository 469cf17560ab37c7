import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkcp.channel import (
    CommZone,
    NoiseModel,
    cell_width,
    grid,
    measure_gps,
    measure_range,
    neighbors,
    within,
)
from parkcp.harness import _broadcast
from parkcp.model import NodeClass, Position2D


def _world(entries):
    """entries: (id, x, y, node_class)"""
    return {vid: (Position2D(x, y), ncls) for vid, x, y, ncls in entries}


def clamped_gaussian_mean(mu: float, sigma: float) -> float:
    """Analytic E[max(0, N(mu, sigma^2))], the oracle for clamped ranging."""
    z = mu / sigma
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return mu * cdf + sigma * pdf


def test_neighbors_mutual_within_radius():
    world = _world([(1, 0.0, 0.0, NodeClass.BLIND), (2, 10.0, 0.0, NodeClass.BLIND)])
    zone = CommZone(15.0)
    assert neighbors(world, 1, zone) == [2]
    assert neighbors(world, 2, zone) == [1]


def test_neighbors_boundary_exclusion():
    world = _world([(1, 0.0, 0.0, NodeClass.BLIND), (2, 16.0, 0.0, NodeClass.BLIND)])
    zone = CommZone(15.0)
    assert neighbors(world, 1, zone) == []
    assert neighbors(world, 2, zone) == []


def test_neighbors_excludes_inactive():
    world = _world([(1, 0.0, 0.0, NodeClass.BLIND), (2, 5.0, 0.0, NodeClass.INACTIVE)])
    assert neighbors(world, 1, CommZone(15.0)) == []
    # the inactive vehicle can still look around itself
    assert neighbors(world, 2, CommZone(15.0)) == [1]


def test_neighbors_sorted_ascending():
    world = _world(
        [(9, 0.0, 0.0, NodeClass.BLIND), (4, 1.0, 0.0, NodeClass.BLIND),
         (7, 2.0, 0.0, NodeClass.ANCHOR)]
    )
    assert neighbors(world, 9, CommZone(15.0)) == [4, 7]


def test_neighbors_unknown_id():
    world = _world([(1, 0.0, 0.0, NodeClass.BLIND)])
    with pytest.raises(KeyError):
        neighbors(world, 99, CommZone(15.0))


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.booleans()),
    min_size=2, max_size=8,
))
def test_neighbors_symmetric_between_active_nodes(entries):
    world = _world(
        [(i, x, y, NodeClass.INACTIVE if inactive else NodeClass.BLIND)
         for i, (x, y, inactive) in enumerate(entries)]
    )
    zone = CommZone(30.0)
    active = [vid for vid, (_, ncls) in world.items() if ncls is not NodeClass.INACTIVE]
    for i in active:
        for j in active:
            if i != j:
                assert (j in neighbors(world, i, zone)) == (i in neighbors(world, j, zone))


def _all_pairs(world, vehicle_id, zone):
    """Reference neighbor scan: every other vehicle, the same distance test."""
    own = world[vehicle_id][0]
    return sorted(
        vid for vid, (pos, ncls) in world.items()
        if vid != vehicle_id and ncls is not NodeClass.INACTIVE
        and math.hypot(own.x - pos.x, own.y - pos.y) <= zone.radius
    )


def _grid_aligned(spacing, radius):
    """Points on multiples of ``spacing`` and at exactly ``radius`` from the
    origin along both axes, both signs, so pairs sit on cell edges."""
    pts = [(k * spacing, m * spacing) for k in range(-3, 4) for m in range(-2, 3)]
    pts += [(0.0, 0.0), (radius, 0.0), (-radius, 0.0), (0.0, radius), (0.0, -radius),
            (2 * radius, 0.0), (-radius, -radius)]
    return pts


coordinate = st.one_of(
    st.floats(-200, 200, allow_nan=False),
    st.integers(-12, 12).map(lambda k: k * 12.5),
    st.sampled_from([0.0, 15.0, -15.0, 24.0, -24.0, 30.0, -30.0, 48.0, -1e-300]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(coordinate, coordinate, st.booleans()), min_size=1, max_size=30),
    st.sampled_from([15.0, 24.0, 100.0, 0.5]),
    st.floats(0.01, 250.0),
)
def test_neighbors_match_all_pairs_scan(entries, radius_a, radius_b):
    vehicles = [(i * 3 - 20, x, y, NodeClass.INACTIVE if inactive else NodeClass.BLIND)
                for i, (x, y, inactive) in enumerate(entries)]
    world = _world(vehicles)
    for zone in (CommZone(radius_a), CommZone(radius_b)):
        for vid in world:
            assert neighbors(world, vid, zone) == _all_pairs(world, vid, zone)


@pytest.mark.parametrize("spacing,radius", [(24.0, 15.0), (24.0, 24.0), (15.0, 15.0),
                                            (12.5, 25.0), (0.1, 0.3)])
def test_neighbors_match_all_pairs_scan_on_cell_edges(spacing, radius):
    pts = _grid_aligned(spacing, radius)
    world = _world(
        [(i, x, y, NodeClass.INACTIVE if i % 5 == 4 else NodeClass.ANCHOR)
         for i, (x, y) in enumerate(pts)]
    )
    zone = CommZone(radius)
    for vid in world:
        assert neighbors(world, vid, zone) == _all_pairs(world, vid, zone)
    origin = next(i for i, p in enumerate(pts) if p == (0.0, 0.0))
    at_radius = [i for i, p in enumerate(pts)
                 if p in {(radius, 0.0), (-radius, 0.0), (0.0, radius), (0.0, -radius)}
                 and world[i][1] is not NodeClass.INACTIVE]
    assert set(at_radius) <= set(neighbors(world, origin, zone))


def test_neighbors_far_from_the_origin_and_unknown_id():
    # large coordinates widen the cells; the result must not change
    base = 3.0e7
    world = _world([(1, base, -base, NodeClass.BLIND),
                    (2, base + 15.0, -base, NodeClass.BLIND),
                    (3, base + 15.000001, -base, NodeClass.BLIND)])
    zone = CommZone(15.0)
    for vid in world:
        assert neighbors(world, vid, zone) == _all_pairs(world, vid, zone)
    with pytest.raises(KeyError):
        neighbors(world, 99, zone)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_neighbors_non_finite_positions_find_and_are_found_by_nothing(bad):
    world = _world([(1, 0.0, 0.0, NodeClass.BLIND), (4, 3.0, 0.0, NodeClass.ANCHOR),
                    (2, bad, 0.0, NodeClass.BLIND), (3, 0.0, math.nan, NodeClass.ANCHOR)])
    zone = CommZone(15.0)
    assert [neighbors(world, vid, zone) for vid in (1, 2, 3)] == [[4], [], []]
    assert neighbors(world, 4, zone) == [1]


far_coordinate = st.one_of(
    coordinate,
    st.floats(-1e6 - 300.0, -1e6 + 300.0),
    st.floats(1e6 - 300.0, 1e6 + 300.0),
)
# a second car at exactly the radius along an axis, or at about it diagonally
partner = st.sampled_from([None, (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (0.6, 0.8)])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(far_coordinate, far_coordinate, st.sampled_from(list(NodeClass)),
                  st.booleans(), partner),
        min_size=1, max_size=12,
    ),
    st.sampled_from([15.0, 24.0, 100.0, 0.5]),
    st.tuples(st.floats(-30, 30), st.floats(-30, 30)),
    st.integers(0, 4),
)
def test_settled_and_moving_grids_find_what_neighbors_finds(cars, radius, velocity, stop):
    """The episode's lookup: a grid of the settled cars' broadcasts, built
    when the settled set changes, copied and extended by the other cars'
    broadcasts each step. Car 0 drives until step ``stop``, halts there, and
    settles from the next step; the other cars either stand settled or
    drive. Every car of every step finds what ``channel.neighbors`` finds."""
    placed = []
    for x, y, ncls, still, offset in cars:
        placed.append((x, y, ncls, still))
        if offset is not None:
            placed.append((x + offset[0] * radius, y + offset[1] * radius, ncls, still))
    vx, vy = velocity

    def position(i, t):
        x, y, _, still = placed[i]
        moves = min(t, stop) if i == 0 else (0 if still else t)
        return Position2D(x + moves * vx, y + moves * vy)

    steps = range(6)
    extent = max(abs(c) for i in range(len(placed)) for t in steps for c in position(i, t))
    width = cell_width(radius, extent)
    zone = CommZone(radius)
    fixed, fixed_ids = None, None
    for t in steps:
        settled = {i for i, (*_, still) in enumerate(placed) if still and i > 0}
        settled |= {0} if t > stop else set()
        entries = {i: _broadcast(i, position(i, t), ncls, position(i, t))
                   for i, (_, _, ncls, _) in enumerate(placed)}
        if settled != fixed_ids:
            fixed_ids = settled
            fixed = grid((entries[i] for i in settled if entries[i] is not None), width)
        cells = grid((e for i, e in entries.items() if i not in settled and e is not None),
                     width, fixed)
        world = _world([(i, *position(i, t), ncls) for i, (_, _, ncls, _) in enumerate(placed)])
        for vid, (own, _) in world.items():
            found = sorted(e[0] for e in within(cells, own.x, own.y, width, radius) if e[0] != vid)
            assert found == neighbors(world, vid, zone) == _all_pairs(world, vid, zone)


def test_measure_range_noiseless_identity():
    rng = np.random.default_rng(0)
    assert measure_range(12.5, NoiseModel(range_std=0.0), rng) == 12.5


def test_measure_range_rejects_negative_distance():
    with pytest.raises(ValueError):
        measure_range(-1.0, NoiseModel(), np.random.default_rng(0))


def test_measure_range_clamped_mean_matches_oracle():
    # E[max(0, 1 + N(0, 16))] -- frozen from the analytic clamped-Gaussian
    # oracle (cross-checked by quadrature): 2.145379
    oracle = clamped_gaussian_mean(1.0, 4.0)
    assert oracle == pytest.approx(2.145379, abs=1e-6)
    rng = np.random.default_rng(123)
    noise = NoiseModel(range_std=4.0)
    draws = np.array([measure_range(1.0, noise, rng) for _ in range(100_000)])
    assert draws.min() >= 0.0
    assert abs(draws.mean() - oracle) < 0.05


def test_measure_range_std_preserved_far_from_clamp():
    rng = np.random.default_rng(7)
    noise = NoiseModel(range_std=0.2)
    draws = np.array([measure_range(100.0, noise, rng) for _ in range(100_000)])
    assert abs(draws.std() - 0.2) < 0.01


def test_measure_gps_noiseless_identity():
    rng = np.random.default_rng(0)
    fix = measure_gps(Position2D(3.0, 4.0), NoiseModel(gps_std=0.0), rng)
    assert fix == Position2D(3.0, 4.0)


def test_measure_gps_radial_rms():
    rng = np.random.default_rng(99)
    noise = NoiseModel(gps_std=6.0)
    truth = Position2D(0.0, 0.0)
    sq = np.array([
        (fix.x**2 + fix.y**2)
        for fix in (measure_gps(truth, noise, rng) for _ in range(100_000))
    ])
    rms = math.sqrt(sq.mean())
    expected = 6.0 * math.sqrt(2.0)  # 8.485281...
    assert abs(rms - expected) < 0.02 * expected


def test_measure_gps_draws_differ():
    rng = np.random.default_rng(1)
    noise = NoiseModel(gps_std=6.0)
    a = measure_gps(Position2D(0, 0), noise, rng)
    b = measure_gps(Position2D(0, 0), noise, rng)
    assert a != b


def test_fixed_seed_reproduces_measurement_stream():
    noise = NoiseModel(range_std=4.0, gps_std=6.0)
    out = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        stream = [measure_range(10.0, noise, rng) for _ in range(5)]
        stream.append(measure_gps(Position2D(1, 2), noise, rng))
        out.append(stream)
    assert out[0] == out[1]


def test_noise_model_rejects_negative_std():
    with pytest.raises(ValueError):
        NoiseModel(range_std=-1.0)


@pytest.mark.parametrize("field", ["range_std", "gps_std", "velocity_std"])
def test_noise_model_rejects_nan(field):
    with pytest.raises(ValueError):
        NoiseModel(**{field: math.nan})


def test_comm_zone_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        CommZone(0.0)
    with pytest.raises(ValueError):
        CommZone(math.nan)
