import math
from collections import ChainMap
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkcp.channel import (
    CommZone,
    NoiseModel,
    disk_join,
    measure_gps,
    measure_range,
    neighbors,
)
from parkcp import harness
from parkcp.harness import _Trace, substream
from parkcp.model import MotionKind, NodeClass, Position2D, VehicleRecord, Velocity2D, distance


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


def _joined(queries, entries, radius):
    """``disk_join`` of (x, y, key) lists, as sorted (query, entry, distance bits)."""
    q, e = (np.array(side, float).reshape(-1, 3) for side in (queries, entries))
    qi, ei, d = disk_join(q[:, 0], q[:, 1], q[:, 2].astype(np.int64),
                          e[:, 0], e[:, 1], e[:, 2].astype(np.int64), radius)
    assert (np.diff(qi) >= 0).all()  # grouped by query
    return sorted(zip(qi.tolist(), ei.tolist(), [v.hex() for v in d.tolist()]))


def _scanned(queries, entries, radius):
    """Every pair with equal keys, by the exact ``math.hypot <= radius`` test."""
    return sorted(
        (i, j, math.hypot(qx - ex, qy - ey).hex())
        for i, (qx, qy, qk) in enumerate(queries) for j, (ex, ey, ek) in enumerate(entries)
        if qk == ek and math.hypot(qx - ex, qy - ey) <= radius
    )


joined_coordinate = st.one_of(
    coordinate,
    *(st.floats(c - 300.0, c + 300.0) for c in (1e6, -1e6)),
    *(st.floats(c - 2000.0, c + 2000.0) for c in (1e15, -1e15)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(joined_coordinate, joined_coordinate, st.integers(0, 2)), max_size=12),
    st.lists(st.tuples(joined_coordinate, joined_coordinate, st.integers(0, 2)), max_size=12),
    st.sampled_from([0.5, 15.0, 100.0]),
    st.lists(st.tuples(st.integers(0, 11), partner.filter(bool)), max_size=6),
)
def test_disk_join_equals_an_all_pairs_scan(queries, entries, radius, partners):
    """Grouped keys, empty sides, pairs at exactly the radius (an entry
    placed at the radius from a query), and points about 1e6 and 1e15 m
    from the origin, where cells are far wider than the radius."""
    for i, (ux, uy) in partners:
        if i < len(queries):
            x, y, key = queries[i]
            entries = entries + [(x + ux * radius, y + uy * radius, key)]
    assert _joined(queries, entries, radius) == _scanned(queries, entries, radius)


@pytest.mark.parametrize("spacing,radius", [(24.0, 15.0), (15.0, 15.0), (12.5, 25.0),
                                            (0.25, 0.5), (50.0, 100.0)])
def test_disk_join_equals_an_all_pairs_scan_on_cell_edges(spacing, radius):
    pts = _grid_aligned(spacing, radius)
    queries = [(x, y, i % 2) for i, (x, y) in enumerate(pts)]
    entries = [(x, y, (i // 3) % 2) for i, (x, y) in enumerate(pts)]
    for q, e in ((queries, entries), (queries, []), ([], entries)):
        assert _joined(q, e, radius) == _scanned(q, e, radius)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", range(4))
def test_disk_join_rejects_a_non_finite_coordinate(side, bad):
    """On either side and either axis, also when the other side is empty."""
    def join(qx, qy, ex, ey):
        return disk_join(qx, qy, np.zeros(len(qx), np.int64),
                         ex, ey, np.zeros(len(ex), np.int64), 15.0)

    coords = [np.array([0.0, 3.0]) for _ in range(4)]
    coords[side][1] = bad
    with pytest.raises(ValueError, match="finite"):
        join(*coords)
    alone = [c if k // 2 == side // 2 else np.empty(0) for k, c in enumerate(coords)]
    with pytest.raises(ValueError, match="finite"):
        join(*alone)


# how a car moves: it stands still parked, stands parked but jitters within
# the ingest tolerance, or drives at -1, 0 or 1 times the velocity
motion = st.sampled_from(["still", "jitter", "driving"])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(far_coordinate, far_coordinate, st.sampled_from(list(NodeClass)),
                  motion, st.integers(0, 3), st.integers(1, 6), partner),
        min_size=1, max_size=12,
    ),
    st.sampled_from([15.0, 24.0, 100.0, 0.5]),
    st.tuples(st.floats(-30, 30), st.floats(-30, 30)),
    st.integers(0, 4),
)
def test_trace_rows_hold_what_neighbors_finds(cars, radius, velocity, stop):
    """The neighbor table of ``harness._Trace``. Car 0 is queued over steps
    0 to 5: it drives until step ``stop`` and halts there. Every other car
    has a window (start, length) and one of the motions above. At every
    step each active car's row holds exactly the ids that
    ``channel.neighbors`` and ``_all_pairs`` find over the active cars, each
    at ``model.distance`` bit for bit, and never the car itself; only active
    cars have a row. Rows hold car indices, whose vehicle ids are
    ``trace.ids``. Dropping the ids of cars in an inactive role leaves what
    ``neighbors`` finds when those cars are inactive, as an episode hears
    them."""
    placed = []
    for x, y, ncls, how, start, length, offset in cars:
        placed.append((x, y, ncls, how, start, length))
        if offset is not None:
            placed.append((x + offset[0] * radius, y + offset[1] * radius, ncls, how, start,
                           length))
    placed[0] = (*placed[0][:3], "queued", 0, 6)
    vx, vy = velocity
    ids = [i * 3 - 20 for i in range(len(placed))]
    zero = Velocity2D(0.0, 0.0)
    records = []
    for i, (x, y, _, how, start, length) in enumerate(placed):
        steps = range(start, start + length)
        if how == "queued":
            moves, kind = [min(t, stop) for t in steps], MotionKind.QUEUED
            velocities = [Velocity2D(vx, vy) if t < stop else zero for t in steps]
        elif how == "driving":
            factor = i % 3 - 1
            moves, kind = [factor * (t - start) for t in steps], MotionKind.MOVING
            velocities = [Velocity2D(factor * vx, factor * vy)] * length
        else:
            moves, kind, velocities = [0] * length, MotionKind.PARKED, [zero] * length
        positions = [Position2D(x + m * vx + (0.2 * (t % 2) if how == "jitter" else 0.0),
                                y + m * vy) for m, t in zip(moves, steps)]
        if how == "still":
            positions = [positions[0]] * length
        records.append(VehicleRecord(ids[i], kind, start, positions, velocities))

    trace = _Trace(records, 1.0, radius)
    assert trace.ids == ids
    zone = CommZone(radius)
    for t in trace.steps:
        active = [(ids[i], r.positions[t - r.start_step], placed[i][2])
                  for i, r in enumerate(records) if r.start_step <= t < r.end_step]
        world = _world([(vid, *pos, NodeClass.BLIND) for vid, pos, _ in active])
        roles = _world([(vid, *pos, ncls) for vid, pos, ncls in active])
        # rows are keyed by, and hold, car indices in trace order
        own_rows, shared_rows = ({ids[k]: [(ids[j], d) for j, d in row]
                                  for k, row in rows.items()} for rows in trace.near[t])
        still_parked = {ids[k] for k in trace.still_parked}
        near = ChainMap(own_rows, shared_rows)
        assert set(near) == set(world)
        # a row is shared only if its car and every car in it are still parked
        assert set(world) - still_parked <= own_rows.keys()
        for vid in shared_rows.keys() - own_rows.keys():
            assert all(j in still_parked for j, _ in near[vid])
        for vid, (own, _) in world.items():
            row = near[vid]
            found = sorted(j for j, _ in row)
            assert vid not in found
            assert found == neighbors(world, vid, zone) == _all_pairs(world, vid, zone)
            for j, d in row:
                assert d.hex() == distance(own, world[j][0]).hex()
            heard = sorted(j for j in found if roles[j][1] is not NodeClass.INACTIVE)
            assert heard == neighbors(roles, vid, zone) == _all_pairs(roles, vid, zone)
    with patch.object(harness, "_BLOCK", 1):  # a join per step, whatever the active sets
        stepwise = _Trace(records, 1.0, radius)
    for t in trace.steps:
        assert ({i: sorted(row) for i, row in ChainMap(*stepwise.near[t]).items()}
                == {i: sorted(row) for i, row in ChainMap(*trace.near[t]).items()})


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


@pytest.mark.parametrize("std", [0.0, 0.5, 4.0, 6.0])
def test_measurements_scale_standard_normals_as_numpy_normal_does(std):
    """numpy's normal(loc, scale) draws loc + scale * z from one standard
    normal z per value, so 0.0 + std * z is its draw bit for bit, including
    its +0.0 at std = 0; the measurements draw that way on fresh substreams."""
    noise = NoiseModel(range_std=std, gps_std=std)
    for vid in range(40):
        fresh = partial(substream, 7, 3, vid, 11, "range")
        scalar = fresh().normal(0.0, std)
        assert (0.0 + std * fresh().standard_normal()).hex() == scalar.hex()
        pair = fresh().normal(0.0, std, size=2).tolist()
        z = fresh().standard_normal(2).tolist()
        assert [(0.0 + std * v).hex() for v in z] == [v.hex() for v in pair]
        assert measure_range(9.0, noise, fresh()) == max(0.0, 9.0 + scalar)
        fix = measure_gps(Position2D(3.0, -4.0), noise, fresh())
        assert [c.hex() for c in fix] == [(3.0 + pair[0]).hex(), (-4.0 + pair[1]).hex()]


def test_noise_model_rejects_negative_std():
    with pytest.raises(ValueError):
        NoiseModel(range_std=-1.0)


@pytest.mark.parametrize("field", ["range_std", "gps_std", "velocity_std"])
def test_noise_model_rejects_nan(field):
    with pytest.raises(ValueError):
        NoiseModel(**{field: math.nan})


@pytest.mark.parametrize("field", ["range_std", "gps_std", "velocity_std"])
def test_noise_model_rejects_inf(field):
    with pytest.raises(ValueError, match="finite"):
        NoiseModel(**{field: math.inf})


def test_comm_zone_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        CommZone(0.0)
    # an infinite radius used to fail each trace build with "disk_join needs
    # finite coordinates"
    for radius in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="communication radius must be finite"):
            CommZone(radius)
