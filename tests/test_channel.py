import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkcp.channel import CommZone, NoiseModel, measure_gps, measure_range, neighbors
from parkcp.model import NodeClass, Position2D, VehicleSnapshot, WorldState


def _world(entries):
    """entries: (id, x, y, node_class)"""
    return WorldState(
        {
            vid: VehicleSnapshot(Position2D(x, y), ncls, Position2D(x, y))
            for vid, x, y, ncls in entries
        },
    )


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
    active = [vid for vid, s in world.vehicles.items()
              if s.node_class is not NodeClass.INACTIVE]
    for i in active:
        for j in active:
            if i != j:
                assert (j in neighbors(world, i, zone)) == (i in neighbors(world, j, zone))


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


def test_comm_zone_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        CommZone(0.0)
