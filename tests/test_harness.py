import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkcp import channel, harness
from parkcp.channel import CommZone, NoiseModel
from parkcp.errors import ConfigError
from parkcp.harness import (
    Algorithm,
    RunConfig,
    ensemble,
    format_results_csv,
    format_steps_csv,
    improvement,
    rmse,
    run_episode,
    substream,
    summary_rows,
    trace_metrics,
)
from parkcp.localize import EkfParams, GcpsoParams
from parkcp.model import MotionKind, NodeClass, Position2D, VehicleRecord, Velocity2D, distance
from parkcp.policy import Mode, PolicyConfig
from parkcp.scenario import ChokePoint, ScenarioConfig, gen_circuit, generate
from dataclasses import replace


def circuit_cfg(algorithm=Algorithm.EKF, *, duration=60,
                n_parked=12, parked_spacing=40.0, noise=None, zone=15.0,
                n_runs=2, seed=0, preloaded=True):
    return RunConfig(
        algorithm=algorithm,
        scenario=ScenarioConfig(kind="circuit", duration=duration,
                                n_parked=n_parked, parked_spacing=parked_spacing),
        zone=CommZone(zone),
        noise=noise if noise is not None else NoiseModel(),
        policy=PolicyConfig(anchors_preloaded=preloaded),
        n_runs=n_runs,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# metrics


def test_rmse_examples():
    assert rmse([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
    assert rmse([0.0, 0.0, 0.0]) == 0.0
    assert rmse([5.0]) == 5.0


def test_rmse_empty_rejected():
    with pytest.raises(ValueError):
        rmse([])


@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=20),
       st.randoms())
def test_rmse_permutation_invariant(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert rmse(shuffled) == pytest.approx(rmse(values))


def test_improvement_examples():
    assert improvement(10.0, 5.0) == 50.0
    assert improvement(7.0, 7.0) == 0.0
    with pytest.raises(ValueError):
        improvement(0.0, 1.0)


@given(st.floats(0.1, 100, allow_nan=False), st.floats(0.0, 100, allow_nan=False))
def test_improvement_sign_matches_difference(a, b):
    imp = improvement(a, b)
    if a > b:
        assert imp > 0
    elif a < b:
        assert imp < 0
    else:
        assert imp == 0


# ---------------------------------------------------------------------------
# episodes


def test_episode_deterministic_bit_identical():
    cfg = circuit_cfg(seed=3)
    a = run_episode(cfg, run_seed=5)
    b = run_episode(cfg, run_seed=5)
    assert a.errors.keys() == b.errors.keys()
    for vid in a.errors:
        assert np.array_equal(a.errors[vid], b.errors[vid])
    assert a.anchors_used == b.anchors_used


def test_episode_different_run_seeds_differ():
    cfg = circuit_cfg(seed=3)
    a = run_episode(cfg, run_seed=0)
    b = run_episode(cfg, run_seed=1)
    assert not np.array_equal(a.errors[0], b.errors[0])


def test_paired_modes_share_shared_event_noise():
    # same run seed: the target's first GPS fix (a shared event) is identical
    # in traditional and proposed episodes
    trad = run_episode(circuit_cfg(), run_seed=4, mode=Mode.TRADITIONAL)
    prop = run_episode(circuit_cfg(), run_seed=4, mode=Mode.PROPOSED)
    assert trad.errors[0][0] == prop.errors[0][0]


def test_zero_noise_with_preloaded_anchors_is_near_exact():
    for algorithm in (Algorithm.GCPSO, Algorithm.EKF):
        cfg = circuit_cfg(
            algorithm=algorithm, duration=40, n_parked=48, parked_spacing=10.0,
            noise=NoiseModel(range_std=0.0, gps_std=0.0, velocity_std=0.0),
            zone=30.0,
        )
        errors = run_episode(cfg, run_seed=0).errors[0]
        assert np.all(errors[1:] <= 0.5)


def test_non_unit_step_duration_stays_consistent():
    # zero noise keeps dead reckoning exact only if every component uses the
    # scenario's step duration; a dt mismatch would leak in as drift
    for algorithm in (Algorithm.GCPSO, Algorithm.EKF):
        cfg = RunConfig(
            algorithm=algorithm,
            scenario=ScenarioConfig(kind="circuit", duration=40, n_parked=48,
                                    parked_spacing=10.0, step_seconds=0.5),
            noise=NoiseModel(range_std=0.0, gps_std=0.0, velocity_std=0.0),
            zone=CommZone(30.0),
            n_runs=1,
        )
        errors = run_episode(cfg, 0).errors[0]
        assert np.all(errors <= 0.5)


def test_traditional_isolated_error_stays_bounded():
    # Envelope oracle: at any step the error is at most the radial GPS error
    # of the last reset (Rayleigh sigma=6; P[R > 35 m] ~ 4e-8) plus the
    # dead-reckoning random walk over at most gps_reset_interval=10 steps
    # (per-axis std sqrt(10)*0.5; radial > 10 m is ~5-sigma). Bound: 45 m.
    cfg = RunConfig(
        algorithm=Algorithm.EKF,
        scenario=ScenarioConfig(kind="circuit", duration=1000, n_parked=0),
        n_runs=1, seed=17,
    )
    errors = run_episode(cfg, run_seed=0, mode=Mode.TRADITIONAL).errors[0]
    assert len(errors) == 1000
    assert errors.max() < 45.0
    assert errors.mean() < 15.0


def test_gps_reset_interval_controls_resets():
    # with an enormous reset interval the drift runs free and grows larger
    base = RunConfig(
        algorithm=Algorithm.EKF,
        scenario=ScenarioConfig(kind="circuit", duration=400, n_parked=0),
        policy=PolicyConfig(gps_reset_interval=10),
        n_runs=1, seed=23,
    )
    free = replace(base, policy=PolicyConfig(gps_reset_interval=100_000))
    bounded = run_episode(base, 0, mode=Mode.TRADITIONAL).errors[0]
    drifting = run_episode(free, 0, mode=Mode.TRADITIONAL).errors[0]
    assert drifting[-100:].mean() > bounded[-100:].mean()


def test_ekf_defaults_follow_world_noise_and_scenario():
    cfg = RunConfig(
        algorithm=Algorithm.EKF,
        scenario=ScenarioConfig(step_seconds=0.5),
        noise=NoiseModel(range_std=0.2, velocity_std=2.0),
    )
    assert (cfg.ekf.range_std, cfg.ekf.velocity_std, cfg.ekf.step_seconds) == (0.2, 2.0, 0.5)
    noiseless = RunConfig(noise=NoiseModel(range_std=0.0, velocity_std=0.0))
    assert (noiseless.ekf.range_std, noiseless.ekf.velocity_std) == (1e-3, 1e-3)


def test_ekf_step_must_equal_the_scenario_step():
    # an EKF that predicts over another step than the trace's drifts silently
    with pytest.raises(ConfigError, match=r"ekf.step_seconds 1.0 .*scenario.step_seconds 0.5"):
        RunConfig(scenario=ScenarioConfig(step_seconds=0.5), ekf=EkfParams(range_std=4.0))
    cfg = RunConfig(scenario=ScenarioConfig(step_seconds=0.5))
    with pytest.raises(ConfigError, match="step_seconds"):
        replace(cfg, ekf=replace(cfg.ekf, step_seconds=1.0))
    with pytest.raises(ConfigError, match="step_seconds"):
        replace(cfg, scenario=ScenarioConfig())


@pytest.mark.parametrize("seed, end", [(-1, (1 << 64) - 1), (1 << 64, 0)])
def test_a_run_seed_outside_64_bits_is_rejected(seed, end):
    # substream keys on the seed mod 2**64, so the seed would print the
    # results of the end of the range that it aliases, which stays valid
    with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*64\), got "):
        RunConfig(seed=seed)
    assert RunConfig(seed=end).seed == end


@pytest.mark.parametrize("n_runs", [0, -1])
def test_fewer_than_one_run_is_rejected(n_runs):
    with pytest.raises(ConfigError, match="n_runs must be >= 1"):
        RunConfig(n_runs=n_runs)


def test_run_config_holds_every_run_default():
    assert harness.make_run_config is RunConfig
    cfg = RunConfig()
    assert (cfg.algorithm, cfg.zone, cfg.n_runs, cfg.seed) == (
        Algorithm.GCPSO, CommZone(15.0), 40, 0)
    assert (cfg.scenario, cfg.noise, cfg.policy, cfg.gcpso) == (
        ScenarioConfig(), NoiseModel(), PolicyConfig(), GcpsoParams())
    noise = NoiseModel()
    assert cfg.ekf == EkfParams(range_std=noise.range_std, velocity_std=noise.velocity_std,
                                step_seconds=ScenarioConfig().step_seconds)
    # positional arguments keep make_run_config's order, algorithm first,
    # and the EKF follows the noise and scenario given
    cfg = RunConfig(Algorithm.EKF, ScenarioConfig(step_seconds=0.5), CommZone(40.0),
                    NoiseModel(range_std=0.0, velocity_std=2.0))
    assert (cfg.algorithm, cfg.zone.radius) == (Algorithm.EKF, 40.0)
    assert (cfg.ekf.range_std, cfg.ekf.velocity_std, cfg.ekf.step_seconds) == (1e-3, 2.0, 0.5)


def test_trace_step_mismatch_rejected():
    cfg = circuit_cfg()
    records = gen_circuit(replace(cfg.scenario, step_seconds=2.0))
    with pytest.raises(ConfigError, match="step"):
        run_episode(cfg, 0, records)


def test_episode_tracks_parked_and_distance():
    cfg = circuit_cfg(duration=60, n_parked=12, parked_spacing=40.0)
    records = gen_circuit(cfg.scenario)
    # one lap of the 480 m rectangle at 10 m/s takes 48 steps; 60 steps pass
    # every parked car at least once
    step = cfg.scenario.step_seconds
    encountered, km = trace_metrics(harness._Trace(records, step, cfg.zone.radius))[0]
    assert encountered == 12
    assert km == pytest.approx(0.59, abs=0.02)
    # the parked cars stand 5 m off the driven line
    assert trace_metrics(harness._Trace(records, step, 4.0))[0] == (0, km)
    assert run_episode(cfg, 0).anchors_used[0] > 0
    summary = ensemble(replace(cfg, n_runs=1))
    assert summary.vehicles[0].parked_encountered == 12.0
    assert summary.vehicles[0].travelled_km == km


_lattice = st.integers(-8, 8).map(lambda k: k * 0.75)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3),
                       st.lists(st.tuples(_lattice, _lattice), min_size=1, max_size=8)),
             min_size=1, max_size=4),
    st.lists(st.tuples(_lattice, _lattice, st.integers(0, 6), st.integers(1, 6), st.booleans()),
             max_size=10),
    st.sampled_from([3.75, 15.0, 4.5, 0.1, 0.75, 1.5, 3.0]),
    st.tuples(st.sampled_from([0.0, 1e6, -1e6]), st.sampled_from([0.0, 1e6, -1e6])),
)
def test_trace_metrics_count_matches_every_pair(paths, stations, radius, origin):
    """Each tracked car drives its path from its start step; each parked car
    stands over its own window, still or jittering 0.375 m along x every
    other step. A tracked car meets the parked cars within the radius at a
    step when both are active, as an all-pairs scan of the shared steps
    finds them."""
    # lattice points make distances of exactly the radius (3-4-5 steps) common;
    # radii of a whole number of lattice steps put pairs on cell edges, and
    # the lattice stays exact when shifted to about 1e6 m from the origin
    def at(x, y):
        return Position2D(origin[0] + x, origin[1] + y)

    records = []
    for vid, (start, path) in enumerate(paths):
        positions = [at(*xy) for xy in path]
        velocities = [Velocity2D(q.x - p.x, q.y - p.y) for p, q in zip(positions, positions[1:])]
        records.append(VehicleRecord(vid, MotionKind.MOVING, start, positions,
                                     velocities + [Velocity2D(0.0, 0.0)]))
    for k, (x, y, start, length, jitter) in enumerate(stations):
        positions = [at(x + 0.375 * (t % 2) * jitter, y) for t in range(start, start + length)]
        records.append(VehicleRecord(100 + k, MotionKind.PARKED, start, positions,
                                     [Velocity2D(0.0, 0.0)] * length))
    metrics = trace_metrics(harness._Trace(records, 1.0, radius))
    parked = records[len(paths):]
    for r in records[:len(paths)]:
        expected = sum(1 for q in parked if any(
            distance(r.positions[t - r.start_step], q.positions[t - q.start_step]) <= radius
            for t in range(max(r.start_step, q.start_step), min(r.end_step, q.end_step))
        ))
        assert metrics[r.vehicle_id] == (expected, r.path_length() / 1000.0)


def test_trace_metrics_meets_a_parked_car_where_it_stands_at_that_step():
    """The tracked car drives from x = 0 to 9 along y = 0 over steps 3 to
    12, and the radius is 2 m. Car 1 stands 1 m off x = 8 over steps 0 to
    2, before the car comes: not met. Cars 2 and 3 jitter at x = 5 between
    1.9 and 2.3 m off the road: at step 8, when the car is at x = 5, car 2
    stands at 1.9 m (met) and car 3 at 2.3 m (not met), though car 3 starts
    at 1.9 m and car 2 at 2.3 m."""
    zero = Velocity2D(0.0, 0.0)
    track = [Position2D(float(t - 3), 0.0) for t in range(3, 13)]

    def jittering(vid, near_at_even):
        ys = [1.9 if (t % 2 == 0) == near_at_even else 2.3 for t in range(1, 13)]
        return VehicleRecord(vid, MotionKind.PARKED, 1, [Position2D(5.0, y) for y in ys],
                             [zero] * len(ys))

    records = [
        VehicleRecord(0, MotionKind.MOVING, 3, track, [Velocity2D(1.0, 0.0)] * len(track)),
        VehicleRecord(1, MotionKind.PARKED, 0, [Position2D(8.0, 1.0)] * 3, [zero] * 3),
        jittering(2, near_at_even=True),
        jittering(3, near_at_even=False),
    ]
    trace = harness._Trace(records, 1.0, 2.0)
    assert [j for j, _ in trace.near[8][0][0]] == [2]
    assert trace_metrics(trace) == {0: (1, 0.009)}


def test_an_ensemble_joins_disks_only_to_build_its_trace(monkeypatch):
    cfg = replace(golden_town_cfg(Algorithm.EKF), n_runs=1)
    records = generate(cfg.scenario)
    calls = []
    real = channel.disk_join

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(channel, "disk_join", counting)
    harness._Trace(records, cfg.scenario.step_seconds, cfg.zone.radius)
    built = len(calls)
    ensemble(cfg, records)
    assert built > 0 and len(calls) == 2 * built


def test_traditional_mode_never_uses_anchors():
    # parked vehicles are absent and queued peers stay blind, so no update
    # ever consumes an anchor-class candidate
    from parkcp.scenario import ChokePoint

    cfg = RunConfig(
        algorithm=Algorithm.EKF,
        scenario=ScenarioConfig(
            kind="town", duration=40, n_moving=5, n_parked=10, seed=2,
            choke_points=(ChokePoint(250.0, 200.0, 10_000.0, 5),),
        ),
        zone=CommZone(100.0),
        n_runs=1, seed=2,
    )
    result = run_episode(cfg, 0, mode=Mode.TRADITIONAL)
    assert all(count == 0 for count in result.anchors_used.values())


def test_link_drop_probability_reduces_anchor_usage():
    base = circuit_cfg(duration=80, n_parked=20, parked_spacing=24.0)
    lossy = replace(base, zone=CommZone(15.0, drop_probability=0.9))
    clean = run_episode(base, 0)
    dropped = run_episode(lossy, 0)
    assert dropped.anchors_used[0] < clean.anchors_used[0]


def test_bootstrap_promotes_parked_to_anchors():
    # without preloading, parked cars start inactive and reach anchor grade
    # via the GNSS window; the target's late-episode accuracy improves
    cfg = circuit_cfg(duration=140, preloaded=False, n_parked=20,
                      parked_spacing=24.0, noise=NoiseModel(range_std=0.2))
    errors = run_episode(cfg, 0).errors[0]
    window = cfg.policy.gnss_window
    early = rmse(errors[: window // 2])
    late = rmse(errors[window + 10 :])
    assert late < early


def test_queued_vehicle_becomes_anchor_while_halted():
    # a queued vehicle sitting beside three preloaded anchors is promoted,
    # then serves as a fourth anchor; with zero noise its promotion is exact
    from parkcp.model import MotionKind, Position2D, VehicleRecord, Velocity2D
    from parkcp.model import ZERO_VELOCITY

    duration = 30
    parked = [
        VehicleRecord(i + 1, MotionKind.PARKED, 0,
                      [pos] * duration, [ZERO_VELOCITY] * duration)
        for i, pos in enumerate(
            [Position2D(0.0, 0.0), Position2D(10.0, 0.0), Position2D(0.0, 10.0)]
        )
    ]
    queued = VehicleRecord(
        9, MotionKind.QUEUED, 0,
        [Position2D(5.0, 5.0)] * duration, [ZERO_VELOCITY] * duration,
    )
    target = VehicleRecord(
        0, MotionKind.MOVING, 0,
        [Position2D(5.0 + 0.1 * t, 5.0) for t in range(duration)],
        [Velocity2D(0.1, 0.0)] * duration,
    )
    cfg = RunConfig(
        algorithm=Algorithm.EKF,
        scenario=ScenarioConfig(kind="circuit", duration=duration),
        noise=NoiseModel(range_std=0.0, gps_std=0.0, velocity_std=0.0),
        zone=CommZone(50.0),
        n_runs=1,
    )
    result = run_episode(cfg, 0, parked + [queued, target], mode=Mode.PROPOSED)
    # 3 preloaded anchors + the promoted queued vehicle are all in range, so
    # the target consumes 3 anchors nearly every step
    assert result.anchors_used[0] >= 3 * (duration - 2)
    assert np.all(result.errors[0] <= 0.5)


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_single_run_equals_episode():
    cfg = circuit_cfg(n_runs=1, seed=6)
    summary = ensemble(cfg)
    v = summary.vehicles[0]
    trad = run_episode(cfg, 0, mode=Mode.TRADITIONAL)
    prop = run_episode(cfg, 0, mode=Mode.PROPOSED)
    assert v.traditional_mean == pytest.approx(rmse(trad.errors[0]))
    assert v.proposed_mean == pytest.approx(rmse(prop.errors[0]))
    assert v.traditional_std == 0.0


def test_ensemble_without_parked_cars_gives_zero_improvement():
    cfg = RunConfig(
        algorithm=Algorithm.EKF,
        scenario=ScenarioConfig(kind="circuit", duration=50, n_parked=0),
        n_runs=3, seed=9,
    )
    summary = ensemble(cfg)
    assert np.array_equal(summary.vehicles[0].improvements, np.zeros(3))


@pytest.mark.parametrize("algorithm", [Algorithm.GCPSO, Algorithm.EKF])
def test_exact_traditional_runs_give_a_nan_improvement(algorithm):
    # exact GPS and velocity make every Traditional run exact (the target has
    # no neighbor there), while noisy ranges to parked cars move the Proposed
    # runs: no relative improvement exists, and the table says so
    noise = NoiseModel(range_std=4, gps_std=0, velocity_std=0)
    cfg = circuit_cfg(algorithm, duration=40, noise=noise, n_runs=2)
    summary = ensemble(cfg)
    v = summary.vehicles[0]
    assert np.array_equal(v.traditional_rmse, np.zeros(2))
    assert (v.proposed_rmse > 0).all()
    assert np.isnan(v.improvements).all() and math.isnan(v.average_improvement)
    proposed = format_results_csv(summary_rows(summary)).splitlines()[2]
    assert proposed.startswith("0,proposed,") and proposed.endswith(",nan")


def _curbside_trace(steps=8):
    """Four cars parked in a row along a straight street, a car passing on
    the far side, and a queued car that halts beside the row for two steps:
    any three of the parked cars are collinear anchors."""
    still = [Velocity2D(0.0, 0.0)] * steps
    go = Velocity2D(5.0, 0.0)
    queued_vel = [go, go, still[0], still[0]] + [go] * (steps - 4)
    queued_pos = [Position2D(5.0, 5.0)]
    for v in queued_vel[:-1]:
        queued_pos.append(Position2D(queued_pos[-1].x + v.vx, 5.0))
    return [
        VehicleRecord(0, MotionKind.MOVING, 0,
                      [Position2D(5.0 * t, 20.0) for t in range(steps)], [go] * steps),
        VehicleRecord(1, MotionKind.QUEUED, 0, queued_pos, queued_vel),
    ] + [
        VehicleRecord(2 + k, MotionKind.PARKED, 0, [Position2D(10.0 * k, 0.0)] * steps, still)
        for k in range(4)
    ]


@pytest.mark.parametrize("algorithm", [Algorithm.GCPSO, Algorithm.EKF])
def test_collinear_anchors_fall_back_to_two_anchors(algorithm, monkeypatch):
    # trilateration on three collinear anchors has no fix; the halted car
    # takes the two-anchor fix nearer its GNSS mean instead of aborting
    calls = []
    two_anchor_fix = harness.bilaterate_with_prior
    monkeypatch.setattr(harness, "bilaterate_with_prior",
                        lambda *args: calls.append(args) or two_anchor_fix(*args))
    records = _curbside_trace()
    cfg = replace(circuit_cfg(algorithm, zone=100.0, n_runs=2),
                  scenario=ScenarioConfig(kind="circuit", duration=8))
    summary = ensemble(cfg, records)
    assert [v.vehicle_id for v in summary.vehicles] == [0]
    assert np.isfinite(summary.vehicles[0].proposed_rmse).all()
    # each Proposed run reaches the fallback on its first halted step; a car
    # promoted there keeps its fix on the second
    assert 2 <= len(calls) <= 4
    assert all(a1.y == a2.y == 0.0 for a1, _, a2, _, _ in calls)


GNSS_WINDOW = 5
HALTED, START = 9, GNSS_WINDOW - 1  # the halted car of _halted_scene, its first step


def _halted_scene(kind, n_anchors, duration=12):
    """A car halted throughout at (5, 8), of ``kind``, beside ``n_anchors``
    parked cars (ids 1 and 2) and a car (id 0) driving past, all within 20 m.

    The parked cars start at step 0 and reach anchor grade on a GNSS window
    of ``GNSS_WINDOW`` steps, so they broadcast as anchors from that step.
    The halted car starts at step ``START``, so from its second step on it
    looks around beside them, still averaging."""
    still = [Velocity2D(0.0, 0.0)] * duration
    return [
        VehicleRecord(0, MotionKind.MOVING, 0,
                      [Position2D(0.5 * t, 14.0) for t in range(duration)],
                      [Velocity2D(0.5, 0.0)] * duration),
        VehicleRecord(HALTED, kind, START, [Position2D(5.0, 8.0)] * (duration - START),
                      still[START:]),
    ] + [
        VehicleRecord(1 + k, MotionKind.PARKED, 0, [Position2D(12.0 * k, 0.0)] * duration, still)
        for k in range(n_anchors)
    ]


def _bootstrap_cfg(drop_probability=0.0):
    """EKF bootstrap episodes with exact ranges, 5 m GNSS noise, a 20 m zone
    and a GNSS window of ``GNSS_WINDOW`` steps."""
    return RunConfig(
        algorithm=Algorithm.EKF,
        scenario=ScenarioConfig(kind="circuit", duration=12),
        noise=NoiseModel(range_std=0.0, gps_std=5.0, velocity_std=0.0),
        zone=CommZone(20.0, drop_probability),
        policy=PolicyConfig(anchors_preloaded=False, gnss_window=GNSS_WINDOW),
        n_runs=1,
    )


def _halted_run(monkeypatch, kind, n_anchors, drop_probability=0.0, vid=HALTED):
    """The (step, purpose, neighbor) of every stream car ``vid`` of
    ``_halted_scene`` opens in a bootstrap episode with exact ranges."""
    opened = []
    real = harness.substream

    def spy(*args):
        if args[2] == vid:
            opened.append((args[3], args[4], args[5]))
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(harness, "substream", spy)
        run_episode(_bootstrap_cfg(drop_probability), 0, _halted_scene(kind, n_anchors),
                    mode=Mode.PROPOSED)
    return opened


@pytest.mark.parametrize("kind", [MotionKind.PARKED, MotionKind.QUEUED])
@pytest.mark.parametrize("n_anchors", [0, 1])
def test_a_halted_car_beside_fewer_than_two_anchors_ranges_nothing(monkeypatch, kind, n_anchors):
    # its fix is its GNSS mean whatever it ranges, so it opens no range
    # stream, and it reaches anchor grade only when its GNSS window is full
    opened = _halted_run(monkeypatch, kind, n_anchors)
    assert [s for s in opened if s[1] == "range"] == []
    if kind is MotionKind.QUEUED:
        # it broadcasts its estimate, so it averages on every step (its first
        # fix is a GPS one, which does not count)
        assert max(step for step, _, _ in opened) == START + GNSS_WINDOW
    else:
        # a parked car's mean is read by nothing here: it draws no fix, and
        # the passing car first ranges it on the step after its window is full
        assert opened == []
        passing = _halted_run(monkeypatch, kind, n_anchors, vid=0)
        assert min(step for step, purpose, j in passing
                   if purpose == "range" and j == HALTED) == START + GNSS_WINDOW


@pytest.mark.parametrize("jitter", [0.0, 0.2])
def test_a_parked_car_draws_its_missed_fixes_when_a_second_anchor_arrives(monkeypatch, jitter):
    """A parked car (HALTED) beside anchor 1 hears anchor 2, which parks
    later, only from step ``k``. At k it draws the GNSS fixes of its steps
    START..k, in order, at their true positions (which an ingested trace
    may move within INGEST_TOLERANCE), and its two-anchor fix and role are
    those of the eagerly summed mean. Car 0 drives out of range and opens a
    stream on every step, so the highest step opened so far is the clock."""
    late, steps = 2, 12
    k = late + GNSS_WINDOW  # anchor 2 is promoted at late + GNSS_WINDOW - 1
    still = [Velocity2D(0.0, 0.0)] * steps
    halted_at = [Position2D(5.0 + jitter * (t % 2), 8.0) for t in range(START, steps)]
    records = [
        VehicleRecord(0, MotionKind.MOVING, 0, [Position2D(500.0 + t, 0.0) for t in range(steps)],
                      [Velocity2D(1.0, 0.0)] * steps),
        VehicleRecord(HALTED, MotionKind.PARKED, START, halted_at, still[START:]),
        VehicleRecord(1, MotionKind.PARKED, 0, [Position2D(0.0, 0.0)] * steps, still),
        VehicleRecord(2, MotionKind.PARKED, late, [Position2D(12.0, 0.0)] * (steps - late),
                      still[late:]),
    ]
    cfg = _bootstrap_cfg()
    opened, priors, roles = [], [], []
    clock = [0]
    real_stream, real_fix, real_role = (
        harness.substream, harness.bilaterate_with_prior, harness.classify_stationary)

    def stream_spy(*args):
        clock[0] = max(clock[0], args[3])
        if args[2] == HALTED:
            opened.append((clock[0], args[3], args[4], args[5]))
        return real_stream(*args)

    def fix_spy(*args):
        priors.append(args[4])
        return real_fix(*args)

    def role_spy(*args):
        role = real_role(*args)
        if args[1] >= 2:
            roles.append((args, role))
        return role

    monkeypatch.setattr(harness, "substream", stream_spy)
    monkeypatch.setattr(harness, "bilaterate_with_prior", fix_spy)
    monkeypatch.setattr(harness, "classify_stationary", role_spy)
    run_episode(cfg, 0, records, mode=Mode.PROPOSED)

    assert opened == [(k, s, "gnss", 0) for s in range(START, k + 1)] + [
        (k, k, "range", 1), (k, k, "range", 2)
    ]
    sx = sy = 0.0
    for s in range(START, k + 1):  # the eager sum, one fix per step in order
        fix = channel.measure_gps(halted_at[s - START], cfg.noise,
                                  real_stream(cfg.seed, 0, HALTED, s, "gnss"))
        sx, sy = sx + fix.x, sy + fix.y
    n = k - START + 1
    mean = Position2D(sx / n, sy / n)
    assert [(p.x.hex(), p.y.hex()) for p in priors] == [(mean.x.hex(), mean.y.hex())]
    truth = halted_at[k - START]
    fix = real_fix(Position2D(0.0, 0.0), distance(truth, Position2D(0.0, 0.0)),
                   Position2D(12.0, 0.0), distance(truth, Position2D(12.0, 0.0)), mean)
    expected = (MotionKind.PARKED, 2, n, distance(fix, truth), cfg.policy)
    assert roles == [(expected, real_role(*expected))]
    assert roles[0][1] is NodeClass.ANCHOR


def test_a_queued_car_restarts_its_gnss_mean_on_each_halt(monkeypatch):
    """A lone queued car halts at steps 1-2, drives at steps 3-4 and halts
    again from step 5. Each halt averages its own fixes: at step 5 the mean
    is that step's single fix, not one summed onto the first halt's. The
    full window promotes it at step 9, after which it draws nothing."""
    move, halt = Velocity2D(1.0, 0.0), Velocity2D(0.0, 0.0)
    velocities = [move if t in (3, 4) else halt for t in range(12)]
    positions = [Position2D(5.0, 8.0)]
    for v in velocities[:-1]:
        positions.append(Position2D(positions[-1].x + v.vx, positions[-1].y + v.vy))
    records = [VehicleRecord(HALTED, MotionKind.QUEUED, 0, positions, velocities)]
    cfg = _bootstrap_cfg()
    gnss, roles = [], []
    real_stream, real_role = harness.substream, harness.classify_stationary

    def stream_spy(*args):
        if args[4] == "gnss":
            gnss.append(args[3])
        return real_stream(*args)

    def role_spy(*args):
        roles.append((gnss[-1], args[2], args[3]))
        return real_role(*args)

    monkeypatch.setattr(harness, "substream", stream_spy)
    monkeypatch.setattr(harness, "classify_stationary", role_spy)
    run_episode(cfg, 0, records, mode=Mode.PROPOSED)

    assert gnss == [1, 2, 5, 6, 7, 8, 9]
    expected = []
    for halt_steps in ([1, 2], [5, 6, 7, 8, 9]):
        sx = sy = 0.0
        for n, s in enumerate(halt_steps, start=1):  # the mean of this halt's fixes
            fix = channel.measure_gps(positions[s], cfg.noise,
                                      real_stream(cfg.seed, 0, HALTED, s, "gnss"))
            sx, sy = sx + fix.x, sy + fix.y
            expected.append((s, n, distance(Position2D(sx / n, sy / n), positions[s])))
    assert roles == expected  # roles[2] is step 5's: n == 1, the mean its single fix


@pytest.mark.parametrize("kind", [MotionKind.PARKED, MotionKind.QUEUED])
def test_a_halted_car_beside_two_anchors_ranges_and_is_promoted(monkeypatch, kind):
    # on its first look around it ranges its three neighbors, anchors first,
    # and the two-anchor fix on exact ranges promotes it long before its
    # GNSS window is full; a promoted halted car opens no further stream
    opened = _halted_run(monkeypatch, kind, 2)
    assert [(step, j) for step, purpose, j in opened if purpose == "range"] == [
        (START + 1, 1), (START + 1, 2), (START + 1, 0)
    ]
    assert max(step for step, _, _ in opened) == START + 1


@pytest.mark.parametrize("kind", [MotionKind.PARKED, MotionKind.QUEUED])
@pytest.mark.parametrize("n_anchors", [0, 1, 2])
def test_a_halted_car_draws_for_every_broadcast_it_may_lose(monkeypatch, kind, n_anchors):
    # the drop draws come before the anchor count, so on every halted step
    # there is one for every neighbor in range, whether or not it then ranges
    opened = _halted_run(monkeypatch, kind, n_anchors, drop_probability=0.3)
    halted = [step for step, purpose, _ in opened if purpose == "gnss" and step > START]
    drops = sorted((step, j) for step, purpose, j in opened if purpose == "drop")
    assert drops == [(step, j) for step in halted for j in range(n_anchors + 1)]
    if n_anchors < 2:
        assert [s for s in opened if s[1] == "range"] == []
    else:  # a dropped anchor broadcast leaves it short of two on some step
        assert {step for step, purpose, _ in opened if purpose == "range"} < set(halted)


def test_a_gcpso_step_without_a_neighbor_runs_no_swarm(monkeypatch):
    # a lone car hears no one; the swarm would return its prior without a
    # draw, so the step opens no pso stream and calls nothing
    cfg = RunConfig(
        algorithm=Algorithm.GCPSO,
        scenario=ScenarioConfig(kind="circuit", duration=30, n_parked=0),
        policy=PolicyConfig(gps_reset_interval=100_000), n_runs=1, seed=5,
    )
    purposes, swarms, priors = [], [], []
    real_stream, real_swarm, real_reckon = (harness.substream, harness.gcpso_localize,
                                            harness.dead_reckon)

    def stream_spy(*args):
        purposes.append(args[4])
        return real_stream(*args)

    def swarm_spy(problem, params, rng):
        swarms.append(problem.selected)
        return real_swarm(problem, params, rng)

    def reckon_spy(*args):
        priors.append(real_reckon(*args))
        return priors[-1]

    monkeypatch.setattr(harness, "substream", stream_spy)
    monkeypatch.setattr(harness, "gcpso_localize", swarm_spy)
    monkeypatch.setattr(harness, "dead_reckon", reckon_spy)
    errors = run_episode(cfg, 0).errors[0]
    assert len(priors) == len(errors) - 1 > 0  # every step after the first drives
    assert swarms == [] and "pso" not in purposes
    truth = generate(cfg.scenario)[0].positions
    assert errors[1:].tolist() == [math.hypot(p.x - q.x, p.y - q.y)
                                   for p, q in zip(priors, truth[1:])]


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_a_step_without_a_neighbor_keeps_its_prior_for_either_localizer(
        monkeypatch, algorithm, mode):
    # one rule for both localizers: a lone car's estimate is its prior, no
    # localizer runs, and the EKF carries its predicted covariance forward
    cfg = RunConfig(
        algorithm=algorithm,
        scenario=ScenarioConfig(kind="circuit", duration=30, n_parked=0),
        policy=PolicyConfig(gps_reset_interval=100_000), n_runs=1, seed=5,
    )
    predicted, reckoned = [], []
    real_predict, real_reckon = harness.ekf_predict, harness.dead_reckon

    def predict_spy(state, cov, vel, params):
        predicted.append((state, cov, *real_predict(state, cov, vel, params)))
        return predicted[-1][2:]

    def reckon_spy(*args):
        reckoned.append(real_reckon(*args))
        return reckoned[-1]

    def no_localizer(*args):
        raise AssertionError("a localizer ran without a neighbor")

    monkeypatch.setattr(harness, "ekf_predict", predict_spy)
    monkeypatch.setattr(harness, "dead_reckon", reckon_spy)
    monkeypatch.setattr(harness, "ekf_update", no_localizer)
    monkeypatch.setattr(harness, "gcpso_localize", no_localizer)
    errors = run_episode(cfg, 0, mode=mode).errors[0]
    if algorithm is Algorithm.EKF:
        assert reckoned == []
        priors = [prior for _, _, prior, _ in predicted]
        # each predict starts from the last one's state and covariance
        assert [(s, c) for s, c, _, _ in predicted[1:]] == [(p, c) for _, _, p, c in predicted[:-1]]
    else:
        assert predicted == []
        priors = reckoned
    assert len(priors) == len(errors) - 1 > 0  # every step after the first drives
    truth = generate(cfg.scenario)[0].positions
    assert errors[1:].tolist() == [math.hypot(p.x - q.x, p.y - q.y)
                                   for p, q in zip(priors, truth[1:])]


@pytest.mark.parametrize("mode", list(Mode))
def test_no_drop_draw_for_a_silent_neighbor(monkeypatch, mode):
    # parked cars are silent in traditional mode, and the neighbor table
    # lists them anyway; no stream is opened for a broadcast never sent
    drawn = []
    real = harness.substream

    def spy(*args):
        if args[4] == "drop":
            drawn.append(args[5])
        return real(*args)

    monkeypatch.setattr(harness, "substream", spy)
    cfg = golden_town_cfg(Algorithm.EKF)
    cfg = replace(cfg, zone=CommZone(15.0, drop_probability=0.3),
                  policy=replace(cfg.policy, anchors_preloaded=True))
    parked = {r.vehicle_id for r in generate(cfg.scenario) if r.kind is MotionKind.PARKED}
    run_episode(cfg, 1, mode=mode)
    assert drawn
    # in proposed mode the preloaded anchors broadcast, so they are drawn for
    assert bool(set(drawn) & parked) is (mode is Mode.PROPOSED)


def test_ensemble_jobs_parity():
    cfg = circuit_cfg(n_runs=4, seed=12)
    serial = ensemble(cfg, jobs=1)
    parallel = ensemble(cfg, jobs=4)
    assert format_results_csv(summary_rows(serial)) == format_results_csv(
        summary_rows(parallel)
    )
    for a, b in zip(serial.vehicles, parallel.vehicles):
        assert np.array_equal(a.improvements, b.improvements)


def test_ensemble_starts_no_more_workers_than_tasks(monkeypatch):
    started = []
    pool = harness.ProcessPoolExecutor

    def recording_pool(max_workers, **kwargs):
        started.append(max_workers)
        return pool(max_workers, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", recording_pool)
    cfg = circuit_cfg(n_runs=1, seed=3)
    serial = ensemble(cfg, jobs=1)
    pooled = ensemble(cfg, jobs=6)
    assert started == [2]  # one run is two episodes
    assert format_results_csv(summary_rows(pooled)) == format_results_csv(
        summary_rows(serial)
    )


@pytest.mark.parametrize("jobs", [0, -3])
def test_ensemble_rejects_jobs_below_one(jobs):
    with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
        ensemble(circuit_cfg(n_runs=1, duration=30), jobs=jobs)


def test_results_csv_shape():
    cfg = circuit_cfg(n_runs=2, seed=1)
    rows = summary_rows(ensemble(cfg))
    text = format_results_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0].startswith("vehicle,mode,algorithm")
    assert len(lines) == 1 + 2  # one tracked vehicle x two modes
    assert ",traditional," in lines[1] and lines[1].endswith(",")
    assert ",proposed," in lines[2] and not lines[2].endswith(",")


def test_substream_independence_and_reproducibility():
    a = substream(1, 2, 3, 4, "range", 5).normal(size=4)
    b = substream(1, 2, 3, 4, "range", 5).normal(size=4)
    c = substream(1, 2, 3, 4, "range", 6).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


ENTROPY = [
    (0, 0, 0, 0, 0),
    (2**32, 1, 2, 3, 2**32 - 1),
    (2**64 + 5, 2**70, 7, 240, 2**64 - 1),
    (-1, -7, 5, 9, 2**40),
    (1, 2, -3, 4, -(2**63)),
    (12345678901234567890, 3, 2**33 + 1, 0, 99),
]


def fresh_philox(base, run, vid, step, purpose, extra=0):
    """The generator of the documented substream layout, built from scratch."""
    mask = (1 << 64) - 1
    key = np.array([base & mask, run & mask], dtype=np.uint64)
    counter = np.array(
        [harness._PURPOSES[purpose] << 56, vid & mask, step & mask, extra & mask],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@pytest.mark.parametrize("entropy", ENTROPY)
@pytest.mark.parametrize("purpose", list(harness._PURPOSES))
def test_substream_is_the_seed_sequence_of_the_masked_values(entropy, purpose):
    """The stream is seeded by the sequence of the masked values alone: key
    (base, run) and counter (purpose code << 56, vehicle, step, extra)."""
    base, run, vid, step, extra = entropy
    expected = fresh_philox(base, run, vid, step, purpose, extra)
    assert np.array_equal(
        substream(base, run, vid, step, purpose, extra).random(6), expected.random(6)
    )
    expected = fresh_philox(base, run, vid, step, purpose, extra)
    assert np.array_equal(
        substream(base, run, vid, step, purpose, extra).normal(size=6), expected.normal(size=6)
    )


@pytest.mark.parametrize("leftover", [
    lambda g: g.random(3),  # three of a block's four words used
    lambda g: g.integers(0, 10, dtype=np.uint32),  # a 32-bit half word pending
    lambda g: g.integers(0, 2**32, size=5, dtype=np.uint32),
    lambda g: g.normal(size=7),
], ids=["half-block", "pending-uint32", "uint32s", "normals"])
@pytest.mark.parametrize("same_stream", [False, True])
def test_substream_draws_as_fresh_after_a_partial_draw(leftover, same_stream):
    args = (1, 2, 3, 4, "range", 5)
    leftover(substream(*args) if same_stream else substream(9, 8, 7, 6, "pso", 1))
    assert np.array_equal(substream(*args).random(6), fresh_philox(*args).random(6))
    leftover(substream(*args))
    assert np.array_equal(
        substream(*args).integers(0, 2**32, size=7, dtype=np.uint32),
        fresh_philox(*args).integers(0, 2**32, size=7, dtype=np.uint32),
    )


def golden_town_cfg(algorithm):
    """The town case of tests/test_golden.py: choke points, staggered entries
    and no preloaded anchors."""
    town = ScenarioConfig(
        seed=1, kind="town", duration=80, area=(0.0, 0.0, 200.0, 160.0),
        n_moving=4, n_entering=2, n_parked=16, entry_interval=10,
        choke_points=(ChokePoint(70.0, 60.0, 8.0, 15), ChokePoint(140.0, 100.0, 8.0, 15)),
    )
    return RunConfig(
        algorithm=algorithm, scenario=town, zone=CommZone(15.0),
        noise=NoiseModel(range_std=4.0), policy=PolicyConfig(anchors_preloaded=False),
        n_runs=2, seed=1,
    )


@pytest.mark.parametrize("algorithm", [Algorithm.GCPSO, Algorithm.EKF])
def test_ensemble_explicit_town_trace_same_in_pool(algorithm):
    cfg = golden_town_cfg(algorithm)
    records = generate(cfg.scenario)

    def outputs(summary):
        return (format_results_csv(summary_rows(summary)),
                format_steps_csv([summary]))

    serial = outputs(ensemble(cfg, records, jobs=1, keep_episodes=True))
    assert outputs(ensemble(cfg, records, jobs=2, keep_episodes=True)) == serial
    assert outputs(ensemble(cfg, None, jobs=2, keep_episodes=True)) == serial


@pytest.mark.parametrize("jobs", [1, 2])
def test_ensemble_rejects_inconsistent_trace(jobs):
    cfg = circuit_cfg()
    records = gen_circuit(replace(cfg.scenario, step_seconds=2.0))
    with pytest.raises(ConfigError, match="step"):
        ensemble(cfg, records, jobs=jobs)


def test_ensemble_validates_the_trace_once(monkeypatch):
    validated, episodes = [], []
    real_validate, real_episode = harness.validate_records, harness.run_episode

    def counting_validate(*args):
        validated.append(args)
        return real_validate(*args)

    def counting_episode(*args):
        episodes.append(args)
        return real_episode(*args)

    monkeypatch.setattr(harness, "validate_records", counting_validate)
    monkeypatch.setattr(harness, "run_episode", counting_episode)
    cfg = circuit_cfg(n_runs=3, duration=30)
    ensemble(cfg, gen_circuit(cfg.scenario))
    assert (len(validated), len(episodes)) == (1, 6)
    # a direct call with records still checks them, and so does one that
    # generates its trace
    run_episode(cfg, 0, gen_circuit(cfg.scenario))
    assert len(validated) == 2
    run_episode(cfg, 0)
    assert len(validated) == 3


@pytest.mark.parametrize("mode, preloaded", [
    (Mode.TRADITIONAL, True), (Mode.PROPOSED, True), (Mode.PROPOSED, False),
])
@pytest.mark.parametrize("algorithm", [Algorithm.GCPSO, Algorithm.EKF])
def test_episode_does_not_depend_on_record_order(algorithm, mode, preloaded):
    cfg = golden_town_cfg(algorithm)
    cfg = replace(cfg, policy=replace(cfg.policy, anchors_preloaded=preloaded))
    records = generate(cfg.scenario)
    expected = run_episode(cfg, 1, records, mode=mode)
    rng = np.random.default_rng(3)
    for _ in range(3):
        shuffled = [records[i] for i in rng.permutation(len(records))]
        result = run_episode(cfg, 1, shuffled, mode=mode)
        assert result.errors.keys() == expected.errors.keys()
        for vid, errs in expected.errors.items():
            assert np.array_equal(result.errors[vid], errs)
        assert result.anchors_used == expected.anchors_used
        assert result.first_step == expected.first_step


def test_no_caller_draws_from_a_superseded_stream(monkeypatch):
    """substream hands out one shared generator, so each caller must draw
    before the next stream is opened."""
    real = harness.substream
    opened, purposes = [0], set()

    class OneStream:
        def __init__(self, generator, ticket):
            self._generator, self._ticket = generator, ticket

        def __getattr__(self, name):
            method = getattr(self._generator, name)

            def draw(*args, **kwargs):
                if opened[0] != self._ticket:
                    raise AssertionError(f"{name}() after a later substream call")
                return method(*args, **kwargs)

            return draw

    def guarded(*args):
        opened[0] += 1
        purposes.add(args[4])
        return OneStream(real(*args), opened[0])

    monkeypatch.setattr(harness, "substream", guarded)
    for algorithm in (Algorithm.GCPSO, Algorithm.EKF):
        town = golden_town_cfg(algorithm)
        for mode, preloaded in (
            (Mode.TRADITIONAL, True), (Mode.PROPOSED, True), (Mode.PROPOSED, False)
        ):
            cfg = replace(town, policy=replace(town.policy, anchors_preloaded=preloaded))
            run_episode(cfg, 1, mode=mode)
    lossy = circuit_cfg(Algorithm.GCPSO, duration=80, n_parked=20, parked_spacing=24.0)
    run_episode(replace(lossy, zone=CommZone(100.0, drop_probability=0.3)), 1)
    assert purposes == set(harness._PURPOSES)


@pytest.mark.parametrize("jobs", [1, 2])
def test_ensemble_rejects_a_trace_without_vehicles(jobs):
    cfg = circuit_cfg()
    with pytest.raises(ConfigError, match="trace has no vehicles"):
        ensemble(cfg, [], jobs=jobs)
    empty_town = replace(cfg, scenario=ScenarioConfig(kind="town", n_moving=0, n_parked=0))
    with pytest.raises(ConfigError, match="trace has no vehicles"):
        ensemble(empty_town, jobs=jobs)


def test_episode_rejects_a_trace_without_vehicles():
    cfg = circuit_cfg()
    with pytest.raises(ConfigError, match="trace has no vehicles"):
        run_episode(cfg, 0, [])
    empty_town = replace(cfg, scenario=ScenarioConfig(kind="town", n_moving=0, n_parked=0))
    with pytest.raises(ConfigError, match="trace has no vehicles"):
        run_episode(empty_town, 0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_vehicle_id_with_two_records_is_rejected(jobs):
    cfg = circuit_cfg(duration=30)
    records = gen_circuit(cfg.scenario)
    records.append(replace(records[0]))
    with pytest.raises(ConfigError, match="more than one record for a vehicle id"):
        ensemble(cfg, records, jobs=jobs)
    with pytest.raises(ConfigError, match="more than one record for a vehicle id"):
        run_episode(cfg, 0, records)


def test_ensemble_of_parked_cars_only_has_no_rows():
    cfg = circuit_cfg()
    parked = [r for r in gen_circuit(cfg.scenario) if r.kind is MotionKind.PARKED]
    summary = ensemble(cfg, parked)
    assert summary.vehicles == []
    assert format_results_csv(summary_rows(summary)) == (
        "vehicle,mode,algorithm,sigma_r,zone,rmse_mean,rmse_std,improvement_pct\n"
    )


def _jittered(records, dx=0.2):
    """``records`` with every parked car's x shifted by ``dx`` at every other
    step: a parked car that an ingested trace moves within INGEST_TOLERANCE."""
    return [
        replace(r, positions=[Position2D(p.x + dx * (i % 2), p.y)
                              for i, p in enumerate(r.positions)])
        if r.kind is MotionKind.PARKED else r
        for r in records
    ]


# sha256 of the per-step error dump (6 decimals, both modes) of the golden
# town with jittering parked cars; a parked car that moves must be
# re-broadcast at every step, so these must not move when settled cars skip it
JITTER_STEPS = {
    (Algorithm.GCPSO, True):
        "83ad81ce8b6467af4efb6ca9b0f25426898c309ce0a85923f923bedd0ad0d91b",
    (Algorithm.GCPSO, False):
        "edc644eb81b7eef6f62cae1d8d8a8b6ac4d6d06886922514b7075c3670cb018e",
    (Algorithm.EKF, True):
        "f493e4fa77e55ac92eb762e70918ed4c16c78ca90e23e1a727dcf6c68c08aca9",
    (Algorithm.EKF, False):
        "9827fb7ad5fce93e330805f152471bd917ffa196a8481aedd022cf9a067326ae",
}


@pytest.mark.parametrize("algorithm, preloaded", list(JITTER_STEPS))
def test_parked_cars_that_jitter_keep_their_per_step_errors(algorithm, preloaded):
    cfg = golden_town_cfg(algorithm)
    cfg = replace(cfg, policy=replace(cfg.policy, anchors_preloaded=preloaded))
    records = _jittered(generate(cfg.scenario))
    summary = ensemble(cfg, records, keep_episodes=True)
    dump = format_steps_csv([summary])
    assert {mode for _, mode, _ in summary.episodes} == set(Mode)
    assert hashlib.sha256(dump.encode()).hexdigest() == JITTER_STEPS[algorithm, preloaded]


# sha256 of the per-step error dump (6 decimals, both modes) of the golden
# town with a 0.3 link-drop probability: every car's drop draws, halted cars'
# included, must stay keyed to the same (car, step, neighbor)
DROP_STEPS = {
    (Algorithm.GCPSO, True):
        "351527cdaf6acad9acbd5add5e4587644c64e566ce4c09ea45517c8762154a5f",
    (Algorithm.GCPSO, False):
        "ba69895171acf972901b20466b441df8f7eaaf5c0711382e0cd24cf298966def",
    (Algorithm.EKF, True):
        "10f8404340b40a713fef694f7224d7bba1177b729bfdbfc8ac612d0af8f08461",
    (Algorithm.EKF, False):
        "eef82d59d9634cacb4efaf149c8ec6eece8ebb8e7b328263da66fc601bd01dd1",
}


@pytest.mark.parametrize("algorithm, preloaded", list(DROP_STEPS))
def test_town_link_drops_keep_their_per_step_errors(algorithm, preloaded):
    cfg = golden_town_cfg(algorithm)
    cfg = replace(cfg, zone=CommZone(15.0, drop_probability=0.3),
                  policy=replace(cfg.policy, anchors_preloaded=preloaded))
    summary = ensemble(cfg, keep_episodes=True)
    dump = format_steps_csv([summary])
    assert {mode for _, mode, _ in summary.episodes} == set(Mode)
    assert hashlib.sha256(dump.encode()).hexdigest() == DROP_STEPS[algorithm, preloaded]


def _staggered_town(algorithm, drop_probability):
    """The golden town with its k-th parked car arriving at step 11k mod 66
    (in groups of two or three, from step 0 to 55, not in id order), a 30 m
    zone and a 30-step GNSS window. The first anchors appear mid-run, when
    the first cars' windows fill and they settle; cars that parked later
    stay dormant until two anchors are in range, then range and are
    promoted."""
    cfg = golden_town_cfg(algorithm)
    cfg = replace(cfg, zone=CommZone(30.0, drop_probability),
                  policy=replace(cfg.policy, gnss_window=30))
    records, k = [], 0
    for r in generate(cfg.scenario):
        if r.kind is MotionKind.PARKED:
            s, k = 11 * k % 66, k + 1
            r = replace(r, start_step=s, positions=r.positions[s:], velocities=r.velocities[s:])
        records.append(r)
    return cfg, records


def test_staggered_parked_cars_range_once_anchors_appear(monkeypatch):
    cfg, records = _staggered_town(Algorithm.EKF, 0.0)
    start = {r.vehicle_id: r.start_step for r in records if r.kind is MotionKind.PARKED}
    first_range = {}
    real = harness.substream

    def spy(*args):
        if args[2] in start and args[4] == "range":
            first_range.setdefault(args[2], args[3])
        return real(*args)

    monkeypatch.setattr(harness, "substream", spy)
    run_episode(cfg, 0, records, Mode.PROPOSED)
    # no parked car ranges before the first GNSS windows fill, and some that
    # arrived since then wait, dormant, for anchors before they range
    assert min(first_range.values()) >= cfg.policy.gnss_window - 1
    assert sum(start[v] < s - 1 for v, s in first_range.items()) >= 3


# sha256 of the per-step error dump (6 decimals, both modes) of
# _staggered_town: a dormant parked car must count the anchors it hears
# exactly once they appear mid-run, settled ones included, with and
# without link drops
STAGGERED_STEPS = {
    (Algorithm.GCPSO, 0.0):
        "3b0830d64c88df06e7dc3eb374e6dcc7f7d8eff7c3fc1bb0e7d3820421221a3b",
    (Algorithm.GCPSO, 0.3):
        "d222042a08cbf209508eb82848f47c532bf424f4bd7a558dab0c218f84f436cb",
    (Algorithm.EKF, 0.0):
        "5427f35b3822e1e1cb9811799b8d6779c2bba0e866709d608169b4babf63faaf",
    (Algorithm.EKF, 0.3):
        "7998651498b8618c553077ac826c92e8d58f758c6f9641e31169c0f91f9fc552",
}


@pytest.mark.parametrize("algorithm, drop", list(STAGGERED_STEPS))
def test_staggered_parked_cars_keep_their_per_step_errors(algorithm, drop):
    cfg, records = _staggered_town(algorithm, drop)
    summary = ensemble(cfg, records, keep_episodes=True)
    dump = format_steps_csv([summary])
    assert {mode for _, mode, _ in summary.episodes} == set(Mode)
    assert hashlib.sha256(dump.encode()).hexdigest() == STAGGERED_STEPS[algorithm, drop]


@pytest.mark.parametrize("algorithm", [Algorithm.GCPSO, Algorithm.EKF])
@pytest.mark.parametrize("staggered", [False, True])
def test_ensemble_output_does_not_depend_on_record_order(staggered, algorithm):
    """An episode numbers its cars in trace order, but draws, ties and
    result keys use vehicle ids, so reversed or shuffled records give the
    same results CSV, per-step error bytes and anchors used in both modes.
    A generated trace numbers its cars by id, so no digest can show this."""
    if staggered:
        cfg, records = _staggered_town(algorithm, 0.3)
    else:
        cfg = golden_town_cfg(algorithm)
        records = generate(cfg.scenario)
    assert [r.vehicle_id for r in records] == list(range(len(records)))

    def outputs(recs):
        summary = ensemble(cfg, recs, keep_episodes=True)
        assert {mode for _, mode, _ in summary.episodes} == set(Mode)
        return format_results_csv(summary_rows(summary)), [
            (run, mode, vid, ep.first_step[vid], ep.errors[vid].tobytes(), ep.anchors_used[vid])
            for run, mode, ep in summary.episodes for vid in sorted(ep.errors)
        ]

    expected = outputs(records)
    shuffled = [records[i] for i in np.random.default_rng(5).permutation(len(records))]
    assert outputs(records[::-1]) == expected
    assert outputs(shuffled) == expected


@pytest.mark.parametrize("preloaded", [True, False])
@pytest.mark.parametrize("drop", [0.0, 0.3])
@pytest.mark.parametrize("algorithm", [Algorithm.GCPSO, Algorithm.EKF])
@pytest.mark.parametrize("scenario", ["town", "circuit"])
def test_traditional_episodes_do_not_depend_on_parked_cars(scenario, algorithm, drop, preloaded):
    cfg = golden_town_cfg(algorithm) if scenario == "town" else circuit_cfg(algorithm)
    cfg = replace(cfg, zone=replace(cfg.zone, drop_probability=drop),
                  policy=replace(cfg.policy, anchors_preloaded=preloaded))
    records = generate(cfg.scenario)
    unparked = [r for r in records if r.kind is not MotionKind.PARKED]
    assert len(unparked) < len(records)
    full, bare = (run_episode(cfg, 1, rs, Mode.TRADITIONAL) for rs in (records, unparked))
    assert full.errors.keys() == bare.errors.keys()
    for vid, errors in full.errors.items():
        assert errors.tobytes() == bare.errors[vid].tobytes()
    assert (full.first_step, full.anchors_used) == (bare.first_step, bare.anchors_used)


@pytest.mark.parametrize("mode", list(Mode))
def test_an_episode_rejects_a_trace_built_for_another_radius(mode):
    cfg = circuit_cfg(duration=30)
    trace = harness._Trace(gen_circuit(cfg.scenario), cfg.scenario.step_seconds, 40.0)
    with pytest.raises(ConfigError, match="radius 40.0, not the zone radius 15.0"):
        run_episode(cfg, 0, trace, mode=mode)
    run_episode(replace(cfg, zone=CommZone(40.0)), 0, trace, mode=mode)


@pytest.mark.parametrize("mode", list(Mode))
def test_an_episode_rejects_a_trace_checked_for_another_step(mode):
    cfg = circuit_cfg(duration=30)
    trace = harness._Trace(gen_circuit(cfg.scenario), 1.0, cfg.zone.radius)
    halved = replace(cfg, scenario=replace(cfg.scenario, step_seconds=0.5),
                     ekf=replace(cfg.ekf, step_seconds=0.5))
    # the records alone fail the check at 0.5 s, so a trace checked at 1 s must too
    with pytest.raises(ConfigError, match="inconsistent with configured step"):
        run_episode(halved, 0, trace.records, mode=mode)
    with pytest.raises(ConfigError, match="at step 1.0 for radius 15.0, .* scenario step 0.5"):
        run_episode(halved, 0, trace, mode=mode)


def test_episodes_do_no_neighbor_geometry(monkeypatch):
    town = golden_town_cfg(Algorithm.EKF)
    trace = harness._Trace(generate(town.scenario), town.scenario.step_seconds,
                           town.zone.radius)

    def no_geometry(*args):
        raise AssertionError("an episode looked up neighbors itself")

    monkeypatch.setattr(channel, "disk_join", no_geometry)
    for algorithm in Algorithm:
        for mode in Mode:
            for preloaded in (True, False):
                cfg = golden_town_cfg(algorithm)
                cfg = replace(cfg, policy=replace(cfg.policy, anchors_preloaded=preloaded))
                assert run_episode(cfg, 1, trace, mode=mode).errors


def golden_circuit_cfg(algorithm):
    """The circuit of tests/test_golden.py at sigma_r = 4 and a 15 m zone."""
    circuit = ScenarioConfig(kind="circuit", duration=240, n_parked=20,
                             parked_spacing=24.0, seed=1)
    return RunConfig(algorithm=algorithm, scenario=circuit, zone=CommZone(15.0),
                           noise=NoiseModel(range_std=4.0), n_runs=1, seed=1)


@pytest.mark.parametrize("mode, preloaded", [
    (Mode.TRADITIONAL, True), (Mode.PROPOSED, True), (Mode.PROPOSED, False),
])
@pytest.mark.parametrize("algorithm", [Algorithm.GCPSO, Algorithm.EKF])
@pytest.mark.parametrize("make_cfg", [golden_circuit_cfg, golden_town_cfg])
def test_localizers_receive_python_floats(monkeypatch, make_cfg, algorithm, mode, preloaded):
    """Every coordinate, range and covariance entry an episode hands to a
    localizer is a Python float, not a numpy scalar."""
    received = []

    def recording(real, values_of):
        def call(*args):
            received.append(values_of(*args))
            return real(*args)
        return call

    def neighbor_values(selected):
        return [v for c in selected for v in (*c.shared_position, c.measured_range)]

    monkeypatch.setattr(harness, "ekf_predict", recording(
        harness.ekf_predict, lambda state, cov, vel, params: [*state, *cov, *vel]))
    monkeypatch.setattr(harness, "ekf_update", recording(
        harness.ekf_update,
        lambda state, cov, selected, params: [*state, *cov, *neighbor_values(selected)]))
    monkeypatch.setattr(harness, "gcpso_localize", recording(
        harness.gcpso_localize,
        lambda problem, params, rng: [*problem.prior, *neighbor_values(problem.selected)]))
    cfg = make_cfg(algorithm)
    cfg = replace(cfg, policy=replace(cfg.policy, anchors_preloaded=preloaded))
    run_episode(cfg, 1, mode=mode)
    if (make_cfg, algorithm, mode) == (golden_circuit_cfg, Algorithm.GCPSO, Mode.TRADITIONAL):
        # the Traditional circuit car never selects a neighbor, and a GCPSO
        # step without one calls no localizer
        assert received == []
        return
    assert received
    assert {type(v) for values in received for v in values} == {float}


def ekf_town_cfg(range_std, n_runs=1):
    """The benchmark's bootstrapped town with the EKF: seed 1, 20/10/80 cars
    on 360 x 280 m, a 15 m zone."""
    scenario = ScenarioConfig(
        seed=1, kind="town", area=(0.0, 0.0, 360.0, 280.0),
        n_moving=20, n_entering=10, n_parked=80,
        choke_points=(ChokePoint(143.6844366435097, 158.79852357247069, 5.0, 20),
                      ChokePoint(181.648654536762, 82.2580936137618, 5.0, 20)),
    )
    return RunConfig(Algorithm.EKF, scenario, CommZone(15.0), NoiseModel(range_std=range_std),
                     PolicyConfig(anchors_preloaded=False), n_runs=n_runs, seed=1)


@pytest.mark.parametrize("range_std", [0.2, 1.0])
def test_an_ekf_town_keeps_every_car_within_three_gps_sigmas(range_std):
    """The benchmark's bootstrapped town keeps every tracked car's mean RMSE
    within 3 * gps_std in both modes. An EKF that ranged to a neighbor's
    broadcast estimate as if it were exact fed each car's error back into
    the others, and every Traditional car exceeded the bound."""
    cfg = ekf_town_cfg(range_std)
    bound = 3 * cfg.noise.gps_std
    over = [(v.vehicle_id, mode, rmse_mean) for v in ensemble(cfg).vehicles
            for mode, rmse_mean in (("traditional", v.traditional_mean),
                                    ("proposed", v.proposed_mean))
            if not rmse_mean <= bound]
    assert over == []


def _tracked_nees(monkeypatch, cfg, mode):
    """The NEES e' P^-1 e of every tracked car's EKF posterior at each step
    t - 1 against its truth then, over ``cfg.n_runs`` episodes of ``mode``.
    That posterior is the (state, cov) handed to the ``ekf_predict`` that
    follows the car's "vel" stream at step t."""
    records = generate(cfg.scenario)
    trace = harness._Trace(records, cfg.scenario.step_seconds, cfg.zone.radius)
    tracked = {r.vehicle_id: r for r in records if r.kind is MotionKind.MOVING}
    pending, nees = [], []
    real_stream, real_predict = harness.substream, harness.ekf_predict

    def stream_spy(*args):
        if args[4] == "vel":
            pending.append(args[2:4])
        return real_stream(*args)

    def predict_spy(state, cov, vel, params):
        (vid, t), = pending
        pending.clear()
        if vid in tracked:
            rec = tracked[vid]
            truth = rec.positions[t - 1 - rec.start_step]
            ex, ey = state.x - truth.x, state.y - truth.y
            a, b, d = cov
            nees.append((d * ex * ex - 2.0 * b * ex * ey + a * ey * ey) / (a * d - b * b))
        return real_predict(state, cov, vel, params)

    monkeypatch.setattr(harness, "substream", stream_spy)
    monkeypatch.setattr(harness, "ekf_predict", predict_spy)
    for run in range(cfg.n_runs):
        run_episode(cfg, run, trace, mode)
    return nees


def _ekf_circuit_cfg(zone):
    """The golden circuit with the EKF at sigma_r = 0.2, 10 runs."""
    return RunConfig(Algorithm.EKF, golden_circuit_cfg(Algorithm.EKF).scenario, CommZone(zone),
                     NoiseModel(range_std=0.2), n_runs=10, seed=1)


# mean NEES and share above 5.99 today: town 4.92, 15.4% Traditional and
# 163.95, 22.5% Proposed at sigma_r 0.2; 4.23, 13.5% and 5.70, 13.4% at 1;
# 2.29, 7.4% and 1.78, 4.8% at 4. Circuit at 15 m 1.39, 1.5% and 14.25, 4.1%;
# at 100 m 1.39, 1.5% and 3.46, 5.4%.
_OVERCONFIDENT = pytest.mark.xfail(
    raises=AssertionError, reason="the EKF is overconfident at accurate ranging (ROADMAP item 2)")


@pytest.mark.parametrize("make_cfg, mode", [
    pytest.param(lambda: ekf_town_cfg(0.2, 4), Mode.TRADITIONAL, marks=_OVERCONFIDENT,
                 id="town-0.2-traditional"),
    pytest.param(lambda: ekf_town_cfg(0.2, 4), Mode.PROPOSED, marks=_OVERCONFIDENT,
                 id="town-0.2-proposed"),
    pytest.param(lambda: ekf_town_cfg(1.0, 4), Mode.TRADITIONAL, marks=_OVERCONFIDENT,
                 id="town-1-traditional"),
    pytest.param(lambda: ekf_town_cfg(1.0, 4), Mode.PROPOSED, marks=_OVERCONFIDENT,
                 id="town-1-proposed"),
    pytest.param(lambda: ekf_town_cfg(4.0, 4), Mode.TRADITIONAL, id="town-4-traditional"),
    pytest.param(lambda: ekf_town_cfg(4.0, 4), Mode.PROPOSED, id="town-4-proposed"),
    pytest.param(lambda: _ekf_circuit_cfg(15.0), Mode.TRADITIONAL, id="circuit-15m-traditional"),
    pytest.param(lambda: _ekf_circuit_cfg(15.0), Mode.PROPOSED, marks=_OVERCONFIDENT,
                 id="circuit-15m-proposed"),
    pytest.param(lambda: _ekf_circuit_cfg(100.0), Mode.TRADITIONAL, id="circuit-100m-traditional"),
    pytest.param(lambda: _ekf_circuit_cfg(100.0), Mode.PROPOSED, marks=_OVERCONFIDENT,
                 id="circuit-100m-proposed"),
])
def test_the_ekf_covariance_is_consistent_with_its_errors(monkeypatch, make_cfg, mode):
    """A consistent 2-D filter has NEES distributed as chi-square with 2
    degrees of freedom: a mean of 2, and 5% of car-steps above 5.99, its 95%
    point (Bar-Shalom, Li & Kirubarajan, 2001). The band allows a mean in
    [1, 3] and at most 10% above 5.99."""
    nees = _tracked_nees(monkeypatch, make_cfg(), mode)
    assert nees
    assert 1.0 <= sum(nees) / len(nees) <= 3.0
    assert sum(v > 5.99 for v in nees) <= 0.10 * len(nees)
