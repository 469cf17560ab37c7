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
    ensemble,
    format_results_csv,
    format_steps_csv,
    improvement,
    make_run_config,
    rmse,
    run_episode,
    substream,
    summary_rows,
    trace_metrics,
)
from parkcp.localize import EkfParams
from parkcp.model import MotionKind, Position2D, VehicleRecord, Velocity2D, distance
from parkcp.policy import Mode, PolicyConfig
from parkcp.scenario import ChokePoint, ScenarioConfig, gen_circuit, generate
from dataclasses import replace


def circuit_cfg(algorithm=Algorithm.EKF, *, duration=60,
                n_parked=12, parked_spacing=40.0, noise=None, zone=15.0,
                n_runs=2, seed=0, preloaded=True):
    return make_run_config(
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
        cfg = make_run_config(
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
    cfg = make_run_config(
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
    base = make_run_config(
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
    cfg = make_run_config(
        algorithm=Algorithm.EKF,
        scenario=ScenarioConfig(step_seconds=0.5),
        noise=NoiseModel(range_std=0.2, velocity_std=2.0),
    )
    assert (cfg.ekf.range_std, cfg.ekf.velocity_std, cfg.ekf.step_seconds) == (0.2, 2.0, 0.5)
    noiseless = make_run_config(noise=NoiseModel(range_std=0.0, velocity_std=0.0))
    assert (noiseless.ekf.range_std, noiseless.ekf.velocity_std) == (1e-3, 1e-3)


def test_ekf_step_must_equal_the_scenario_step():
    # an EKF that predicts over another step than the trace's drifts silently
    with pytest.raises(ConfigError, match=r"ekf.step_seconds 1.0 .*scenario.step_seconds 0.5"):
        make_run_config(scenario=ScenarioConfig(step_seconds=0.5), ekf=EkfParams(range_std=4.0))
    cfg = make_run_config(scenario=ScenarioConfig(step_seconds=0.5))
    with pytest.raises(ConfigError, match="step_seconds"):
        replace(cfg, ekf=replace(cfg.ekf, step_seconds=1.0))
    with pytest.raises(ConfigError, match="step_seconds"):
        replace(cfg, scenario=ScenarioConfig())


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
    encountered, km = trace_metrics(records, cfg.zone.radius)[0]
    assert encountered == 12
    assert km == pytest.approx(0.59, abs=0.02)
    # the parked cars stand 5 m off the driven line
    assert trace_metrics(records, 4.0)[0] == (0, km)
    assert run_episode(cfg, 0).anchors_used[0] > 0
    summary = ensemble(replace(cfg, n_runs=1))
    assert summary.vehicles[0].parked_encountered == 12.0
    assert summary.vehicles[0].travelled_km == km


_lattice = st.integers(-8, 8).map(lambda k: k * 0.75)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.tuples(_lattice, _lattice), min_size=1, max_size=8),
             min_size=1, max_size=4),
    st.lists(st.tuples(_lattice, _lattice), max_size=10),
    st.sampled_from([3.75, 15.0, 4.5, 0.1, 0.75, 1.5, 3.0]),
    st.tuples(st.sampled_from([0.0, 1e6, -1e6]), st.sampled_from([0.0, 1e6, -1e6])),
)
def test_trace_metrics_count_matches_every_pair(paths, stations, radius, origin):
    # lattice points make distances of exactly the radius (3-4-5 steps) common;
    # radii of a whole number of lattice steps put pairs on cell edges, and
    # the lattice stays exact when shifted to about 1e6 m from the origin
    def at(xy):
        return Position2D(origin[0] + xy[0], origin[1] + xy[1])

    records = [
        VehicleRecord(vid, MotionKind.MOVING, 0, [at(xy) for xy in path],
                      [Velocity2D(0.0, 0.0)] * len(path))
        for vid, path in enumerate(paths)
    ] + [
        VehicleRecord(100 + k, MotionKind.PARKED, 0, [at(xy)], [Velocity2D(0.0, 0.0)])
        for k, xy in enumerate(stations)
    ]
    parked = [at(xy) for xy in stations]
    for r in records[:len(paths)]:
        expected = sum(
            1 for q in parked if any(distance(p, q) <= radius for p in r.positions)
        )
        assert trace_metrics(records, radius)[r.vehicle_id][0] == expected


def test_traditional_mode_never_uses_anchors():
    # parked vehicles are absent and queued peers stay blind, so no update
    # ever consumes an anchor-class candidate
    from parkcp.scenario import ChokePoint

    cfg = make_run_config(
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
    cfg = make_run_config(
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
    cfg = make_run_config(
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


def _halted_run(monkeypatch, kind, n_anchors, drop_probability=0.0):
    """The (step, purpose, neighbor) of every stream the halted car opens in
    a bootstrap episode with exact ranges and 5 m GNSS noise."""
    opened = []
    real = harness.substream

    def spy(*args):
        if args[2] == HALTED:
            opened.append((args[3], args[4], args[5]))
        return real(*args)

    monkeypatch.setattr(harness, "substream", spy)
    cfg = make_run_config(
        algorithm=Algorithm.EKF,
        scenario=ScenarioConfig(kind="circuit", duration=12),
        noise=NoiseModel(range_std=0.0, gps_std=5.0, velocity_std=0.0),
        zone=CommZone(20.0, drop_probability),
        policy=PolicyConfig(anchors_preloaded=False, gnss_window=GNSS_WINDOW),
        n_runs=1,
    )
    run_episode(cfg, 0, _halted_scene(kind, n_anchors), mode=Mode.PROPOSED)
    return opened


@pytest.mark.parametrize("kind", [MotionKind.PARKED, MotionKind.QUEUED])
@pytest.mark.parametrize("n_anchors", [0, 1])
def test_a_halted_car_beside_fewer_than_two_anchors_ranges_nothing(monkeypatch, kind, n_anchors):
    # its fix is its GNSS mean whatever it ranges, so it opens no range
    # stream, and it reaches anchor grade only when its GNSS window is full
    # (a queued car's first fix is a GPS one, which does not count)
    opened = _halted_run(monkeypatch, kind, n_anchors)
    assert [s for s in opened if s[1] == "range"] == []
    window_full = START + GNSS_WINDOW - 1 + (kind is MotionKind.QUEUED)
    assert max(step for step, _, _ in opened) == window_full


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
    return make_run_config(
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
                format_steps_csv([(algorithm, 4.0, summary)]))

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
        "5e1800867ae442b66f146589e3cd6ca246d5486eaf167dbf61c94ea1f8b4e57d",
    (Algorithm.EKF, False):
        "c2df9d3fbd1c81093e7aa49cb0e25c6f436cf821843dfec7c733b5d65f6b5228",
}


@pytest.mark.parametrize("algorithm, preloaded", list(JITTER_STEPS))
def test_parked_cars_that_jitter_keep_their_per_step_errors(algorithm, preloaded):
    cfg = golden_town_cfg(algorithm)
    cfg = replace(cfg, policy=replace(cfg.policy, anchors_preloaded=preloaded))
    records = _jittered(generate(cfg.scenario))
    summary = ensemble(cfg, records, keep_episodes=True)
    dump = format_steps_csv([(algorithm, 4.0, summary)])
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
        "18eaa44d388f8ef51cc7ad66293dbbb57c4ecd36d5b76121c8d851e344293a13",
    (Algorithm.EKF, False):
        "44036bfc894c6e9022173be0fa1e9ed1d361771a2895b8bcf5b91aeb4c84fa6e",
}


@pytest.mark.parametrize("algorithm, preloaded", list(DROP_STEPS))
def test_town_link_drops_keep_their_per_step_errors(algorithm, preloaded):
    cfg = golden_town_cfg(algorithm)
    cfg = replace(cfg, zone=CommZone(15.0, drop_probability=0.3),
                  policy=replace(cfg.policy, anchors_preloaded=preloaded))
    summary = ensemble(cfg, keep_episodes=True)
    dump = format_steps_csv([(algorithm, 4.0, summary)])
    assert {mode for _, mode, _ in summary.episodes} == set(Mode)
    assert hashlib.sha256(dump.encode()).hexdigest() == DROP_STEPS[algorithm, preloaded]


@pytest.mark.parametrize("mode", list(Mode))
def test_an_episode_rejects_a_trace_built_for_another_radius(mode):
    cfg = circuit_cfg(duration=30)
    trace = harness._Trace(gen_circuit(cfg.scenario), cfg.scenario.step_seconds, 40.0)
    with pytest.raises(ConfigError, match="radius 40.0, not the zone radius 15.0"):
        run_episode(cfg, 0, trace, mode=mode)
    run_episode(replace(cfg, zone=CommZone(40.0)), 0, trace, mode=mode)


def test_episodes_do_no_neighbor_geometry(monkeypatch):
    town = golden_town_cfg(Algorithm.EKF)
    trace = harness._Trace(generate(town.scenario), town.scenario.step_seconds,
                           town.zone.radius)

    def no_geometry(*args):
        raise AssertionError("an episode looked up neighbors itself")

    monkeypatch.setattr(channel, "grid", no_geometry)
    monkeypatch.setattr(channel, "within", no_geometry)
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
    return make_run_config(algorithm=algorithm, scenario=circuit, zone=CommZone(15.0),
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
    assert received
    assert {type(v) for values in received for v in values} == {float}
