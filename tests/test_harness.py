import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkcp.channel import CommZone, NoiseModel
from parkcp.errors import ConfigError
from parkcp.harness import (
    Algorithm,
    ensemble,
    format_results_csv,
    improvement,
    make_run_config,
    rmse,
    run_episode,
    substream,
    summary_rows,
    trace_metrics,
)
from parkcp.policy import Mode, PolicyConfig
from parkcp.scenario import ScenarioConfig, gen_circuit
from dataclasses import replace


def circuit_cfg(algorithm=Algorithm.EKF, mode=Mode.PROPOSED, *, duration=60,
                n_parked=12, parked_spacing=40.0, noise=None, zone=15.0,
                n_runs=2, seed=0, preloaded=True):
    return make_run_config(
        algorithm=algorithm,
        scenario=ScenarioConfig(kind="circuit", duration=duration,
                                n_parked=n_parked, parked_spacing=parked_spacing),
        zone=CommZone(zone),
        noise=noise if noise is not None else NoiseModel(),
        policy=PolicyConfig(mode=mode, anchors_preloaded=preloaded),
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
    trad = run_episode(circuit_cfg(mode=Mode.TRADITIONAL), run_seed=4)
    prop = run_episode(circuit_cfg(mode=Mode.PROPOSED), run_seed=4)
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
        policy=PolicyConfig(mode=Mode.TRADITIONAL),
        n_runs=1, seed=17,
    )
    errors = run_episode(cfg, run_seed=0).errors[0]
    assert len(errors) == 1000
    assert errors.max() < 45.0
    assert errors.mean() < 15.0


def test_gps_reset_interval_controls_resets():
    # with an enormous reset interval the drift runs free and grows larger
    base = make_run_config(
        algorithm=Algorithm.EKF,
        scenario=ScenarioConfig(kind="circuit", duration=400, n_parked=0),
        policy=PolicyConfig(mode=Mode.TRADITIONAL, gps_reset_interval=10),
        n_runs=1, seed=23,
    )
    free = replace(base, policy=PolicyConfig(mode=Mode.TRADITIONAL,
                                             gps_reset_interval=100_000))
    bounded = run_episode(base, 0).errors[0]
    drifting = run_episode(free, 0).errors[0]
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
        policy=PolicyConfig(mode=Mode.TRADITIONAL),
        n_runs=1, seed=2,
    )
    result = run_episode(cfg, 0)
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
        policy=PolicyConfig(mode=Mode.PROPOSED),
        n_runs=1,
    )
    result = run_episode(cfg, 0, parked + [queued, target])
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
    trad = run_episode(replace(cfg, policy=replace(cfg.policy, mode=Mode.TRADITIONAL)), 0)
    prop = run_episode(replace(cfg, policy=replace(cfg.policy, mode=Mode.PROPOSED)), 0)
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


def test_ensemble_jobs_parity():
    cfg = circuit_cfg(n_runs=4, seed=12)
    serial = ensemble(cfg, jobs=1)
    parallel = ensemble(cfg, jobs=4)
    assert format_results_csv(summary_rows(serial)) == format_results_csv(
        summary_rows(parallel)
    )
    for a, b in zip(serial.vehicles, parallel.vehicles):
        assert np.array_equal(a.improvements, b.improvements)


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
