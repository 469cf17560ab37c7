"""Episode execution, paired ensembles, and RMSE/improvement reporting.

An episode advances a synchronous time loop over a trace: every participating
vehicle discovers neighbors, selects up to three by priority and proximity,
measures ranges to them, and runs the configured localizer against its
dead-reckoned prior. All reads of other vehicles go through the previous
step's broadcast snapshot, so per-step updates are order-independent.

Every random draw comes from an rng substream keyed on
(config seed, run seed, vehicle, step, purpose[, neighbor]). Traditional and
Proposed episodes with the same run seed therefore consume identical noise
for shared events, which is what makes paired improvement comparisons tight.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from . import channel
from .channel import CommZone, NoiseModel
from .errors import ConfigError, DegenerateGeometryError, TraceValidationError
from .localize import (
    EkfParams,
    GcpsoParams,
    LocalizationProblem,
    bilaterate_with_prior,
    ekf_predict,
    ekf_update,
    gcpso_localize,
    trilaterate,
)
from .model import (
    MotionKind,
    NodeClass,
    Position2D,
    VehicleRecord,
    VehicleSnapshot,
    Velocity2D,
    WorldState,
    distance,
)
from .policy import (
    Candidate,
    Mode,
    PolicyConfig,
    classify_moving,
    classify_stationary,
    dead_reckon,
    priority,
    select_neighbors,
)
from .scenario import ScenarioConfig, generate, validate_records


class Algorithm(Enum):
    GCPSO = "gcpso"
    EKF = "ekf"


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    zone: CommZone
    noise: NoiseModel
    algorithm: Algorithm
    policy: PolicyConfig
    gcpso: GcpsoParams
    ekf: EkfParams
    n_runs: int
    seed: int

    def __post_init__(self):
        if self.n_runs < 1:
            raise ConfigError("n_runs must be >= 1")


def make_run_config(
    algorithm: Algorithm = Algorithm.GCPSO,
    scenario: ScenarioConfig | None = None,
    zone: CommZone | None = None,
    noise: NoiseModel | None = None,
    policy: PolicyConfig | None = None,
    gcpso: GcpsoParams | None = None,
    ekf: EkfParams | None = None,
    n_runs: int = 40,
    seed: int = 0,
) -> RunConfig:
    """RunConfig with defaults; the one place they are set. The EKF's assumed
    range and velocity noise follow the world noise unless given explicitly
    (floored at 1e-3 for noiseless runs) and its step duration follows the
    scenario."""
    noise = noise if noise is not None else NoiseModel()
    scenario = scenario if scenario is not None else ScenarioConfig()
    if ekf is None:
        ekf = EkfParams(
            range_std=max(noise.range_std, 1e-3),
            velocity_std=max(noise.velocity_std, 1e-3),
            step_seconds=scenario.step_seconds,
        )
    return RunConfig(
        scenario=scenario,
        zone=zone if zone is not None else CommZone(15.0),
        noise=noise,
        algorithm=algorithm,
        policy=policy if policy is not None else PolicyConfig(),
        gcpso=gcpso if gcpso is not None else GcpsoParams(),
        ekf=ekf,
        n_runs=n_runs,
        seed=seed,
    )


@dataclass(eq=False)
class EpisodeResult:
    """Per-vehicle outcome of one episode. ``errors`` holds the estimation
    error time series of each tracked (moving-kind) vehicle, starting at that
    vehicle's first active step."""

    errors: dict[int, np.ndarray]
    first_step: dict[int, int]
    anchors_used: dict[int, int]


_PURPOSES = {"gps": 1, "vel": 2, "range": 3, "pso": 4, "gnss": 5, "drop": 6}
_MASK = (1 << 64) - 1


def substream(
    base_seed: int,
    run_seed: int,
    vehicle_id: int,
    step: int,
    purpose: str,
    extra: int = 0,
) -> np.random.Generator:
    """Independent, reproducible generator for one (vehicle, step, purpose)."""
    entropy = [
        v & _MASK
        for v in (base_seed, run_seed, vehicle_id, step, _PURPOSES[purpose], extra)
    ]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _ranked_candidates(
    world: WorldState,
    vehicle_id: int,
    reference: Position2D,
    zone: CommZone,
    noise: NoiseModel,
    stream,
    step: int,
    k: int = 3,
) -> tuple[list[Candidate], int]:
    """Neighbor discovery, broadcast-data pre-ranking, and ranging.

    Ranges are only measured for the top-k neighbors under
    (priority, distance from own reference to the shared position, id);
    the final order is then fixed by select_neighbors on measured ranges.
    Returns (selected candidates, anchors among all neighbors in range).
    """
    ranked = []
    anchors_in_range = 0
    for j in channel.neighbors(world, vehicle_id, zone):
        if zone.drop_probability > 0.0:
            if stream(vehicle_id, step, "drop", j).random() < zone.drop_probability:
                continue  # broadcast lost this step
        snap = world.vehicles[j]
        if snap.node_class is NodeClass.ANCHOR:
            anchors_in_range += 1
            shared = snap.position
        else:
            shared = snap.estimate
        if shared is None:
            continue
        gap = math.hypot(reference.x - shared.x, reference.y - shared.y)
        ranked.append((priority(snap.node_class), gap, j, shared, snap.node_class))
    ranked.sort(key=lambda r: r[:3])
    own_true = world.vehicles[vehicle_id].position
    candidates = []
    for _, _, j, shared, ncls in ranked[:k]:
        true_d = distance(own_true, world.vehicles[j].position)
        measured = channel.measure_range(true_d, noise, stream(vehicle_id, step, "range", j))
        candidates.append(Candidate(j, ncls, shared, measured))
    return select_neighbors(candidates, k), anchors_in_range


def run_episode(
    cfg: RunConfig,
    run_seed: int,
    records: Sequence[VehicleRecord] | None = None,
) -> EpisodeResult:
    """Run one episode; deterministic given (cfg, run_seed)."""
    scn = cfg.scenario
    if records is None:
        records = generate(scn)
    else:
        try:
            validate_records(records, scn.step_seconds)
        except TraceValidationError as exc:
            raise ConfigError(f"trace inconsistent with configured step: {exc}") from None

    by_id = {r.vehicle_id: r for r in records}
    t_begin = min(r.start_step for r in records)
    t_end = max(r.end_step for r in records)
    proposed = cfg.policy.mode is Mode.PROPOSED
    use_ekf = cfg.algorithm is Algorithm.EKF
    dt = scn.step_seconds
    pol = cfg.policy

    def stream(vid, step, purpose, extra=0):
        return substream(cfg.seed, run_seed, vid, step, purpose, extra)

    est: dict[int, Position2D | None] = {}
    cov: dict[int, np.ndarray] = {}
    cls: dict[int, NodeClass] = {}
    init_step: dict[int, int] = {}
    gnss_n: dict[int, int] = {}
    gnss_sum: dict[int, tuple[float, float]] = {}
    iso: dict[int, int] = {}
    anchors_used: dict[int, int] = {}
    errors: dict[int, list[float]] = {}

    tracked = [r.vehicle_id for r in records if r.kind is MotionKind.MOVING]
    for vid in tracked:
        errors[vid] = []
        anchors_used[vid] = 0

    gps_cov = cfg.noise.gps_std**2 * np.eye(2)

    for t in range(t_begin, t_end):
        active = [r for r in records if r.active_at(t)]

        world = WorldState()
        for rec in active:
            vid = rec.vehicle_id
            if vid not in init_step:
                continue  # appears this step; broadcasts from the next one
            world.vehicles[vid] = VehicleSnapshot(
                position=rec.position_at(t),
                node_class=cls[vid],
                estimate=est[vid],
            )

        for rec in active:
            vid = rec.vehicle_id
            if vid in init_step:
                continue
            init_step[vid] = t
            truth = rec.position_at(t)
            if rec.kind is MotionKind.PARKED:
                if proposed and pol.anchors_preloaded:
                    cls[vid] = NodeClass.ANCHOR
                    est[vid] = truth
                elif proposed:
                    fix = channel.measure_gps(truth, cfg.noise, stream(vid, t, "gnss"))
                    cls[vid] = NodeClass.INACTIVE
                    est[vid] = None
                    gnss_n[vid] = 1
                    gnss_sum[vid] = (fix.x, fix.y)
                else:
                    cls[vid] = NodeClass.INACTIVE
                    est[vid] = None
            else:
                fix = channel.measure_gps(truth, cfg.noise, stream(vid, t, "gps"))
                cls[vid] = NodeClass.BLIND
                est[vid] = fix
                cov[vid] = gps_cov.copy()
                iso[vid] = 0
                gnss_n[vid] = 0
                if rec.kind is MotionKind.MOVING:
                    errors[vid].append(distance(fix, truth))

        for rec in active:
            vid = rec.vehicle_id
            if init_step[vid] == t:
                continue
            kind = rec.kind
            if kind is MotionKind.PARKED and not proposed:
                continue  # absent from the network in traditional mode
            truth = rec.position_at(t)
            vel_now = rec.velocity_at(t)
            halted = kind is MotionKind.PARKED or (
                kind is MotionKind.QUEUED and vel_now.vx == 0.0 and vel_now.vy == 0.0
            )
            if cls[vid] is NodeClass.ANCHOR:
                if halted:
                    continue  # keeps serving its precisely known position
                cls[vid] = NodeClass.BLIND  # pulled back into traffic
                gnss_n[vid] = 0
                gnss_sum.pop(vid, None)

            if proposed and halted:
                # stationary bootstrap: GNSS averaging, assisted by anchors
                fix = channel.measure_gps(truth, cfg.noise, stream(vid, t, "gnss"))
                sx, sy = gnss_sum.get(vid, (0.0, 0.0))
                sx, sy = sx + fix.x, sy + fix.y
                n = gnss_n.get(vid, 0) + 1
                gnss_sum[vid] = (sx, sy)
                gnss_n[vid] = n
                gnss_mean = Position2D(sx / n, sy / n)

                selected, anchors_in_range = _ranked_candidates(
                    world, vid, gnss_mean, cfg.zone, cfg.noise, stream, t
                )
                anchor_sel = [c for c in selected if c.node_class is NodeClass.ANCHOR]
                if len(anchor_sel) >= 3:
                    new_est, _ = trilaterate(
                        [c.shared_position for c in anchor_sel[:3]],
                        [c.measured_range for c in anchor_sel[:3]],
                    )
                elif len(anchor_sel) == 2:
                    try:
                        new_est = bilaterate_with_prior(
                            anchor_sel[0].shared_position,
                            anchor_sel[0].measured_range,
                            anchor_sel[1].shared_position,
                            anchor_sel[1].measured_range,
                            gnss_mean,
                        )
                    except DegenerateGeometryError:
                        new_est = gnss_mean
                else:
                    new_est = gnss_mean
                new_cls = classify_stationary(
                    kind, anchors_in_range, n, distance(new_est, truth), pol
                )
                if new_cls is NodeClass.ANCHOR:
                    new_est = truth
                est[vid] = new_est
                cls[vid] = new_cls
                cov[vid] = (cfg.noise.gps_std**2 / n) * np.eye(2)
                continue

            # driving (or halted in traditional mode, where nothing is promoted)
            gnss_n[vid] = 0
            gnss_sum.pop(vid, None)
            vel_true = rec.velocity_at(t - 1)  # motion from t-1 to t
            g = stream(vid, t, "vel")
            noise_v = g.normal(0.0, cfg.noise.velocity_std, size=2)
            vel_meas = Velocity2D(vel_true.vx + noise_v[0], vel_true.vy + noise_v[1])
            prior = dead_reckon(est[vid], vel_meas, dt)

            selected, _ = _ranked_candidates(
                world, vid, prior, cfg.zone, cfg.noise, stream, t
            )
            if use_ekf:
                pred, p_cov = ekf_predict(est[vid], cov[vid], vel_meas, cfg.ekf)
                new_est, p_cov = ekf_update(pred, p_cov, selected, cfg.ekf)
                cov[vid] = p_cov
            else:
                problem = LocalizationProblem(tuple(selected), prior)
                new_est = gcpso_localize(problem, cfg.gcpso, stream(vid, t, "pso")).position

            if selected:
                iso[vid] = 0
            else:
                iso[vid] = iso.get(vid, 0) + 1
                if iso[vid] >= pol.gps_reset_interval:
                    new_est = channel.measure_gps(truth, cfg.noise, stream(vid, t, "gps"))
                    cov[vid] = gps_cov.copy()
                    iso[vid] = 0

            n_anch = sum(1 for c in selected if c.node_class is NodeClass.ANCHOR)
            if vid in anchors_used:
                anchors_used[vid] += n_anch
            cls[vid] = classify_moving(n_anch)
            est[vid] = new_est
            if kind is MotionKind.MOVING:
                errors[vid].append(distance(new_est, truth))

    return EpisodeResult(
        errors={vid: np.asarray(errs) for vid, errs in errors.items()},
        first_step={vid: by_id[vid].start_step for vid in tracked},
        anchors_used=anchors_used,
    )


def trace_metrics(
    records: Sequence[VehicleRecord], radius: float
) -> dict[int, tuple[int, float]]:
    """(parked vehicles ever within ``radius``, km travelled) of each tracked
    (moving-kind) vehicle. Both depend only on the trace."""
    parked = [r.positions[0] for r in records if r.kind is MotionKind.PARKED]
    return {
        r.vehicle_id: (
            sum(1 for q in parked if any(distance(p, q) <= radius for p in r.positions)),
            r.path_length() / 1000.0,
        )
        for r in records
        if r.kind is MotionKind.MOVING
    }


def rmse(errors: Sequence[float] | np.ndarray) -> float:
    """Root-mean-square of an error series."""
    arr = np.asarray(errors, dtype=float)
    if arr.size == 0:
        raise ValueError("rmse of an empty series")
    return float(np.sqrt(np.mean(arr**2)))


def improvement(traditional_rmse: float, proposed_rmse: float) -> float:
    """Relative RMSE improvement, in percent."""
    if traditional_rmse <= 0:
        raise ValueError("traditional RMSE must be > 0")
    return 100.0 * (traditional_rmse - proposed_rmse) / traditional_rmse


def _paired_improvement(trad: float, prop: float) -> float:
    if trad == prop:  # identical paired runs, including the all-zero-noise case
        return 0.0
    return improvement(trad, prop)


@dataclass
class VehicleSummary:
    """Paired per-vehicle ensemble statistics."""

    vehicle_id: int
    traditional_rmse: np.ndarray  # one entry per run
    proposed_rmse: np.ndarray
    improvements: np.ndarray      # per paired run, percent
    parked_encountered: float
    travelled_km: float

    @property
    def traditional_mean(self) -> float:
        return float(self.traditional_rmse.mean())

    @property
    def traditional_std(self) -> float:
        return float(self.traditional_rmse.std())

    @property
    def proposed_mean(self) -> float:
        return float(self.proposed_rmse.mean())

    @property
    def proposed_std(self) -> float:
        return float(self.proposed_rmse.std())

    @property
    def average_improvement(self) -> float:
        """Mean of per-run improvements (not the ratio of ensemble means)."""
        return float(self.improvements.mean())


@dataclass
class EnsembleSummary:
    config: RunConfig
    vehicles: list[VehicleSummary]
    episodes: list[tuple[int, Mode, EpisodeResult]] = field(default_factory=list)


def _episode_task(args) -> EpisodeResult:
    cfg, mode, run_seed, records = args
    paired_cfg = replace(cfg, policy=replace(cfg.policy, mode=mode))
    return run_episode(paired_cfg, run_seed, records)


def ensemble(
    cfg: RunConfig,
    records: Sequence[VehicleRecord] | None = None,
    jobs: int = 1,
    keep_episodes: bool = False,
) -> EnsembleSummary:
    """Run n_runs paired episodes (identical run seeds for Traditional and
    Proposed) and summarise per-vehicle RMSE and improvement. Results are
    identical for any ``jobs`` value."""
    modes = (Mode.TRADITIONAL, Mode.PROPOSED)
    shared = records if records is not None else generate(cfg.scenario)
    if jobs <= 1:
        results = [
            _episode_task((cfg, mode, run, shared))
            for run in range(cfg.n_runs)
            for mode in modes
        ]
    else:
        # explicit records must travel to the workers; generated ones are
        # rebuilt there (generation is a pure function of the scenario)
        tasks = [
            (cfg, mode, run, records)
            for run in range(cfg.n_runs)
            for mode in modes
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_episode_task, tasks, chunksize=1))

    by_run: list[tuple[EpisodeResult, EpisodeResult]] = [
        (results[2 * run], results[2 * run + 1]) for run in range(cfg.n_runs)
    ]
    per_trace = trace_metrics(shared, cfg.zone.radius)
    vehicles = []
    for vid in sorted(per_trace):
        trad = np.array([rmse(t.errors[vid]) for t, _ in by_run])
        prop = np.array([rmse(p.errors[vid]) for _, p in by_run])
        imps = np.array([_paired_improvement(a, b) for a, b in zip(trad, prop)])
        encountered, km = per_trace[vid]
        vehicles.append(
            VehicleSummary(
                vehicle_id=vid,
                traditional_rmse=trad,
                proposed_rmse=prop,
                improvements=imps,
                parked_encountered=float(encountered),
                travelled_km=km,
            )
        )
    episodes = []
    if keep_episodes:
        for run, (trad_ep, prop_ep) in enumerate(by_run):
            episodes.append((run, Mode.TRADITIONAL, trad_ep))
            episodes.append((run, Mode.PROPOSED, prop_ep))
    return EnsembleSummary(config=cfg, vehicles=vehicles, episodes=episodes)


# ---------------------------------------------------------------------------
# CSV emission


@dataclass(frozen=True)
class ResultRow:
    vehicle_id: int
    mode: Mode
    algorithm: Algorithm
    range_std: float
    zone_radius: float
    rmse_mean: float
    rmse_std: float
    improvement_pct: float | None  # only on proposed rows


def summary_rows(summary: EnsembleSummary) -> list[ResultRow]:
    cfg = summary.config
    rows = []
    for v in summary.vehicles:
        rows.append(
            ResultRow(
                v.vehicle_id, Mode.TRADITIONAL, cfg.algorithm, cfg.noise.range_std,
                cfg.zone.radius, v.traditional_mean, v.traditional_std, None,
            )
        )
        rows.append(
            ResultRow(
                v.vehicle_id, Mode.PROPOSED, cfg.algorithm, cfg.noise.range_std,
                cfg.zone.radius, v.proposed_mean, v.proposed_std, v.average_improvement,
            )
        )
    return rows


def format_results_csv(rows: Sequence[ResultRow]) -> str:
    lines = ["vehicle,mode,algorithm,sigma_r,zone,rmse_mean,rmse_std,improvement_pct"]
    for r in rows:
        imp = "" if r.improvement_pct is None else f"{r.improvement_pct:.4f}"
        lines.append(
            f"{r.vehicle_id},{r.mode.value},{r.algorithm.value},{r.range_std!r},"
            f"{r.zone_radius!r},{r.rmse_mean:.6f},{r.rmse_std:.6f},{imp}"
        )
    return "\n".join(lines) + "\n"


def format_steps_csv(entries: Sequence[tuple[Algorithm, float, EnsembleSummary]]) -> str:
    """Per-step error dump (one row per run/mode/vehicle/step) for plotting."""
    lines = ["algorithm,sigma_r,mode,run,vehicle,step,error"]
    for algorithm, range_std, summary in entries:
        for run, mode, episode in summary.episodes:
            for vid in sorted(episode.errors):
                start = episode.first_step[vid]
                for i, err in enumerate(episode.errors[vid]):
                    lines.append(
                        f"{algorithm.value},{range_std!r},{mode.value},{run},"
                        f"{vid},{start + i},{err:.6f}"
                    )
    return "\n".join(lines) + "\n"
