"""Episode execution, paired ensembles, and RMSE/improvement reporting.

An episode advances a synchronous time loop over a trace: every participating
vehicle discovers neighbors, selects up to three by priority and proximity,
measures ranges to them, and runs the configured localizer against its
dead-reckoned prior. All reads of other vehicles go through the previous
step's broadcast snapshot, so per-step updates are order-independent.

Every random draw comes from a Philox substream keyed on (config seed, run
seed) with the counter (purpose, vehicle, step, neighbor or 0); opening one
re-keys a per-process generator (about 1 us). Paired Traditional and Proposed
episodes thus draw identical noise for shared events, which keeps their
comparison tight, and no draw depends on the worker count.
"""
from __future__ import annotations

import math
from collections import ChainMap, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from . import channel
from .channel import CommZone, NoiseModel
from .errors import ConfigError, DegenerateGeometryError, TraceValidationError
from .localize import (
    Covariance,
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
    Velocity2D,
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
        if self.ekf.step_seconds != self.scenario.step_seconds:
            raise ConfigError(f"ekf.step_seconds {self.ekf.step_seconds!r} must equal "
                              f"scenario.step_seconds {self.scenario.step_seconds!r}")


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
    scenario; a given EKF's step must equal the scenario's."""
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
_PHILOX = np.random.Philox(0)  # every substream call replaces its whole state
_GENERATOR = np.random.Generator(_PHILOX)
# the state that substream assigns: only its counter and key change per call
_STATE = {
    "bit_generator": "Philox", "state": {"counter": None, "key": None},
    "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
}
_KEYED = _STATE["state"]


def substream(
    base_seed: int,
    run_seed: int,
    vehicle_id: int,
    step: int,
    purpose: str,
    extra: int = 0,
) -> np.random.Generator:
    """Independent, reproducible generator for one (vehicle, step, purpose).

    Re-keys the module's one Philox to key (base_seed, run_seed) and counter
    (purpose code << 56, vehicle_id, step, extra), all mod 2**64: it draws as
    a fresh ``Generator(Philox(key=..., counter=...))``, with 2**56 blocks per
    stream. Valid only until the next call; per-process, not thread-safe.
    """
    _KEYED["counter"] = (_PURPOSES[purpose] << 56, vehicle_id & _MASK, step & _MASK, extra & _MASK)
    _KEYED["key"] = (base_seed & _MASK, run_seed & _MASK)
    _PHILOX.state = _STATE
    return _GENERATOR


def _ranked_candidates(
    row: list[tuple[int, float]],
    heard: dict[int, tuple | None],
    vehicle_id: int,
    reference: Position2D,
    zone: CommZone,
    noise: NoiseModel,
    stream,
    step: int,
    k: int = 3,
    min_anchors: int = 0,
) -> tuple[list[Candidate], int]:
    """Broadcast-data pre-ranking and ranging of the neighbors in ``row``,
    the vehicle's (id, true distance) row of ``_Trace.near``, heard through
    ``heard``; a silent neighbor is skipped before its drop draw. Ranges are
    only measured for the top-k neighbors under (priority, distance from own
    reference to the shared position, id); the final order is then fixed by
    select_neighbors on measured ranges. Returns (selected candidates,
    anchors whose broadcast arrived this step, after drops). With fewer than
    ``min_anchors`` such anchors nothing is ranked or ranged and no candidate
    is selected; range draws are keyed by counter, so skipping them moves no
    other draw.
    """
    ranked = []
    anchors_in_range = 0
    for j, true_d in row:
        sent = heard.get(j)
        if sent is None:
            continue  # silent: inactive, or in its first active step
        if zone.drop_probability > 0.0:
            if stream(vehicle_id, step, "drop", j).random() < zone.drop_probability:
                continue  # broadcast lost this step
        ncls, shared, prio = sent
        if ncls is NodeClass.ANCHOR:
            anchors_in_range += 1
        gap = math.hypot(reference.x - shared.x, reference.y - shared.y)
        ranked.append((prio, gap, j, true_d, ncls, shared))
    if anchors_in_range < min_anchors:
        return [], anchors_in_range
    ranked.sort()  # ids are unique in a row, so no comparison goes past the id
    candidates = []
    for _, _, j, true_d, ncls, shared in ranked[:k]:
        measured = channel.measure_range(true_d, noise, stream(vehicle_id, step, "range", j))
        candidates.append(Candidate(j, ncls, shared, measured))
    return select_neighbors(candidates, k), anchors_in_range


def _anchor_fix(anchors: list[Candidate], prior: Position2D) -> Position2D:
    """Trilateration on the first three anchors, else the two-anchor fix
    nearer ``prior`` on the first two, else ``prior``; a fix whose anchors
    are too few or degenerate (collinear, concentric) gives way to the next."""
    shared = [c.shared_position for c in anchors]
    ranges = [c.measured_range for c in anchors]
    if len(anchors) >= 3:
        with suppress(DegenerateGeometryError):
            return trilaterate(shared[:3], ranges[:3])[0]
    if len(anchors) >= 2:
        with suppress(DegenerateGeometryError):
            return bilaterate_with_prior(shared[0], ranges[0], shared[1], ranges[1], prior)
    return prior


def _extent(records: Sequence[VehicleRecord]) -> float:
    """Largest coordinate magnitude of the records' positions."""
    return max((abs(c) for r in records for p in set(r.positions) for c in p), default=0.0)


class _Trace:
    """Trace records, checked against ``step_seconds`` and for vehicles and
    unique ids, with the records active from each step at which the active
    set changes, in trace order, the ids of the parked vehicles with one
    position over their whole window, and ``near[t][i]``, the (id,
    ``model.distance``) of every other car active at step t within
    ``radius`` of car i. Shared by an ensemble's episodes."""

    def __init__(self, records: Sequence[VehicleRecord], step_seconds: float, radius: float):
        try:
            validate_records(records, step_seconds)
        except TraceValidationError as exc:
            raise ConfigError(f"trace inconsistent with configured step: {exc}") from None
        if not records:
            raise ConfigError("trace has no vehicles")
        if len({r.vehicle_id for r in records}) < len(records):
            raise ConfigError("trace has more than one record for a vehicle id")
        self.records = records
        starts: dict[int, list[int]] = defaultdict(list)
        ends: dict[int, set[int]] = defaultdict(set)
        for i, r in enumerate(records):
            starts[r.start_step].append(i)
            ends[r.end_step].add(i)
        self.active_from: dict[int, list[VehicleRecord]] = {}
        live: list[int] = []
        for t in sorted(starts.keys() | ends.keys()):
            live = sorted([i for i in live if i not in ends[t]] + starts[t])
            self.active_from[t] = [records[i] for i in live]
        self.steps = range(min(starts), max(ends))
        self.still_parked = {
            r.vehicle_id for r in records
            if r.kind is MotionKind.PARKED and r.positions.count(r.positions[0]) == len(r.positions)
        }
        self.radius = radius
        width = channel.cell_width(radius, _extent(records))
        self.near: dict[int, ChainMap] = {}
        for t in self.steps:
            if t in self.active_from:  # still-parked cars are paired once per active set
                others = [r for r in self.active_from[t] if r.vehicle_id not in self.still_parked]
                still = [(r.vehicle_id, *r.positions[0]) for r in self.active_from[t]
                         if r.vehicle_id in self.still_parked]
                fixed = channel.grid(still, width)
                parked = {i: [(j, d) for j, d in channel.within(fixed, x, y, width, radius)
                              if j != i] for i, x, y in still}
            placed = [(r.vehicle_id, *r.position_at(t)) for r in others]  # looked up every step
            cells = channel.grid(placed, width)
            near = self.near[t] = ChainMap({}, parked)  # a write goes to the step's own map
            for i, x, y in placed:
                row = near[i] = [(j, d) for j, d in channel.within(cells, x, y, width, radius)
                                 if j != i]
                for j, d in channel.within(fixed, x, y, width, radius):
                    row.append((j, d))
                    near[j] = [*near[j], (i, d)]  # a copy, so parked[j] stays as it is


@dataclass(slots=True, eq=False)
class _Node:
    """One vehicle's episode state from its first active step. ``errors``
    and ``anchors`` (anchors selected) are read for tracked vehicles only."""

    role: NodeClass
    est: Position2D | None
    cov: Covariance | None = None
    iso: int = 0  # steps since a neighbor was last selected
    gnss_n: int = 0  # GNSS fixes averaged while halted; 0 restarts the sum
    gnss_sum: tuple[float, float] = (0.0, 0.0)
    errors: list[float] = field(default_factory=list)
    anchors: int = 0


def run_episode(
    cfg: RunConfig,
    run_seed: int,
    records: Sequence[VehicleRecord] | _Trace | None = None,
    mode: Mode = Mode.PROPOSED,
) -> EpisodeResult:
    """Run one episode of ``mode``; deterministic given (cfg, run_seed,
    mode). ``records`` is a ``_Trace`` for the zone radius, as ``ensemble``
    passes, or records to check as one; None generates the configured
    scenario's trace."""
    scn = cfg.scenario
    trace = records if isinstance(records, _Trace) else _Trace(
        records if records is not None else generate(scn), scn.step_seconds, cfg.zone.radius)
    if trace.radius != cfg.zone.radius:
        raise ConfigError(f"trace neighbors are for radius {trace.radius!r}, "
                          f"not the zone radius {cfg.zone.radius!r}")

    proposed = mode is Mode.PROPOSED
    use_ekf = cfg.algorithm is Algorithm.EKF
    dt = scn.step_seconds
    pol = cfg.policy

    def stream(vid, step, purpose, extra=0):
        return substream(cfg.seed, run_seed, vid, step, purpose, extra)

    gps_var = cfg.noise.gps_std**2
    gps_cov = (gps_var, 0.0, gps_var)
    nodes: dict[int, _Node] = {}
    # each vehicle's latest broadcast (role, shared position, priority) from
    # its second active step; None while it is inactive, which is silent
    heard: dict[int, tuple | None] = {}
    # A still parked car that is inactive in traditional mode or an anchor in
    # proposed mode is halted for good, so its step is a no-op and its
    # broadcast never changes: it settles, and is skipped from then on.
    settled: set[int] = set()

    others: list[VehicleRecord] = []  # the active records that have not settled
    for t in trace.steps:
        if t in trace.active_from:
            others = [r for r in trace.active_from[t] if r.vehicle_id not in settled]
        near = trace.near[t]

        for rec in others:
            vid = rec.vehicle_id
            node = nodes.get(vid)
            if node is not None:  # a vehicle broadcasts from its second step
                role = node.role  # an anchor shares its position, any other role its estimate
                heard[vid] = None if role is NodeClass.INACTIVE else (
                    role, rec.position_at(t) if role is NodeClass.ANCHOR else node.est,
                    priority(role))
                if vid in trace.still_parked and (not proposed or role is NodeClass.ANCHOR):
                    settled.add(vid)
        others = [r for r in others if r.vehicle_id not in settled]  # their step is a no-op

        for rec in others:
            vid, kind = rec.vehicle_id, rec.kind
            truth = rec.position_at(t)
            node = nodes.get(vid)
            if node is None:  # first active step: initialise only
                if kind is not MotionKind.PARKED:
                    fix = channel.measure_gps(truth, cfg.noise, stream(vid, t, "gps"))
                    node = nodes[vid] = _Node(NodeClass.BLIND, fix, gps_cov)
                    if kind is MotionKind.MOVING:
                        node.errors.append(distance(fix, truth))
                elif proposed and pol.anchors_preloaded:
                    nodes[vid] = _Node(NodeClass.ANCHOR, truth)
                elif proposed:
                    fix = channel.measure_gps(truth, cfg.noise, stream(vid, t, "gnss"))
                    nodes[vid] = _Node(NodeClass.INACTIVE, None, gnss_n=1, gnss_sum=fix)
                else:
                    nodes[vid] = _Node(NodeClass.INACTIVE, None)
                continue
            if kind is MotionKind.PARKED and not proposed:
                continue  # absent from the network in traditional mode
            vel_now = rec.velocity_at(t)
            halted = kind is MotionKind.PARKED or (
                kind is MotionKind.QUEUED and vel_now.vx == 0.0 and vel_now.vy == 0.0
            )
            if node.role is NodeClass.ANCHOR:
                if halted:
                    continue  # keeps serving its precisely known position
                node.role = NodeClass.BLIND  # pulled back into traffic

            if proposed and halted:
                # stationary bootstrap: GNSS averaging, assisted by anchors
                fix = channel.measure_gps(truth, cfg.noise, stream(vid, t, "gnss"))
                n = node.gnss_n + 1
                sx, sy = node.gnss_sum if n > 1 else (0.0, 0.0)
                sx, sy = sx + fix.x, sy + fix.y
                node.gnss_n, node.gnss_sum = n, (sx, sy)
                gnss_mean = Position2D(sx / n, sy / n)

                # below two anchors _anchor_fix gives gnss_mean whatever is ranged
                selected, anchors_in_range = _ranked_candidates(
                    near[vid], heard, vid, gnss_mean, cfg.zone, cfg.noise, stream, t,
                    min_anchors=2,
                )
                new_est = _anchor_fix(
                    [c for c in selected if c.node_class is NodeClass.ANCHOR], gnss_mean
                )
                node.role = classify_stationary(
                    kind, anchors_in_range, n, distance(new_est, truth), pol
                )
                node.est = truth if node.role is NodeClass.ANCHOR else new_est
                node.cov = (gps_var / n, 0.0, gps_var / n)
                continue

            # driving (or halted in traditional mode, where nothing is promoted)
            node.gnss_n = 0
            vel_true = rec.velocity_at(t - 1)  # motion from t-1 to t
            g = stream(vid, t, "vel")
            noise_v = g.normal(0.0, cfg.noise.velocity_std, size=2).tolist()
            vel_meas = Velocity2D(vel_true.vx + noise_v[0], vel_true.vy + noise_v[1])
            prior = dead_reckon(node.est, vel_meas, dt)

            selected, _ = _ranked_candidates(
                near[vid], heard, vid, prior, cfg.zone, cfg.noise, stream, t
            )
            if use_ekf:
                pred, p_cov = ekf_predict(node.est, node.cov, vel_meas, cfg.ekf)
                new_est, node.cov = ekf_update(pred, p_cov, selected, cfg.ekf)
            else:
                problem = LocalizationProblem(tuple(selected), prior)
                new_est = gcpso_localize(problem, cfg.gcpso, stream(vid, t, "pso")).position

            if selected:
                node.iso = 0
            else:
                node.iso += 1
                if node.iso >= pol.gps_reset_interval:
                    new_est = channel.measure_gps(truth, cfg.noise, stream(vid, t, "gps"))
                    node.cov = gps_cov
                    node.iso = 0

            n_anch = sum(1 for c in selected if c.node_class is NodeClass.ANCHOR)
            node.role = classify_moving(n_anch)
            node.est = new_est
            if kind is MotionKind.MOVING:
                node.anchors += n_anch
                node.errors.append(distance(new_est, truth))

    tracked = [r for r in trace.records if r.kind is MotionKind.MOVING]
    return EpisodeResult(
        errors={r.vehicle_id: np.asarray(nodes[r.vehicle_id].errors) for r in tracked},
        first_step={r.vehicle_id: r.start_step for r in tracked},
        anchors_used={r.vehicle_id: nodes[r.vehicle_id].anchors for r in tracked},
    )


def trace_metrics(
    records: Sequence[VehicleRecord], radius: float
) -> dict[int, tuple[int, float]]:
    """(parked vehicles ever within ``radius``, km travelled) of each tracked
    (moving-kind) vehicle. Both depend only on the trace."""
    width = channel.cell_width(radius, _extent(records))
    cells = channel.grid(
        ((k, *r.positions[0]) for k, r in enumerate(records) if r.kind is MotionKind.PARKED),
        width,
    )

    return {
        r.vehicle_id: (
            len({
                k
                for x, y in set(r.positions)
                for k, _ in channel.within(cells, x, y, width, radius)
            }),
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
    """Relative RMSE improvement, in percent.

    Undefined for a Traditional RMSE of 0, which raises. An ensemble reports
    0 for a paired run whose two RMSEs are equal, and NaN for one whose
    Traditional RMSE is 0 and Proposed RMSE above 0 (the results CSV prints
    ``nan``), so the vehicle's average improvement is NaN.
    """
    if traditional_rmse <= 0:
        raise ValueError("traditional RMSE must be > 0")
    return 100.0 * (traditional_rmse - proposed_rmse) / traditional_rmse


def _paired_improvement(trad: float, prop: float) -> float:
    if trad == prop:  # identical paired runs, including the all-zero-noise case
        return 0.0
    if trad == 0.0:  # exact Traditional run, inexact Proposed one: no ratio
        return math.nan
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


_TRACE: _Trace | None = None  # a pool worker's checked trace


def _share_trace(trace: _Trace) -> None:
    global _TRACE
    _TRACE = trace


def _episode_task(args, trace: _Trace | None = None) -> EpisodeResult:
    cfg, mode, run_seed = args
    return run_episode(cfg, run_seed, trace if trace is not None else _TRACE, mode)


def ensemble(
    cfg: RunConfig,
    records: Sequence[VehicleRecord] | None = None,
    jobs: int = 1,
    keep_episodes: bool = False,
) -> EnsembleSummary:
    """Run n_runs paired episodes (identical run seeds for Traditional and
    Proposed) and summarise per-vehicle RMSE and improvement. ``jobs`` > 1
    runs the episodes in a pool of at most ``jobs`` workers and no more
    workers than episodes. Results are identical for any ``jobs`` value."""
    modes = (Mode.TRADITIONAL, Mode.PROPOSED)
    trace = _Trace(records if records is not None else generate(cfg.scenario),
                   cfg.scenario.step_seconds, cfg.zone.radius)
    tasks = [(cfg, mode, run) for run in range(cfg.n_runs) for mode in modes]
    workers = min(jobs, len(tasks))
    if workers <= 1:
        results = [_episode_task(task, trace) for task in tasks]
    else:
        # each worker receives the trace once, not with every task
        with ProcessPoolExecutor(workers, initializer=_share_trace, initargs=(trace,)) as pool:
            results = list(pool.map(_episode_task, tasks, chunksize=1))

    by_run = list(zip(results[0::2], results[1::2]))  # (traditional, proposed)
    per_trace = trace_metrics(trace.records, cfg.zone.radius)
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
    episodes = [(run, mode, ep) for (_, mode, run), ep in zip(tasks, results)]
    return EnsembleSummary(cfg, vehicles, episodes if keep_episodes else [])


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
    return [
        ResultRow(v.vehicle_id, mode, cfg.algorithm, cfg.noise.range_std, cfg.zone.radius,
                  mean, std, imp)
        for v in summary.vehicles
        for mode, mean, std, imp in (
            (Mode.TRADITIONAL, v.traditional_mean, v.traditional_std, None),
            (Mode.PROPOSED, v.proposed_mean, v.proposed_std, v.average_improvement),
        )
    ]


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
