"""Episode execution, paired ensembles, and RMSE/improvement reporting.

An episode runs over a trace in three stages. ``_Measured`` draws what the
cars measure, each value from a keyed stream that no worker count moves; a
run's Traditional and Proposed episodes share one, so they see identical
noise for shared events, which keeps their comparison tight. ``_believe``
advances the cars' beliefs in a synchronous time loop: every participating
vehicle discovers neighbors, selects up to three by priority and proximity,
measures ranges to them, and runs the configured localizer against its
dead-reckoned prior. All reads of other vehicles go through the previous
step's broadcast snapshot, so per-step updates are order-independent, and
truth reaches it only through its ``oracle`` argument. ``_score`` takes
each tracked car's error from truth after each step. Draws are read as
Python floats, so no numpy scalar, whose every operation costs more,
reaches an estimate, a filter or a swarm.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Sequence

import numpy as np

from . import channel
from .channel import CommZone, NoiseModel
from .errors import ConfigError, DegenerateGeometryError, TraceValidationError, require_ints
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
    STEPS,
    VEHICLE_IDS,
    ZERO_VELOCITY,
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

# members read once: each NodeClass.X or MotionKind.X read costs an enum
# class lookup, and an episode makes several per car-step
_ANCHOR, _INACTIVE = NodeClass.ANCHOR, NodeClass.INACTIVE
_MOVING, _QUEUED, _PARKED = MotionKind.MOVING, MotionKind.QUEUED, MotionKind.PARKED
_EXACT = (0.0, 0.0, 0.0)  # an anchor's broadcast covariance


class Algorithm(Enum):
    GCPSO = "gcpso"
    EKF = "ekf"


@dataclass(frozen=True)
class RunConfig:
    """Run settings with their defaults; the one place they are set. The
    EKF's assumed range and velocity noise follow the world noise unless
    given explicitly (floored at 1e-3 for noiseless runs) and its step
    duration follows the scenario; a given EKF's step must equal the
    scenario's."""

    algorithm: Algorithm = Algorithm.GCPSO
    scenario: ScenarioConfig = ScenarioConfig()
    zone: CommZone = CommZone(15.0)
    noise: NoiseModel = NoiseModel()
    policy: PolicyConfig = PolicyConfig()
    gcpso: GcpsoParams = GcpsoParams()
    ekf: EkfParams | None = None  # None: derived from noise and scenario
    n_runs: int = 40
    seed: int = 0

    def __post_init__(self):
        require_ints(self, ("n_runs", "seed"))
        if self.ekf is None:
            object.__setattr__(self, "ekf", EkfParams(
                range_std=max(self.noise.range_std, 1e-3),
                velocity_std=max(self.noise.velocity_std, 1e-3),
                step_seconds=self.scenario.step_seconds,
            ))
        if self.n_runs < 1:
            raise ConfigError("n_runs must be >= 1")
        if not 0 <= self.seed < 1 << 64:  # substream keys on it mod 2**64
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed!r}")
        if self.ekf.step_seconds != self.scenario.step_seconds:
            raise ConfigError(f"ekf.step_seconds {self.ekf.step_seconds!r} must equal "
                              f"scenario.step_seconds {self.scenario.step_seconds!r}")


# the old name, which perfbench/workloads.py and tests/test_acceptance.py import
make_run_config = RunConfig


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
    (purpose code << 56, vehicle_id, step, extra), all mod 2**64, which is
    one-to-one on ``RunConfig`` seeds and on a ``_Trace``'s int64 ids and
    steps: it draws as a fresh ``Generator(Philox(key=..., counter=...))``,
    with 2**56 blocks per stream. Valid only until the next call;
    per-process, not thread-safe.
    """
    _KEYED["counter"] = (_PURPOSES[purpose] << 56, vehicle_id & _MASK, step & _MASK, extra & _MASK)
    _KEYED["key"] = (base_seed & _MASK, run_seed & _MASK)
    _PHILOX.state = _STATE
    return _GENERATOR


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


_BLOCK = 1024  # query points per disk join: its temporaries grow with them


class _Trace:
    """Trace records, checked against ``step_seconds``, for vehicles, and for
    unique ids in ``VEHICLE_IDS`` and steps in ``STEPS``, numbered 0..V-1 in
    trace order (``ids[k]`` is record k's id), with the indices of the
    records active from each step at which the active set changes, the
    ``steps`` at which some record is active, both ascending, the indices
    of the still-parked cars (one position over their whole window), and
    ``near[t]``, a pair (own, shared) of maps from the index of each car
    active at step t to its row: the (index, ``model.distance``) of every
    other car within ``radius``. A still-parked car's row is in ``shared``,
    one map per active set, unless a car that is not still parked is in
    range; every other row is in ``own``. Shared by an ensemble's episodes."""

    def __init__(self, records: Sequence[VehicleRecord], step_seconds: float, radius: float):
        try:
            validate_records(records, step_seconds)
        except TraceValidationError as exc:
            raise ConfigError(f"trace inconsistent with configured step: {exc}") from None
        if not records:
            raise ConfigError("trace has no vehicles")
        self.records = records
        self.ids = [r.vehicle_id for r in records]
        if len(set(self.ids)) < len(records):
            raise ConfigError("trace has more than one record for a vehicle id")
        starts: dict[int, list[int]] = defaultdict(list)
        ends: dict[int, set[int]] = defaultdict(set)
        for k, r in enumerate(records):
            # compared, not looked up: ``in`` a range iterates it for a non-int
            if not (VEHICLE_IDS.start <= r.vehicle_id < VEHICLE_IDS.stop
                    and STEPS.start <= r.start_step and r.end_step <= STEPS.stop):
                raise ConfigError(f"vehicle {r.vehicle_id}: ids must lie in [-2**63, 2**63) "
                                  f"and steps in [-2**63, 2**63 - 1), not {r.start_step} to "
                                  f"{r.end_step - 1}")
            starts[r.start_step].append(k)
            ends[r.end_step].add(k)
        self.active_from: dict[int, list[int]] = {}
        live: list[int] = []
        sets = sorted(starts.keys() | ends.keys())  # the steps at which the active set changes
        for t in sets:
            live = self.active_from[t] = sorted({*live, *starts[t]} - ends[t])
        self.steps = [t for s, e in zip(sets, sets[1:]) if self.active_from[s] for t in range(s, e)]
        self.still_parked = {
            k for k, r in enumerate(records)
            if r.kind is MotionKind.PARKED and r.positions.count(r.positions[0]) == len(r.positions)
        }
        self.step_seconds, self.radius = step_seconds, radius
        # still-parked cars are paired once per active set, keyed by its index
        still = [(s, k) for s, t in enumerate(sets) for k in self.active_from[t]
                 if k in self.still_parked]
        still_car = [k for _, k in still]
        sx, sy = np.array([records[k].positions[0] for k in still_car], float).reshape(-1, 2).T
        # every other car at each of its steps, in step order
        moving = [(k, r) for k, r in enumerate(records) if k not in self.still_parked]
        step = np.array([t for _, r in moving for t in range(r.start_step, r.end_step)], np.int64)
        owner = np.array([k for k, r in moving for _ in r.positions], np.int64)
        xy = np.fromiter(chain.from_iterable(chain.from_iterable(r.positions for _, r in moving)),
                         float, 2 * len(step)).reshape(-1, 2)
        order = np.argsort(step, kind="stable")
        step, owner, xy = step[order], owner[order], xy[order]
        step_set = np.searchsorted(sets, step, side="right") - 1

        parked: list[dict] = [{} for _ in sets]
        still_rows = [parked[s].setdefault(k, []) for s, k in still]
        key = np.array([s for s, _ in still], np.int64)
        for i, k, d in _self_pairs(sx, sy, key, np.array(still_car, np.int64), radius):
            still_rows[i].append((k, d))

        self.near: dict[int, tuple[dict, dict]] = {}
        span = max(1, _BLOCK * len(self.steps) // max(len(step), 1))  # steps per join
        for b in range(0, len(self.steps), span):
            block = self.steps[b:b + span]
            a, z = np.searchsorted(step, block[0]), np.searchsorted(step, block[-1], "right")
            ts, cars = step[a:z].tolist(), owner[a:z].tolist()
            own = {t: {} for t in block}
            rows = [[] for _ in ts]
            for t, k, row in zip(ts, cars, rows):
                own[t][k] = row
            qx, qy = xy[a:z].T
            for i, k, d in _self_pairs(qx, qy, step[a:z], owner[a:z], radius):
                rows[i].append((k, d))
            # the still-parked cars of the active sets of the block's steps
            first, last = (bisect_right(sets, t) - 1 for t in (block[0], block[-1]))
            c, e = np.searchsorted(key, [first, last + 1]).tolist()
            found = channel.disk_join(qx, qy, step_set[a:z], sx[c:e], sy[c:e], key[c:e], radius)
            for i, j, d in zip(*(v.tolist() for v in found)):
                mine, k = own[ts[i]], still_car[c + j]
                row = mine.get(k)
                if row is None:  # a copy, so the shared row stays as it is
                    row = mine[k] = list(still_rows[c + j])
                row.append((cars[i], d))
                rows[i].append((k, d))
            for t, mine in own.items():
                self.near[t] = mine, parked[bisect_right(sets, t) - 1]

    def position(self, k: int, t: int) -> Position2D:
        """Record k's true position at step t, one of its active steps."""
        return self.records[k].positions[t - self.records[k].start_step]


def _self_pairs(x, y, key, car, radius):
    """``channel.disk_join`` of points with themselves, less each point's pair
    with itself, as (point index, ``car`` of the other, distance) Python values."""
    q, e, d = channel.disk_join(x, y, key, x, y, key, radius)
    keep = q != e
    return zip(q[keep].tolist(), car[e[keep]].tolist(), d[keep].tolist())


class _Measured:
    """What the cars of one run measure, drawn when read; a car is its
    record's index. A draw comes from the Philox substream keyed on (config
    seed, run seed) with the counter (purpose, car id, step, neighbor id or
    0), so it is the same bits whichever episode of the run reads it; a
    velocity is kept once drawn. Fixes are taken at true positions,
    velocities from true motion, ranges from true distances."""

    def __init__(self, cfg: RunConfig, run_seed: int, trace: _Trace):
        self.seed, self.run_seed, self.noise = cfg.seed, run_seed, cfg.noise
        self.drop, self.records, self.ids = cfg.zone.drop_probability, trace.records, trace.ids
        self.truth, self.velocities = trace.position, [{} for _ in trace.records]  # by step

    def stream(self, k: int, t: int, purpose: str, extra: int = 0) -> np.random.Generator:
        return substream(self.seed, self.run_seed, self.ids[k], t, purpose, extra)

    def fix(self, k: int, t: int, purpose: str = "gps") -> Position2D:
        """Car k's fix at step t: "gps" at its first step or a reset, "gnss" while halted."""
        return channel.measure_gps(self.truth(k, t), self.noise, self.stream(k, t, purpose))

    def velocity(self, k: int, t: int) -> Velocity2D:
        """Car k's measured velocity over steps t - 1 to t."""
        vel = self.velocities[k].get(t)
        if vel is None:  # normal(0.0, velocity_std, 2), as in channel.measure_gps
            rec, std = self.records[k], self.noise.velocity_std
            vx, vy = rec.velocities[t - 1 - rec.start_step]
            zx, zy = self.stream(k, t, "vel").standard_normal(2).tolist()
            vel = self.velocities[k][t] = tuple.__new__(
                Velocity2D, (vx + (0.0 + std * zx), vy + (0.0 + std * zy)))
        return vel

    def lost(self, k: int, t: int, j: int) -> bool:
        """Whether car j's broadcast to car k is lost at step t."""
        return self.stream(k, t, "drop", self.ids[j]).random() < self.drop

    def range(self, k: int, t: int, j: int, true_d: float) -> float:
        """Car k's range to car j at step t."""
        stream = substream(self.seed, self.run_seed, self.ids[k], t, "range", self.ids[j])
        return channel.measure_range(true_d, self.noise, stream)


@dataclass(slots=True, eq=False)
class _Node:
    """One vehicle's episode state from its first active step. ``anchors``
    (anchors selected) is read for tracked vehicles only."""

    role: NodeClass
    est: Position2D | None
    cov: Covariance | None = None
    iso: int = 0  # steps since a neighbor was last selected
    gnss_n: int = 0  # GNSS fixes in gnss_sum, drawn while halted; 0 restarts the sum
    gnss_sum: tuple[float, float] = (0.0, 0.0)
    anchors: int = 0


def run_episode(
    cfg: RunConfig,
    run_seed: int,
    records: Sequence[VehicleRecord] | _Trace | None = None,
    mode: Mode = Mode.PROPOSED,
    measured: _Measured | None = None,
) -> EpisodeResult:
    """Run one episode of ``mode``; deterministic given (cfg, run_seed,
    mode). Parked cars take no part in a traditional episode. ``records``
    is a ``_Trace`` for the scenario's step and the zone radius, as
    ``ensemble`` passes, or records to check as one; None generates the
    configured scenario's trace. ``measured`` is the run's ``_Measured``, as
    ``ensemble`` passes; None makes one, so a standalone call opens the same
    streams, in the same order, whatever ran before it."""
    scn = cfg.scenario
    trace = records if isinstance(records, _Trace) else _Trace(
        records if records is not None else generate(scn), scn.step_seconds, cfg.zone.radius)
    if (trace.step_seconds, trace.radius) != (scn.step_seconds, cfg.zone.radius):
        raise ConfigError(f"trace neighbors are at step {trace.step_seconds!r} for radius "
                          f"{trace.radius!r}, not the zone radius {cfg.zone.radius!r} "
                          f"at the scenario step {scn.step_seconds!r}")
    if measured is None:
        measured = _Measured(cfg, run_seed, trace)
    return _score(trace, _believe(cfg, trace, mode, measured, trace.position))


def _believe(cfg: RunConfig, trace: _Trace, mode: Mode, measured: _Measured, oracle):
    """The cars' beliefs in an episode of ``mode``: yields (t, nodes) after
    each step t, ``nodes[k]`` being car k's ``_Node`` (None before its first
    step), changed in place. ``oracle(k, t)``, car k's true position at step
    t, is read for an anchor's broadcast, a preloaded anchor's surveyed
    position, and a promoted car's estimate and its 1 m promotion gate."""
    proposed = mode is Mode.PROPOSED
    use_ekf = cfg.algorithm is Algorithm.EKF
    dt, pol, ekf_params = cfg.scenario.step_seconds, cfg.policy, cfg.ekf
    lossy, gps_var = cfg.zone.drop_probability > 0.0, cfg.noise.gps_std**2
    gps_cov = (gps_var, 0.0, gps_var)
    fix, velocity, lost, ranging = measured.fix, measured.velocity, measured.lost, measured.range
    records, ids, still_parked = trace.records, trace.ids, trace.still_parked
    nodes: list[_Node | None] = [None] * len(ids)
    # each car's latest broadcast (role, shared position, priority, covariance)
    # from its second active step; None while it is inactive, which is silent
    heard: list[tuple | None] = [None] * len(ids)
    # A still parked anchor is halted for good, so its step is a no-op and
    # its broadcast never changes: it settles, and is skipped from then on.
    settled = [False] * len(ids)

    def ranked(row, k, t, reference, min_anchors=0):
        """Broadcast-data pre-ranking and ranging of the neighbors in ``row``,
        car k's (index j, true distance) row of ``_Trace.near``, heard
        through ``heard[j]``; a true distance reaches only ``measured.range``.
        A silent neighbor is skipped before its drop draw. Ranges are only
        measured for the top three neighbors under (priority, distance from
        ``reference`` to the shared position, id); select_neighbors then
        fixes the final order on measured ranges. Returns (selected
        candidates, anchors whose broadcast arrived this step, after drops).
        With nothing heard, or fewer than ``min_anchors`` such anchors,
        nothing is ranked or ranged and no candidate is selected; range draws
        are keyed by counter, so skipping them moves no other draw."""
        rx, ry = reference
        found = []
        anchors_in_range = 0
        for j, true_d in row:
            sent = heard[j]
            if sent is None:
                continue  # silent: inactive, in its first active step, or parked in traditional
            if lossy and lost(k, t, j):
                continue  # broadcast lost this step
            ncls, shared, prio, cov = sent
            if ncls is _ANCHOR:
                anchors_in_range += 1
            sx, sy = shared
            found.append((prio, math.hypot(rx - sx, ry - sy), ids[j], j, true_d, ncls, shared, cov))
        if not found or anchors_in_range < min_anchors:
            return [], anchors_in_range
        found.sort()  # ids are unique in a row, so no comparison goes past the id
        return select_neighbors([
            Candidate(nid, ncls, shared, ranging(k, t, j, true_d), cov)
            for _, _, nid, j, true_d, ncls, shared, cov in found[:3]
        ]), anchors_in_range

    others: list[int] = []  # active, not settled, and not parked in traditional mode
    for t in trace.steps:
        if t in trace.active_from:
            others = [k for k in trace.active_from[t] if not settled[k]
                      and (proposed or records[k].kind is not _PARKED)]
        own, shared = trace.near[t]

        for k in others:
            node = nodes[k]
            if node is not None:  # a vehicle broadcasts from its second step
                role = node.role  # an anchor shares its position, any other role its estimate
                if role is _INACTIVE:
                    heard[k] = None
                elif role is _ANCHOR:
                    heard[k] = (role, oracle(k, t), priority(role), _EXACT)
                    if k in still_parked:
                        settled[k] = True
                else:
                    heard[k] = (role, node.est, priority(role), node.cov)
        others = [k for k in others if not settled[k]]  # their step is a no-op

        for k in others:
            rec = records[k]
            kind = rec.kind
            i = t - rec.start_step
            node = nodes[k]
            if node is None:  # first active step: initialise only
                if kind is not _PARKED:
                    nodes[k] = _Node(NodeClass.BLIND, fix(k, t), gps_cov)
                elif pol.anchors_preloaded:
                    nodes[k] = _Node(_ANCHOR, oracle(k, t))  # surveyed
                else:  # dormant: it draws its fixes when a step reads their mean
                    nodes[k] = _Node(_INACTIVE, None)
                continue
            halted = kind is _PARKED or (kind is _QUEUED and rec.velocities[i] == ZERO_VELOCITY)
            if node.role is _ANCHOR:
                if halted:
                    continue  # keeps serving its precisely known position
                node.role = NodeClass.BLIND  # pulled back into traffic
            row = own[k] if k in own else shared[k]

            if proposed and halted:
                # stationary bootstrap: GNSS averaging over its halt, assisted by anchors
                if kind is _PARKED:
                    # halted since its first step; below two anchors its mean is
                    # read by nothing, so its fixes are drawn when a step reads it
                    n = i + 1
                    anchors = 0
                    for j, _ in row:
                        sent = heard[j]
                        if sent is not None and sent[0] is _ANCHOR:
                            anchors += 1
                    if anchors < 2:  # it cannot rank, and no error is read
                        node.role = classify_stationary(kind, anchors, n, math.inf, pol)
                        if node.role is _ANCHOR:
                            node.est = oracle(k, t)
                        continue
                else:  # a queued car broadcasts its estimate, so it averages every step
                    n = node.gnss_n + 1
                # draw and sum, in step order, the fixes not yet in gnss_sum
                sx, sy = node.gnss_sum if node.gnss_n else (0.0, 0.0)
                for s in range(t + 1 - n + node.gnss_n, t + 1):
                    x, y = fix(k, s, "gnss")
                    sx, sy = sx + x, sy + y
                node.gnss_n, node.gnss_sum = n, (sx, sy)
                gnss_mean = Position2D(sx / n, sy / n)

                # below two anchors _anchor_fix gives gnss_mean whatever is ranged
                selected, anchors_in_range = ranked(row, k, t, gnss_mean, min_anchors=2)
                new_est = _anchor_fix([c for c in selected if c.node_class is _ANCHOR], gnss_mean)
                node.role = classify_stationary(
                    kind, anchors_in_range, n, distance(new_est, oracle(k, t)), pol
                )
                node.est = oracle(k, t) if node.role is _ANCHOR else new_est
                node.cov = (gps_var / n, 0.0, gps_var / n)
                continue

            # driving (or halted in traditional mode, where nothing is promoted)
            node.gnss_n = 0
            vel_meas = velocity(k, t)
            if use_ekf:  # its predicted state is dead_reckon(node.est, vel_meas, dt)
                prior, node.cov = ekf_predict(node.est, node.cov, vel_meas, ekf_params)
            else:
                prior = dead_reckon(node.est, vel_meas, dt)

            selected, _ = ranked(row, k, t, prior)
            if not selected:  # either localizer keeps its prior; a swarm at cost 0 draws nothing
                new_est = prior
            elif use_ekf:
                new_est, node.cov = ekf_update(prior, node.cov, selected, ekf_params)
            else:
                problem = LocalizationProblem(tuple(selected), prior)
                new_est = gcpso_localize(problem, cfg.gcpso, measured.stream(k, t, "pso")).position

            if selected:
                node.iso = 0
            else:
                node.iso += 1
                if node.iso >= pol.gps_reset_interval:
                    new_est = fix(k, t)
                    node.cov = gps_cov
                    node.iso = 0

            n_anch = 0
            for c in selected:
                if c.node_class is _ANCHOR:
                    n_anch += 1
            node.role = classify_moving(n_anch)
            node.est = new_est
            if kind is _MOVING:
                node.anchors += n_anch
        yield t, nodes


def _score(trace: _Trace, steps) -> EpisodeResult:
    """Each tracked (moving-kind) car's error from its true position after
    each of its active ``steps`` of belief, and the anchors it selected."""
    tracked = [(k, r.start_step, r.end_step, r.positions, []) for k, r in enumerate(trace.records)
               if r.kind is _MOVING]
    for t, nodes in steps:
        for k, start, end, positions, errors in tracked:
            if start <= t < end:
                (x, y), (tx, ty) = nodes[k].est, positions[t - start]
                errors.append(math.hypot(x - tx, y - ty))
    return EpisodeResult({trace.ids[k]: np.asarray(errors) for k, *_, errors in tracked},
                         {trace.ids[k]: start for k, start, *_ in tracked},
                         {trace.ids[k]: nodes[k].anchors for k, *_ in tracked})


def trace_metrics(trace: _Trace) -> dict[int, tuple[int, float]]:
    """(parked vehicles met, km travelled) of each tracked (moving-kind)
    vehicle id. It meets each parked car in its ``trace.near`` rows, by index:
    one that is active and within the trace's radius at a step of its own."""
    parked = {k for k, r in enumerate(trace.records) if r.kind is MotionKind.PARKED}
    metrics = {}
    for k, r in enumerate(trace.records):
        if r.kind is MotionKind.MOVING:
            rows = (trace.near[t][0][k] for t in range(r.start_step, r.end_step))
            met = parked.intersection(j for row in rows for j, _ in row)
            metrics[r.vehicle_id] = (len(met), r.path_length() / 1000.0)
    return metrics


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


_MODES = (Mode.TRADITIONAL, Mode.PROPOSED)


def _paired_episodes(
    cfg: RunConfig, run_seed: int, trace: _Trace | None = None
) -> list[EpisodeResult]:
    """The (Traditional, Proposed) episodes of one run, which share its
    ``_Measured``; a pool worker passes no trace and runs on its own."""
    trace = _TRACE if trace is None else trace
    measured = _Measured(cfg, run_seed, trace)
    return [run_episode(cfg, run_seed, trace, mode, measured) for mode in _MODES]


def ensemble(
    cfg: RunConfig,
    records: Sequence[VehicleRecord] | None = None,
    jobs: int = 1,
    keep_episodes: bool = False,
) -> EnsembleSummary:
    """Run n_runs paired episodes (identical run seeds for Traditional and
    Proposed) and summarise per-vehicle RMSE and improvement. A run's two
    episodes are one task and share their measured velocities. ``jobs`` > 1
    runs the runs in a pool of at most ``jobs`` workers and no more workers
    than runs, so a 1-run ensemble runs in-process at any ``jobs``; below 1
    it raises. Results are identical for any ``jobs`` value."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs!r}")
    trace = _Trace(records if records is not None else generate(cfg.scenario),
                   cfg.scenario.step_seconds, cfg.zone.radius)
    runs = range(cfg.n_runs)
    workers = min(jobs, cfg.n_runs)
    if workers <= 1:
        by_run = [_paired_episodes(cfg, run, trace) for run in runs]
    else:
        # each worker receives the trace once, not with every task
        with ProcessPoolExecutor(workers, initializer=_share_trace, initargs=(trace,)) as pool:
            by_run = list(pool.map(_paired_episodes, [cfg] * cfg.n_runs, runs, chunksize=1))

    per_trace = trace_metrics(trace)
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
    episodes = [(run, mode, ep) for run, pair in enumerate(by_run)
                for mode, ep in zip(_MODES, pair)]
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


def format_steps_csv(summaries: Sequence[EnsembleSummary]) -> str:
    """Per-step error dump (one row per run/mode/vehicle/step) for plotting,
    of summaries kept with their episodes."""
    lines = ["algorithm,sigma_r,mode,run,vehicle,step,error"]
    for summary in summaries:
        algorithm, range_std = summary.config.algorithm, summary.config.noise.range_std
        for run, mode, episode in summary.episodes:
            for vid in sorted(episode.errors):
                start = episode.first_step[vid]
                for i, err in enumerate(episode.errors[vid]):
                    lines.append(
                        f"{algorithm.value},{range_std!r},{mode.value},{run},"
                        f"{vid},{start + i},{err:.6f}"
                    )
    return "\n".join(lines) + "\n"
