"""Trace ingestion and synthetic scenario generation.

Traces use a small CSV dialect: header ``t,id,x,y,vx,vy,kind``, rows sorted
by (t, id), ``#`` comment lines allowed, UTF-8. Generated trajectories are
*exactly* consistent (p[t+1] == p[t] + step_seconds * v[t] bit-for-bit);
parsed traces are validated within a 0.5 m tolerance to absorb discretization
slack from external mobility tools.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, TraceParseError, TraceValidationError
from .model import (
    MotionKind,
    Position2D,
    VehicleRecord,
    Velocity2D,
    ZERO_VELOCITY,
    distance,
)

TRACE_HEADER = "t,id,x,y,vx,vy,kind"
INGEST_TOLERANCE = 0.5  # meters of allowed p/v inconsistency in parsed traces

_KIND_BY_NAME = {k.value: k for k in MotionKind}


class ChokePoint(NamedTuple):
    """A spot where passing vehicles halt (queue) for a while."""

    x: float
    y: float
    radius: float
    hold_steps: int


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters for the synthetic scenario generators.

    ``circuit`` is a closed polyline (the last vertex connects back to the
    first). ``area`` is (xmin, ymin, xmax, ymax). Parked vehicles are laid out
    every ``parked_spacing`` meters of arc length, offset ``parked_offset``
    meters laterally from the driven line (must stay within 15 m).
    """

    seed: int = 0
    kind: str = "circuit"
    duration: int = 240
    step_seconds: float = 1.0
    area: tuple[float, float, float, float] = (0.0, 0.0, 500.0, 400.0)
    n_moving: int = 1
    n_parked: int = 20
    n_entering: int = 0
    entry_interval: int = 4
    parked_spacing: float = 24.0
    parked_offset: float = 5.0
    speed: float = 10.0
    circuit: tuple[Position2D, ...] = (
        Position2D(0.0, 0.0),
        Position2D(160.0, 0.0),
        Position2D(160.0, 80.0),
        Position2D(0.0, 80.0),
    )
    choke_points: tuple[ChokePoint, ...] = ()

    def validate(self) -> None:
        if self.step_seconds <= 0:
            raise ConfigError("step_seconds must be > 0")
        if self.duration <= 0:
            raise ConfigError("duration must be > 0")
        if min(self.n_moving, self.n_parked, self.n_entering) < 0:
            raise ConfigError("vehicle counts must be >= 0")
        if self.parked_spacing <= 0:
            raise ConfigError("parked_spacing must be > 0")
        if self.entry_interval <= 0:
            raise ConfigError("entry_interval must be > 0")
        if self.speed <= 0:
            raise ConfigError("speed must be > 0")
        if not 0.0 <= self.parked_offset <= 15.0:
            raise ConfigError("parked_offset must lie within 15 m of the road")
        if self.kind not in ("circuit", "town"):
            raise ConfigError(f"unknown scenario kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Trace file parsing / serialization


def csv_rows(text: str, header: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each data row of a CSV file in this dialect:
    blank and ``#`` lines skipped, ``header`` first, every row with as many
    fields as the header. Raises TraceParseError with the line number."""
    n_fields = header.count(",") + 1
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != header:
                raise TraceParseError(line_no, f"expected header {header!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise TraceParseError(line_no, f"expected {n_fields} fields, got {len(parts)}")
        yield line_no, parts
    if not header_seen:
        raise TraceParseError(1, "missing header")


def parse_fields(line_no: int, fields: Sequence[str], n_ints: int) -> list:
    """The first ``n_ints`` fields as ints and the rest as finite floats;
    TraceParseError with the line number otherwise."""
    try:
        values = [*map(int, fields[:n_ints]), *map(float, fields[n_ints:])]
    except ValueError as exc:
        raise TraceParseError(line_no, str(exc)) from None
    if not all(map(math.isfinite, values[n_ints:])):
        raise TraceParseError(line_no, "non-finite value")
    return values


def parse_trace(text: str | bytes) -> list[VehicleRecord]:
    """Parse a trace file into one VehicleRecord per vehicle id.

    Raises TraceParseError (with line number) on malformed rows and
    TraceValidationError on invariant violations (unsorted rows, duplicate
    (t, id) pairs, parked/queued rows with nonzero velocity, gaps).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    rows: list[tuple[int, int, float, float, float, float, str]] = []
    for line_no, parts in csv_rows(text, TRACE_HEADER):
        t, vid, x, y, vx, vy = parse_fields(line_no, parts[:6], 2)
        kind_name = parts[6].strip()
        if kind_name not in _KIND_BY_NAME:
            raise TraceParseError(line_no, f"unknown kind {kind_name!r}")
        rows.append((t, vid, x, y, vx, vy, kind_name))

    seen: set[tuple[int, int]] = set()
    prev_key: tuple[int, int] | None = None
    for t, vid, *_ in rows:
        key = (t, vid)
        if key in seen:
            raise TraceValidationError(f"duplicate row for (t={t}, id={vid})")
        if prev_key is not None and key < prev_key:
            raise TraceValidationError("rows not sorted by (t, id)")
        seen.add(key)
        prev_key = key

    by_id: dict[int, list[tuple[int, float, float, float, float, str]]] = {}
    for t, vid, x, y, vx, vy, kind_name in rows:
        by_id.setdefault(vid, []).append((t, x, y, vx, vy, kind_name))

    records = []
    for vid in sorted(by_id):
        samples = by_id[vid]
        kinds = {s[5] for s in samples}
        if "parked" in kinds:
            if kinds != {"parked"}:
                raise TraceValidationError(f"vehicle {vid}: mixes parked and driven rows")
            kind = MotionKind.PARKED
        elif "queued" in kinds:
            kind = MotionKind.QUEUED
        else:
            kind = MotionKind.MOVING
        for t, x, y, vx, vy, kind_name in samples:
            if kind_name in ("parked", "queued") and (vx != 0.0 or vy != 0.0):
                raise TraceValidationError(
                    f"vehicle {vid}: {kind_name} row at t={t} with nonzero velocity"
                )
        start = samples[0][0]
        for i, (t, *_rest) in enumerate(samples):
            if t != start + i:
                raise TraceValidationError(f"vehicle {vid}: gap in trajectory at t={t}")
        record = VehicleRecord(
            vehicle_id=vid,
            kind=kind,
            start_step=start,
            positions=[Position2D(s[1], s[2]) for s in samples],
            velocities=[Velocity2D(s[3], s[4]) for s in samples],
        )
        records.append(record)
    return records


def validate_records(
    records: Iterable[VehicleRecord],
    step_seconds: float,
    tolerance: float = INGEST_TOLERANCE,
) -> None:
    """Validate trajectory consistency; wraps errors as TraceValidationError."""
    for record in records:
        try:
            record.validate(step_seconds, tolerance)
        except ValueError as exc:
            raise TraceValidationError(str(exc)) from None


def _row_kind(record: VehicleRecord, v: Velocity2D) -> str:
    if record.kind is MotionKind.PARKED:
        return "parked"
    if record.kind is MotionKind.QUEUED and v.vx == 0.0 and v.vy == 0.0:
        return "queued"
    return "moving"


def serialize_trace(records: Sequence[VehicleRecord]) -> str:
    """Serialize records to trace CSV; round-trips bit-exactly via repr()."""
    rows = []
    for record in records:
        for i, (p, v) in enumerate(zip(record.positions, record.velocities)):
            t = record.start_step + i
            rows.append(
                (t, record.vehicle_id,
                 f"{t},{record.vehicle_id},{p.x!r},{p.y!r},{v.vx!r},{v.vy!r},"
                 f"{_row_kind(record, v)}")
            )
    rows.sort(key=lambda r: (r[0], r[1]))
    return "\n".join([TRACE_HEADER] + [r[2] for r in rows]) + "\n"


# ---------------------------------------------------------------------------
# Closed-polyline arc machinery


def _closed_segments(polyline: Sequence[Position2D]):
    pts = list(polyline)
    if len(pts) < 2:
        raise ConfigError("circuit needs at least 2 vertices")
    segs = []
    for a, b in zip(pts, pts[1:] + pts[:1]):
        seg_len = distance(a, b)
        if seg_len > 0.0:
            segs.append((a, b, seg_len))
    if not segs:
        raise ConfigError("circuit is degenerate (zero length)")
    return segs


def circuit_length(polyline: Sequence[Position2D]) -> float:
    return sum(s[2] for s in _closed_segments(polyline))


def point_on_circuit(polyline: Sequence[Position2D], arc: float) -> tuple[Position2D, Velocity2D]:
    """Point and unit tangent at arc length ``arc`` (wrapped) along the loop."""
    segs = _closed_segments(polyline)
    total = sum(s[2] for s in segs)
    s = arc % total
    for a, b, seg_len in segs:
        if s <= seg_len:
            f = s / seg_len
            ux, uy = (b.x - a.x) / seg_len, (b.y - a.y) / seg_len
            return Position2D(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y)), Velocity2D(ux, uy)
        s -= seg_len
    a, b, seg_len = segs[-1]
    return Position2D(b.x, b.y), Velocity2D((b.x - a.x) / seg_len, (b.y - a.y) / seg_len)


def _exact_trajectory(
    ideal: Sequence[Position2D], step_seconds: float
) -> tuple[list[Position2D], list[Velocity2D]]:
    """Re-integrate ideal waypoints so p[i+1] == p[i] + dt*v[i] holds exactly."""
    positions = [ideal[0]]
    velocities: list[Velocity2D] = []
    for nxt in ideal[1:]:
        p = positions[-1]
        v = Velocity2D((nxt.x - p.x) / step_seconds, (nxt.y - p.y) / step_seconds)
        velocities.append(v)
        positions.append(
            Position2D(p.x + step_seconds * v.vx, p.y + step_seconds * v.vy)
        )
    velocities.append(velocities[-1] if velocities else ZERO_VELOCITY)
    return positions, velocities


def _parked_records(
    config: ScenarioConfig, first_id: int, stations: Sequence[Position2D]
) -> list[VehicleRecord]:
    records = []
    for i, pos in enumerate(stations):
        records.append(
            VehicleRecord(
                vehicle_id=first_id + i,
                kind=MotionKind.PARKED,
                start_step=0,
                positions=[pos] * config.duration,
                velocities=[ZERO_VELOCITY] * config.duration,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Generators


def gen_circuit(config: ScenarioConfig) -> list[VehicleRecord]:
    """Small-scale scenario: one target lapping a closed circuit, parked cars
    stationed every ``parked_spacing`` meters just off the driven line."""
    config.validate()
    total = circuit_length(config.circuit)
    if config.n_parked > 0 and config.parked_spacing > total:
        raise ConfigError(
            f"parked_spacing {config.parked_spacing} exceeds circuit length {total:.1f}"
        )

    ideal = []
    for t in range(config.duration):
        pos, _ = point_on_circuit(config.circuit, t * config.step_seconds * config.speed)
        ideal.append(pos)
    positions, velocities = _exact_trajectory(ideal, config.step_seconds)
    target = VehicleRecord(
        vehicle_id=0,
        kind=MotionKind.MOVING,
        start_step=0,
        positions=positions,
        velocities=velocities,
    )

    stations = []
    for k in range(config.n_parked):
        pos, tangent = point_on_circuit(config.circuit, k * config.parked_spacing)
        # left normal of the direction of travel
        stations.append(
            Position2D(
                pos.x - tangent.vy * config.parked_offset,
                pos.y + tangent.vx * config.parked_offset,
            )
        )
    return [target] + _parked_records(config, 1, stations)


def _random_waypoint_walk(
    rng: np.random.Generator,
    config: ScenarioConfig,
    start_step: int,
    chokes_pending: list[ChokePoint],
) -> tuple[list[Position2D], list[Velocity2D], bool]:
    """Waypoint walk from a random start; halts at choke points once each.

    Returns (positions, velocities, queued_anywhere).
    """
    xmin, ymin, xmax, ymax = config.area
    n_steps = config.duration - start_step
    step_len = config.speed * config.step_seconds

    pos = Position2D(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
    goal = Position2D(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
    ideal = [pos]
    hold = 0
    pending = list(chokes_pending)
    queued = False
    for _ in range(n_steps - 1):
        if hold > 0:
            hold -= 1
            ideal.append(ideal[-1])
            continue
        cur = ideal[-1]
        for i, ck in enumerate(pending):
            if math.hypot(cur.x - ck.x, cur.y - ck.y) <= ck.radius:
                hold = ck.hold_steps
                queued = True
                del pending[i]
                break
        if hold > 0:
            ideal.append(cur)
            continue
        to_goal = math.hypot(goal.x - cur.x, goal.y - cur.y)
        while to_goal < step_len:
            goal = Position2D(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
            to_goal = math.hypot(goal.x - cur.x, goal.y - cur.y)
        f = step_len / to_goal
        ideal.append(Position2D(cur.x + f * (goal.x - cur.x), cur.y + f * (goal.y - cur.y)))
    positions, velocities = _exact_trajectory(ideal, config.step_seconds)
    if queued:
        # halted steps must carry exact zeros for the queued-row invariant
        velocities = [
            ZERO_VELOCITY if (v.vx == 0.0 and v.vy == 0.0) else v for v in velocities
        ]
    return positions, velocities, queued


def gen_town(config: ScenarioConfig) -> list[VehicleRecord]:
    """Large-scale scenario: waypoint walkers active from t=0, staggered
    entries every ``entry_interval`` steps, parked cars clustered near the
    walkers' corridors, and queued halts at configured choke points."""
    config.validate()
    xmin, ymin, xmax, ymax = config.area
    if xmax <= xmin or ymax <= ymin:
        raise ConfigError("area is degenerate")
    rng = np.random.default_rng(config.seed)

    records: list[VehicleRecord] = []
    next_id = 0
    corridors: list[Position2D] = []

    for _ in range(config.n_moving):
        positions, velocities, queued = _random_waypoint_walk(
            rng, config, 0, list(config.choke_points)
        )
        records.append(
            VehicleRecord(
                vehicle_id=next_id,
                kind=MotionKind.QUEUED if queued else MotionKind.MOVING,
                start_step=0,
                positions=positions,
                velocities=velocities,
            )
        )
        corridors.extend(positions[:: max(1, len(positions) // 16)])
        next_id += 1

    for k in range(config.n_entering):
        entry = k * config.entry_interval
        if entry >= config.duration:
            break
        positions, velocities, queued = _random_waypoint_walk(
            rng, config, entry, list(config.choke_points)
        )
        records.append(
            VehicleRecord(
                vehicle_id=next_id,
                kind=MotionKind.QUEUED if queued else MotionKind.MOVING,
                start_step=entry,
                positions=positions,
                velocities=velocities,
            )
        )
        next_id += 1

    stations: list[Position2D] = []
    max_tries = 200 * max(1, config.n_parked)
    tries = 0
    while len(stations) < config.n_parked:
        if tries >= max_tries:
            raise ConfigError(
                "could not place parked vehicles at least 1 m apart; density infeasible"
            )
        tries += 1
        if corridors:
            base = corridors[int(rng.integers(len(corridors)))]
            angle = rng.uniform(0.0, 2.0 * math.pi)
            radius = rng.uniform(2.0, 15.0)
            candidate = Position2D(
                base.x + radius * math.cos(angle), base.y + radius * math.sin(angle)
            )
        else:
            candidate = Position2D(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
        if all(distance(candidate, s) >= 1.0 for s in stations):
            stations.append(candidate)
    records.extend(_parked_records(config, next_id, stations))
    return records


def generate(config: ScenarioConfig) -> list[VehicleRecord]:
    """Dispatch on ``config.kind``."""
    if config.kind == "circuit":
        return gen_circuit(config)
    if config.kind == "town":
        return gen_town(config)
    raise ConfigError(f"unknown scenario kind {config.kind!r}")
