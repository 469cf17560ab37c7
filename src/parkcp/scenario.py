"""Trace ingestion and synthetic scenario generation.

Traces use a small CSV dialect: header ``t,id,x,y,vx,vy,kind``, rows sorted
by (t, id), ``#`` comment lines allowed, UTF-8 (one leading byte-order mark
is skipped). Generated trajectories are *exactly* consistent
(p[t+1] == p[t] + step_seconds * v[t] bit-for-bit); parsed traces are
validated within a 0.5 m tolerance to absorb discretization slack from
external mobility tools.

Trace I/O converts each distinct token once, since tokens repeat:
- ``parse_trace`` splits each data row at its first comma and parses each
  distinct rest of a row (``id,x,y,vx,vy,kind``) once: a parked car repeats
  one rest at every step, and parked cars hold most rows of a town trace
  (80% on the benchmark's 80/320 town, about 19 000 distinct rests in
  96 000 rows). Rows with equal text share one position and one velocity
  object.
- It converts each distinct ``t`` token once (240 in those 96 000 rows), and
  each distinct ``id``, ``vx`` and ``vy`` token of the distinct rests once
  (400, 1 866 and 2 033 in 19 000).
- ``serialize_trace`` formats each distinct velocity of a vehicle once,
  except velocities with a zero component: ``0.0 == -0.0``, but they print
  differently.

``parse_trace`` reads t and id into int64 arrays, on which it checks the
(t, id) order and groups rows by vehicle; a t outside ``model.STEPS`` or an
id outside ``model.VEHICLE_IDS`` is malformed. A malformed trace is re-read
line by line to report the first bad line.

``generate`` and ``parse_trace`` build a trace with the cyclic garbage
collector paused (``_collector_paused``), and ``_exact_trajectory`` builds
its samples in bulk with ``tuple.__new__``. Samples are named tuples, which
the collector never untracks: on the benchmark's 80/320 town, a generate ran
51 young, 4.7 middle and 0.3 full collections on average (12 of 46 ms), and a
parse 50, 4.6 and 0.6 (23 of 168 ms); paused, each call runs about one
collection, on exit. On a shared 2-core x86 host (Python 3.11) the pause
alone cut ``trace-coverage`` set-up (the town's generation) by 21%, the bulk
build alone by 11%, and both by 32%.
"""
from __future__ import annotations

import gc
import math
import operator
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, count, islice, product, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, TraceParseError, TraceValidationError, require_ints
from .model import (
    STEPS,
    VEHICLE_IDS,
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


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, and re-enable it on exit if it was
    enabled on entry.

    Trace samples are named tuples, which the collector never untracks, so
    building a trace fires dozens of collections that each traverse every
    sample built so far. Samples are tuples of floats and form no reference
    cycles, so pausing leaves no garbage uncollected. The pause is
    process-wide; parkcp runs no threads."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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

    def __post_init__(self):
        require_ints(self, ("seed", "duration", "n_moving", "n_parked", "n_entering",
                            "entry_interval"))
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        for name in ("step_seconds", "parked_spacing", "speed"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.step_seconds > 0:
            raise ConfigError("step_seconds must be > 0")
        if self.duration <= 0:
            raise ConfigError("duration must be > 0")
        if min(self.n_moving, self.n_parked, self.n_entering) < 0:
            raise ConfigError("vehicle counts must be >= 0")
        if not self.parked_spacing > 0:
            raise ConfigError("parked_spacing must be > 0")
        if self.entry_interval <= 0:
            raise ConfigError("entry_interval must be > 0")
        if not self.speed > 0:
            raise ConfigError("speed must be > 0")
        if not 0.0 <= self.parked_offset <= 15.0:
            raise ConfigError("parked_offset must lie within 15 m of the road")
        if self.kind not in GENERATORS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if len(self.area) != 4:
            raise ConfigError("area must be four numbers: xmin, ymin, xmax, ymax")
        if not all(map(math.isfinite, self.area)):
            raise ConfigError(f"area must be finite, got {self.area!r}")
        xmin, ymin, xmax, ymax = self.area
        if not (xmax > xmin and ymax > ymin):
            raise ConfigError("area is degenerate")
        # a walker's next goal is redrawn until it lies a step away; from
        # every point some point of the area lies half its diagonal away
        step, half = self.speed * self.step_seconds, math.hypot(xmax - xmin, ymax - ymin) / 2
        if self.kind == "town" and self.n_moving + self.n_entering > 0 and not step < half:
            raise ConfigError(f"a town walker's step speed * step_seconds ({step!r}) must be "
                              f"shorter than half the diagonal of area ({half!r})")
        if not all(math.isfinite(c) for p in self.circuit for c in p):
            raise ConfigError("circuit needs finite vertices")
        if not all(math.isfinite(ck.x) and math.isfinite(ck.y) for ck in self.choke_points):
            raise ConfigError("choke_points need finite x and y")
        for ck in self.choke_points:  # a named tuple cannot check itself
            require_ints(ck, ("hold_steps",))
            if not (ck.radius > 0 and ck.hold_steps >= 1):
                raise ConfigError("choke_points need radius > 0 and hold_steps >= 1")


# ---------------------------------------------------------------------------
# Trace file parsing / serialization


def csv_rows(text: str, header: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each data row of a CSV file in this dialect:
    one leading byte-order mark dropped, blank and ``#`` lines skipped,
    ``header`` first, every row with as many fields as the header. Raises
    TraceParseError with the line number."""
    n_fields = header.count(",") + 1
    header_seen = False
    for line_no, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
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


_N_TRACE_FIELDS = TRACE_HEADER.count(",") + 1
_STATIONARY_KINDS = frozenset({"parked", "queued"})
_KIND_BIT = {"parked": 1, "queued": 2, "moving": 4}
# a vehicle's kind by the bits of its rows' kinds; parked with another is an error
_KIND_OF_BITS = {1: MotionKind.PARKED, 2: MotionKind.QUEUED, 6: MotionKind.QUEUED,
                 4: MotionKind.MOVING}


class _FirstSeen(dict):
    """Each key's index in order of first lookup: looking up an unseen key
    adds it with the next index."""

    def __missing__(self, key):
        self[key] = index = len(self)
        return index


def _distinct(tokens: Iterable[str], n: int) -> tuple[np.ndarray, list[str]]:
    """Each of the ``n`` tokens' index among the distinct tokens, and the
    distinct tokens in order of first appearance. Only the distinct tokens
    stay alive: with a list of all 96 000 rests of the benchmark's 80/320
    town, a parse peaked at 22.6 traced MiB instead of 16.8."""
    index_of = _FirstSeen()
    return np.fromiter(map(index_of.__getitem__, tokens), np.intp, n), list(index_of)


def _converted_once(convert, tokens: list[str]) -> list:
    """``convert`` of each token, called once per distinct token."""
    distinct = dict.fromkeys(tokens)
    return list(map(dict(zip(distinct, map(convert, distinct))).__getitem__, tokens))


def _trace_rows(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, list, list, list]:
    """Each row's t and the index of its rest, the text after a row's ``t,``,
    as arrays, and (id, position, velocity, kind name) of each distinct rest:
    a parked car's rows repeat one rest at every step, so each rest is parsed
    once. Raises ValueError, without a line number, if any row is malformed."""
    lines = [
        line for line in map(str.strip, text.removeprefix("\ufeff").splitlines())
        if line and line[0] != "#"
    ]
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError("no header")
    del lines[0]
    # partitioning twice keeps no tuple per row alive: one pass into
    # zip(*...) raised the peak RSS of a trace-coverage loop by 16 MiB
    t_tokens, t_distinct = _distinct(
        map(operator.itemgetter(0), map(str.partition, lines, repeat(","))), len(lines))
    rows, rests = _distinct(
        map(operator.itemgetter(2), map(str.partition, lines, repeat(","))), len(lines))
    del lines
    n = _N_TRACE_FIELDS - 1  # fields of a rest
    if not set(map(str.count, rests, repeat(","))) <= {n - 1}:
        raise ValueError("wrong field count")
    steps = list(map(int, t_distinct))
    fields = ",".join(rests).split(",") if rests else []
    ids = _converted_once(int, fields[0::n])
    if not (all(map(STEPS.__contains__, steps)) and all(map(VEHICLE_IDS.__contains__, {*ids}))):
        raise ValueError("t or id out of range")
    kinds = list(map(str.strip, fields[5::n]))
    if not _KIND_BY_NAME.keys() >= set(kinds):
        raise ValueError("unknown kind")
    xs, ys = (list(map(float, fields[k::n])) for k in (1, 2))
    vxs, vys = (_converted_once(float, fields[k::n]) for k in (3, 4))
    if not all(map(math.isfinite, chain(xs, ys, vxs, vys))):
        raise ValueError("non-finite value")
    return (
        np.array(steps, np.int64)[t_tokens], rows, np.array(ids, np.int64),
        list(map(tuple.__new__, repeat(Position2D), zip(xs, ys))),
        list(map(tuple.__new__, repeat(Velocity2D), zip(vxs, vys))), kinds,
    )


def parse_trace(text: str | bytes) -> list[VehicleRecord]:
    """Parse a trace file into one VehicleRecord per vehicle id.

    Raises TraceParseError (with line number) on malformed rows and
    TraceValidationError on invariant violations (unsorted rows, duplicate
    (t, id) pairs, parked/queued rows with nonzero velocity, gaps).
    """
    with _collector_paused():
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        try:
            row_t, rows, ids, positions, velocities, kinds = _trace_rows(text)
        except ValueError:
            # the line reader raises the error of the first malformed line
            for line_no, parts in csv_rows(text, TRACE_HEADER):
                t, vid = parse_fields(line_no, parts[:6], 2)[:2]
                if t not in STEPS or vid not in VEHICLE_IDS:
                    raise TraceParseError(line_no, f"t={t}, id={vid}: t must lie in [-2**63, "
                                          "2**63 - 1) and id in [-2**63, 2**63)")
                kind_name = parts[6].strip()
                if kind_name not in _KIND_BY_NAME:
                    raise TraceParseError(line_no, f"unknown kind {kind_name!r}")
            raise AssertionError("the per-rest reader rejected a trace the line reader accepts")

        # (t, id) strictly increasing
        row_id = ids[rows]
        unordered = np.flatnonzero((row_t[1:] < row_t[:-1])
                                   | (row_t[1:] == row_t[:-1]) & (row_id[1:] <= row_id[:-1]))
        if unordered.size:
            i = unordered[0] + 1
            t, vid = row_t[i].item(), row_id[i].item()
            if ((row_t[:i] == t) & (row_id[:i] == vid)).any():
                raise TraceValidationError(f"duplicate row for (t={t}, id={vid})")
            raise TraceValidationError("rows not sorted by (t, id)")

        # a stable sort on id keeps each vehicle's rows in step order
        order = np.argsort(row_id, kind="stable")
        rows, row_id, row_t = rows[order], row_id[order], row_t[order]
        vids = np.unique(ids)
        starts, ends = (np.searchsorted(row_id, vids, side) for side in ("left", "right"))
        # each vehicle's first and last step only: a list of every row's step
        # raised the peak RSS of a 40-unit trace-coverage loop from 85 to 91 MiB
        firsts, lasts = row_t[starts].tolist(), row_t[ends - 1].tolist()
        vids, starts, ends = vids.tolist(), starts.tolist(), ends.tolist()
        del order, row_id, ids
        # the kinds of each vehicle's rows as bits, and the stationary rows
        # that move, in vehicle order
        kind_bits = np.fromiter(map(_KIND_BIT.__getitem__, kinds), np.uint8, len(kinds))
        kinds_of = np.bitwise_or.reduceat(kind_bits[rows], starts).tolist() if starts else []
        moving_while_stationary = np.flatnonzero(np.fromiter(
            (kind_name in _STATIONARY_KINDS and v != ZERO_VELOCITY
             for kind_name, v in zip(kinds, velocities)), bool, len(kinds),
        )[rows]).tolist()
        # each row's position and velocity objects, in vehicle order
        positions, velocities = (
            np.fromiter(column, object, len(column))[rows] for column in (positions, velocities)
        )

        records = []
        for vid, start_row, end, start, last, bits in zip(vids, starts, ends, firsts, lasts,
                                                          kinds_of):
            kind = _KIND_OF_BITS.get(bits)
            if kind is None:
                raise TraceValidationError(f"vehicle {vid}: mixes parked and driven rows")
            if moving_while_stationary and moving_while_stationary[0] < end:
                row = moving_while_stationary[0]
                raise TraceValidationError(f"vehicle {vid}: {kinds[rows[row]]} row at "
                                           f"t={row_t[row]} with nonzero velocity")
            # rows are strictly increasing in t, so no gap iff the span fits the count
            if last - start != end - start_row - 1:
                t = next(t for i, t in enumerate(row_t[start_row:end].tolist(), start) if t != i)
                raise TraceValidationError(f"vehicle {vid}: gap in trajectory at t={t}")
            records.append(VehicleRecord(
                vehicle_id=vid,
                kind=kind,
                start_step=start,
                positions=positions[start_row:end].tolist(),
                velocities=velocities[start_row:end].tolist(),
            ))
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
    if record.kind is MotionKind.QUEUED and v == ZERO_VELOCITY:
        return "queued"
    return "moving"


def serialize_trace(records: Sequence[VehicleRecord]) -> str:
    """Serialize records to trace CSV; round-trips bit-exactly via repr().

    Rows are sorted by (t, id), and rows with equal (t, id) keep the order of
    ``records``. Raises ValueError if a record's positions and velocities
    differ in length.
    """
    rows_at: defaultdict[int, list[str]] = defaultdict(list)
    for record in sorted(records, key=operator.attrgetter("vehicle_id")):
        vid = record.vehicle_id
        if len(record.positions) != len(record.velocities):
            raise ValueError(f"vehicle {vid}: positions/velocities length mismatch")
        # ",vx,vy,kind" of each velocity with no zero component: equal nonzero
        # floats print the same text, but 0.0 == -0.0 do not
        tail_of: dict[Velocity2D, str] = {}
        last_p = last_v = text = None
        for t, p, v in zip(count(record.start_step), record.positions, record.velocities):
            # the same objects print the same text; equal values may not (-0.0)
            if p is not last_p or v is not last_v:
                last_p, last_v = p, v
                vx, vy = v
                if vx and vy:
                    tail = tail_of.get(v)
                    if tail is None:
                        tail = tail_of[v] = f",{vx!r},{vy!r},{_row_kind(record, v)}"
                else:
                    tail = f",{vx!r},{vy!r},{_row_kind(record, v)}"
                text = f",{vid},{p.x!r},{p.y!r}{tail}"
            rows_at[t].append(text)
    out = [TRACE_HEADER]
    for t in sorted(rows_at):
        prefix = f"\n{t}"
        out.append(prefix + prefix.join(rows_at[t]))
    return "".join(out) + "\n"


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
    xs: Sequence[float], ys: Sequence[float], step_seconds: float
) -> tuple[list[Position2D], list[Velocity2D]]:
    """Re-integrate ideal waypoints (xs[i], ys[i]) so that
    p[i+1] == p[i] + dt*v[i] holds exactly."""
    px, py = xs[0], ys[0]
    pxs, pys, vxs, vys = [px], [py], [], []
    for nx, ny in zip(islice(xs, 1, None), islice(ys, 1, None)):
        vx, vy = (nx - px) / step_seconds, (ny - py) / step_seconds
        vxs.append(vx)
        vys.append(vy)
        px, py = px + step_seconds * vx, py + step_seconds * vy
        pxs.append(px)
        pys.append(py)
    # the samples in bulk, without the named tuple's Python-level __new__
    positions = list(map(tuple.__new__, repeat(Position2D), zip(pxs, pys)))
    velocities = list(map(tuple.__new__, repeat(Velocity2D), zip(vxs, vys)))
    velocities.append(velocities[-1] if velocities else ZERO_VELOCITY)
    return positions, velocities


def _parked_records(
    config: ScenarioConfig, first_id: int, stations: Sequence[Position2D]
) -> list[VehicleRecord]:
    return [
        VehicleRecord(
            vehicle_id=vid,
            kind=MotionKind.PARKED,
            start_step=0,
            positions=[pos] * config.duration,
            velocities=[ZERO_VELOCITY] * config.duration,
        )
        for vid, pos in enumerate(stations, start=first_id)
    ]


# ---------------------------------------------------------------------------
# Generators


def gen_circuit(config: ScenarioConfig) -> list[VehicleRecord]:
    """Small-scale scenario: one target lapping a closed circuit, parked cars
    stationed every ``parked_spacing`` meters just off the driven line."""
    total = circuit_length(config.circuit)
    if config.n_parked > 0 and config.parked_spacing > total:
        raise ConfigError(
            f"parked_spacing {config.parked_spacing} exceeds circuit length {total:.1f}"
        )

    xs, ys = [], []
    for t in range(config.duration):
        pos, _ = point_on_circuit(config.circuit, t * config.step_seconds * config.speed)
        xs.append(pos.x)
        ys.append(pos.y)
    positions, velocities = _exact_trajectory(xs, ys, config.step_seconds)
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

    # waypoints as float pairs: only the re-integrated samples become objects
    cx, cy = rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)
    gx, gy = rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)
    xs, ys = [cx], [cy]
    hold = 0
    pending = list(chokes_pending)
    queued = False
    for _ in range(n_steps - 1):
        if hold > 0:
            hold -= 1
        else:
            for i, ck in enumerate(pending):
                if math.hypot(cx - ck.x, cy - ck.y) <= ck.radius:
                    hold = ck.hold_steps
                    queued = True
                    del pending[i]
                    break
            if hold == 0:
                to_goal = math.hypot(gx - cx, gy - cy)
                while to_goal < step_len:
                    gx, gy = rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)
                    to_goal = math.hypot(gx - cx, gy - cy)
                f = step_len / to_goal
                cx, cy = cx + f * (gx - cx), cy + f * (gy - cy)
        xs.append(cx)
        ys.append(cy)
    positions, velocities = _exact_trajectory(xs, ys, config.step_seconds)
    return positions, velocities, queued


def gen_town(config: ScenarioConfig) -> list[VehicleRecord]:
    """Large-scale scenario: waypoint walkers active from t=0, staggered
    entries every ``entry_interval`` steps, parked cars clustered near the
    walkers' corridors, and queued halts at configured choke points."""
    xmin, ymin, xmax, ymax = config.area
    rng = np.random.default_rng(config.seed)

    records: list[VehicleRecord] = []
    corridors: list[Position2D] = []
    starts = [0] * config.n_moving + [
        k * config.entry_interval
        for k in range(config.n_entering)
        if k * config.entry_interval < config.duration
    ]
    for vid, start in enumerate(starts):
        positions, velocities, queued = _random_waypoint_walk(
            rng, config, start, list(config.choke_points)
        )
        records.append(
            VehicleRecord(
                vehicle_id=vid,
                kind=MotionKind.QUEUED if queued else MotionKind.MOVING,
                start_step=start,
                positions=positions,
                velocities=velocities,
            )
        )
        if vid < config.n_moving:  # parked cars cluster near the initial walkers
            corridors.extend(positions[:: max(1, len(positions) // 16)])

    stations: list[Position2D] = []
    # stations by 1 m cell: a station less than 1 m away has |dx|, |dy| < 1,
    # so it lies in the candidate's cell or an adjacent one
    stations_in: dict[tuple[int, int], list[Position2D]] = {}
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
        i, j = math.floor(candidate.x), math.floor(candidate.y)
        if all(
            distance(candidate, s) >= 1.0
            for cell in product((i - 1, i, i + 1), (j - 1, j, j + 1))
            for s in stations_in.get(cell, ())
        ):
            stations.append(candidate)
            stations_in.setdefault((i, j), []).append(candidate)
    records.extend(_parked_records(config, len(starts), stations))
    return records


GENERATORS = {"circuit": gen_circuit, "town": gen_town}  # by scenario kind


def generate(config: ScenarioConfig) -> list[VehicleRecord]:
    """Dispatch on ``config.kind``."""
    with _collector_paused():
        return GENERATORS[config.kind](config)
