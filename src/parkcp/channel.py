"""Neighbor discovery and noisy range/GPS measurement generation.

The radio model is a hard line-of-sight disk: two powered-on vehicles are
neighbors iff their true separation is within the communication-zone radius.
Every such question is answered by one vectorized join, ``disk_join``, which
sizes its grid cells from the points it is given: from ``harness._Trace``,
which builds a trace's neighbor table once, and from ``neighbors``.
Noise is zero-mean Gaussian, independent per link and per step; there is no
packet loss unless ``drop_probability`` is set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NodeClass, Position2D


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviations of the measurement noise sources, in meters
    (velocity_std in m/s, applied per axis to velocity measurements)."""

    range_std: float = 4.0
    gps_std: float = 6.0
    velocity_std: float = 0.5

    def __post_init__(self):
        stds = (self.range_std, self.gps_std, self.velocity_std)
        if not all(s >= 0 and math.isfinite(s) for s in stds):
            raise ValueError("noise standard deviations must be finite and >= 0")


@dataclass(frozen=True)
class CommZone:
    """Communication disk radius, in meters (DSRC device class dependent)."""

    radius: float
    drop_probability: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.radius):
            raise ValueError(f"communication radius must be finite, got {self.radius!r}")
        if not self.radius > 0:
            raise ValueError("communication radius must be > 0")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")


def cell_width(radius: float, extent: float) -> float:
    """Width of ``disk_join``'s grid cells for ``radius`` when no point it
    joins has a coordinate above ``extent`` in magnitude.

    A pair within ``radius`` has |dx|, |dy| <= radius * (1 + 2**-53), and each
    cell division is off by at most ``extent`` * 2**-53 / width cells, so with
    this width the pair's cells differ by at most one on either axis, and no
    cell index exceeds 2**50 in magnitude.
    """
    return radius * (1.0 + 2.0**-30) + extent * 2.0**-50


def disk_join(
    qx: np.ndarray, qy: np.ndarray, qkey: np.ndarray,
    ex: np.ndarray, ey: np.ndarray, ekey: np.ndarray,
    radius: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(query index, entry index, distance) of every pair of a query point
    (qx, qy) and an entry point (ex, ey) with equal integer keys whose exact
    ``math.hypot <= radius`` test holds; that ``hypot`` is the distance, so
    it equals ``model.distance`` of the two points bit for bit. Pairs come
    grouped by query, in ascending query order.

    A non-finite coordinate raises ValueError. Each point's cell is
    ``floor(x / width)``, which numpy rounds as Python does, at the
    ``cell_width`` of the largest coordinate magnitude given. The entries
    are stable-sorted by (key, cell x, cell y), packed as ranks of their
    distinct values, so that for each query one search per adjacent column
    of cells finds the entries of its own and the 8 adjacent cells.
    """
    # numpy's max passes a NaN on, and cell_width a NaN or an infinity
    width = cell_width(radius, np.max([np.abs(a).max(initial=0.0) for a in (qx, qy, ex, ey)]))
    if not math.isfinite(width):
        raise ValueError("disk_join needs finite coordinates")
    if not len(qx) or not len(ex):
        return np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)
    keys, k_rank = np.unique(ekey, return_inverse=True)
    xs, x_rank = np.unique(np.floor(ex / width).astype(np.int64), return_inverse=True)
    ys, y_rank = np.unique(np.floor(ey / width).astype(np.int64), return_inverse=True)
    nk, nx, ny = len(keys), len(xs), len(ys)
    if nk * nx * ny >= 2**62:  # ranks below len(ex) each, so only past about 1.6e6 entries
        raise ValueError(f"{len(ex)} entries are too many to join at once")
    packed = (k_rank * nx + x_rank) * ny + y_rank
    order = np.argsort(packed, kind="stable")
    packed = packed[order]

    qcx = np.floor(qx / width).astype(np.int64)
    qcy = np.floor(qy / width).astype(np.int64)
    qk = np.searchsorted(keys, qkey)
    has_key = keys[np.minimum(qk, nk - 1)] == qkey
    # the rank bounds of cell rows qcy-1 to qcy+1, whichever of them exist
    y_lo, y_hi = np.searchsorted(ys, qcy - 1), np.searchsorted(ys, qcy + 2)
    lo, hi = np.empty((2, len(qx), 3), np.int64)
    for c, dx in enumerate((-1, 0, 1)):
        qx_rank = np.searchsorted(xs, qcx + dx)
        found = has_key & (xs[np.minimum(qx_rank, nx - 1)] == qcx + dx)
        column = np.where(found, qk * nx + qx_rank, 0) * ny
        lo[:, c] = np.searchsorted(packed, column + y_lo)
        hi[:, c] = np.where(found, np.searchsorted(packed, column + y_hi), lo[:, c])
    counts = (hi - lo).ravel()
    total = int(counts.sum())
    query = np.repeat(np.arange(len(qx)), counts.reshape(-1, 3).sum(axis=1))
    # each run of candidates starts at its lo and counts up
    starts = np.cumsum(counts) - counts
    entry = order[np.arange(total) - np.repeat(starts - lo.ravel(), counts)]
    dist = np.fromiter(
        map(math.hypot, (qx[query] - ex[entry]).tolist(), (qy[query] - ey[entry]).tolist()),
        float, total,
    )
    keep = dist <= radius
    return query[keep], entry[keep], dist[keep]


def neighbors(
    vehicles: dict[int, tuple[Position2D, NodeClass]], vehicle_id: int, zone: CommZone
) -> list[int]:
    """Ids of powered-on vehicles within the zone of ``vehicle_id``, ascending.

    ``vehicles`` maps each id to its (position, role). Inactive vehicles do
    not broadcast, so they are never found, but one may itself look around.
    A non-finite position is within no distance of anything.
    """
    if vehicle_id not in vehicles:
        raise KeyError(f"unknown vehicle id {vehicle_id}")
    own = vehicles[vehicle_id][0]
    if not own.is_finite():
        return []
    placed = {vid: pos for vid, (pos, role) in vehicles.items()
              if role is not NodeClass.INACTIVE and pos.is_finite()}
    ids = list(placed)
    ex, ey = np.array([*placed.values()], float).reshape(-1, 2).T
    _, found, _ = disk_join(
        np.array([own.x]), np.array([own.y]), np.zeros(1, np.int64),
        ex, ey, np.zeros(len(ids), np.int64), zone.radius,
    )
    return sorted(ids[k] for k in found.tolist() if ids[k] != vehicle_id)


def measure_range(
    true_distance: float, noise: NoiseModel, rng: np.random.Generator
) -> float:
    """Noisy range: true distance plus Gaussian error, clamped at zero."""
    if true_distance < 0:
        raise ValueError("true_distance must be >= 0")
    # numpy's normal(loc, scale) is loc + scale * z, so this is its draw bit for bit
    return max(0.0, true_distance + (0.0 + noise.range_std * rng.standard_normal()))


def measure_gps(
    true_pos: Position2D,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> Position2D:
    """Noisy GPS fix: independent per-axis Gaussian error."""
    zx, zy = rng.standard_normal(2).tolist()  # normal(0.0, gps_std, 2), as in measure_range
    return tuple.__new__(Position2D, (true_pos.x + (0.0 + noise.gps_std * zx),
                                      true_pos.y + (0.0 + noise.gps_std * zy)))
