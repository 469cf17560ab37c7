"""Neighbor discovery and noisy range/GPS measurement generation.

The radio model is a hard line-of-sight disk: two powered-on vehicles are
neighbors iff their true separation is within the communication-zone radius.
Noise is zero-mean Gaussian, independent per link and per step; there is no
packet loss unless ``drop_probability`` is set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NodeClass, Position2D, WorldState


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviations of the measurement noise sources, in meters
    (velocity_std in m/s, applied per axis to velocity measurements)."""

    range_std: float = 4.0
    gps_std: float = 6.0
    velocity_std: float = 0.5

    def __post_init__(self):
        if not all(s >= 0 for s in (self.range_std, self.gps_std, self.velocity_std)):
            raise ValueError("noise standard deviations must be >= 0")


@dataclass(frozen=True)
class CommZone:
    """Communication disk radius, in meters (DSRC device class dependent)."""

    radius: float
    drop_probability: float = 0.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("communication radius must be > 0")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")


def _index(world: WorldState, radius: float) -> tuple[dict, dict]:
    """Uniform grid of the world's vehicles for ``radius``: the cell of every
    vehicle at a finite position, and the powered-on ones as (id, x, y) by
    cell.

    A pair within ``radius`` has |dx|, |dy| <= radius * (1 + 2**-53), and each
    division below is off by at most ``big`` * 2**-53 / width cells, so with
    this width the pair's cells differ by at most one on either axis.
    """
    placed = [
        (vid, snap.position, snap.node_class)
        for vid, snap in world.vehicles.items()
        if snap.position.is_finite()
    ]
    big = max((abs(c) for _, pos, _ in placed for c in pos), default=0.0)
    width = radius * (1.0 + 2.0**-30) + big * 2.0**-50
    cell_of: dict[int, tuple[int, int]] = {}
    cells: dict[tuple[int, int], list[tuple[int, float, float]]] = {}
    for vid, (x, y), node_class in placed:
        cell = cell_of[vid] = (math.floor(x / width), math.floor(y / width))
        if node_class is not NodeClass.INACTIVE:
            cells.setdefault(cell, []).append((vid, x, y))
    return cell_of, cells


def _scan(world: WorldState, vehicle_id: int, radius: float) -> list[int]:
    """``neighbors`` by a test of every vehicle; a non-finite distance is
    within no radius."""
    ox, oy = world.vehicles[vehicle_id].position
    return sorted(
        vid for vid, snap in world.vehicles.items()
        if vid != vehicle_id and snap.node_class is not NodeClass.INACTIVE
        and math.hypot(ox - snap.position.x, oy - snap.position.y) <= radius
    )


def neighbors(world: WorldState, vehicle_id: int, zone: CommZone) -> list[int]:
    """Ids of powered-on vehicles within the zone of ``vehicle_id``, ascending.

    Inactive nodes never appear in the result (they do not broadcast), but an
    inactive vehicle may itself query its surroundings. The first query of a
    radius scans every vehicle, since a world queried once does not repay an
    index; the second indexes the world, and each later query scans its own
    and adjacent cells.
    """
    if vehicle_id not in world.vehicles:
        raise KeyError(f"unknown vehicle id {vehicle_id}")
    radius = zone.radius
    grids = world.neighbor_grids
    if radius not in grids:
        grids[radius] = None
        return _scan(world, vehicle_id, radius)
    index = grids[radius]
    if index is None:
        index = grids[radius] = _index(world, radius)
    cell_of, cells = index
    if vehicle_id not in cell_of:
        return []  # a non-finite position is within no distance of anything
    i, j = cell_of[vehicle_id]
    ox, oy = world.vehicles[vehicle_id].position
    found = []
    for ci in (i - 1, i, i + 1):
        for cj in (j - 1, j, j + 1):
            for vid, x, y in cells.get((ci, cj), ()):
                if vid != vehicle_id and math.hypot(ox - x, oy - y) <= radius:
                    found.append(vid)
    found.sort()
    return found


def measure_range(
    true_distance: float, noise: NoiseModel, rng: np.random.Generator
) -> float:
    """Noisy range: true distance plus Gaussian error, clamped at zero."""
    if true_distance < 0:
        raise ValueError("true_distance must be >= 0")
    return max(0.0, true_distance + rng.normal(0.0, noise.range_std))


def measure_gps(
    true_pos: Position2D,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> Position2D:
    """Noisy GPS fix: independent per-axis Gaussian error."""
    ex, ey = rng.normal(0.0, noise.gps_std, size=2)
    return Position2D(true_pos.x + ex, true_pos.y + ey)
