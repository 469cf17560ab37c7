"""Neighbor discovery and noisy range/GPS measurement generation.

The radio model is a hard line-of-sight disk: two powered-on vehicles are
neighbors iff their true separation is within the communication-zone radius.
Every such question is answered on a ``grid``: from an episode step or
``neighbors`` by one lookup with ``within``, from ``harness.trace_metrics``
by ``ids_within`` over a vehicle's positions.
Noise is zero-mean Gaussian, independent per link and per step; there is no
packet loss unless ``drop_probability`` is set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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


def cell_width(radius: float, extent: float) -> float:
    """Width of the grid cells for ``radius`` when no coordinate put in or
    looked up on the grid exceeds ``extent`` in magnitude.

    A pair within ``radius`` has |dx|, |dy| <= radius * (1 + 2**-53), and each
    division in ``cell`` is off by at most ``extent`` * 2**-53 / width cells,
    so with this width the pair's cells differ by at most one on either axis.
    """
    return radius * (1.0 + 2.0**-30) + extent * 2.0**-50


def cell(x: float, y: float, width: float) -> tuple[int, int]:
    """The grid cell of a finite point."""
    return math.floor(x / width), math.floor(y / width)


def grid(
    entries: Iterable[tuple], width: float, base: dict | None = None
) -> dict[tuple[int, int], list[tuple]]:
    """Entries (id, x, y, ...) at finite points, by cell, added to a copy of
    ``base``, a grid of the same width, which stays unchanged."""
    cells = dict(base) if base else {}
    for entry in entries:
        key = cell(entry[1], entry[2], width)
        cells[key] = [*cells.get(key, ()), entry]
    return cells


def within(
    cells: dict, x: float, y: float, width: float, radius: float
) -> list[tuple]:
    """Entries of the grid ``cells`` of cell ``width`` within ``radius`` of
    the finite point (x, y): a scan of its own and the 8 adjacent cells,
    each entry decided by the exact ``hypot <= radius`` test."""
    i, j = cell(x, y, width)
    found = []
    for ci in (i - 1, i, i + 1):
        for cj in (j - 1, j, j + 1):
            for entry in cells.get((ci, cj), ()):
                if math.hypot(x - entry[1], y - entry[2]) <= radius:
                    found.append(entry)
    return found


def ids_within(
    cells: dict, points: Iterable[tuple[float, float]], width: float, radius: float
) -> set:
    """Ids of the entries of the grid ``cells`` of cell ``width`` within
    ``radius`` of any of the finite ``points``, by the exact test of
    ``within``. The points are grouped by cell, so each group scans its 3x3
    block once, and an entry already found is not tested again."""
    groups: dict[tuple[int, int], list] = {}
    for x, y in points:
        groups.setdefault(cell(x, y, width), []).append((x, y))
    found = set()
    for (i, j), group in groups.items():
        for ci in (i - 1, i, i + 1):
            for cj in (j - 1, j, j + 1):
                for entry in cells.get((ci, cj), ()):
                    if entry[0] not in found:
                        for x, y in group:
                            if math.hypot(x - entry[1], y - entry[2]) <= radius:
                                found.add(entry[0])
                                break
    return found


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
    placed = [(vid, pos.x, pos.y) for vid, (pos, role) in vehicles.items()
              if role is not NodeClass.INACTIVE and pos.is_finite()]
    extent = max(abs(c) for entry in [(vehicle_id, *own), *placed] for c in entry[1:])
    width = cell_width(zone.radius, extent)
    return sorted(
        entry[0] for entry in within(grid(placed, width), own.x, own.y, width, zone.radius)
        if entry[0] != vehicle_id
    )


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
    ex, ey = rng.normal(0.0, noise.gps_std, size=2).tolist()
    return Position2D(true_pos.x + ex, true_pos.y + ey)
