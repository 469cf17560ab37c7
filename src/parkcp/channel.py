"""Neighbor discovery and noisy range/GPS measurement generation.

The radio model is a hard line-of-sight disk: two powered-on vehicles are
neighbors iff their true separation is within the communication-zone radius.
Noise is zero-mean Gaussian, independent per link and per step; there is no
packet loss unless ``drop_probability`` is set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NodeClass, Position2D, WorldState, distance


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviations of the measurement noise sources, in meters
    (velocity_std in m/s, applied per axis to velocity measurements)."""

    range_std: float = 4.0
    gps_std: float = 6.0
    velocity_std: float = 0.5

    def __post_init__(self):
        if min(self.range_std, self.gps_std, self.velocity_std) < 0:
            raise ValueError("noise standard deviations must be >= 0")


@dataclass(frozen=True)
class CommZone:
    """Communication disk radius, in meters (DSRC device class dependent)."""

    radius: float
    drop_probability: float = 0.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("communication radius must be > 0")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")


def neighbors(world: WorldState, vehicle_id: int, zone: CommZone) -> list[int]:
    """Ids of powered-on vehicles within the zone of ``vehicle_id``, ascending.

    Inactive nodes never appear in the result (they do not broadcast), but an
    inactive vehicle may itself query its surroundings.
    """
    if vehicle_id not in world.vehicles:
        raise KeyError(f"unknown vehicle id {vehicle_id}")
    own = world.vehicles[vehicle_id].position
    found = []
    for vid in world.vehicles:
        if vid == vehicle_id:
            continue
        snap = world.vehicles[vid]
        if snap.node_class is NodeClass.INACTIVE:
            continue
        if distance(own, snap.position) <= zone.radius:
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
