"""Domain types and planar geometry shared by all simulator modules.

Coordinates are 2D, in meters, in a local tangent frame. Velocities are in
meters/second. Time is a non-negative step index; the step duration lives in
the scenario/localizer configs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import NamedTuple


class Position2D(NamedTuple):
    x: float
    y: float

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


class Velocity2D(NamedTuple):
    vx: float
    vy: float


ZERO_VELOCITY = Velocity2D(0.0, 0.0)


def distance(a: Position2D, b: Position2D) -> float:
    """Euclidean distance between two points, in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


class NodeClass(Enum):
    """Role a vehicle currently plays in the cooperative network."""

    ANCHOR = "anchor"
    PSEUDO_ANCHOR = "pseudo_anchor"
    BLIND = "blind"
    INACTIVE = "inactive"


class MotionKind(Enum):
    """How a vehicle moves over its whole lifetime.

    PARKED vehicles never move (powered off). QUEUED vehicles drive but halt
    with zero velocity for at least one contiguous interval (powered on).
    """

    MOVING = "moving"
    QUEUED = "queued"
    PARKED = "parked"


@dataclass
class VehicleRecord:
    """One vehicle's identity and trajectory over a contiguous time window.

    ``positions[i]`` and ``velocities[i]`` describe step ``start_step + i``.
    Consecutive samples must satisfy p[i+1] = p[i] + step_seconds * v[i]
    (exactly for synthetic traces, within a tolerance for ingested ones).
    """

    vehicle_id: int
    kind: MotionKind
    start_step: int
    positions: list[Position2D]
    velocities: list[Velocity2D]

    @property
    def end_step(self) -> int:
        """First step index after the vehicle's active window."""
        return self.start_step + len(self.positions)

    def path_length(self) -> float:
        """Total distance travelled along the trajectory, in meters."""
        return sum(
            distance(p, q) for p, q in zip(self.positions, self.positions[1:])
        )

    def validate(self, step_seconds: float, tolerance: float = 0.0) -> None:
        """Check trajectory invariants; raises ValueError on violation, or on
        a non-finite or non-positive ``step_seconds`` or a NaN or negative
        ``tolerance``. A step is inconsistent when its gap exceeds
        ``tolerance``; the first such step is reported."""
        if not (math.isfinite(step_seconds) and step_seconds > 0):
            raise ValueError(f"step_seconds must be finite and > 0, got {step_seconds!r}")
        if not tolerance >= 0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
        positions, velocities = self.positions, self.velocities
        if len(positions) != len(velocities):
            raise ValueError(
                f"vehicle {self.vehicle_id}: positions/velocities length mismatch"
            )
        if not positions:
            raise ValueError(f"vehicle {self.vehicle_id}: empty trajectory")
        if not all(map(math.isfinite, chain(*positions, *velocities))):
            raise ValueError(f"vehicle {self.vehicle_id}: non-finite sample")
        # a velocity equals ZERO_VELOCITY when both components are 0.0 or -0.0
        if self.kind is MotionKind.PARKED and velocities.count(ZERO_VELOCITY) < len(velocities):
            raise ValueError(f"vehicle {self.vehicle_id}: parked with nonzero velocity")
        if self.kind is MotionKind.QUEUED and ZERO_VELOCITY not in velocities:
            raise ValueError(
                f"vehicle {self.vehicle_id}: queued without a stationary interval"
            )
        for i in range(len(positions) - 1):
            p, v, q = positions[i], velocities[i], positions[i + 1]
            if q is p and v == ZERO_VELOCITY:
                continue  # the gap is exactly 0, and 0 <= tolerance
            gap = math.hypot(q.x - p.x - step_seconds * v.vx, q.y - p.y - step_seconds * v.vy)
            if gap > tolerance:
                raise ValueError(
                    f"vehicle {self.vehicle_id}: step {self.start_step + i} "
                    f"inconsistent with velocity (gap {gap:.3f} m)"
                )
