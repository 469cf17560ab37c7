"""Domain types and planar geometry shared by all simulator modules.

Coordinates are 2D, in meters, in a local tangent frame. Velocities are in
meters/second. Time is a non-negative step index; the step duration lives in
the scenario/localizer configs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class Position2D(NamedTuple):
    x: float
    y: float

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


class Velocity2D(NamedTuple):
    vx: float
    vy: float

    def is_finite(self) -> bool:
        return math.isfinite(self.vx) and math.isfinite(self.vy)


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

    def position_at(self, step: int) -> Position2D:
        return self.positions[step - self.start_step]

    def velocity_at(self, step: int) -> Velocity2D:
        return self.velocities[step - self.start_step]

    def path_length(self) -> float:
        """Total distance travelled along the trajectory, in meters."""
        return sum(
            distance(p, q) for p, q in zip(self.positions, self.positions[1:])
        )

    def validate(self, step_seconds: float, tolerance: float = 0.0) -> None:
        """Check trajectory invariants; raises ValueError on violation."""
        if len(self.positions) != len(self.velocities):
            raise ValueError(
                f"vehicle {self.vehicle_id}: positions/velocities length mismatch"
            )
        if not self.positions:
            raise ValueError(f"vehicle {self.vehicle_id}: empty trajectory")
        for p, v in zip(self.positions, self.velocities):
            if not (p.is_finite() and v.is_finite()):
                raise ValueError(f"vehicle {self.vehicle_id}: non-finite sample")
        if self.kind is MotionKind.PARKED:
            for v in self.velocities:
                if v.vx != 0.0 or v.vy != 0.0:
                    raise ValueError(
                        f"vehicle {self.vehicle_id}: parked with nonzero velocity"
                    )
        if self.kind is MotionKind.QUEUED:
            if not any(v.vx == 0.0 and v.vy == 0.0 for v in self.velocities):
                raise ValueError(
                    f"vehicle {self.vehicle_id}: queued without a stationary interval"
                )
        for i in range(len(self.positions) - 1):
            p, v, q = self.positions[i], self.velocities[i], self.positions[i + 1]
            gap = math.hypot(
                q.x - p.x - step_seconds * v.vx, q.y - p.y - step_seconds * v.vy
            )
            if gap > tolerance:
                raise ValueError(
                    f"vehicle {self.vehicle_id}: step {self.start_step + i} "
                    f"inconsistent with velocity (gap {gap:.3f} m)"
                )

