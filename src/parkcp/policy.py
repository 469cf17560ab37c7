"""Node priorities, best-neighbor selection, and the anchor lifecycle.

Anchors (priority 1) broadcast their precisely known position; pseudo-anchors
(priority 2) are moving vehicles whose last update used three anchors; blind
nodes (priority 3) share whatever estimate they have. Stationary vehicles can
be promoted to anchor once their localisation is accurate enough; moving
vehicles never can.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .model import MotionKind, NodeClass, Position2D, Velocity2D


class Mode(Enum):
    """Whether stationary vehicles participate as prioritized anchors."""

    TRADITIONAL = "traditional"
    PROPOSED = "proposed"


@dataclass(frozen=True)
class PolicyConfig:
    anchor_accuracy_threshold: float = 1.0  # meters
    gnss_window: int = 60                   # steps of GNSS averaging to anchor grade
    gps_reset_interval: int = 10            # isolated steps before a fresh GPS fix
    mode: Mode = Mode.PROPOSED
    anchors_preloaded: bool = True          # parked vehicles are anchors from t=0

    def __post_init__(self):
        if self.anchor_accuracy_threshold <= 0:
            raise ValueError("anchor_accuracy_threshold must be > 0")
        if self.gnss_window <= 0 or self.gps_reset_interval <= 0:
            raise ValueError("windows must be > 0")


@dataclass(frozen=True)
class Candidate:
    """A neighbor offered to the localizer: its broadcast position plus the
    measured range to it, in meters."""

    vehicle_id: int
    node_class: NodeClass
    shared_position: Position2D
    measured_range: float

    def __post_init__(self):
        if self.node_class is NodeClass.INACTIVE:
            raise ValueError("inactive nodes cannot be candidates")


_PRIORITY = {
    NodeClass.ANCHOR: 1,
    NodeClass.PSEUDO_ANCHOR: 2,
    NodeClass.BLIND: 3,
}


def priority(node_class: NodeClass) -> int:
    """Selection priority: anchors first, then pseudo-anchors, then blind."""
    try:
        return _PRIORITY[node_class]
    except KeyError:
        raise ValueError(f"{node_class} has no priority") from None


def selection_key(candidate: Candidate) -> tuple[int, float, int]:
    return (priority(candidate.node_class), candidate.measured_range, candidate.vehicle_id)


def select_neighbors(candidates: Sequence[Candidate], k: int = 3) -> list[Candidate]:
    """The k best candidates under (priority, measured distance, id); all of
    them when fewer than k are available."""
    return sorted(candidates, key=selection_key)[:k]


def classify_stationary(
    kind: MotionKind,
    anchors_in_range: int,
    gnss_steps_accumulated: int,
    current_error_estimate: float,
    cfg: PolicyConfig,
) -> NodeClass:
    """Lifecycle of a stationary vehicle.

    Promotion to anchor requires accuracy below the threshold reached through
    cooperative ranging (two or more anchor neighbors), or a full GNSS
    averaging window. Short of that, a powered-on (queued) vehicle stays a
    blind participant while a powered-off (parked) one stays inactive.
    """
    if kind is MotionKind.MOVING:
        raise ValueError("classify_stationary called on a moving vehicle")
    via_ranging = anchors_in_range >= 2 and (
        current_error_estimate <= cfg.anchor_accuracy_threshold
    )
    via_gnss = gnss_steps_accumulated >= cfg.gnss_window
    if via_ranging or via_gnss:
        return NodeClass.ANCHOR
    return NodeClass.BLIND if kind is MotionKind.QUEUED else NodeClass.INACTIVE


def classify_moving(used_anchor_count: int) -> NodeClass:
    """A moving vehicle whose update used three anchors becomes a
    pseudo-anchor for others; it is never an anchor."""
    return NodeClass.PSEUDO_ANCHOR if used_anchor_count >= 3 else NodeClass.BLIND


def dead_reckon(
    prev_estimate: Position2D, velocity: Velocity2D, step_seconds: float
) -> Position2D:
    """Propagate an estimate one step with the measured velocity."""
    return Position2D(
        prev_estimate.x + step_seconds * velocity.vx,
        prev_estimate.y + step_seconds * velocity.vy,
    )
