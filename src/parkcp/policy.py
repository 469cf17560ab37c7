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
from typing import NamedTuple, Sequence

from .errors import require_ints
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
    anchors_preloaded: bool = True          # parked vehicles are anchors from t=0

    def __post_init__(self):
        require_ints(self, ("gnss_window", "gps_reset_interval"), ValueError)
        if not self.anchor_accuracy_threshold > 0:
            raise ValueError("anchor_accuracy_threshold must be > 0")
        if self.gnss_window <= 0 or self.gps_reset_interval <= 0:
            raise ValueError("windows must be > 0")


# members read once: each NodeClass.X read costs an enum class lookup
_ANCHOR, _PSEUDO_ANCHOR, _BLIND, _INACTIVE = (
    NodeClass.ANCHOR, NodeClass.PSEUDO_ANCHOR, NodeClass.BLIND, NodeClass.INACTIVE)


class _CandidateFields(NamedTuple):
    vehicle_id: int
    node_class: NodeClass
    shared_position: Position2D
    measured_range: float
    shared_cov: tuple[float, float, float]


class Candidate(_CandidateFields):
    """A neighbor offered to the localizer: its broadcast position, the
    measured range to it, in meters, and the covariance (a, b, d) of
    [[a, b], [b, d]] broadcast with the position, zero for an anchor's
    precisely known one. An immutable named tuple; an inactive node cannot
    be one."""

    __slots__ = ()

    def __new__(cls, vehicle_id: int, node_class: NodeClass, shared_position: Position2D,
                measured_range: float, shared_cov: tuple[float, float, float] = (0.0, 0.0, 0.0)):
        if node_class is _INACTIVE:
            raise ValueError("inactive nodes cannot be candidates")
        return tuple.__new__(
            cls, (vehicle_id, node_class, shared_position, measured_range, shared_cov))

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


def priority(node_class: NodeClass) -> int:
    """Selection priority: anchors first, then pseudo-anchors, then blind.
    Tested by identity: hashing a member for a dict runs Enum.__hash__ in
    Python."""
    if node_class is _ANCHOR:
        return 1
    if node_class is _PSEUDO_ANCHOR:
        return 2
    if node_class is _BLIND:
        return 3
    raise ValueError(f"{node_class} has no priority")


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
    # tuple.__new__ skips the named tuple's Python-level __new__
    return tuple.__new__(Position2D, (prev_estimate.x + step_seconds * velocity.vx,
                                      prev_estimate.y + step_seconds * velocity.vy))
