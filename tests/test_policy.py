import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkcp.model import MotionKind, NodeClass, Position2D, Velocity2D
from parkcp.policy import (
    Candidate,
    PolicyConfig,
    classify_moving,
    classify_stationary,
    dead_reckon,
    priority,
    select_neighbors,
    selection_key,
)


def test_priority_levels():
    assert priority(NodeClass.ANCHOR) == 1
    assert priority(NodeClass.PSEUDO_ANCHOR) == 2
    assert priority(NodeClass.BLIND) == 3


def test_priority_rejects_inactive():
    with pytest.raises(ValueError):
        priority(NodeClass.INACTIVE)


@pytest.mark.parametrize("value", ["anchor", 1, None, MotionKind.PARKED])
def test_priority_rejects_a_value_that_is_not_a_node_class(value):
    with pytest.raises(ValueError, match="has no priority"):
        priority(value)


def test_candidate_rejects_inactive(make_candidate):
    with pytest.raises(ValueError):
        make_candidate(node_class=NodeClass.INACTIVE)
    with pytest.raises(ValueError):
        make_candidate()._replace(node_class=NodeClass.INACTIVE)


def test_candidate_fields_equality_and_immutability():
    c = Candidate(4, NodeClass.PSEUDO_ANCHOR, Position2D(1.0, 2.0), 7.5)
    assert (c.vehicle_id, c.node_class, c.shared_position, c.measured_range, c.shared_cov) == (
        4, NodeClass.PSEUDO_ANCHOR, Position2D(1.0, 2.0), 7.5, (0.0, 0.0, 0.0))
    assert c != Candidate(4, NodeClass.PSEUDO_ANCHOR, Position2D(1.0, 2.0), 7.5, (1.0, 0.0, 1.0))
    same = Candidate(vehicle_id=4, node_class=NodeClass.PSEUDO_ANCHOR,
                     shared_position=Position2D(1.0, 2.0), measured_range=7.5)
    assert c == same and hash(c) == hash(same)
    assert c != Candidate(4, NodeClass.PSEUDO_ANCHOR, Position2D(1.0, 2.0), 7.25)
    assert c != Candidate(5, NodeClass.PSEUDO_ANCHOR, Position2D(1.0, 2.0), 7.5)
    assert c._replace(measured_range=7.25).measured_range == 7.25
    for field in ("vehicle_id", "node_class", "shared_position", "measured_range"):
        with pytest.raises(AttributeError):
            setattr(c, field, None)
    with pytest.raises(AttributeError):
        c.extra = 1  # no instance dict
    assert repr(c).startswith("Candidate(vehicle_id=4, ")


def test_select_neighbors_lexicographic(make_candidate):
    a = make_candidate(vehicle_id=1, node_class=NodeClass.ANCHOR, measured=10.0)
    b = make_candidate(vehicle_id=2, node_class=NodeClass.BLIND, measured=1.0)
    c = make_candidate(vehicle_id=3, node_class=NodeClass.ANCHOR, measured=5.0)
    d = make_candidate(vehicle_id=4, node_class=NodeClass.PSEUDO_ANCHOR, measured=2.0)
    assert select_neighbors([a, b, c, d], 3) == [c, a, d]


def test_select_neighbors_returns_all_when_short(make_candidate):
    cands = [make_candidate(vehicle_id=1), make_candidate(vehicle_id=2)]
    assert len(select_neighbors(cands, 3)) == 2


def test_select_neighbors_ties_break_by_id(make_candidate):
    a = make_candidate(vehicle_id=9, node_class=NodeClass.ANCHOR, measured=4.0)
    b = make_candidate(vehicle_id=3, node_class=NodeClass.ANCHOR, measured=4.0)
    assert select_neighbors([a, b], 1) == [b]


_classes = st.sampled_from([NodeClass.ANCHOR, NodeClass.PSEUDO_ANCHOR, NodeClass.BLIND])


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(_classes, st.floats(0, 100, allow_nan=False)),
        min_size=0, max_size=10,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_select_neighbors_optimality(entries, k):
    cands = [
        Candidate(i, ncls, Position2D(0, 0), dist)
        for i, (ncls, dist) in enumerate(entries)
    ]
    chosen = select_neighbors(cands, k)
    assert len(chosen) == min(k, len(cands))
    assert set(chosen) <= set(cands)
    left_out = [c for c in cands if c not in chosen]
    if chosen and left_out:
        worst_chosen = max(selection_key(c) for c in chosen)
        best_left = min(selection_key(c) for c in left_out)
        assert worst_chosen <= best_left


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(_classes, st.sampled_from([0.0, 1.5, 3.0]) | st.floats(0, 100),
                  st.integers(0, 12)),
        max_size=12, unique_by=lambda e: e[2],
    ),
    st.integers(min_value=1, max_value=5),
)
def test_select_neighbors_orders_as_a_reference_sort(entries, k):
    # few distinct ranges, so that ties in priority and range are common
    cands = [Candidate(vid, ncls, Position2D(0, 0), dist) for ncls, dist, vid in entries]
    rank = {NodeClass.ANCHOR: 1, NodeClass.PSEUDO_ANCHOR: 2, NodeClass.BLIND: 3}
    reference = sorted(cands, key=lambda c: (rank[c.node_class], c.measured_range, c.vehicle_id))
    assert select_neighbors(cands, k) == reference[:k]


def test_classify_stationary_gnss_window_reaches_anchor():
    cfg = PolicyConfig()
    got = classify_stationary(MotionKind.PARKED, 0, 60, 5.0, cfg)
    assert got is NodeClass.ANCHOR


def test_gnss_window_is_accurate_enough():
    # Monte-Carlo oracle: averaging 60 GPS fixes with sigma 6 leaves a
    # per-axis std of 6/sqrt(60) = 0.7746 m, below the 1 m anchor threshold.
    rng = np.random.default_rng(5)
    means = rng.normal(0.0, 6.0, size=(20_000, 60)).mean(axis=1)
    std = means.std()
    assert std == pytest.approx(6.0 / np.sqrt(60.0), abs=0.02)
    assert std < PolicyConfig().anchor_accuracy_threshold


def test_classify_stationary_inactive_until_localised():
    cfg = PolicyConfig()
    got = classify_stationary(MotionKind.PARKED, 0, 0, float("inf"), cfg)
    assert got is NodeClass.INACTIVE


def test_classify_stationary_queued_with_three_anchors():
    cfg = PolicyConfig()
    got = classify_stationary(MotionKind.QUEUED, 3, 0, 0.3, cfg)
    assert got is NodeClass.ANCHOR


def test_classify_stationary_queued_stays_blind_without_accuracy():
    cfg = PolicyConfig()
    got = classify_stationary(MotionKind.QUEUED, 1, 10, 4.0, cfg)
    assert got is NodeClass.BLIND


def test_classify_stationary_accuracy_needs_two_anchors():
    # an accurate-looking estimate without anchor support is not promoted
    cfg = PolicyConfig()
    got = classify_stationary(MotionKind.PARKED, 1, 0, 0.1, cfg)
    assert got is NodeClass.INACTIVE


def test_classify_stationary_rejects_moving():
    with pytest.raises(ValueError):
        classify_stationary(MotionKind.MOVING, 3, 0, 0.0, PolicyConfig())


def test_classify_moving():
    assert classify_moving(3) is NodeClass.PSEUDO_ANCHOR
    assert classify_moving(4) is NodeClass.PSEUDO_ANCHOR
    assert classify_moving(2) is NodeClass.BLIND
    assert classify_moving(0) is NodeClass.BLIND


@given(st.integers(min_value=0, max_value=10))
def test_classify_moving_never_anchor(count):
    assert classify_moving(count) is not NodeClass.ANCHOR


def test_dead_reckon_examples():
    assert dead_reckon(Position2D(0, 0), Velocity2D(1, 2), 1.0) == Position2D(1, 2)
    p = Position2D(3.5, -1.0)
    assert dead_reckon(p, Velocity2D(0, 0), 1.0) == p


def test_dead_reckon_composes_additively():
    p0 = Position2D(1.0, 1.0)
    v = Velocity2D(2.0, -1.0)
    one = dead_reckon(dead_reckon(p0, v, 1.0), v, 1.0)
    two = dead_reckon(p0, Velocity2D(2 * v.vx, 2 * v.vy), 1.0)
    assert one.x == pytest.approx(two.x)
    assert one.y == pytest.approx(two.y)


def test_policy_config_rejects_nan_threshold():
    with pytest.raises(ValueError):
        PolicyConfig(anchor_accuracy_threshold=math.nan)


@pytest.mark.parametrize("field, value", [("gnss_window", 2.5), ("gps_reset_interval", 1.5)])
def test_policy_config_rejects_a_non_integer_window(field, value):
    # each used to run an episode to the end without an error
    with pytest.raises(ValueError, match=f"{field} must be an int, got {value!r}"):
        PolicyConfig(**{field: value})


def test_policy_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(anchor_accuracy_threshold=0.0)
    with pytest.raises(ValueError):
        PolicyConfig(gnss_window=0)
