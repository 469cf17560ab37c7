import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkcp.model import (
    MotionKind,
    Position2D,
    VehicleRecord,
    Velocity2D,
    distance,
)

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
points = st.builds(Position2D, coords, coords)


def test_distance_3_4_5_triangle():
    assert distance(Position2D(0, 0), Position2D(3, 4)) == 5.0


def test_distance_identity():
    p = Position2D(17.25, -3.5)
    assert distance(p, p) == 0.0


def test_distance_translated_triangle():
    assert distance(Position2D(1, 1), Position2D(4, 5)) == 5.0


@given(points, points)
def test_distance_symmetric(a, b):
    assert distance(a, b) == distance(b, a)


@given(points, points)
def test_distance_zero_iff_equal(a, b):
    if a == b:
        assert distance(a, b) == 0.0
    else:
        assert distance(a, b) > 0.0 or (a.x == b.x and a.y == b.y)


@given(points, points, st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
       st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
def test_distance_translation_invariant(a, b, tx, ty):
    shifted = distance(
        Position2D(a.x + tx, a.y + ty), Position2D(b.x + tx, b.y + ty)
    )
    assert shifted == pytest.approx(distance(a, b), rel=1e-9, abs=1e-6)


def _record(kind, positions, velocities, start=0, vid=1):
    return VehicleRecord(vid, kind, start, positions, velocities)


def test_record_consistency_exact():
    rec = _record(
        MotionKind.MOVING,
        [Position2D(0, 0), Position2D(1, 2)],
        [Velocity2D(1, 2), Velocity2D(1, 2)],
    )
    rec.validate(step_seconds=1.0, tolerance=0.0)


def test_record_consistency_violation():
    rec = _record(
        MotionKind.MOVING,
        [Position2D(0, 0), Position2D(5, 0)],
        [Velocity2D(1, 0), Velocity2D(1, 0)],
    )
    with pytest.raises(ValueError, match="inconsistent"):
        rec.validate(step_seconds=1.0, tolerance=0.5)
    rec.validate(step_seconds=1.0, tolerance=4.0)


def test_parked_record_requires_zero_velocity():
    rec = _record(
        MotionKind.PARKED, [Position2D(1, 1)], [Velocity2D(0.1, 0.0)]
    )
    with pytest.raises(ValueError, match="parked"):
        rec.validate(step_seconds=1.0)


def test_queued_record_requires_halt():
    rec = _record(
        MotionKind.QUEUED,
        [Position2D(0, 0), Position2D(1, 0)],
        [Velocity2D(1, 0), Velocity2D(1, 0)],
    )
    with pytest.raises(ValueError, match="stationary interval"):
        rec.validate(step_seconds=1.0)


def test_record_helpers():
    rec = _record(
        MotionKind.MOVING,
        [Position2D(0, 0), Position2D(3, 4)],
        [Velocity2D(3, 4), Velocity2D(3, 4)],
        start=5,
    )
    assert rec.end_step == 7
    assert rec.position_at(6) == Position2D(3, 4)
    assert rec.path_length() == pytest.approx(5.0)

