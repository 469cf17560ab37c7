import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkcp.errors import TraceValidationError
from parkcp.model import (
    ZERO_VELOCITY,
    MotionKind,
    Position2D,
    VehicleRecord,
    Velocity2D,
    distance,
)
from parkcp.scenario import validate_records

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
    assert rec.positions[6 - rec.start_step] == Position2D(3, 4)
    assert rec.path_length() == pytest.approx(5.0)


def _jump(start=0):
    """A moving record whose second step jumps 99 m off its velocity."""
    return _record(
        MotionKind.MOVING,
        [Position2D(0, 0), Position2D(1, 0), Position2D(100, 0)],
        [Velocity2D(1, 0)] * 3,
        start=start,
    )


@pytest.mark.parametrize("step_seconds", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_validate_rejects_a_non_finite_or_non_positive_step(step_seconds):
    with pytest.raises(ValueError, match="step_seconds must be finite and > 0"):
        _jump().validate(step_seconds)


@pytest.mark.parametrize("tolerance", [math.nan, -1e-9, -1.0, -math.inf])
def test_validate_rejects_a_nan_or_negative_tolerance(tolerance):
    parked = _record(MotionKind.PARKED, [Position2D(2, 3)] * 4, [ZERO_VELOCITY] * 4)
    for rec in (_jump(), parked):
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            rec.validate(1.0, tolerance)
    with pytest.raises(TraceValidationError, match="tolerance must be >= 0"):
        validate_records([_jump()], 1.0, tolerance)


def test_validate_accepts_an_infinite_tolerance():
    _jump().validate(1.0, math.inf)


@pytest.mark.parametrize("field", ["positions", "velocities"])
def test_validate_finds_a_non_finite_middle_sample_of_a_long_parked_record(field):
    rec = _record(MotionKind.PARKED, [Position2D(2, 3)] * 200, [ZERO_VELOCITY] * 200)
    bad = Position2D(math.nan, 3) if field == "positions" else Velocity2D(0.0, math.inf)
    getattr(rec, field)[100] = bad
    with pytest.raises(ValueError, match="vehicle 1: non-finite sample"):
        rec.validate(1.0)


def test_validate_reports_the_first_bad_step_after_a_run_of_shared_samples():
    here, there = Position2D(2, 3), Position2D(5, 7)
    positions = [here] * 50 + [there, here]  # steps 49 and 50 both move 5 m
    rec = _record(MotionKind.PARKED, positions, [ZERO_VELOCITY] * 52, start=10)
    with pytest.raises(ValueError, match=r"step 59 inconsistent with velocity \(gap 5\.000 m\)"):
        rec.validate(1.0, tolerance=4.0)
    rec.validate(1.0, tolerance=5.0)


def test_validate_checks_a_shared_position_under_a_nonzero_velocity():
    # the same position object at both ends of a step is no gap of 0 unless
    # the vehicle stands still
    here = Position2D(2, 3)
    rec = _record(MotionKind.QUEUED, [here] * 3, [ZERO_VELOCITY, Velocity2D(0.0, 1.0), ZERO_VELOCITY])
    with pytest.raises(ValueError, match=r"step 1 inconsistent with velocity \(gap 1\.000 m\)"):
        rec.validate(1.0)


def test_validate_treats_a_negative_zero_velocity_as_halted():
    here = Position2D(2, 3)
    halted = [Velocity2D(-0.0, 0.0), Velocity2D(0.0, -0.0), Velocity2D(-0.0, -0.0)]
    _record(MotionKind.PARKED, [here] * 3, halted).validate(1.0)
    _record(MotionKind.PARKED, [here, Position2D(2.0, 3.0), here], halted).validate(1.0)
    queued = _record(
        MotionKind.QUEUED,
        [Position2D(0, 0), Position2D(1, 0), Position2D(1, 0)],
        [Velocity2D(1, 0), Velocity2D(-0.0, 0.0), Velocity2D(-0.0, 0.0)],
    )
    queued.validate(1.0)
