import functools
import gc
import math
import re
import struct
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parkcp import scenario
from parkcp.errors import ConfigError, TraceParseError, TraceValidationError
from parkcp.model import (
    ZERO_VELOCITY,
    MotionKind,
    Position2D,
    VehicleRecord,
    Velocity2D,
    distance,
)
from parkcp.scenario import (
    TRACE_HEADER,
    ChokePoint,
    ScenarioConfig,
    circuit_length,
    gen_circuit,
    gen_town,
    parse_trace,
    point_on_circuit,
    serialize_trace,
)

SQUARE = (
    Position2D(0.0, 0.0),
    Position2D(100.0, 0.0),
    Position2D(100.0, 100.0),
    Position2D(0.0, 100.0),
)


# ---------------------------------------------------------------------------
# Trace parsing


def test_parse_two_rows_one_vehicle():
    text = "t,id,x,y,vx,vy,kind\n0,7,0.0,0.0,1.0,0.0,moving\n1,7,1.0,0.0,1.0,0.0,moving\n"
    records = parse_trace(text)
    assert len(records) == 1
    rec = records[0]
    assert rec.vehicle_id == 7
    assert len(rec.positions) == 2
    assert rec.kind is MotionKind.MOVING


def test_parse_header_only_gives_empty_list():
    assert parse_trace("t,id,x,y,vx,vy,kind\n") == []


def test_parse_rejects_parked_with_velocity():
    text = "t,id,x,y,vx,vy,kind\n0,3,1.0,2.0,5.0,0.0,parked\n"
    with pytest.raises(TraceValidationError, match="nonzero velocity"):
        parse_trace(text)


def test_parse_rejects_duplicate_step_id():
    text = (
        "t,id,x,y,vx,vy,kind\n"
        "0,1,0.0,0.0,0.0,0.0,moving\n"
        "0,1,1.0,0.0,0.0,0.0,moving\n"
    )
    with pytest.raises(TraceValidationError, match="duplicate"):
        parse_trace(text)


def test_parse_rejects_unsorted_rows():
    text = (
        "t,id,x,y,vx,vy,kind\n"
        "1,1,0.0,0.0,0.0,0.0,moving\n"
        "0,1,0.0,0.0,0.0,0.0,moving\n"
    )
    with pytest.raises(TraceValidationError, match="sorted"):
        parse_trace(text)


def test_parse_reports_line_number():
    text = "t,id,x,y,vx,vy,kind\n0,1,0.0,0.0,0.0,0.0,moving\n1,1,bogus,0.0,0.0,0.0,moving\n"
    with pytest.raises(TraceParseError, match="line 3"):
        parse_trace(text)


def test_parse_rejects_gap():
    text = (
        "t,id,x,y,vx,vy,kind\n"
        "0,1,0.0,0.0,0.0,0.0,moving\n"
        "2,1,0.0,0.0,0.0,0.0,moving\n"
    )
    with pytest.raises(TraceValidationError, match="gap"):
        parse_trace(text)


def test_parse_allows_comments_and_blank_lines():
    text = "# a comment\n\nt,id,x,y,vx,vy,kind\n# another\n0,1,0.5,0.25,0.0,0.0,moving\n"
    assert len(parse_trace(text)) == 1


def test_roundtrip_is_bit_exact_on_generated_scenarios():
    for kind, seed in (("circuit", 1), ("town", 2), ("town", 3)):
        cfg = ScenarioConfig(
            kind=kind, seed=seed, duration=30, n_moving=3, n_parked=4,
            n_entering=2, parked_spacing=60.0,
            choke_points=(ChokePoint(250.0, 200.0, 40.0, 5),),
        )
        records = gen_town(cfg) if kind == "town" else gen_circuit(cfg)
        assert parse_trace(serialize_trace(records)) == records


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), n_parked=st.integers(0, 5))
def test_roundtrip_property_town(seed, n_parked):
    cfg = ScenarioConfig(
        kind="town", seed=seed, duration=12, n_moving=2, n_parked=n_parked,
        n_entering=1,
    )
    records = gen_town(cfg)
    assert parse_trace(serialize_trace(records)) == records


# ---------------------------------------------------------------------------
# Column reader against the per-line reader


def _oracle_parse_trace(text):
    """The per-line trace reader the column reader replaced, kept as the
    reference: every row parsed in file order, then the trace checked."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    kind_names = {k.value for k in MotionKind}
    rows = []
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != TRACE_HEADER:
                raise TraceParseError(line_no, f"expected header {TRACE_HEADER!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise TraceParseError(line_no, f"expected 7 fields, got {len(parts)}")
        try:
            values = [*map(int, parts[:2]), *map(float, parts[2:6])]
        except ValueError as exc:
            raise TraceParseError(line_no, str(exc)) from None
        if not all(map(math.isfinite, values[2:])):
            raise TraceParseError(line_no, "non-finite value")
        t, vid = values[:2]
        if not (-(2**63) <= t < 2**63 - 1 and -(2**63) <= vid < 2**63):
            raise TraceParseError(line_no, f"t={t}, id={vid}: t must lie in [-2**63, "
                                  "2**63 - 1) and id in [-2**63, 2**63)")
        kind_name = parts[6].strip()
        if kind_name not in kind_names:
            raise TraceParseError(line_no, f"unknown kind {kind_name!r}")
        rows.append((*values, kind_name))
    if not header_seen:
        raise TraceParseError(1, "missing header")

    seen = set()
    prev_key = None
    for t, vid, *_ in rows:
        key = (t, vid)
        if key in seen:
            raise TraceValidationError(f"duplicate row for (t={t}, id={vid})")
        if prev_key is not None and key < prev_key:
            raise TraceValidationError("rows not sorted by (t, id)")
        seen.add(key)
        prev_key = key

    by_id = {}
    for t, vid, x, y, vx, vy, kind_name in rows:
        by_id.setdefault(vid, []).append((t, x, y, vx, vy, kind_name))
    records = []
    for vid in sorted(by_id):
        samples = by_id[vid]
        kinds = {s[5] for s in samples}
        if "parked" in kinds:
            if kinds != {"parked"}:
                raise TraceValidationError(f"vehicle {vid}: mixes parked and driven rows")
            kind = MotionKind.PARKED
        elif "queued" in kinds:
            kind = MotionKind.QUEUED
        else:
            kind = MotionKind.MOVING
        for t, x, y, vx, vy, kind_name in samples:
            if kind_name in ("parked", "queued") and (vx != 0.0 or vy != 0.0):
                raise TraceValidationError(
                    f"vehicle {vid}: {kind_name} row at t={t} with nonzero velocity"
                )
        start = samples[0][0]
        for i, (t, *_rest) in enumerate(samples):
            if t != start + i:
                raise TraceValidationError(f"vehicle {vid}: gap in trajectory at t={t}")
        records.append(VehicleRecord(
            vehicle_id=vid, kind=kind, start_step=start,
            positions=[Position2D(s[1], s[2]) for s in samples],
            velocities=[Velocity2D(s[3], s[4]) for s in samples],
        ))
    return records


def _bits(records):
    """Every field of every record, floats by their exact hex form (so -0.0
    and 0.0 differ)."""
    return [
        (r.vehicle_id, r.kind, r.start_step,
         [(p.x.hex(), p.y.hex()) for p in r.positions],
         [(v.vx.hex(), v.vy.hex()) for v in r.velocities])
        for r in records
    ]


def _outcome(parse, text):
    try:
        return "ok", _bits(parse(text))
    except TraceParseError as exc:
        return type(exc), str(exc), exc.line_no
    except TraceValidationError as exc:
        return type(exc), str(exc)


@functools.lru_cache(maxsize=None)
def _base_rows(seed):
    cfg = ScenarioConfig(
        kind="town", seed=seed, duration=8, n_moving=2, n_entering=2, entry_interval=2,
        n_parked=3, area=(0.0, 0.0, 60.0, 40.0),
        choke_points=(ChokePoint(30.0, 20.0, 40.0, 2),),
    )
    records = gen_town(cfg)
    lines = serialize_trace(records).splitlines()
    assert lines[0] == TRACE_HEADER
    return tuple(tuple(line.split(",")) for line in lines[1:]), tuple(records)


def _row_index(draw, rows):
    """A row that still has all seven fields (an earlier fault may cut one)."""
    return draw(st.sampled_from([i for i, row in enumerate(rows) if len(row) == 7]))


def _set_field(draw, rows, columns, values):
    rows[_row_index(draw, rows)][draw(st.sampled_from(columns))] = draw(st.sampled_from(values))


def _fault_bad_int(draw, rows):
    _set_field(draw, rows, [0, 1], ["x", "1.5", "", "--1", "1e3", "0x1"])


def _fault_bad_float(draw, rows):
    _set_field(draw, rows, [2, 3, 4, 5], ["abc", "1..5", "", "0x1p3", "1.0.0", "- 1"])


def _fault_non_finite(draw, rows):
    _set_field(draw, rows, [2, 3, 4, 5], ["inf", "-inf", "nan", "NaN", "1e999", "-Infinity"])


def _fault_int_out_of_range(draw, rows):
    # id 2**63 - 1 is in range, so as an id it may give another fault
    _set_field(draw, rows, [0, 1], [str(2**63 - 1), str(2**63), str(-(2**63) - 1),
                                    str(2**64 + 5)])


def _fault_unknown_kind(draw, rows):
    _set_field(draw, rows, [6], ["parkd", "Moving", "", "queue d", "stopped"])


def _fault_field_count(draw, rows):
    i = _row_index(draw, rows)
    rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0.0"]


def _fault_duplicate(draw, rows):
    i = _row_index(draw, rows)
    copy = list(rows[i])
    if draw(st.booleans()):
        copy[2] = "1.25"  # same (t, id), other values
    rows.insert(draw(st.integers(i, len(rows))), copy)


def _fault_unsorted(draw, rows):
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows) - 1))
    rows[i], rows[j] = rows[j], rows[i]


def _fault_gap(draw, rows):
    del rows[draw(st.integers(0, len(rows) - 1))]


def _fault_stationary_velocity(draw, rows):
    moving = [i for i, row in enumerate(rows) if row[6:] == ["moving"]]
    if moving and draw(st.booleans()):
        rows[draw(st.sampled_from(moving))][6] = "queued"  # keeps its velocity
    else:
        _set_field(draw, rows, [4, 5], ["0.5", "-1e-300", "2"])


def _fault_mixed_kinds(draw, rows):
    i = _row_index(draw, rows)
    rows[i][6] = "moving" if rows[i][6] == "parked" else "parked"


FAULTS = [
    _fault_bad_int, _fault_bad_float, _fault_non_finite, _fault_int_out_of_range,
    _fault_unknown_kind, _fault_field_count, _fault_duplicate, _fault_unsorted, _fault_gap,
    _fault_stationary_velocity, _fault_mixed_kinds,
]


@st.composite
def _trace_texts(draw, n_faults):
    """A generated town's trace with ``n_faults`` faults injected, then laid
    out with comments, blank lines, padded fields and CRLF line ends."""
    base, records = _base_rows(draw(st.integers(0, 7)))
    rows = [list(r) for r in base]
    for _ in range(draw(n_faults)):
        draw(st.sampled_from(FAULTS))(draw, rows)
    for i in draw(st.sets(st.integers(0, len(rows) - 1), max_size=4)):
        pad = draw(st.sampled_from([" ", "\t", "  "]))
        rows[i] = [pad + field + pad for field in rows[i]]
    lines = [TRACE_HEADER] + [",".join(row) for row in rows]
    for i, extra in draw(st.lists(st.tuples(
        st.integers(0, len(lines)),
        st.sampled_from(["", "   ", "# note", "  # x,y,1,2", " \t"]),
    ), max_size=4)):
        lines.insert(i, extra)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), records


@settings(max_examples=300, deadline=None)
@given(_trace_texts(st.integers(1, 2)))
def test_parse_trace_errors_match_the_line_reader(case):
    text, _ = case
    assert _outcome(parse_trace, text) == _outcome(_oracle_parse_trace, text)


@settings(max_examples=100, deadline=None)
@given(_trace_texts(st.just(0)))
def test_parse_trace_reads_laid_out_valid_traces_bit_exactly(case):
    text, records = case
    assert _bits(parse_trace(text)) == _bits(records) == _bits(_oracle_parse_trace(text))
    assert _bits(parse_trace(text.encode())) == _bits(records)


@pytest.mark.parametrize("text", [
    "", "\n\n# only comments\n", "t,id,x,y,vx,vy\n", "0,1,0.0,0.0,0.0,0.0,moving\n",
    "t,id,x,y,vx,vy,kind\n0,1,0.0,0.0,0.0,0.0\n",
    "t,id,x,y,vx,vy,kind\n0,1,0.0,0.0,0.0,0.0,moving,\n",
    "t,id,x,y,vx,vy,kind\n0,1,0.0,0.0,0.0,0.0,moving\n\n2,1,0.0,0.0,0.0,0.0,queued\n",
    "t,id,x,y,vx,vy,kind\n0,1,0.0,0.0,-0.0,0.0,parked\n1,1,0.0,0.0,0.0,-0.0,parked\n",
    # the first bad row of a vehicle names it, after its driving rows
    "t,id,x,y,vx,vy,kind\n0,1,0.0,0.0,1.0,0.0,moving\n1,1,1.0,0.0,0.0,0.0,queued\n"
    "2,1,1.0,0.0,0.0,2.0,queued\n",
    "t,id,x,y,vx,vy,kind\n0,2,0.0,0.0,0.0,0.0,parked\n1,2,0.0,0.0,0.0,3.0,parked\n",
    # a duplicate that is not the row before it
    "t,id,x,y,vx,vy,kind\n0,1,0.0,0.0,0.0,0.0,moving\n0,2,0.0,0.0,0.0,0.0,moving\n"
    "0,1,0.0,0.0,0.0,0.0,moving\n",
    # the lowest id with a fault is reported, whatever the order of its rows
    "t,id,x,y,vx,vy,kind\n0,1,0.0,0.0,0.0,0.0,moving\n0,2,0.0,0.0,0.0,0.0,parked\n"
    "1,2,0.0,0.0,0.0,0.0,moving\n3,1,0.0,0.0,0.0,0.0,moving\n",
    # one vehicle's identical rest at two steps with a gap between them
    "t,id,x,y,vx,vy,kind\n0,1,5.0,5.0,0.0,0.0,parked\n2,1,5.0,5.0,0.0,0.0,parked\n",
    # the same row padded differently at consecutive steps
    "t,id,x,y,vx,vy,kind\n0,1,5.0,5.0,0.0,0.0,parked\n1, 1,5.0,5.0,0.0,0.0,parked\n"
    "2,1 , 5.0,5.0,0.0,0.0,parked \n",
    # a row with no comma
    "t,id,x,y,vx,vy,kind\n0,1,5.0,5.0,0.0,0.0,parked\n1\n",
    # a row whose rest has seven fields, the last a number
    "t,id,x,y,vx,vy,kind\n0,1,5.0,5.0,0.0,0.0,parked\n1,1,5.0,5.0,0.0,0.0,parked,7\n",
    # a parked rest shared by many steps, and one step of it moving
    "t,id,x,y,vx,vy,kind\n"
    + "".join(f"{t},4,5.0,5.0,0.0,0.0,parked\n" for t in range(3))
    + "3,4,5.0,5.0,0.0,0.5,parked\n"
    + "".join(f"{t},4,5.0,5.0,0.0,0.0,parked\n" for t in range(4, 7)),
    # moving rows whose velocities differ only in the sign of a zero
    "t,id,x,y,vx,vy,kind\n0,1,0.0,0.0,-0.0,1.5,moving\n1,1,0.0,1.5,0.0,1.5,moving\n"
    "2,1,0.0,3.0,-0.0,1.5,moving\n2,2,1.0,1.0,1.5,-0.0,moving\n",
    # one value spelled three ways, in t, id and every float column
    "t,id,x,y,vx,vy,kind\n1,3,1.5,1.50,1.5,15e-1,moving\n01,4,15e-1,1.5,1.50,1.5,moving\n"
    "2,03,3.0,3.0,1.50,15e-1,moving\n002,4,3.0,3.0,15e-1,1.50,moving\n",
    # ids and steps at and past their int64 bounds, and negative steps
    f"t,id,x,y,vx,vy,kind\n{-(2**63)},{-(2**63)},0.0,0.0,0.0,0.0,parked\n"
    f"{-(2**63)},{2**63 - 1},1.0,1.0,0.0,0.0,moving\n{2**63 - 2},{2**63 - 1},1.0,1.0,0.0,0.0,"
    "parked\n",
    f"t,id,x,y,vx,vy,kind\n{2**63 - 2},1,0.0,0.0,0.0,0.0,parked\n"
    f"{2**63 - 1},1,0.0,0.0,0.0,0.0,parked\n",
    f"t,id,x,y,vx,vy,kind\n0,{-(2**63)},0.0,0.0,0.0,0.0,parked\n"
    f"0,{-(2**63) - 1},0.0,0.0,0.0,0.0,parked\n",
    f"t,id,x,y,vx,vy,kind\n{2**63 - 1},{2**63},0.0,0.0,0.0,0.0,parked\n"
    f"{2**63 - 1},{2**64},1.0,1.0,0.0,0.0,parked\n{2**63},{2**63},0.0,0.0,0.0,0.0,parked\n"
    f"{2**63},{2**64},1.0,1.0,0.0,0.0,parked\n",
    "t,id,x,y,vx,vy,kind\n-3,-1,0.0,0.0,1.0,0.0,moving\n-3,7,0.0,0.0,0.0,0.0,parked\n"
    "-2,-1,1.0,0.0,1.0,0.0,moving\n-2,7,0.0,0.0,0.0,0.0,parked\n",
    # duplicate and unsorted rows, equal values spelled apart, ints past int64 first
    f"t,id,x,y,vx,vy,kind\n{2**63},{2**64},0.0,0.0,0.0,0.0,moving\n"
    f"{2**63},{2**64},1.0,0.0,0.0,0.0,moving\n",
    "t,id,x,y,vx,vy,kind\n1,5,0.0,0.0,0.0,0.0,moving\n01,05,1.0,0.0,0.0,0.0,moving\n",
    f"t,id,x,y,vx,vy,kind\n{2**63 + 1},1,0.0,0.0,0.0,0.0,moving\n"
    f"{2**63},1,0.0,0.0,0.0,0.0,moving\n",
    "t,id,x,y,vx,vy,kind\n-1,1,0.0,0.0,0.0,0.0,moving\n-2,1,0.0,0.0,0.0,0.0,moving\n",
    f"t,id,x,y,vx,vy,kind\n0,{2**64},0.0,0.0,0.0,0.0,moving\n0,{2**63},0.0,0.0,0.0,0.0,moving\n",
])
def test_parse_trace_edge_texts_match_the_line_reader(text):
    assert _outcome(parse_trace, text) == _outcome(_oracle_parse_trace, text)


def test_parse_trace_reads_a_valid_town_without_the_line_reader(monkeypatch):
    # the line reader only locates the first bad line; a valid trace is read
    # once per distinct rest and never line by line
    def line_reader(*args):
        raise AssertionError("the line reader ran on a valid trace")

    monkeypatch.setattr(scenario, "csv_rows", line_reader)
    cfg = ScenarioConfig(
        kind="town", seed=5, duration=40, n_moving=4, n_entering=3, n_parked=12,
        area=(0.0, 0.0, 120.0, 80.0), choke_points=(ChokePoint(60.0, 40.0, 15.0, 5),),
    )
    records = gen_town(cfg)
    assert {r.kind for r in records} == set(MotionKind)
    assert _bits(parse_trace(serialize_trace(records))) == _bits(records)


@pytest.mark.parametrize("n_positions, n_velocities", [(3, 2), (2, 3)])
def test_serialize_trace_rejects_a_length_mismatch(n_positions, n_velocities):
    record = VehicleRecord(
        3, MotionKind.MOVING, 0,
        [Position2D(float(i), 0.0) for i in range(n_positions)],
        [Velocity2D(1.0, 0.0)] * n_velocities,
    )
    with pytest.raises(ValueError, match="vehicle 3: positions/velocities length mismatch"):
        serialize_trace([record])


def test_roundtrip_keeps_negative_zero_next_to_zero():
    zero, negative = Position2D(0.0, 0.0), Position2D(-0.0, 0.0)
    still, still_negative = Velocity2D(0.0, 0.0), Velocity2D(0.0, -0.0)
    records = [
        VehicleRecord(1, MotionKind.MOVING, 0,
                      [zero, negative, negative, Position2D(0.0, -0.0), zero],
                      [still, still, still_negative, still_negative, Velocity2D(-0.0, 1.0)]),
        VehicleRecord(2, MotionKind.PARKED, 0,
                      [Position2D(-0.0, -0.0)] * 3 + [Position2D(0.0, 0.0)] * 2,
                      [still_negative] * 2 + [still] * 3),
        # equal velocities that print differently, in one moving vehicle
        VehicleRecord(3, MotionKind.MOVING, 0, [Position2D(0.0, 1.5 * t) for t in range(4)],
                      [Velocity2D(-0.0, 1.5), Velocity2D(0.0, 1.5), Velocity2D(-0.0, 1.5),
                       Velocity2D(1.5, -0.0)]),
    ]
    text = serialize_trace(records)
    assert "0,1,0.0,0.0,0.0,0.0,moving" in text.splitlines()
    assert "1,1,-0.0,0.0,0.0,0.0,moving" in text.splitlines()
    assert "0,2,-0.0,-0.0,0.0,-0.0,parked" in text.splitlines()
    assert [line for line in text.splitlines() if line.split(",")[1] == "3"] == [
        "0,3,0.0,0.0,-0.0,1.5,moving", "1,3,0.0,1.5,0.0,1.5,moving",
        "2,3,0.0,3.0,-0.0,1.5,moving", "3,3,0.0,4.5,1.5,-0.0,moving",
    ]
    assert text == _oracle_serialize_trace(records)
    assert _bits(parse_trace(text)) == _bits(records) == _bits(_oracle_parse_trace(text))


def _two_records(vid, start):
    """A 3-step moving car with id ``vid`` from ``start``, and a 2-step
    parked car with the next id from the next step."""
    return [
        VehicleRecord(vid, MotionKind.MOVING, start,
                      [Position2D(float(i), 0.0) for i in range(3)], [Velocity2D(1.0, 0.0)] * 3),
        VehicleRecord(vid + 1, MotionKind.PARKED, start + 1,
                      [Position2D(2.0, 2.0)] * 2, [ZERO_VELOCITY] * 2),
    ]


@pytest.mark.parametrize("vid, start", [
    (2**63 - 2, 2**63 - 4), (-(2**63), -(2**63)), (-(2**63), 2**63 - 4), (2**63 - 2, -(2**63)),
])
def test_roundtrip_keeps_ids_and_steps_at_their_int64_extremes(vid, start):
    # a last step is at most 2**63 - 2, so that the window's end step is an int64
    records = _two_records(vid, start)
    text = serialize_trace(records)
    assert text == _oracle_serialize_trace(records)
    assert _bits(parse_trace(text)) == _bits(records) == _bits(_oracle_parse_trace(text))


@pytest.mark.parametrize("vid, start, line_no", [
    (2**63 - 1, 0, 4), (-(2**63) - 1, 0, 2), (0, 2**63 - 3, 5), (0, -(2**63) - 1, 2),
])
def test_parse_trace_rejects_ids_and_steps_one_past_their_int64_bounds(vid, start, line_no):
    # rows: the moving car at start, then both cars at each of the next two steps
    text = serialize_trace(_two_records(vid, start))
    with pytest.raises(TraceParseError, match=rf"^line {line_no}: t=.* must lie in "):
        parse_trace(text)
    assert _outcome(parse_trace, text) == _outcome(_oracle_parse_trace, text)


def _oracle_serialize_trace(records):
    """The sort-based writer the bucketed one replaced, kept as the reference."""
    rows = []
    for record in records:
        for i, (p, v) in enumerate(zip(record.positions, record.velocities)):
            t = record.start_step + i
            if record.kind is MotionKind.PARKED:
                kind = "parked"
            elif record.kind is MotionKind.QUEUED and v.vx == 0.0 and v.vy == 0.0:
                kind = "queued"
            else:
                kind = "moving"
            rows.append((t, record.vehicle_id,
                         f"{t},{record.vehicle_id},{p.x!r},{p.y!r},{v.vx!r},{v.vy!r},{kind}"))
    rows.sort(key=lambda r: (r[0], r[1]))
    return "\n".join([TRACE_HEADER] + [r[2] for r in rows]) + "\n"


_coordinate = st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e-300, 123456.789])


@settings(max_examples=200, deadline=None)
# velocities equal but for the sign of a zero, and ids and steps beyond int64
@example([(2**63, MotionKind.MOVING, -2, [(0.0, 0.0, -0.0, 1.5, False),
                                          (0.0, 1.5, 0.0, 1.5, False),
                                          (0.0, 3.0, -0.0, 1.5, False)]),
          (-(2**64), MotionKind.QUEUED, 2**63 - 1, [(1.5, 1.5, 1.5, -0.0, False),
                                                    (1.5, 1.5, 1.5, 0.0, False)])])
@given(st.lists(
    st.tuples(
        st.integers(-3, 3), st.sampled_from(list(MotionKind)), st.integers(-2, 4),
        st.lists(st.tuples(_coordinate, _coordinate, _coordinate, _coordinate,
                           st.booleans()), max_size=5),
    ),
    max_size=6,
))
def test_serialize_trace_matches_the_row_sort(specs):
    # duplicate ids, negative steps and empty records included; a sample
    # flagged True reuses the previous sample's objects
    records = []
    for vid, kind, start, samples in specs:
        positions, velocities = [], []
        for x, y, vx, vy, reuse in samples:
            if reuse and positions:
                positions.append(positions[-1])
                velocities.append(velocities[-1])
            else:
                positions.append(Position2D(x, y))
                velocities.append(Velocity2D(vx, vy))
        records.append(VehicleRecord(vid, kind, start, positions, velocities))
    assert serialize_trace(records) == _oracle_serialize_trace(records)


@pytest.mark.parametrize("text", [
    "\ufefft,id,x,y,vx,vy,kind\n0,1,0.5,0.25,0.0,0.0,moving\n",
    b"\xef\xbb\xbft,id,x,y,vx,vy,kind\r\n0,1,0.5,0.25,0.0,0.0,moving\r\n",
    "\ufeff# comment\nt,id,x,y,vx,vy,kind\n0,1,0.5,0.25,0.0,0.0,moving\n",
])
def test_parse_trace_skips_a_byte_order_mark(text):
    assert parse_trace(text) == parse_trace("t,id,x,y,vx,vy,kind\n0,1,0.5,0.25,0.0,0.0,moving\n")


def test_parse_trace_skips_only_one_byte_order_mark():
    with pytest.raises(TraceParseError, match="line 1: expected header") as exc:
        parse_trace("\ufeff\ufefft,id,x,y,vx,vy,kind\n")
    assert exc.value.line_no == 1


# ---------------------------------------------------------------------------
# Circuit generation


def test_circuit_no_parked_leaves_only_target():
    cfg = ScenarioConfig(kind="circuit", duration=10, n_parked=0)
    records = gen_circuit(cfg)
    assert len(records) == 1
    assert records[0].kind is MotionKind.MOVING


def test_circuit_parked_stations_evenly_spaced():
    # 400 m square, 10 cars every 40 m: stations derived by hand from the
    # arc-length parameterization, offset 5 m along the inward (left) normal.
    cfg = ScenarioConfig(
        kind="circuit", duration=5, n_parked=10, parked_spacing=40.0,
        parked_offset=5.0, circuit=SQUARE,
    )
    records = gen_circuit(cfg)
    parked = [r for r in records if r.kind is MotionKind.PARKED]
    assert len(parked) == 10
    expected = [
        Position2D(0.0, 5.0),
        Position2D(40.0, 5.0),
        Position2D(80.0, 5.0),
        Position2D(95.0, 20.0),
        Position2D(95.0, 60.0),
        Position2D(95.0, 100.0),
        Position2D(60.0, 95.0),
        Position2D(20.0, 95.0),
        Position2D(5.0, 80.0),
        Position2D(5.0, 40.0),
    ]
    for rec, want in zip(parked, expected):
        got = rec.positions[0]
        assert got.x == pytest.approx(want.x, abs=1e-9)
        assert got.y == pytest.approx(want.y, abs=1e-9)


def test_circuit_parked_within_15m_of_polyline():
    cfg = ScenarioConfig(kind="circuit", duration=5, n_parked=8, parked_spacing=50.0,
                         parked_offset=14.0, circuit=SQUARE)
    for rec in gen_circuit(cfg):
        if rec.kind is MotionKind.PARKED:
            # distance to the nearest square edge equals the offset here
            p = rec.positions[0]
            edge_gap = min(abs(p.x), abs(p.y), abs(100 - p.x), abs(100 - p.y))
            assert edge_gap <= 15.0 + 1e-9


def test_circuit_spacing_longer_than_loop_is_config_error():
    cfg = ScenarioConfig(kind="circuit", duration=5, n_parked=3, parked_spacing=1000.0,
                         circuit=SQUARE)
    with pytest.raises(ConfigError, match="spacing"):
        gen_circuit(cfg)


def test_circuit_deterministic():
    cfg = ScenarioConfig(kind="circuit", duration=50, n_parked=6, seed=11)
    assert gen_circuit(cfg) == gen_circuit(cfg)


def test_circuit_target_speed_and_exact_consistency():
    cfg = ScenarioConfig(kind="circuit", duration=40, n_parked=0, speed=10.0,
                         circuit=SQUARE)
    target = gen_circuit(cfg)[0]
    target.validate(cfg.step_seconds, tolerance=0.0)  # exact, not approximate
    for i in range(len(target.positions) - 1):
        p, q = target.positions[i], target.positions[i + 1]
        assert distance(p, q) == pytest.approx(10.0, abs=1e-6)
    # bit-exact integration invariant
    for i in range(len(target.positions) - 1):
        p, v, q = target.positions[i], target.velocities[i], target.positions[i + 1]
        assert q.x == p.x + cfg.step_seconds * v.vx
        assert q.y == p.y + cfg.step_seconds * v.vy


def test_circuit_length_helper():
    assert circuit_length(SQUARE) == pytest.approx(400.0)


def test_point_on_circuit_past_its_last_segment_returns_the_loop_start():
    # a tiny negative arc wraps to the full length, and the segment
    # subtractions leave just over the last segment's length: no segment
    # holds it, so the point is the last segment's end
    loop = [Position2D(0.0, 0.0), Position2D(0.0, 1.0), Position2D(3.0, 0.0)]
    assert -1e-300 % circuit_length(loop) == circuit_length(loop)
    pos, tangent = point_on_circuit(loop, -1e-300)
    assert pos == Position2D(0.0, 0.0)
    assert tangent == Velocity2D(-1.0, 0.0)


# ---------------------------------------------------------------------------
# Town generation


def test_town_entry_schedule():
    cfg = ScenarioConfig(
        kind="town", duration=400, n_moving=0, n_parked=0,
        n_entering=95, entry_interval=4,
    )
    records = gen_town(cfg)
    assert len(records) == 95
    starts = sorted(r.start_step for r in records)
    assert starts == [4 * k for k in range(95)]
    assert starts[-1] == 376


def test_town_parked_only():
    cfg = ScenarioConfig(kind="town", duration=10, n_moving=0, n_entering=0, n_parked=5)
    records = gen_town(cfg)
    assert len(records) == 5
    assert all(r.kind is MotionKind.PARKED for r in records)


def test_town_deterministic():
    cfg = ScenarioConfig(kind="town", seed=9, duration=25, n_moving=3, n_parked=5,
                         n_entering=2)
    assert gen_town(cfg) == gen_town(cfg)


def test_town_parked_at_least_one_meter_apart():
    cfg = ScenarioConfig(kind="town", seed=4, duration=10, n_moving=2, n_parked=20)
    parked = [r.positions[0] for r in gen_town(cfg) if r.kind is MotionKind.PARKED]
    for i in range(len(parked)):
        for j in range(i + 1, len(parked)):
            assert distance(parked[i], parked[j]) >= 1.0


def test_town_infeasible_parked_density():
    cfg = ScenarioConfig(
        kind="town", seed=0, duration=5, n_moving=0, n_entering=0,
        n_parked=200, area=(0.0, 0.0, 8.0, 8.0),
    )
    with pytest.raises(ConfigError, match="density"):
        gen_town(cfg)


@pytest.mark.parametrize("n_moving, n_entering", [(1, 0), (0, 1)])
def test_a_town_step_of_half_the_diagonal_is_rejected(n_moving, n_entering):
    # a walker redraws its goal until one lies a step away; at the centre of
    # a 5 x 5 m area no point lies 10 m away, so generation never ended
    town = dict(kind="town", area=(0.0, 0.0, 5.0, 5.0), n_moving=n_moving,
                n_entering=n_entering, n_parked=0, duration=10)
    with pytest.raises(ConfigError, match=r"speed \* step_seconds .*diagonal of area"):
        ScenarioConfig(**town)
    # exactly half the diagonal still leaves the centre with nowhere to go
    with pytest.raises(ConfigError, match="speed"):
        ScenarioConfig(**dict(town, area=(0.0, 0.0, 6.0, 8.0), speed=5.0))
    ScenarioConfig(**dict(town, kind="circuit"))
    ScenarioConfig(**dict(town, n_moving=0, n_entering=0))  # no walker, no step
    assert len(gen_town(ScenarioConfig(**dict(town, area=(0.0, 0.0, 6.0, 8.0),
                                              speed=4.9)))) == 1


def test_town_choke_point_induces_queued_halt():
    cfg = ScenarioConfig(
        kind="town", seed=13, duration=30, n_moving=4, n_parked=0,
        choke_points=(ChokePoint(250.0, 200.0, 10_000.0, 6),),
    )
    records = gen_town(cfg)
    queued = [r for r in records if r.kind is MotionKind.QUEUED]
    assert queued, "huge choke region must capture at least one walker"
    for rec in queued:
        halts = [v for v in rec.velocities if v.vx == 0.0 and v.vy == 0.0]
        assert len(halts) >= 6
        rec.validate(cfg.step_seconds, tolerance=0.0)


def test_town_trajectories_exactly_consistent():
    cfg = ScenarioConfig(kind="town", seed=21, duration=20, n_moving=3, n_parked=2,
                         n_entering=2)
    for rec in gen_town(cfg):
        rec.validate(cfg.step_seconds, tolerance=0.0)


def test_degenerate_area_rejected():
    with pytest.raises(ConfigError, match="degenerate"):
        ScenarioConfig(kind="town", area=(0.0, 0.0, 0.0, 100.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["speed", "step_seconds", "parked_spacing"])
def test_scenario_config_rejects_non_finite_values(field, bad):
    with pytest.raises(ConfigError, match=field):
        ScenarioConfig(**{field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scenario_config_rejects_a_non_finite_circuit_vertex(bad):
    with pytest.raises(ConfigError, match="circuit needs finite vertices"):
        ScenarioConfig(circuit=(Position2D(0.0, 0.0), Position2D(bad, 0.0), Position2D(1.0, 1.0)))


@pytest.mark.parametrize("area", [
    (0.0, 0.0, math.inf, 400.0), (-math.inf, 0.0, 500.0, 400.0), (0.0, math.nan, 500.0, 400.0),
])
def test_scenario_config_rejects_a_non_finite_area(area):
    with pytest.raises(ConfigError, match="area must be finite"):
        ScenarioConfig(kind="town", area=area)


@pytest.mark.parametrize("x, y", [(math.nan, 5.0), (5.0, math.inf), (-math.inf, 5.0)])
def test_scenario_config_rejects_non_finite_choke_points(x, y):
    with pytest.raises(ConfigError, match="choke_points"):
        ScenarioConfig(kind="town", choke_points=(ChokePoint(x, y, 5.0, 3),))


def test_scenario_config_rejects_a_non_integer_hold():
    # a named tuple cannot check itself: a hold of 2.5 steps used to generate a town
    with pytest.raises(ConfigError, match=re.escape("hold_steps must be an int, got 2.5")):
        ScenarioConfig(kind="town", choke_points=(ChokePoint(250.0, 200.0, 50.0, 2.5),))


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("duration", 240.0), ("n_moving", 2.0), ("n_parked", 2.5),
    ("n_parked", True), ("n_entering", 1.0), ("entry_interval", 0.5), ("entry_interval", "4"),
])
def test_scenario_config_rejects_a_non_integer_count(field, value):
    # each used to fail deep inside generate with a bare TypeError
    with pytest.raises(ConfigError, match=re.escape(f"{field} must be an int, got {value!r}")):
        ScenarioConfig(**{"kind": "town", field: value})


@pytest.mark.parametrize("fields, message", [
    (dict(step_seconds=0.0), "step_seconds must be > 0"),
    (dict(duration=0), "duration must be > 0"),
    (dict(n_entering=-1), "vehicle counts must be >= 0"),
    (dict(parked_spacing=0.0), "parked_spacing must be > 0"),
    (dict(entry_interval=0), "entry_interval must be > 0"),
    (dict(speed=0.0), "speed must be > 0"),
    (dict(parked_offset=-0.5), "parked_offset must lie within 15 m of the road"),
    (dict(parked_offset=15.5), "parked_offset must lie within 15 m of the road"),
    (dict(kind="highway"), "unknown scenario kind 'highway'"),
    (dict(area=(0.0, 0.0, 1.0)), "area must be four numbers: xmin, ymin, xmax, ymax"),
    (dict(circuit=(Position2D(0.0, 0.0),)), "circuit needs at least 2 vertices"),
    (dict(circuit=(Position2D(3.0, 4.0),) * 3), "circuit is degenerate (zero length)"),
])
def test_scenario_config_and_circuit_reject_bad_values(fields, message):
    # a bad config raises as it is built; a bad circuit when it is generated
    with pytest.raises(ConfigError, match=re.escape(message)):
        gen_circuit(ScenarioConfig(**fields))


# ---------------------------------------------------------------------------
# Trace building: samples in bulk, collector paused


def _reference_exact_trajectory(xs, ys, step_seconds):
    """The integrator as it was before it built its samples in bulk, kept
    verbatim as the oracle of ``scenario._exact_trajectory``."""
    px, py = xs[0], ys[0]
    positions = [Position2D(px, py)]
    velocities: list[Velocity2D] = []
    for nx, ny in zip(islice(xs, 1, None), islice(ys, 1, None)):
        vx, vy = (nx - px) / step_seconds, (ny - py) / step_seconds
        velocities.append(Velocity2D(vx, vy))
        px, py = px + step_seconds * vx, py + step_seconds * vy
        positions.append(Position2D(px, py))
    velocities.append(velocities[-1] if velocities else ZERO_VELOCITY)
    return positions, velocities


def _sample_bits(samples):
    """Each sample's exact type, its floats' bits (-0.0 kept) and the index of
    the first sample that is the same object, which ``serialize_trace`` reads."""
    first = {}
    return [(type(s), struct.pack("<2d", *s), first.setdefault(id(s), i))
            for i, s in enumerate(samples)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-1e15, 1e15), st.floats(-1e15, 1e15), st.integers(1, 3)),
             min_size=1, max_size=300),
    st.sampled_from([1.0, 0.1, 0.7]),
)
@example([(-0.0, 0.0, 1)], 0.7)
@example([(1e15, -0.0, 1), (-1e15, 0.0, 1)], 0.1)
@example([(2.5, -3.0, 2)], 1.0)
def test_exact_trajectory_equals_the_reference_bit_for_bit(waypoints, step_seconds):
    # each waypoint repeats 1-3 times in a row: halted steps, as at a choke point
    points = [(x, y) for x, y, n in waypoints for _ in range(n)][:300]
    xs, ys = [x for x, _ in points], [y for _, y in points]
    got = scenario._exact_trajectory(xs, ys, step_seconds)
    want = _reference_exact_trajectory(xs, ys, step_seconds)
    assert [_sample_bits(g) for g in got] == [_sample_bits(w) for w in want]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("build, arg, error", [
    ("generate", ScenarioConfig(kind="circuit", duration=5, n_parked=2), None),
    ("generate", ScenarioConfig(kind="town", duration=5, n_moving=0, n_parked=30,
                                area=(0.0, 0.0, 2.0, 2.0)), (ConfigError, "density infeasible")),
    ("parse_trace", f"{TRACE_HEADER}\n0,1,0.0,0.0,0.0,0.0,parked\n1,1,0.0,0.0,0.0,0.0,parked\n",
     None),
    ("parse_trace", f"{TRACE_HEADER}\n0,1,0.0,0.0,0.0,0.0,parked\n1,1,0.0,bogus,0.0,0.0,parked\n",
     (TraceParseError, "line 3")),
], ids=["generate", "generate-raises", "parse_trace", "parse_trace-raises"])
def test_trace_building_pauses_the_collector_and_restores_it(
        monkeypatch, build, arg, error, enabled):
    seen = []

    def spied(real):
        def spy(*args):
            seen.append(gc.isenabled())
            return real(*args)
        return spy

    if build == "generate":
        monkeypatch.setitem(scenario.GENERATORS, arg.kind, spied(scenario.GENERATORS[arg.kind]))
    else:
        monkeypatch.setattr(scenario, "_trace_rows", spied(scenario._trace_rows))
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            getattr(scenario, build)(arg)
        else:
            with pytest.raises(error[0], match=error[1]):
                getattr(scenario, build)(arg)
        after = gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False]
    assert after is enabled
