import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkcp import coverage
from parkcp.coverage import (
    CoverageReport,
    TransitArea,
    coverage_report,
    dsrc_radius,
    format_coverage_csv,
    parse_area,
    parse_points,
)
from parkcp.errors import TraceParseError
from parkcp.model import Position2D


def square(side=100.0, origin=(0.0, 0.0)):
    ox, oy = origin
    return (
        Position2D(ox, oy),
        Position2D(ox + side, oy),
        Position2D(ox + side, oy + side),
        Position2D(ox, oy + side),
    )


def fractions(rep: CoverageReport):
    return (rep.fraction_level1, rep.fraction_level2, rep.fraction_level3,
            rep.fraction_uncovered)


DISK_FRACTION = math.pi * 15.0**2 / 100.0**2  # 0.0706858...


def test_single_disk_fraction_matches_analytic_area():
    area = TransitArea((square(),), cell_size=0.1)
    rep = coverage_report(area, [Position2D(50.0, 50.0)], radius=15.0)
    assert rep.fraction_level1 == pytest.approx(DISK_FRACTION, abs=0.002)
    assert rep.fraction_level2 == 0.0
    assert rep.fraction_level3 == 0.0
    assert rep.fraction_uncovered == pytest.approx(1.0 - DISK_FRACTION, abs=0.002)


def test_no_parked_cars_means_uncovered():
    area = TransitArea((square(),), cell_size=1.0)
    rep = coverage_report(area, [], radius=15.0)
    assert rep.fraction_uncovered == 1.0
    assert rep.fraction_level1 == rep.fraction_level2 == rep.fraction_level3 == 0.0


def test_three_coincident_cars_fill_level3():
    area = TransitArea((square(),), cell_size=0.1)
    cars = [Position2D(50.0, 50.0)] * 3
    rep = coverage_report(area, cars, radius=15.0)
    assert rep.fraction_level3 == pytest.approx(DISK_FRACTION, abs=0.002)
    assert rep.fraction_level1 == 0.0
    assert rep.fraction_level2 == 0.0


def test_fractions_sum_to_one():
    area = TransitArea((square(),), cell_size=0.5)
    cars = [Position2D(20.0, 20.0), Position2D(25.0, 20.0), Position2D(80.0, 70.0)]
    rep = coverage_report(area, cars, radius=30.0)
    assert sum(fractions(rep)) == pytest.approx(1.0, abs=1e-12)


def test_coverage_monotone_in_radius():
    area = TransitArea((square(),), cell_size=0.5)
    cars = [Position2D(10.0, 15.0), Position2D(60.0, 40.0), Position2D(85.0, 90.0)]
    covered_prev = -1.0
    for radius in (5.0, 10.0, 20.0, 40.0):
        rep = coverage_report(area, cars, radius)
        covered = rep.fraction_level1 + rep.fraction_level2 + rep.fraction_level3
        assert covered >= covered_prev
        covered_prev = covered


def test_adding_a_car_never_uncovers():
    area = TransitArea((square(),), cell_size=0.5)
    cars = [Position2D(30.0, 30.0)]
    before = coverage_report(area, cars, 15.0).fraction_uncovered
    after = coverage_report(area, cars + [Position2D(70.0, 60.0)], 15.0).fraction_uncovered
    assert after <= before


def test_grid_refinement_converges():
    cars = [Position2D(50.0, 50.0), Position2D(60.0, 50.0)]
    radius = 15.0
    coarse = coverage_report(TransitArea((square(),), cell_size=0.4), cars, radius)
    fine = coverage_report(TransitArea((square(),), cell_size=0.2), cars, radius)
    # quantization bound: boundary length (square + two disk rims) x cell / area
    bound = (400.0 + 2 * 2 * math.pi * radius) * 0.4 / 100.0**2
    for a, b in zip(fractions(coarse), fractions(fine)):
        assert abs(a - b) < bound


def test_hole_polygon_excluded_by_even_odd_rule():
    outer = square(100.0)
    hole = square(40.0, origin=(30.0, 30.0))
    area = TransitArea((outer, hole), cell_size=0.5)
    # disk of radius 15 at the center sits entirely inside the hole
    rep = coverage_report(area, [Position2D(50.0, 50.0)], radius=15.0)
    assert rep.fraction_level1 == 0.0
    assert rep.fraction_uncovered == 1.0


def test_empty_area_rejected():
    area = TransitArea((), cell_size=1.0)
    with pytest.raises(ValueError, match="empty"):
        coverage_report(area, [], 15.0)


def test_nonpositive_radius_rejected():
    area = TransitArea((square(),), cell_size=1.0)
    with pytest.raises(ValueError, match="radius"):
        coverage_report(area, [], 0.0)


def test_self_intersecting_polygon_rejected():
    bowtie = (
        Position2D(0, 0), Position2D(10, 10), Position2D(10, 0), Position2D(0, 10)
    )
    with pytest.raises(ValueError, match="self-intersecting"):
        TransitArea((bowtie,), cell_size=1.0)


def test_dsrc_class_map():
    assert dsrc_radius("A") == 15.0
    assert dsrc_radius("B") == 100.0
    assert dsrc_radius("C") == 400.0
    assert dsrc_radius("D") == 1000.0
    with pytest.raises(ValueError):
        dsrc_radius("E")


def test_parse_area_and_points():
    text = (
        "# transit polygons\n"
        "polygon,x,y\n"
        "0,0.0,0.0\n0,100.0,0.0\n0,100.0,100.0\n0,0.0,100.0\n"
        "1,30.0,30.0\n1,70.0,30.0\n1,70.0,70.0\n1,30.0,70.0\n"
    )
    area = parse_area(text, cell_size=0.5)
    assert len(area.polygons) == 2
    assert area.polygons[0][1] == Position2D(100.0, 0.0)

    pts = parse_points("x,y\n1.5,2.5\n# skip\n3.0,4.0\n")
    assert pts == [Position2D(1.5, 2.5), Position2D(3.0, 4.0)]

    with pytest.raises(ValueError, match="header"):
        parse_area("0,0.0,0.0\n")
    with pytest.raises(ValueError, match="area file contains no polygons"):
        parse_area("polygon,x,y\n# no vertex\n")


@pytest.mark.parametrize("parse, text", [
    (parse_area, "polygon,x,y\n0,1.0,2.0\n0,abc,2\n"),
    (parse_area, "polygon,x,y\n# note\n0.5,1.0,2.0\n"),
    (parse_points, "x,y\n1.0,2.0\n1.0,\n"),
], ids=["area-text-coordinate", "area-float-polygon-id", "points-missing-field"])
def test_parsers_name_the_line_of_a_bad_field(parse, text):
    with pytest.raises(TraceParseError, match="line 3") as exc:
        parse(text)
    assert exc.value.line_no == 3


@pytest.mark.parametrize("parse, text", [
    (parse_area, "polygon,x,y\n0,0.0,0.0\n0,inf,0.0\n0,1.0,1.0\n"),
    (parse_area, "polygon,x,y\n0,0.0,0.0\n0,1.0,nan\n0,1.0,1.0\n"),
    (parse_points, "x,y\n1.0,2.0\n-inf,3.0\n"),
    (parse_points, "x,y\n1.0,2.0\nnan,3.0\n"),
], ids=["area-inf", "area-nan", "points-minus-inf", "points-nan"])
def test_parsers_reject_non_finite_coordinates(parse, text):
    with pytest.raises(TraceParseError, match="line 3: non-finite"):
        parse(text)


def test_format_coverage_csv_layout():
    rep = CoverageReport(0.1481, 0.1198, 0.2778, 0.4543)
    text = format_coverage_csv([(15.0, rep)])
    lines = text.strip().splitlines()
    assert lines[0] == "radius,level3,level2,level1,uncovered"
    assert lines[1].startswith("15.0,0.277800,0.119800,0.148100,0.454300")


@pytest.mark.parametrize("parse, text, expected", [
    (parse_area, "\ufeffpolygon,x,y\n0,0.0,0.0\n0,1.0,0.0\n0,1.0,1.0\n",
     parse_area("polygon,x,y\n0,0.0,0.0\n0,1.0,0.0\n0,1.0,1.0\n")),
    (parse_points, "\ufeff# points\r\nx,y\r\n1.5,2.5\r\n", [Position2D(1.5, 2.5)]),
], ids=["area", "points"])
def test_parsers_skip_a_byte_order_mark(parse, text, expected):
    assert parse(text) == expected


def _brute_force_report(area, parked, radius):
    """coverage_report over the full meshgrid of cell centers, every car
    against every cell: the reference for the windowed raster."""
    xs = [p.x for poly in area.polygons for p in poly]
    ys = [p.y for poly in area.polygons for p in poly]
    cell = area.cell_size
    nx = max(1, math.ceil((max(xs) - min(xs)) / cell))
    ny = max(1, math.ceil((max(ys) - min(ys)) / cell))
    gx, gy = np.meshgrid(min(xs) + (np.arange(nx) + 0.5) * cell,
                         min(ys) + (np.arange(ny) + 0.5) * cell)
    inside = np.zeros(gx.shape, dtype=bool)
    for poly in area.polygons:
        for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
            if y1 != y2:
                x_at = (x2 - x1) * (gy - y1) / (y2 - y1) + x1
                inside ^= ((y1 > gy) != (y2 > gy)) & (gx < x_at)
    counts = np.zeros(gx.shape, dtype=np.int64)
    with np.errstate(over="ignore"):  # radius 1e200 squares to inf, as intended
        for p in parked:
            counts += (gx - p.x) ** 2 + (gy - p.y) ** 2 <= radius * radius
    c = counts[inside]
    total = int(inside.sum())
    return CoverageReport(
        fraction_level1=float((c == 1).sum() / total),
        fraction_level2=float((c == 2).sum() / total),
        fraction_level3=float((c >= 3).sum() / total),
        fraction_uncovered=float((c == 0).sum() / total),
    )


_AREAS = {
    "square": (square(40.0),),
    # the hole's vertical edges pass through cell centers at 0.5 m cells
    "holed": (square(40.0), square(10.0, origin=(12.25, 15.25))),
    "triangle": ((Position2D(-3.0, 1.0), Position2D(37.0, 5.0), Position2D(11.0, 33.0)),),
}


@settings(max_examples=250, deadline=None)
@given(
    st.sampled_from(sorted(_AREAS)),
    st.sampled_from([0.5, 2.0, 0.3]),
    st.sampled_from([15.0, 4.0, 100.0, 2.5, "diagonal", 1e200]),
    st.lists(st.tuples(st.floats(-60.0, 100.0), st.floats(-60.0, 100.0)), max_size=6),
    st.lists(st.tuples(st.sampled_from([-1e6, 17.0, 1e6]), st.sampled_from([-1e6, 21.0, 1e6])),
             max_size=2),
    st.lists(st.tuples(st.integers(-5, 90), st.integers(-5, 90),
                       st.sampled_from([(5, 0), (-5, 0), (0, 5), (0, -5),
                                        (3, 4), (-4, 3), (-3, -4)])), max_size=6),
)
def test_coverage_report_equals_the_full_grid(name, cell, radius, free, far, on_circle):
    # cars anywhere, including outside the area and 1e6 m away, plus cars at
    # exactly the radius from a cell center (3-4-5 offsets keep the
    # arithmetic exact); radii up to the bounding box's diagonal and past it
    # (1e200 squares to inf) clip a car's window on all four sides
    area = TransitArea(_AREAS[name], cell_size=cell)
    xs = [p.x for poly in area.polygons for p in poly]
    ys = [p.y for poly in area.polygons for p in poly]
    x0, y0 = min(xs), min(ys)
    if radius == "diagonal":
        radius = math.hypot(max(xs) - x0, max(ys) - y0)
    parked = [Position2D(x, y) for x, y in free + far] + [
        Position2D(x0 + (i + 0.5) * cell + a * radius / 5, y0 + (j + 0.5) * cell + b * radius / 5)
        for i, j, (a, b) in on_circle
    ]
    expected = _brute_force_report(area, parked, radius)
    assert coverage_report(area, parked, radius) == expected
    assert coverage_report(area, (p for p in parked), radius) == expected


@pytest.mark.parametrize("cell_size, match", [
    (math.nan, "cell_size must be finite, got nan"),
    (math.inf, "cell_size must be finite, got inf"),
    (-math.inf, "cell_size must be finite, got -inf"),
    (0.0, "cell_size must be > 0"),
])
def test_transit_area_rejects_a_bad_cell_size(cell_size, match):
    with pytest.raises(ValueError, match=match):
        TransitArea((square(),), cell_size=cell_size)


@pytest.mark.parametrize("n_vertices", [0, 1, 2])
def test_transit_area_rejects_a_polygon_of_fewer_than_three_vertices(n_vertices):
    with pytest.raises(ValueError, match="polygons need at least 3 vertices"):
        TransitArea((square(), square()[:n_vertices]))


def test_an_area_with_no_cell_center_inside_is_rejected():
    # a triangle inside one 1 m cell that misses the cell's center
    area = TransitArea(((Position2D(0.1, 0.1), Position2D(0.2, 0.1), Position2D(0.2, 0.2)),))
    with pytest.raises(ValueError, match="transit area contains no raster cells"):
        coverage_report(area, [Position2D(0.0, 0.0)], 15.0)


@pytest.mark.parametrize("vertex", [(math.inf, 0.0), (0.0, math.nan)])
def test_transit_area_rejects_non_finite_vertices(vertex):
    with pytest.raises(ValueError, match="vertices must be finite"):
        TransitArea(((Position2D(0.0, 0.0), Position2D(*vertex), Position2D(1.0, 1.0)),))


@pytest.mark.parametrize("parked", [[], [Position2D(50.0, 50.0)]], ids=["no-cars", "one-car"])
@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_non_finite_radius_rejected(radius, parked):
    area = TransitArea((square(),), cell_size=1.0)
    with pytest.raises(ValueError, match="radius must be finite"):
        coverage_report(area, parked, radius)


@pytest.mark.parametrize("bad", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, -math.inf)])
def test_non_finite_parked_position_rejected(bad):
    area = TransitArea((square(),), cell_size=1.0)
    cars = [Position2D(10.0, 10.0), Position2D(*bad)]
    with pytest.raises(ValueError, match=r"parked position 1 is not finite"):
        coverage_report(area, iter(cars), 15.0)


def test_squares_that_overflow_follow_the_exact_test():
    # at radius 1e200 the squared radius and the squared distance to a car
    # 1e200 m away are both inf, so the exact test covers every cell
    area = TransitArea((square(),), cell_size=1.0)
    rep = coverage_report(area, [Position2D(-1e200, 50.0)], 1e200)
    assert rep == _brute_force_report(area, [Position2D(-1e200, 50.0)], 1e200)
    assert rep.fraction_level1 == 1.0


def test_an_area_rasterizes_once_for_all_its_radii(monkeypatch):
    calls = []
    real = coverage._raster
    monkeypatch.setattr(coverage, "_raster", lambda area: calls.append(area) or real(area))
    area = TransitArea((square(40.0), square(10.0, origin=(12.25, 15.25))), cell_size=0.5)
    cars = [Position2D(20.0, 20.0), Position2D(3.0, 35.0)]
    reports = [coverage_report(area, cars, r) for r in (15.0, 100.0, 4.0)]
    assert calls == [area]
    assert reports == [_brute_force_report(area, cars, r) for r in (15.0, 100.0, 4.0)]
