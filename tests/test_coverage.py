import math

import pytest

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
