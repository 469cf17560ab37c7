"""Area-coverage estimation: which fraction of the transit area is within
radio range of 1, 2, or 3+ stationary vehicles.

The transit area is a union of simple polygons under the even-odd rule, so a
polygon drawn inside another acts as a hole. Fractions are computed on a
raster of cell centers; the quantization error is bounded by
(boundary length x cell size) / area and vanishes under grid refinement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import Position2D
from .scenario import csv_rows, parse_fields

DSRC_CLASSES = {"A": 15.0, "B": 100.0, "C": 400.0, "D": 1000.0}

AREA_HEADER = "polygon,x,y"
POINTS_HEADER = "x,y"


def dsrc_radius(device_class: str) -> float:
    """Communication-zone radius in meters for a DSRC device class."""
    try:
        return DSRC_CLASSES[device_class]
    except KeyError:
        raise ValueError(f"unknown DSRC class {device_class!r}") from None


def _segments(poly: Sequence[Position2D]):
    return list(zip(poly, list(poly[1:]) + [poly[0]]))


def _proper_intersection(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)

    d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
    d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _is_simple(poly: Sequence[Position2D]) -> bool:
    segs = _segments(poly)
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if j == i + 1 or (i == 0 and j == len(segs) - 1):
                continue  # neighbors share an endpoint by construction
            if _proper_intersection(*segs[i], *segs[j]):
                return False
    return True


@dataclass(frozen=True)
class TransitArea:
    polygons: tuple[tuple[Position2D, ...], ...]
    cell_size: float = 1.0

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ValueError("cell_size must be > 0")
        for poly in self.polygons:
            if len(poly) < 3:
                raise ValueError("polygons need at least 3 vertices")
            if not _is_simple(poly):
                raise ValueError("polygon is self-intersecting")


@dataclass(frozen=True)
class CoverageReport:
    """Fractions of the transit area covered by exactly 1, exactly 2, and 3
    or more stationary vehicles, plus the uncovered remainder."""

    fraction_level1: float
    fraction_level2: float
    fraction_level3: float
    fraction_uncovered: float


def _raster(area: TransitArea):
    """Cell-center coordinates along x and y over the polygon bounding box,
    and the (y, x) inside mask."""
    xs_all = [p.x for poly in area.polygons for p in poly]
    ys_all = [p.y for poly in area.polygons for p in poly]
    cell = area.cell_size
    nx = max(1, math.ceil((max(xs_all) - min(xs_all)) / cell))
    ny = max(1, math.ceil((max(ys_all) - min(ys_all)) / cell))
    cx = min(xs_all) + (np.arange(nx) + 0.5) * cell
    cy = min(ys_all) + (np.arange(ny) + 0.5) * cell

    inside = np.zeros((ny, nx), dtype=bool)
    for poly in area.polygons:
        for (x1, y1), (x2, y2) in _segments(poly):
            if y1 == y2:
                continue
            crosses = (y1 > cy) != (y2 > cy)
            x_at = (x2 - x1) * (cy - y1) / (y2 - y1) + x1
            inside ^= crosses[:, None] & (cx < x_at[:, None])
    return cx, cy, inside


def coverage_report(
    area: TransitArea, parked: Iterable[Position2D], radius: float
) -> CoverageReport:
    """Rasterize the transit area and bucket cells by how many parked
    vehicles cover them at the given radius."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if not area.polygons:
        raise ValueError("transit area is empty")
    cx, cy, inside = _raster(area)
    total = int(inside.sum())
    if total == 0:
        raise ValueError("transit area contains no raster cells")

    counts = np.zeros(inside.shape, dtype=np.int32)
    cell = area.cell_size
    x0, y0 = cx[0], cy[0]
    r_sq = radius * radius
    for p in parked:
        # only the subgrid around the disk can be covered
        i_lo = max(0, int((p.y - radius - y0) / cell) - 1)
        i_hi = min(len(cy), int((p.y + radius - y0) / cell) + 2)
        j_lo = max(0, int((p.x - radius - x0) / cell) - 1)
        j_hi = min(len(cx), int((p.x + radius - x0) / cell) + 2)
        if i_lo >= i_hi or j_lo >= j_hi:
            continue
        dy2 = (cy[i_lo:i_hi] - p.y) ** 2
        dx2 = (cx[j_lo:j_hi] - p.x) ** 2
        counts[i_lo:i_hi, j_lo:j_hi] += dy2[:, None] + dx2 <= r_sq

    levels = np.bincount(np.minimum(counts[inside], 3), minlength=4)
    return CoverageReport(
        fraction_level1=float(levels[1] / total),
        fraction_level2=float(levels[2] / total),
        fraction_level3=float(levels[3] / total),
        fraction_uncovered=float(levels[0] / total),
    )


# ---------------------------------------------------------------------------
# File formats (same CSV dialect family as the trace files)


def parse_area(text: str, cell_size: float = 1.0) -> TransitArea:
    """Area file: header ``polygon,x,y``; one vertex per row, grouped by
    polygon id in file order; ``#`` comments allowed."""
    groups: dict[int, list[Position2D]] = {}
    for line_no, parts in csv_rows(text, AREA_HEADER):
        pid, x, y = parse_fields(line_no, parts, 1)
        groups.setdefault(pid, []).append(Position2D(x, y))
    if not groups:
        raise ValueError("area file contains no polygons")
    return TransitArea(polygons=tuple(map(tuple, groups.values())), cell_size=cell_size)


def parse_points(text: str) -> list[Position2D]:
    """Point list file: header ``x,y``, one point per row."""
    return [
        Position2D(*parse_fields(line_no, parts, 0))
        for line_no, parts in csv_rows(text, POINTS_HEADER)
    ]


def format_coverage_csv(rows: Sequence[tuple[float, CoverageReport]]) -> str:
    """One row per radius, levels ordered as in the coverage tables."""
    lines = ["radius,level3,level2,level1,uncovered"]
    for radius, rep in rows:
        lines.append(
            f"{radius!r},{rep.fraction_level3:.6f},{rep.fraction_level2:.6f},"
            f"{rep.fraction_level1:.6f},{rep.fraction_uncovered:.6f}"
        )
    return "\n".join(lines) + "\n"
