"""Area-coverage estimation: which fraction of the transit area is within
radio range of 1, 2, or 3+ stationary vehicles.

The transit area is a union of simple polygons under the even-odd rule, so a
polygon drawn inside another acts as a hole. Fractions are computed on a
raster of cell centers; the quantization error is bounded by
(boundary length x cell size) / area and vanishes under grid refinement.
The raster does not depend on the radius, so an area builds it once, on its
first report, and every later report over the area reuses it.

A car covers a cell when the cell's center passes the exact test
``(cy - y)**2 + (cx - x)**2 <= radius**2``. IEEE subtraction, squaring and
addition are monotone, so along a raster row the passing cells form one run
through the cell nearest the car, and the rows holding any form one run as
well. Each car therefore costs one step per row it reaches, not one test per
cell: the run ends of all (car, row) pairs are guessed at once from the half
chord, and the exact test confirms each guess or a binary search with it
replaces the guess. A +1 at each run's start and a -1 past its end, summed
along the raster, count the cars over every cell. On an 80/320 town of
500 x 400 m at 0.5 m cells, a DSRC C or D report takes about 0.05 s, against
about 0.9 s when every cell of each car's window was tested (medians on a
shared 2-core x86 host).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
        if not math.isfinite(self.cell_size):
            raise ValueError(f"cell_size must be finite, got {self.cell_size!r}")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be > 0")
        for poly in self.polygons:
            if len(poly) < 3:
                raise ValueError("polygons need at least 3 vertices")
            if not all(math.isfinite(c) for p in poly for c in p):
                raise ValueError("polygon vertices must be finite")
            if not _is_simple(poly):
                raise ValueError("polygon is self-intersecting")

    @cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """``_raster`` of the area, the inside mask flattened row-major, and
        the number of inside cells. They do not depend on the radius, so an
        area computes them once for all its reports."""
        cx, cy, inside = _raster(self)
        inside = inside.ravel()
        for a in (cx, cy, inside):
            a.flags.writeable = False
        return cx, cy, inside, int(inside.sum())


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


def _first_failure(holds, start: np.ndarray, stop: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """Per entry, the first index in [start, stop) at which ``holds`` fails,
    or ``stop``, where ``holds(j, at)`` tests entries ``at`` at indices ``j``
    and is true on a prefix of each range. A float guess, clipped to the
    range, is kept where the test confirms it at both sides; the other
    entries are found by binary search."""
    pos = np.clip(guess, start, stop).astype(np.int64)
    every = slice(None)
    wrong = ((pos > start) & ~holds(pos - 1, every)) | ((pos < stop) & holds(pos, every))
    at = np.flatnonzero(wrong)
    lo, hi = start[at], stop[at]
    step = 1 << int((hi - lo).max(initial=0)).bit_length()
    while step > 1:
        step >>= 1
        nxt = lo + step
        lo = np.where((nxt <= hi) & holds(nxt - 1, at), nxt, lo)
    pos[at] = lo
    return pos


def _run(centers: np.ndarray, cell: float, p: np.ndarray, split: np.ndarray,
         other_sq: np.ndarray, r_sq: float):
    """Per entry, the run [start, stop) of indices j that pass the exact test
    ``other_sq + (centers[j] - p)**2 <= r_sq`` along increasing ``centers``:
    centers left of p get nearer as j grows and those right of it farther, so
    start <= split <= stop, where ``split`` is ``searchsorted(centers, p)``.
    The half chord only guesses the ends."""
    def passes(j, at):
        return other_sq[at] + (centers.take(j, mode="clip") - p[at]) ** 2 <= r_sq

    half = np.sqrt(np.fmax(r_sq - other_sq, 0.0))
    start = _first_failure(lambda j, at: ~passes(j, at), np.zeros_like(split), split,
                           np.ceil((p - half - centers[0]) / cell))
    stop = _first_failure(passes, split, np.full_like(split, len(centers)),
                          np.floor((p + half - centers[0]) / cell) + 1)
    return start, stop


def _runs(cars: np.ndarray, radius: float, cx: np.ndarray, cy: np.ndarray, cell: float):
    """Flat raster indices [start, stop) of the cells that each car covers in
    each row, by the exact test of the full grid,
    ``(cy[i] - y)**2 + (cx[j] - x)**2 <= radius**2``. A row holds covered
    cells exactly when its cell in the column nearest the car passes, so the
    rows come from the same search as the cells."""
    px, py = cars.T
    r_sq = radius * radius
    col = np.searchsorted(cx, px)
    nearest_sq = np.minimum((cx[np.maximum(col - 1, 0)] - px) ** 2,
                            (cx[np.minimum(col, len(cx) - 1)] - px) ** 2)
    first_row, end_row = _run(cy, cell, py, np.searchsorted(cy, py), nearest_sq, r_sq)
    n_rows = end_row - first_row
    car = np.repeat(np.arange(len(cars)), n_rows)
    row = np.arange(car.size) + np.repeat(first_row - np.cumsum(n_rows) + n_rows, n_rows)
    start, stop = _run(cx, cell, px[car], col[car], (cy[row] - py[car]) ** 2, r_sq)
    return row * len(cx) + start, row * len(cx) + stop


# _runs takes the cars in batches of at most this many (car, row) entries,
# which bounds its temporary arrays
_BATCH_ENTRIES = 1 << 17


def coverage_report(
    area: TransitArea, parked: Iterable[Position2D], radius: float
) -> CoverageReport:
    """Rasterize the transit area and bucket cells by how many parked
    vehicles cover them at the given radius."""
    if not math.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius!r}")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if not area.polygons:
        raise ValueError("transit area is empty")
    cars = np.array([(p.x, p.y) for p in parked], dtype=float).reshape(-1, 2)
    bad = np.flatnonzero(~np.isfinite(cars).all(axis=1))
    if bad.size:
        raise ValueError(f"parked position {bad[0]} is not finite: {tuple(cars[bad[0]].tolist())}")
    cx, cy, inside, total = area._cells
    if total == 0:
        raise ValueError("transit area contains no raster cells")

    starts, stops = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    batch = max(1, _BATCH_ENTRIES // len(cy))
    for first in range(0, len(cars), batch):
        # a square past the float range is inf, which the exact test expects
        with np.errstate(over="ignore", invalid="ignore"):
            start, stop = _runs(cars[first:first + batch], radius, cx, cy, area.cell_size)
        starts.append(start)
        stops.append(stop)
    # +1 where a run starts and -1 where it stops, in row-major order: a run
    # to the end of a row stops at the first cell of the next
    counts = np.bincount(np.concatenate(starts), minlength=inside.size + 1)
    counts -= np.bincount(np.concatenate(stops), minlength=counts.size)
    np.cumsum(counts, out=counts)
    levels = np.bincount(counts[:-1][inside], minlength=4)
    return CoverageReport(
        fraction_level1=float(levels[1] / total),
        fraction_level2=float(levels[2] / total),
        fraction_level3=float(levels[3:].sum() / total),
        fraction_uncovered=float(levels[0] / total),
    )


# ---------------------------------------------------------------------------
# File formats (same CSV dialect family as the trace files)


def parse_area(text: str, cell_size: float = TransitArea.cell_size) -> TransitArea:
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
