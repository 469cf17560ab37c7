"""Position estimators: GCPSO cost minimisation, a range-fusing EKF, and the
closed-form trilateration/bilateration used as oracles and for the stationary
bootstrap.

The cost a swarm minimises is the sum of squared range mismatches to the
selected neighbors plus the squared displacement from the dead-reckoned
prior (px, py). At (x, y) it is f = dx*dx + dy*dy with dx, dy = x - px,
y - py, then, for each selected row (ax, ay, r) in order, f += m*m with
m = r - sqrt(ex*ex + ey*ey) and ex, ey = x - ax, y - ay. It uses only + - *
and sqrt, which IEEE arithmetic rounds correctly in Python and numpy alike
(``**`` and ``hypot`` are library functions whose rounding differs), so a
numpy evaluation over padded rows, where a padded row adds an exact 0,
equals it bit for bit. ``gcpso_localize`` evaluates this formula inline per
particle rather than through a call.

The EKF keeps a 2D position state; velocity enters as a known noisy input,
so the prediction inflates the covariance by
process_std^2 + (step_seconds * velocity_std)^2 per axis. The covariance is
the float triple (a, b, d) of [[a, b], [b, d]]. The update applies the range
rows as scalar updates, all linearised at the predicted state, which equals
the joint update (Bar-Shalom, Li & Kirubarajan, 2001). A row's innovation
variance adds the neighbor's broadcast covariance, projected on the row's
direction, to the range variance: a neighbor's estimate is not taken as
exact, and an anchor's, with zero covariance, is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometryError, require_ints
from .model import Position2D, Velocity2D
from .policy import Candidate, dead_reckon

_COINCIDENT = 1e-6  # meters below which a range row is skipped in the EKF
Covariance = tuple[float, float, float]  # (a, b, d) of the symmetric [[a, b], [b, d]]


@dataclass(frozen=True)
class GcpsoParams:
    """Guaranteed-convergence PSO settings.

    The best particle resamples a box of half-width ``radius`` around the
    global best; the radius doubles after ``success_limit`` consecutive
    improvements and halves after ``failure_limit`` consecutive failures.
    A swarm runs ``iterations`` iterations, or stops once its best cost
    reaches 0, the least a sum of squares can take.
    """

    particles: int = 4
    iterations: int = 20
    success_limit: int = 15
    failure_limit: int = 5
    initial_radius: float = 1.0
    cognitive: float = 2.0
    social: float = 2.0
    inertia_start: float = 0.9
    inertia_end: float = 0.2

    def __post_init__(self):
        require_ints(self, ("particles", "iterations", "success_limit", "failure_limit"),
                     ValueError)
        if self.particles < 1 or self.iterations < 1:
            raise ValueError("particles and iterations must be >= 1")
        if self.success_limit < 1 or self.failure_limit < 1:
            raise ValueError("success_limit and failure_limit must be >= 1")
        for name in ("initial_radius", "cognitive", "social", "inertia_start"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.initial_radius > 0:
            raise ValueError("initial_radius must be > 0")
        if not self.inertia_start >= self.inertia_end >= 0:
            raise ValueError("inertia must decrease to a non-negative value")


@dataclass(frozen=True)
class EkfParams:
    range_std: float
    process_std: float = 2.0
    velocity_std: float = 0.5
    step_seconds: float = 1.0

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.range_std, self.process_std,
                                              self.velocity_std, self.step_seconds)):
            raise ValueError("EKF parameters must be finite and > 0")

    @cached_property
    def step_variance(self) -> float:
        """Variance added to each axis per predicted step."""
        return self.process_std**2 + (self.step_seconds * self.velocity_std) ** 2


@dataclass(frozen=True)
class LocalizationProblem:
    """One vehicle's localisation instance at one step: the (at most three)
    selected neighbors plus the dead-reckoned prior."""

    selected: tuple[Candidate, ...]
    prior: Position2D


def cost(point: Position2D, problem: LocalizationProblem) -> float:
    """The localisation cost of ``problem`` at ``point``, in the portable form
    of the module docstring. ``gcpso_localize`` evaluates the same formula
    inline, in the same order, so its fitness equals this bit for bit."""
    x, y = point
    px, py = problem.prior
    dx, dy = x - px, y - py
    f = dx * dx + dy * dy
    for c in problem.selected:
        ax, ay = c.shared_position
        ex, ey = x - ax, y - ay
        m = c.measured_range - math.sqrt(ex * ex + ey * ey)
        f += m * m
    return f


@dataclass
class RadiusAdaptation:
    """Success/failure-counted doubling and halving of the search radius."""

    radius: float
    success_limit: int
    failure_limit: int
    successes: int = 0
    failures: int = 0

    def update(self, improved: bool) -> float:
        if improved:
            self.successes += 1
            self.failures = 0
            if self.successes >= self.success_limit:
                self.radius *= 2.0
                self.successes = 0
        else:
            self.failures += 1
            self.successes = 0
            if self.failures >= self.failure_limit:
                self.radius *= 0.5
                self.failures = 0
        return self.radius


@dataclass
class GcpsoResult:
    position: Position2D
    fitness: float
    history: np.ndarray = field(repr=False)  # global-best fitness per iteration


def gcpso_localize(
    problem: LocalizationProblem, params: GcpsoParams, rng: np.random.Generator
) -> GcpsoResult:
    """Minimise the localisation cost with a guaranteed-convergence PSO.

    The swarm starts with half the particles on the highest-priority
    neighbor's shared position and half on the prior (all on the prior when
    there is no neighbor), with zero initial velocities. Inertia decreases
    linearly across iterations; the globally best particle performs the
    box-resampling update instead of the standard velocity rule. A swarm
    stops once its best cost is 0, so one that starts there (a finite prior
    and no neighbor) draws nothing and returns the prior; ``run_episode``
    makes no call without a neighbor.

    Each particle is one tuple (x, y, vx, vy, best x, best y, best f), read
    once and replaced once per update; ``best_f`` mirrors the best f of each,
    so the global best is its first minimum. One (iterations * n, 4) uniform
    block is drawn, n rows per iteration.
    """
    n = params.particles
    rows = tuple((*c.shared_position, c.measured_range) for c in problem.selected)
    px0, py0 = problem.prior
    sqrt = math.sqrt
    starts = ([(rows[0][0], rows[0][1], n // 2), (px0, py0, n - n // 2)] if rows
              else [(px0, py0, n)])
    swarm: list[tuple[float, ...]] = []
    for x, y, count in starts:
        f = cost(Position2D(x, y), problem)
        swarm += [(x, y, 0.0, 0.0, x, y, f)] * count
    best_f = [p[6] for p in swarm]
    g = best_f.index(min(best_f))
    _, _, _, _, gx, gy, gf = swarm[g]
    history = [gf]

    radius = RadiusAdaptation(params.initial_radius, params.success_limit, params.failure_limit)
    iterations = params.iterations
    w_start, w_end = params.inertia_start, params.inertia_end
    c1, c2 = params.cognitive, params.social
    span = max(iterations - 1, 1)
    # one block holds exactly what one (n, 4) draw per iteration would; a
    # swarm that starts at cost 0 needs none, and one whose fitness is nan
    # runs the loop, so it draws the block
    draws = iter(rng.random((iterations * n, 4)).tolist() if not gf <= 0.0 else ())
    for it in range(iterations):
        if gf <= 0.0:
            break
        w = w_start + (w_end - w_start) * (it / span)
        rho = radius.radius
        # range first: zip stops on it without taking the next iteration's row
        for i, (u0, u1, u2, u3) in zip(range(n), draws):
            x, y, vx, vy, bx, by, bf = swarm[i]
            if i == g:
                nx = gx + w * vx + rho * (1.0 - 2.0 * u0)
                ny = gy + w * vy + rho * (1.0 - 2.0 * u1)
                vx, vy = nx - x, ny - y
            else:
                vx = w * vx + c1 * u0 * (bx - x) + c2 * u2 * (gx - x)
                vy = w * vy + c1 * u1 * (by - y) + c2 * u3 * (gy - y)
                nx, ny = x + vx, y + vy
            # cost(), inline
            dx, dy = nx - px0, ny - py0
            f = dx * dx + dy * dy
            for ax, ay, r in rows:
                ex, ey = nx - ax, ny - ay
                m = r - sqrt(ex * ex + ey * ey)
                f += m * m
            if f < bf:
                bx, by, bf = nx, ny, f
                best_f[i] = f
            swarm[i] = (nx, ny, vx, vy, bx, by, bf)
        g = best_f.index(min(best_f))
        _, _, _, _, gx, gy, bf = swarm[g]
        radius.update(bf < gf)
        gf = bf
        history.append(gf)

    return GcpsoResult(Position2D(gx, gy), gf, np.asarray(history))


def _min_eigenvalue(a: float, b: float, d: float) -> float:
    """Smaller eigenvalue of the symmetric [[a, b], [b, d]], in the
    cancellation-free form of LAPACK's 2x2 solver (dlae2)."""
    total = a + d
    root = math.hypot(a - d, 2.0 * b)
    if total < 0.0:
        return 0.5 * (total - root)
    if total == 0.0:
        return -0.5 * root
    larger = 0.5 * (total + root)
    big, small = (a, d) if abs(a) > abs(d) else (d, a)
    return (big / larger) * small - (b / larger) * b


def _require_psd(cov: Covariance) -> Covariance:
    a, b, d = cov
    # Plainly PSD, and so finite. The rounded b*b <= a*d gives b**2 <=
    # a*d * (1 + 2**-52), so the true smaller eigenvalue is >= -2**-53 * (a + d),
    # and _min_eigenvalue rounds within about 2**-51 * (a + d) of it: at
    # a + d <= 1e6 it stays above -6e-10, and the exact path below would accept.
    # Without the bound on a + d it can fall below -1e-9 from about 1e7.
    if 0.0 <= a and 0.0 <= d and a + d <= 1e6 and b * b <= a * d:
        return a, b, d
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(d)):
        raise ValueError("covariance must be finite")
    if _min_eigenvalue(a, b, d) < -1e-9:
        raise ValueError("covariance must be positive semidefinite")
    return a, b, d


def ekf_predict(
    state: Position2D,
    cov: Covariance,
    velocity: Velocity2D,
    params: EkfParams,
) -> tuple[Position2D, Covariance]:
    """Propagate the position with the measured velocity and inflate the
    covariance by the process and velocity-input noise."""
    a, b, d = _require_psd(cov)
    q = params.step_variance
    return dead_reckon(state, velocity, params.step_seconds), (a + q, b, d + q)


def ekf_update(
    state: Position2D,
    cov: Covariance,
    selected: list[Candidate] | tuple[Candidate, ...],
    params: EkfParams,
) -> tuple[Position2D, Covariance]:
    """EKF update over the selected range measurements, one scalar update
    per row. Row j, h_j(x) = ||x - x_j||, is linearised at the predicted
    state x0 as u_j = (x0 - x_j)^T / ||x0 - x_j|| (rows coincident with x0
    are skipped), and its innovation is corrected by -u_j (x - x0). Its
    innovation variance is u_j P u_j^T + range_std^2 + u_j P_j u_j^T, with
    P_j the neighbor's ``shared_cov``."""
    a, b, d = _require_psd(cov)
    x0, y0 = state
    x, y = x0, y0
    r2 = params.range_std**2
    for cand in selected:
        sx, sy = cand.shared_position
        dx, dy = x0 - sx, y0 - sy
        dist = math.hypot(dx, dy)
        if dist < _COINCIDENT:
            continue
        ux, uy = dx / dist, dy / dist
        pu_x, pu_y = a * ux + b * uy, b * ux + d * uy  # P u
        ja, jb, jd = cand.shared_cov
        s = ux * pu_x + uy * pu_y + r2 + (ux * (ja * ux + jb * uy) + uy * (jb * ux + jd * uy))
        gx, gy = pu_x / s, pu_y / s
        innov = cand.measured_range - dist - ux * (x - x0) - uy * (y - y0)
        x, y = x + gx * innov, y + gy * innov
        a, b, d = a - gx * pu_x, b - gx * pu_y, d - gy * pu_y
    return tuple.__new__(Position2D, (x, y)), (a, b, d)


def trilaterate(
    anchors: tuple[Position2D, Position2D, Position2D] | list[Position2D],
    ranges: tuple[float, float, float] | list[float],
) -> tuple[Position2D, float]:
    """Closed-form least-squares fix from three non-collinear anchors.

    Subtracting the first circle equation from the others linearizes the
    system; the 2x2 solve is exact. Returns (position, RMS range residual).
    """
    if len(anchors) != 3 or len(ranges) != 3:
        raise ValueError("trilaterate needs exactly 3 anchors and ranges")
    (x1, y1), (x2, y2), (x3, y3) = anchors
    r1, r2, r3 = ranges
    a11, a12 = 2.0 * (x2 - x1), 2.0 * (y2 - y1)
    a21, a22 = 2.0 * (x3 - x1), 2.0 * (y3 - y1)
    det = a11 * a22 - a12 * a21
    scale = math.hypot(x2 - x1, y2 - y1) * math.hypot(x3 - x1, y3 - y1)
    if abs(det) <= 4e-9 * max(scale, 1.0):
        raise DegenerateGeometryError("anchors are collinear")
    b1 = r1 * r1 - r2 * r2 + x2 * x2 - x1 * x1 + y2 * y2 - y1 * y1
    b2 = r1 * r1 - r3 * r3 + x3 * x3 - x1 * x1 + y3 * y3 - y1 * y1
    x = (b1 * a22 - b2 * a12) / det
    y = (a11 * b2 - a21 * b1) / det
    fix = Position2D(x, y)
    residual = math.sqrt(
        sum(
            (r - math.hypot(x - px, y - py)) ** 2
            for (px, py), r in zip(anchors, ranges)
        )
        / 3.0
    )
    return fix, residual


def bilaterate_with_prior(
    a1: Position2D,
    r1: float,
    a2: Position2D,
    r2: float,
    prior: Position2D,
) -> Position2D:
    """Two-anchor fix: of the two circle intersections, the one nearer the
    prior. Tangent or (nearly) disjoint circles yield the midpoint of their
    nearest approach; concentric anchors are an error."""
    dx, dy = a2.x - a1.x, a2.y - a1.y
    d = math.hypot(dx, dy)
    if d <= 1e-9 * max(r1, r2, 1.0):
        raise DegenerateGeometryError("concentric anchor circles")
    ux, uy = dx / d, dy / d
    along = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    h_sq = r1 * r1 - along * along
    if h_sq > 0.0:
        h = math.sqrt(h_sq)
        fx, fy = a1.x + along * ux, a1.y + along * uy
        p_left = Position2D(fx - h * uy, fy + h * ux)
        p_right = Position2D(fx + h * uy, fy - h * ux)
        dl = math.hypot(p_left.x - prior.x, p_left.y - prior.y)
        dr = math.hypot(p_right.x - prior.x, p_right.y - prior.y)
        return p_left if dl <= dr else p_right
    if d >= r1 + r2:  # circles apart: midpoint of the straight-line gap
        mx = (a1.x + r1 * ux + a2.x - r2 * ux) / 2.0
        my = (a1.y + r1 * uy + a2.y - r2 * uy) / 2.0
    elif r1 >= r2:  # second circle inside the first
        mx = (a1.x + r1 * ux + a2.x + r2 * ux) / 2.0
        my = (a1.y + r1 * uy + a2.y + r2 * uy) / 2.0
    else:  # first circle inside the second
        mx = (a1.x - r1 * ux + a2.x - r2 * ux) / 2.0
        my = (a1.y - r1 * uy + a2.y - r2 * uy) / 2.0
    return Position2D(mx, my)
