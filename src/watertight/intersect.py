"""Surface-surface intersection data.

Marches one intersection branch between two Bezier surfaces, interpolates
the space curve and the two domain curves through the marched points and
their parameter pairs, lifts domain curves back onto the surfaces, and
measures the gap between an approximate intersection curve and a surface.
Each interpolant is written as one stack of cubic control polygons (a
single linear one through two points); a domain curve's stack is clamped
into [0,1]^2 as a whole.

The march has one solver, `_match`: Gauss-Newton on S1(u1, v1) - S2(u2, v2),
with an optional step-plane row and fixed parameters.  It corrects the seed
candidates, each marching step and the finish on a domain edge.  Each of
its iterations evaluates each surface once, point and both partials from
one de Casteljau pass, and solves the square step-plane system directly
(least squares only for the 3-row systems and a singular square one).
Each step starts from the tangent predictor, one closed-form 2x2 solve per
side.  A step whose correction fails inside both domains, or that lands
back on the marched branch, raises LostBranchError instead of ending the
branch there.  Only one branch is marched; a converged seed candidate far
from it is logged as a dropped branch.  Seeding pairs grid points by
`_nearest`, a brute-force search that shortlists targets by one matrix
product per block and sums exact squared distances only on the shortlist.
Closest points on one surface come from the separate batched
`invert_points`.

All three curves share one global parameterization (normalized 3D chord
length, breakpoints at the intersection points) so the k-th breakpoint of
the space curve and of both domain curves names the same intersection point.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .bezier import (
    BezierSurface,
    PiecewiseBezierCurve,
    _dot,
    evaluate_pointwise,
    evaluate_stacked,
)
from .errors import LostBranchError, NoIntersectionError

log = logging.getLogger(__name__)

_NEWTON_MAX_ITER = 50
_PARAM_TOL = 1e-12
_POINT_TOL = 1e-14
# Points marched in each direction before a branch is cut off.
_MAX_MARCH_POINTS = 4000
# Samples per curve segment of the lifted domain polylines.
_LIFT_SAMPLES = 40
# Points per block of a `_nearest` search: a (64, 1024) block of shortlist
# keys is 0.5 MB.  The shortlist slop, in units of |a|^2 + 2 max |b|^2, is
# 64 eps: the rounding of the keys |b|^2 - 2 a.b and of the exact sums
# stays below about 15 eps of that.
_NEAREST_BLOCK = 64
_NEAREST_SLOP = 64 * np.finfo(float).eps


@dataclass(eq=False)
class IntersectionPoint:
    """A 3D intersection point with its parameter pairs on both surfaces."""

    position: np.ndarray
    params_a: np.ndarray
    params_b: np.ndarray
    residual_a: float
    residual_b: float

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.params_a = np.asarray(self.params_a, dtype=float)
        self.params_b = np.asarray(self.params_b, dtype=float)


@dataclass(eq=False)
class IntersectionData:
    """Intersection points plus the interpolated space and domain curves.

    ``lifted_a``/``lifted_b`` are dense polylines of the domain curves mapped
    through their surfaces; they lie exactly on the surfaces by construction.
    """

    points: list
    curve_c: PiecewiseBezierCurve
    domain_curve_a: PiecewiseBezierCurve
    domain_curve_b: PiecewiseBezierCurve
    lifted_a: np.ndarray
    lifted_b: np.ndarray
    closed: bool = False


@dataclass(eq=False)
class GapReport:
    """Distance statistics between a curve and a surface."""

    max_gap: float
    rms_gap: float
    sample_count: int
    worst_point: np.ndarray = field(default_factory=lambda: np.zeros(3))
    flagged: int = 0

    def __post_init__(self):
        self.worst_point = np.asarray(self.worst_point, dtype=float)
        if self.rms_gap > self.max_gap + 1e-15:
            raise ValueError("rms gap cannot exceed max gap")


# ---------------------------------------------------------------------------
# Point inversion
# ---------------------------------------------------------------------------

def invert_points(nets: np.ndarray, points: np.ndarray, seeds: np.ndarray):
    """Closest parameters on P stacked nets of one shape, by Gauss-Newton.

    `nets` is (P, m+1, n+1, 3); `points` (P, K, 3) and `seeds` (P, K, 2)
    hold net p's K samples.  Each iteration solves the 2x2 normal equations,
    damped by 1e-10 of each diagonal term (Marquardt's scaling, so a nearly
    collapsed direction still takes its full step) plus 1e-30 of their trace
    (so an exactly collapsed one takes none and does not freeze the other),
    and clamps (u, v) into [0,1]^2.  A parameter on an edge of the square
    whose step leaves it is held there and the other one is solved alone,
    so the iteration finds the closest point along that edge.  Each sample
    stops on its own, keeping the parameters it was evaluated at, once its
    clamped update is below 1e-12 or moves the surface point by less than
    1e-14; only the samples still running are updated, so a sample's result
    does not depend on the rest of its batch.

    Returns (uv, distance, converged): (P, K, 2), (P, K) and (P, K) arrays,
    distance = |S(uv) - point| by `evaluate_stacked`.  A sample still moving
    after 50 iterations keeps its last evaluated parameters, unconverged.
    """
    nets = np.asarray(nets, dtype=float)
    points = np.asarray(points, dtype=float)
    uv = np.clip(np.asarray(seeds, dtype=float), 0.0, 1.0)
    distance = np.zeros(uv.shape[:2])
    converged = np.zeros(uv.shape[:2], dtype=bool)
    running = np.ones(uv.shape[:2], dtype=bool)
    for iteration in range(_NEWTON_MAX_ITER):
        live = np.flatnonzero(running.any(axis=1))
        if live.shape[0] == 0:
            break
        act = running[live]
        params = uv[live]
        value, su, sv = evaluate_stacked(nets[live], params)
        r = value - points[live]
        distance[live] = np.where(act, np.sqrt(_dot(r, r)), distance[live])
        a, b, c = _dot(su, su), _dot(su, sv), _dot(sv, sv)
        g1, g2 = _dot(su, r), _dot(sv, r)
        trace = a + c
        a = a * (1.0 + 1e-10) + 1e-30 * trace
        c = c * (1.0 + 1e-10) + 1e-30 * trace
        det = a * c - b * b
        step = np.stack([_ratio(b * g2 - c * g1, det), _ratio(b * g1 - a * g2, det)], axis=-1)
        # A parameter on the square's edge whose step leaves it is held, and
        # the other one minimizes alone along that edge.
        hold = ((params == 0.0) & (step < 0.0)) | ((params == 1.0) & (step > 0.0))
        edge_step = np.stack([np.where(hold[..., 1], _ratio(-g1, a), step[..., 0]),
                              np.where(hold[..., 0], _ratio(-g2, c), step[..., 1])], axis=-1)
        step = np.where(hold, 0.0, edge_step)
        du = np.clip(params + step, 0.0, 1.0) - params
        moved = su * du[..., :1] + sv * du[..., 1:]
        done = act & (
            (np.sqrt(_dot(du, du)) < _PARAM_TOL) | (np.sqrt(_dot(moved, moved)) < _POINT_TOL)
        )
        converged[live] |= done
        act &= ~done
        running[live] = act
        if iteration + 1 < _NEWTON_MAX_ITER:
            uv[live] = np.where(act[..., None], params + du, params)
    return uv, distance, converged


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, with a zero denominator (no curvature at all) giving 0."""
    return num / np.where(den == 0.0, np.inf, den)


def _nearest(points: np.ndarray, targets: np.ndarray):
    """Each of (K, 3) points' nearest of (T, 3) targets, by brute force.

    Returns (index, d2): (K,) the index of the nearest target, the first
    one on a tie, and (K,) its squared distance, the squared coordinate
    differences summed over x, y and z in that order.  Points are taken in
    blocks of `_NEAREST_BLOCK`, so the temporaries stay small however many
    points there are.  One matrix product per block gives |b|^2 - 2 a.b
    for every pair, which orders the targets as |a - b|^2 does up to
    rounding; only the targets within `_NEAREST_SLOP` of a point's
    smallest value, which always include its exact nearest ones, get the
    exact sum.
    """
    index = np.empty(points.shape[0], dtype=np.intp)
    d2min = np.empty(points.shape[0])
    lifted = np.vstack([-2.0 * targets.T, _dot(targets, targets)])
    scale = 2.0 * lifted[3].max(initial=0.0)
    for start in range(0, points.shape[0], _NEAREST_BLOCK):
        block = points[start:start + _NEAREST_BLOCK]
        rows = np.arange(block.shape[0])
        approx = np.hstack([block, np.ones((rows.shape[0], 1))]) @ lifted
        best = np.argmin(approx, axis=1)
        reach = approx[rows, best] + 2.0 * _NEAREST_SLOP * (_dot(block, block) + scale)
        approx[rows, best] = np.inf
        # Most points shortlist one target.  The others take their
        # shortlist sorted by row, then distance, then index, whose first
        # entry per row is the nearest target, the first one on a tie.
        tied = np.flatnonzero(approx.min(axis=1) <= reach)
        approx[tied, best[tied]] = -np.inf
        rows_t, cols = np.nonzero(approx[tied] <= reach[tied, None])
        rows_t = tied[rows_t]
        d2 = sum((targets[cols, k] - block[rows_t, k]) ** 2 for k in range(3))
        order = np.lexsort((cols, d2, rows_t))
        first = order[np.flatnonzero(np.diff(rows_t[order], prepend=-1))]
        best[rows_t[first]] = cols[first]
        index[start + rows] = best
        d2min[start + rows] = sum((targets[best, k] - block[:, k]) ** 2 for k in range(3))
    return index, d2min


def _grid_argmin(surface: BezierSurface, points: np.ndarray, grid: int) -> np.ndarray:
    """(K, 2) parameters of the grid x grid lattice point nearest each of (K, 3) points."""
    ts = np.linspace(0.0, 1.0, grid)
    lattice = surface.evaluate_grid(ts, ts).reshape(-1, 3)
    i, j = np.divmod(_nearest(points, lattice)[0], grid)
    return np.stack([ts[i], ts[j]], axis=1)


# ---------------------------------------------------------------------------
# Marching
# ---------------------------------------------------------------------------

def _match(s1: BezierSurface, s2: BezierSurface, q, fixed=None, plane=None):
    """Gauss-Newton on F = S1(q[:2]) - S2(q[2:]) from a 4-parameter start.

    Each iteration evaluates each surface and its partials in one pass
    (`BezierSurface.evaluate_with_partials`).  With `plane` = (n, p), F
    gets the extra row n.(S1 - p).  Each step is the minimum-norm
    least-squares step over the free parameters, as if a `fixed`
    parameter's Jacobian column were zeroed; it is solved without those
    columns, so a fixed parameter keeps its bits.  A square system (the
    step plane, nothing fixed) is solved directly, and by least squares
    only when it is singular.  q is clamped into [0,1]^4 after each step,
    and the solve stops once the clamped update is below 1e-12, or after
    50 steps.

    Returns (q, |F|, (S1u, S1v, S2u, S2v), (S1, S2)): the residual, plane
    row included, the partials and the two surface points are evaluated at
    the returned q.
    """
    q = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
    free = None if fixed is None else ~np.asarray(fixed, dtype=bool)
    rows = 3 if plane is None else 4
    update = np.inf
    for iteration in range(_NEWTON_MAX_ITER + 1):
        p1, su1, sv1 = s1.evaluate_with_partials(q[0], q[1])
        p2, su2, sv2 = s2.evaluate_with_partials(q[2], q[3])
        f = np.empty(rows)
        f[:3] = p1 - p2
        jac = np.zeros((rows, 4))
        jac[:3] = np.array([su1, sv1, -su2, -sv2]).T
        if plane is not None:
            normal, point = plane
            f[3] = normal @ (p1 - point)
            jac[3, :2] = normal @ su1, normal @ sv1
        if update < _PARAM_TOL or iteration == _NEWTON_MAX_ITER:
            break
        if free is None:
            step = _least_squares_step(jac, -f)
        else:
            step = np.zeros(4)
            step[free] = _least_squares_step(jac[:, free], -f)
        new_q = np.clip(q + step, 0.0, 1.0)
        update = np.linalg.norm(new_q - q)
        q = new_q
    return q, float(np.linalg.norm(f)), (su1, sv1, su2, sv2), (p1, p2)


def _least_squares_step(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution; a square system is solved
    directly unless it is singular."""
    if jac.shape[0] == jac.shape[1]:
        try:
            return np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(jac, rhs, rcond=None)[0]


def _make_point(q, surface_points) -> IntersectionPoint:
    p1, p2 = surface_points
    position = 0.5 * (p1 + p2)
    return IntersectionPoint(
        position=position,
        params_a=q[:2].copy(),
        params_b=q[2:].copy(),
        residual_a=float(np.linalg.norm(p1 - position)),
        residual_b=float(np.linalg.norm(p2 - position)),
    )


def _unit_normal(su: np.ndarray, sv: np.ndarray) -> np.ndarray:
    n = _cross(su, sv)
    norm = np.linalg.norm(n)
    return n if norm == 0.0 else n / norm


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors, by the same products, without its overhead."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _march_direction(s1, s2, q, partials, direction, step, tol, start_pos):
    """March from q along +-direction; returns (points, closed).

    Each step corrects onto the plane through prev_pos + step * d normal to
    the tangent d, starting from the tangent predictor; a step the domain
    cuts off is finished on the edge with the exited parameters fixed.  A
    finish that ends on neither domain's edge raises LostBranchError: the
    branch goes on there, and the step plane missed it (a step too large
    for the curve's curvature).  So does a point within 0.6 * step of the
    start or of any earlier point but its predecessor, unless it closes the
    loop: the march has doubled back onto the branch.
    """
    points = []
    # The start, then each marched point's position.
    positions = np.empty((_MAX_MARCH_POINTS + 1, 3))
    positions[0] = start_pos
    prev_pos = s1.evaluate(q[0], q[1])
    prev_dir = None
    for _ in range(_MAX_MARCH_POINTS):
        d = _cross(_unit_normal(*partials[:2]), _unit_normal(*partials[2:]))
        norm = np.linalg.norm(d)
        if norm < 1e-10:
            log.warning("tangential contact; truncating intersection branch")
            break
        d = direction * d / norm
        if prev_dir is not None and d @ prev_dir < 0:
            d = -d
        predicted = np.clip(_predict(q, d, step, partials), 0.0, 1.0)
        new_q, residual, new_partials, values = _match(s1, s2, predicted, plane=(d, prev_pos + step * d))
        if residual > tol:
            fixed = (predicted == 0.0) | (predicted == 1.0)
            bq, residual, _, values = _match(s1, s2, predicted, fixed=fixed)
            if residual <= tol:
                if not np.any((bq == 0.0) | (bq == 1.0)):
                    raise LostBranchError(
                        f"march step {step:g} lost the intersection branch inside the "
                        f"domain: the correction of step {len(points) + 1} found no "
                        "point on its step plane; a smaller march_step follows the branch"
                    )
                end = _make_point(bq, values)
                gap = np.linalg.norm(end.position - prev_pos)
                if points and gap < 0.5 * step:
                    points[-1] = end
                elif gap > 1e-9:
                    points.append(end)
            break
        q, partials = new_q, new_partials
        pt = _make_point(q, values)
        if len(points) >= 4 and np.linalg.norm(pt.position - start_pos) < 0.6 * step:
            return points, True
        earlier = positions[:len(points)] - pt.position
        if np.any(np.sqrt(_dot(earlier, earlier)) < 0.6 * step):
            raise LostBranchError(
                f"march step {step:g} revisited the intersection branch: step "
                f"{len(points) + 1} landed within 0.6 steps of an earlier point; "
                "a smaller march_step follows the branch"
            )
        points.append(pt)
        positions[len(points)] = pt.position
        prev_dir = d
        prev_pos = pt.position
    return points, False


def _predict(q, d, step, partials):
    """Tangent predictor: each side's least-squares parameter step for step * d.

    Each side solves its 2x2 normal equations in closed form; a side whose
    partials are parallel takes no step.
    """
    out = np.array(q, dtype=float)
    for k in (0, 2):
        su, sv = partials[k], partials[k + 1]
        a, b, c = su @ su, su @ sv, sv @ sv
        g1, g2 = step * (su @ d), step * (sv @ d)
        det = a * c - b * b
        if det > 0.0:
            out[k] += (c * g1 - b * g2) / det
            out[k + 1] += (a * g2 - b * g1) / det
    return out


def march_intersection(s1: BezierSurface, s2: BezierSurface, step: float,
                       tol: float) -> list:
    """Ordered intersection points along one branch.

    Corrects the 8 closest pairs of a coarse-grid proximity search (each
    grid point of s1 against every grid point of s2, by `_nearest`) with
    `_match`, the one Gauss-Newton solver of the march, and seeds from the
    first that converges.  Then steps along the cross product of the
    surface normals, correcting each step with `_match` on a step plane and
    finishing a step the domain cuts off with `_match` on the edge.  Logs a
    warning when a converged candidate lies farther than `step` from every
    marched point: that branch is dropped.  Closed loops return with the
    first point repeated at the end.  Returns [] when no seed converges.

    The candidates are taken in order of grid distance, and on a symmetric
    pair (a level circle, a mirror) many of those distances tie exactly and
    are ordered by their rounding.  So the start point depends on the grid's
    bits: grids from Bernstein matrix products, within 3.3e-16 of
    `evaluate_grid`'s, move it by 0.14 to 0.42 on those cases.
    """
    if step <= 0 or tol <= 0:
        raise ValueError("step and tol must be positive")
    grid = min(max(int(np.ceil(2.0 / step)), 8), 32)
    ts = np.linspace(0.0, 1.0, grid)
    pts1 = s1.evaluate_grid(ts, ts).reshape(-1, 3)
    pts2 = s2.evaluate_grid(ts, ts).reshape(-1, 3)
    nearest, d2min = _nearest(pts1, pts2)
    dist = np.sqrt(d2min)
    order = np.argsort(dist)

    candidates = []
    for idx in order[:8]:
        i1, j1 = divmod(int(idx), grid)
        i2, j2 = divmod(int(nearest[idx]), grid)
        q, residual, partials, values = _match(s1, s2, [ts[i1], ts[j1], ts[i2], ts[j2]])
        if residual <= tol:
            candidates.append((q, partials, values))
    if not candidates:
        return []

    seed, partials, values = candidates[0]
    start = _make_point(seed, values)
    forward, closed = _march_direction(s1, s2, seed, partials, +1.0, step, tol, start.position)
    if closed:
        chain = [start] + forward + [_make_point(seed, values)]
    else:
        backward, _ = _march_direction(s1, s2, seed, partials, -1.0, step, tol, start.position)
        chain = list(reversed(backward)) + [start] + forward
    others = np.array([_make_point(q, v).position for q, _, v in candidates[1:]])
    if others.shape[0]:
        gap = float(np.sqrt(_nearest(others, np.array([p.position for p in chain]))[1].max()))
        if gap > step:
            log.warning("a converged seed lies %.3g from the marched branch; "
                        "another branch was dropped", gap)
    return chain


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

def _chord_parameters(points: np.ndarray) -> np.ndarray:
    chords = np.linalg.norm(np.diff(points, axis=0), axis=1)
    if np.any(chords <= 0.0):
        raise ValueError("coincident consecutive interpolation points")
    w = np.concatenate([[0.0], np.cumsum(chords)])
    w = w / w[-1]
    w[0], w[-1] = 0.0, 1.0
    return w


def _three_point_tangents(points: np.ndarray, w: np.ndarray, closed: bool) -> np.ndarray:
    """Tangents w.r.t. the global parameter: parabola rule through each point
    triple with arc-corrected magnitude; parabolic one-sided rule at open ends.

    The three-point rule underestimates |T| by sin(theta)/theta on an arc
    turning by theta per chord; the factor theta/sin(theta) cancels that
    exactly and is 1 for collinear chords (theta < 1e-8) or a zero chord.
    Row dots and norms are stacked matmuls, which give the bits of one
    vector's `@` and `np.linalg.norm`.
    """
    tangents = np.zeros_like(points)
    h = np.diff(w)
    delta = np.diff(points, axis=0) / h[:, None]
    # Chord pairs meeting at the interior points, then at the seam.
    d0, d1, h0, h1 = delta[:-1], delta[1:], h[:-1], h[1:]
    if closed:
        d0, d1 = np.vstack([d0, delta[-1:]]), np.vstack([d1, delta[:1]])
        h0, h1 = np.append(h0, h[-1]), np.append(h1, h[0])
    bessel = (h1[:, None] * d0 + h0[:, None] * d1) / (h0 + h1)[:, None]
    dot = lambda a, b: (a[:, None, :] @ b[:, :, None])[:, 0, 0]  # noqa: E731
    n0, n1 = np.sqrt(dot(d0, d0)), np.sqrt(dot(d1, d1))
    zero = (n0 == 0.0) | (n1 == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.arccos(np.clip(dot(d0, d1) / (n0 * n1), -1.0, 1.0))
        factor = np.where(zero | (theta < 1e-8), 1.0, theta / np.sin(theta))
    bessel = bessel * factor[:, None]
    tangents[1:-1] = bessel[:points.shape[0] - 2]
    if closed:
        tangents[0] = tangents[-1] = bessel[-1]
    else:
        tangents[0] = 2.0 * delta[0] - tangents[1]
        tangents[-1] = 2.0 * delta[-1] - tangents[-2]
    return tangents


def _hermite_polygons(points, tangents, w) -> np.ndarray:
    """(S, 4, dim) cubic control polygons of the Hermite data over breakpoints w."""
    third = np.diff(w)[:, None] / 3.0
    return np.stack([points[:-1], points[:-1] + tangents[:-1] * third,
                     points[1:] - tangents[1:] * third, points[1:]], axis=1)


def interpolate_space_curve(points) -> PiecewiseBezierCurve:
    """C1 piecewise-cubic interpolant through the points (chord-length params).

    Two points yield a single linear segment.  A closed chain (first point
    repeated at the end) gets a periodic tangent at the seam.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two interpolation points")
    if pts.shape[0] == 2:
        return PiecewiseBezierCurve(pts[None].copy(), np.array([0.0, 1.0]))
    w = _chord_parameters(pts)
    closed = bool(np.linalg.norm(pts[0] - pts[-1]) <= 1e-12)
    tangents = _three_point_tangents(pts, w, closed)
    return PiecewiseBezierCurve(_hermite_polygons(pts, tangents, w), w)


def interpolate_domain_curve(params, breakpoints=None) -> PiecewiseBezierCurve:
    """2D interpolant through parameter pairs, clamped into [0,1]^2.

    When ``breakpoints`` is given (the space curve's parameterization) it is
    used instead of the 2D chord lengths, keeping breakpoints aligned across
    the space and domain curves.
    """
    pts = np.asarray(params, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
        raise ValueError("need at least two 2D parameter pairs")
    if pts.shape[0] == 2:
        return PiecewiseBezierCurve(pts[None].copy(), np.array([0.0, 1.0]))
    w = np.array(breakpoints, dtype=float) if breakpoints is not None else _chord_parameters(pts)
    closed = bool(np.linalg.norm(pts[0] - pts[-1]) <= 1e-12)
    tangents = _three_point_tangents(pts, w, closed)
    return PiecewiseBezierCurve(np.clip(_hermite_polygons(pts, tangents, w), 0.0, 1.0), w)


def lift_domain_curve(surface: BezierSurface, curve: PiecewiseBezierCurve,
                      samples: int) -> np.ndarray:
    """Sample the domain curve and map each point through the surface
    (`evaluate_pointwise`)."""
    if samples < 2:
        raise ValueError("need at least two samples")
    uv = np.clip(curve.evaluate_many(np.linspace(0.0, 1.0, samples)), 0.0, 1.0)
    return evaluate_pointwise(surface.control_net, uv)


# ---------------------------------------------------------------------------
# Gap measurement
# ---------------------------------------------------------------------------

def measure_gap(curve: PiecewiseBezierCurve, surface: BezierSurface,
                samples: int, seed_curve: PiecewiseBezierCurve | None = None) -> GapReport:
    """Max/rms distance from uniform curve samples to the surface.

    Inversion is seeded from the matching domain-curve parameter when given
    (the curves share their parameterization), else from a coarse grid; a
    failed inversion falls back to a dense grid search and flags the sample.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    ts = np.linspace(0.0, 1.0, samples)
    points = curve.evaluate_many(ts)
    if seed_curve is not None:
        seeds = np.clip(seed_curve.evaluate_many(ts), 0.0, 1.0)
    else:
        seeds = _grid_argmin(surface, points, 33)
    _, dist, converged = invert_points(surface.control_net[None], points[None], seeds[None])
    distances = dist[0]
    failed = np.flatnonzero(~converged[0])
    if failed.size:
        for k, uv in zip(failed, _grid_argmin(surface, points[failed], 129)):
            distances[k] = np.linalg.norm(surface.evaluate(uv[0], uv[1]) - points[k])
    return GapReport(
        max_gap=float(distances.max()),
        rms_gap=float(np.sqrt(np.mean(distances**2))),
        sample_count=samples,
        worst_point=points[int(np.argmax(distances))],
        flagged=int(failed.shape[0]),
    )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def build_intersection_data(s1: BezierSurface, s2: BezierSurface, step: float,
                            tol: float) -> IntersectionData:
    """March, interpolate, and lift: the full intersection record."""
    points = march_intersection(s1, s2, step, tol)
    if len(points) < 2:
        raise NoIntersectionError("no intersection branch found")
    positions = np.array([p.position for p in points])
    params_a = np.array([p.params_a for p in points])
    params_b = np.array([p.params_b for p in points])
    curve_c = interpolate_space_curve(positions)
    domain_a = interpolate_domain_curve(params_a, breakpoints=curve_c.breakpoints)
    domain_b = interpolate_domain_curve(params_b, breakpoints=curve_c.breakpoints)
    n_lift = _LIFT_SAMPLES * curve_c.polygons.shape[0] + 1
    closed = bool(np.linalg.norm(positions[0] - positions[-1]) <= 1e-12)
    return IntersectionData(
        points=points,
        curve_c=curve_c,
        domain_curve_a=domain_a,
        domain_curve_b=domain_b,
        lifted_a=lift_domain_curve(s1, domain_a, n_lift),
        lifted_b=lift_domain_curve(s2, domain_b, n_lift),
        closed=closed,
    )
