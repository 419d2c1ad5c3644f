"""Bernstein/Bezier algebra.

Curves and tensor-product surfaces over the standard [0,1] domains:
de Casteljau evaluation and subdivision, subpatch extraction, degree
elevation and least-squares reduction, monomial-to-Bernstein conversion,
and the curved-trapezoid reparameterization (s, t) -> (s*f(t), t) that
turns a trapezoid-domain restriction of a surface into a standard patch.

A piecewise curve is one (S, d+1, dim) array of control polygons, all of
one degree, over S+1 breakpoints; its producers write that array and its
consumers index it, with no per-segment curve object in between.

All arithmetic is double precision.  The composition works in the
Bernstein basis only: it multiplies Bernstein polynomials by the product
rule, and only f, which is kept in monomial form, is converted on the way
in.  When f's Bernstein coefficients lie in [0, 1], every step sums terms
with nonnegative weights, and the composed patch matches
surface(s*f(t), t) to about 2e-15 of the net's scale at every degree up
to the caps.

Evaluation kernels.  Each one stays for a measured reason (times for
bicubic nets, numpy 2.4 on a 2-core Xeon):

* `de_casteljau` and the batched `de_casteljau_many`, with
  `evaluate_pointwise` their tensor form for surfaces: `evaluate_grid`
  keeps these bits.  The march seed breaks ties among exactly symmetric
  grid distances by their rounding, so other bits move the marched
  chain's start point.
* `BezierSurface.evaluate_with_partials`, the one scalar tensor pass, and
  `evaluate` its value: 19 us a point, against 64 us through
  `evaluate_stacked`.
* `evaluate_stacked` (and `evaluate_many`): batched values and partials at
  scattered parameters, for point inversion.
* `evaluate_grid_products`: values and partials on a uniform grid by
  cached Bernstein matrices, 0.97 ms for 32 nets on 21 x 21 against
  9.3 ms through `evaluate_stacked`; it only bounds the stitch deviation.

No seam claim depends on any of these bits: the seam check compares the
control rows.  `quadratic_roots` is the one root search, for curve
turning points and boundary polynomial ranges.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, ReductionError, UnsupportedDegreeError

# Composed patches have bidegree (m, m*p + n); these caps bound that size.
MAX_SURFACE_DEGREE = 10
MAX_BOUNDARY_DEGREE = 3

_UNIT_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Bernstein basis and de Casteljau primitives
# ---------------------------------------------------------------------------

def all_bernstein(degree: int, x) -> np.ndarray:
    """All degree-`degree` Bernstein basis values at x, by the stable recurrence.

    x may be a scalar, giving shape (degree+1,), or an array of shape S,
    giving S + (degree+1,).  Every entry takes the scalar recurrence's
    operations in the same order.
    """
    if degree < 0:
        raise IndexError("degree must be non-negative")
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    u = 1.0 - flat
    vals = np.empty((degree + 1, flat.shape[0]))
    vals[0] = 1.0
    for j in range(1, degree + 1):
        # Level j from level j-1, in place: B_k <- u*B_k + x*B_{k-1}.
        vals[j] = flat * vals[j - 1]
        shifted = flat * vals[:j - 1]
        vals[:j] *= u
        vals[1:j] += shifted
    return vals.T.reshape(x.shape + (degree + 1,))


def de_casteljau(points: np.ndarray, t: float) -> np.ndarray:
    """Evaluate the Bezier combination of a control polygon at t.

    Exact endpoint selection: t == 0.0 and t == 1.0 return the first/last
    control point bitwise, which stitched-boundary evaluation relies on.
    """
    pts = np.asarray(points, dtype=float)
    if t == 0.0:
        return pts[0].copy()
    if t == 1.0:
        return pts[-1].copy()
    while pts.shape[0] > 1:
        pts = (1.0 - t) * pts[:-1] + t * pts[1:]
    return pts[0]


def de_casteljau_many(points: np.ndarray, ts) -> np.ndarray:
    """Evaluate Bezier polygons at K parameters at once; returns (K, dim).

    `points` is one (n+1, dim) polygon shared by every parameter, or a
    (K, n+1, dim) stack holding one polygon per parameter.  Each sample
    takes the same operations as `de_casteljau`, including the exact
    endpoint selection at t == 0.0 and t == 1.0.
    """
    pts = np.asarray(points, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if pts.ndim == 2:
        return _de_casteljau_columns(pts[:, :, None], ts)
    return _de_casteljau_columns(np.moveaxis(pts, 0, -1).copy(), ts)


def _de_casteljau_columns(columns: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """`de_casteljau_many` on polygons laid out (n+1, dim, K), or (n+1, dim, 1)
    for one shared polygon; returns (K, dim).

    The samples run along the last axis, so each step works on long
    contiguous rows rather than on rows of dim values.
    """
    first, last = columns[0], columns[-1]
    pts = columns
    while pts.shape[0] > 1:
        pts = (1.0 - ts) * pts[:-1] + ts * pts[1:]
    out = np.where(ts == 0.0, first, pts[0])
    return np.where(ts == 1.0, last, out).T


def de_casteljau_split(points: np.ndarray, t: float):
    """Subdivide a control polygon at t; returns (left, right) polygons.

    Works along axis 0 of an array of any rank, so a (m+1, n+1, 3) net
    splits in u.  The one-polygon case of `_split_rows`.
    """
    left, right = _split_rows(np.asarray(points, dtype=float)[None], np.array([t], dtype=float))
    return left[0], right[0]


def _split_rows(pts: np.ndarray, t: np.ndarray):
    """(left, right) parts of R stacked polygons (R, d+1, ...) split along
    axis 1 at per-row parameters t, (R,): the first and the last point of
    each de Casteljau level."""
    t = t.reshape((-1,) + (1,) * (pts.ndim - 1))
    left, right = np.empty_like(pts), np.empty_like(pts)
    left[:, 0], right[:, -1] = pts[:, 0], pts[:, -1]
    count = pts.shape[1]
    for k in range(1, count):
        pts = (1.0 - t) * pts[:, :-1] + t * pts[:, 1:]
        left[:, k], right[:, count - 1 - k] = pts[:, 0], pts[:, -1]
    return left, right


def _subsegment_polygon(points: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Control polygons of R restrictions to [t0, t1], each mapped onto [0,1].

    `points` is (R, d+1, ...), restricted along axis 1 with row r's
    (t0[r], t1[r]).  A row is split only where its t0 > 0 (keeping the
    right part) and where its rescaled t1 < 1 (keeping the left part);
    elsewhere its points keep their bits, signed zeros included.
    """
    pts = np.asarray(points, dtype=float)
    t0, t1 = (np.asarray(t, dtype=float).reshape((-1,) + (1,) * (pts.ndim - 1)) for t in (t0, t1))
    pts = np.where(t0 > 0.0, _split_rows(pts, t0)[1], pts)
    t1 = (t1 - t0) / (1.0 - t0)
    return np.where(t1 < 1.0, _split_rows(pts, t1)[0], pts)


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BezierCurve:
    """A Bezier curve of degree len(control_points) - 1, in 2D or 3D."""

    control_points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.control_points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("control_points must be a (degree+1, dim) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("control points must be finite")
        self.control_points = pts

    @property
    def degree(self) -> int:
        return self.control_points.shape[0] - 1


def _elevate_axis0(points: np.ndarray, target: int) -> np.ndarray:
    """Elevate Bernstein coefficients along axis 0 to degree `target`; a copy.

    Works on arrays of any rank, one degree step at a time:
    new_i = a*p_{i-1} + (1-a)*p_i with a = i/(d+1).
    """
    pts = np.array(points, dtype=float)
    if target < pts.shape[0] - 1:
        raise ValueError(f"target degree {target} below current {pts.shape[0] - 1}")
    while pts.shape[0] - 1 < target:
        d = pts.shape[0] - 1
        a = (np.arange(1, d + 1) / (d + 1)).reshape((-1,) + (1,) * (pts.ndim - 1))
        new = np.empty((d + 2,) + pts.shape[1:])
        new[0] = pts[0]
        new[-1] = pts[-1]
        new[1:-1] = a * pts[:-1] + (1.0 - a) * pts[1:]
        pts = new
    return pts


# Polygons per check product in `degree_reduce_many`: the 257 samples of
# 64 three-dimensional rows take about 0.4 MB.
_REDUCE_BATCH = 64


@lru_cache(maxsize=None)
def _reduction_matrices(degree: int, target: int):
    """Read-only (fit, check) matrices of the reduction from `degree` to `target`.

    `fit` (target+1, degree+1) maps a polygon to its least-squares reduction
    over max(10*degree, 4*(target+1)) uniform samples, with both endpoints
    interpolated (the mean at target 0).  `check` (257, degree+1) maps it to
    the difference between the curve and its reduction at 257 uniform
    parameters.
    """
    ts = np.linspace(0.0, 1.0, max(10 * degree, 4 * (target + 1)))
    high = all_bernstein(degree, ts)
    fit = np.zeros((target + 1, degree + 1))
    if target == 0:
        fit[0] = high.mean(axis=0)
    else:
        fit[0, 0] = fit[-1, -1] = 1.0
    if target >= 2:
        low = all_bernstein(target, ts)
        high[:, 0] -= low[:, 0]
        high[:, -1] -= low[:, -1]
        fit[1:-1] = np.linalg.pinv(low[:, 1:-1]) @ high
    dense = np.linspace(0.0, 1.0, 257)
    check = all_bernstein(degree, dense) - all_bernstein(target, dense) @ fit
    fit.flags.writeable = False
    check.flags.writeable = False
    return fit, check


def degree_reduce_many(polygons: np.ndarray, target: int):
    """Least-squares degree reduction of R stacked polygons of one degree.

    `polygons` is (R, n+1, dim).  Returns the reduced (R, target+1, dim)
    polygons and each one's deviation, the largest distance from its curve
    at 257 uniform parameters.  Both are products with matrices cached per
    (n, target), taken over fixed batches of rows; endpoints are selected
    by unit rows, so a reduction to target >= 1 keeps them exactly.
    """
    polygons = np.asarray(polygons, dtype=float)
    degree = polygons.shape[1] - 1
    if not 0 <= target < degree:
        raise ValueError(f"target degree {target} not below current {degree}")
    fit, check = _reduction_matrices(degree, target)
    reduced = fit @ polygons
    deviation = np.empty(polygons.shape[0])
    for k in range(0, polygons.shape[0], _REDUCE_BATCH):
        gaps = check @ polygons[k:k + _REDUCE_BATCH]
        deviation[k:k + _REDUCE_BATCH] = np.linalg.norm(gaps, axis=2).max(axis=1)
    return reduced, deviation


def degree_reduce_curve(curve: BezierCurve, target: int, tol: float) -> BezierCurve:
    """Least-squares degree reduction with interpolated endpoints.

    The one-curve case of `degree_reduce_many`; raises ReductionError
    carrying the achieved deviation when it exceeds tol.
    """
    reduced, deviation = degree_reduce_many(curve.control_points[None], target)
    if deviation[0] > tol:
        raise ReductionError(
            f"cannot reduce degree {curve.degree} curve to {target} within {tol:.3e}",
            float(deviation[0]),
        )
    return BezierCurve(reduced[0])


@dataclass(eq=False)
class PiecewiseBezierCurve:
    """Bezier segments of one degree chained over strictly increasing
    breakpoints in [0,1].

    `polygons` is one (S, d+1, dim) array: row k is segment k's control
    polygon, and adjacent rows share their junction point exactly.  The
    global parameter spans [0,1], and segment k covers breakpoints k and
    k+1.  The stack is not modified after construction: the batched
    evaluators lay it out once as (d+1, dim, S) columns and keep them.
    `segments` builds per-segment `BezierCurve` views of the rows; it stays
    for the benchmark's output checks, which read curves segment by
    segment, and nothing in the package calls it.
    """

    polygons: np.ndarray
    breakpoints: np.ndarray

    def __post_init__(self):
        polygons = np.asarray(self.polygons, dtype=float)
        bp = np.asarray(self.breakpoints, dtype=float)
        if polygons.ndim != 3 or 0 in polygons.shape:
            raise ValueError("polygons must be an (S, degree+1, dim) array")
        if not np.all(np.isfinite(polygons)):
            raise ValueError("control points must be finite")
        if bp.ndim != 1 or bp.shape[0] != polygons.shape[0] + 1:
            raise ValueError("need one more breakpoint than segments")
        if not (bp[0] == 0.0 and bp[-1] == 1.0):
            raise ValueError("global parameter must span [0, 1]")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.array_equal(polygons[:-1, -1], polygons[1:, 0]):
            raise ValueError("adjacent segments must share their junction point")
        self.polygons = polygons
        self.breakpoints = bp

    @property
    def degree(self) -> int:
        return self.polygons.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.polygons.shape[2]

    @property
    def segments(self) -> list:
        """One `BezierCurve` view of each row of `polygons`."""
        return [BezierCurve(polygon) for polygon in self.polygons]

    @property
    def is_closed(self) -> bool:
        return bool(np.linalg.norm(self.polygons[0, 0] - self.polygons[-1, -1]) <= 1e-12)

    def locate(self, t: float):
        """Segment index and local parameter for a global t."""
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"global parameter {t} outside [0, 1]")
        idx = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        idx = min(max(idx, 0), self.polygons.shape[0] - 1)
        lo, hi = self.breakpoints[idx], self.breakpoints[idx + 1]
        return idx, (t - lo) / (hi - lo)

    def evaluate(self, t: float) -> np.ndarray:
        idx, local = self.locate(t)
        return de_casteljau(self.polygons[idx], local)

    @cached_property
    def _columns(self) -> np.ndarray:
        """The polygons laid out (d+1, dim, S) for `_de_casteljau_columns`."""
        return np.ascontiguousarray(self.polygons.transpose(1, 2, 0))

    def _locate_many(self, ts: np.ndarray):
        """Segment indices, local parameters and segment spans for many global t."""
        ts = np.asarray(ts, dtype=float)
        idx = np.searchsorted(self.breakpoints, ts, side="right") - 1
        idx = np.clip(idx, 0, self.polygons.shape[0] - 1)
        lo = self.breakpoints[idx]
        hi = self.breakpoints[idx + 1]
        return idx, (ts - lo) / (hi - lo), hi - lo

    def evaluate_many(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at many global parameters."""
        idx, local, _ = self._locate_many(ts)
        return _de_casteljau_columns(self._columns.take(idx, axis=2), local)

    def derivative_many(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized global-parameter derivatives at many parameters.

        Nothing in the package calls it; the benchmark's tracer wraps it by
        name.
        """
        idx, local, spans = self._locate_many(ts)
        columns = self._columns.take(idx, axis=2)
        hodograph = self.degree * np.diff(columns, axis=0) if self.degree else np.zeros_like(columns)
        return _de_casteljau_columns(hodograph, local) / spans[:, None]

    def subdivide_at(self, params) -> "PiecewiseBezierCurve":
        """Insert breakpoints at the given global parameters (exact splits).

        A parameter within 1e-13 of a breakpoint, or of one inserted before
        it, is skipped; only its two neighbours in the sorted breakpoints,
        found by bisection, can be that close.
        """
        polygons = list(self.polygons)
        breaks = self.breakpoints.tolist()
        for t in sorted(set(float(p) for p in params)):
            idx = bisect.bisect_right(breaks, t)
            if any(abs(t - b) <= 1e-13 for b in breaks[max(idx - 1, 0):idx + 1]):
                continue
            if not 0.0 < t < 1.0:
                raise DomainError(f"split parameter {t} outside (0, 1)")
            lo, hi = breaks[idx - 1], breaks[idx]
            polygons[idx - 1:idx] = de_casteljau_split(polygons[idx - 1], (t - lo) / (hi - lo))
            breaks.insert(idx, t)
        return PiecewiseBezierCurve(np.array(polygons), np.array(breaks))


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

class Edge(Enum):
    """One of the four parameter-square edges of a surface patch."""

    U0 = "u=0"
    U1 = "u=1"
    V0 = "v=0"
    V1 = "v=1"


@dataclass(eq=False)
class BezierSurface:
    """Tensor-product Bezier surface with an (m+1, n+1, 3) control net."""

    control_net: np.ndarray

    def __post_init__(self):
        net = np.asarray(self.control_net, dtype=float)
        if net.ndim != 3 or net.shape[2] != 3 or net.shape[0] < 1 or net.shape[1] < 1:
            raise ValueError("control_net must have shape (m+1, n+1, 3)")
        if not np.all(np.isfinite(net)):
            raise ValueError("control points must be finite")
        self.control_net = net

    @property
    def degree_u(self) -> int:
        return self.control_net.shape[0] - 1

    @property
    def degree_v(self) -> int:
        return self.control_net.shape[1] - 1

    def evaluate(self, u: float, v: float) -> np.ndarray:
        """The point at (u, v): the value of `evaluate_with_partials`."""
        return self.evaluate_with_partials(u, v)[0]

    def evaluate_with_partials(self, u: float, v: float):
        """(S, S_u, S_v) at (u, v) from one tensor de Casteljau pass.

        The u pass stops at two rows: their blend is `evaluate`'s row and m
        times their difference the u-hodograph's; the v pass carries both
        and stops at two points in the same way.  S is the tensor de
        Casteljau value, and at u or v in {0, 1} a blend of one control row
        or point with weight 1, so the net's corners come back exactly; the
        partials agree with the hodograph nets' values there to rounding.
        """
        if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
            raise DomainError(f"surface parameters ({u}, {v}) outside [0, 1]^2")
        a = self.control_net
        while a.shape[0] > 2:
            a = (1.0 - u) * a[:-1] + u * a[1:]
        if a.shape[0] == 1:
            b = np.array([a[0], np.zeros_like(a[0])])
        else:
            b = np.array([(1.0 - u) * a[0] + u * a[1], self.degree_u * (a[1] - a[0])])
        # b holds the collapsed row and the u-hodograph's row, (2, n+1, 3).
        while b.shape[1] > 2:
            b = (1.0 - v) * b[:, :-1] + v * b[:, 1:]
        if b.shape[1] == 1:
            return b[0, 0], b[1, 0], np.zeros(3)
        value, partial_u = (1.0 - v) * b[:, 0] + v * b[:, 1]
        return value, partial_u, self.degree_v * (b[0, 1] - b[0, 0])

    def evaluate_grid(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """(U, V, 3) points on the outer product of parameter arrays, by
        `evaluate_pointwise`."""
        us = np.asarray(us, dtype=float).reshape(-1)
        vs = np.asarray(vs, dtype=float).reshape(-1)
        if us.size and (us.min() < 0.0 or us.max() > 1.0):
            raise DomainError("u samples outside [0, 1]")
        if vs.size and (vs.min() < 0.0 or vs.max() > 1.0):
            raise DomainError("v samples outside [0, 1]")
        uv = np.stack([np.repeat(us, vs.size), np.tile(vs, us.size)], axis=1)
        return evaluate_pointwise(self.control_net, uv).reshape(us.size, vs.size, 3)

    def evaluate_many(self, uv: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at (K, 2) parameter pairs.

        The one-net case of `evaluate_stacked`; agrees with `evaluate` to
        rounding, not bit for bit.
        """
        uv = np.asarray(uv, dtype=float)
        return evaluate_stacked(self.control_net[None], uv[None])[0][0]


def evaluate_pointwise(nets: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """(K, 3) points of one (m+1, n+1, 3) net, or of K stacked nets, at
    K parameter pairs `uv`.

    Tensor de Casteljau by two `de_casteljau_many` passes: u over the
    flattened net, then v over the collapsed rows.  Each sample takes the
    same operations whatever else is in the batch.
    """
    nets = np.asarray(nets, dtype=float)
    uv = np.asarray(uv, dtype=float)
    m, n = nets.shape[-3] - 1, nets.shape[-2] - 1
    rows = de_casteljau_many(nets.reshape(nets.shape[:-3] + (m + 1, (n + 1) * 3)), uv[:, 0])
    return de_casteljau_many(rows.reshape(uv.shape[0], n + 1, 3), uv[:, 1])


def evaluate_grid_products(nets: np.ndarray, samples: int, partials: bool = False):
    """P stacked nets of one shape on the uniform samples x samples grid of
    [0,1]^2, by Bernstein matrix products.

    Returns the (P, samples, samples, 3) values, or (S, S_u, S_v) with
    `partials`.  Each is laid out coordinate first in memory, so that
    per-coordinate arithmetic on it runs over contiguous planes.  Each
    result takes two matrix products, one per parameter, with basis
    matrices cached per (degree, samples); the bits depend on the BLAS and
    agree with `evaluate_grid` on np.linspace(0, 1, samples) to rounding
    only.
    """
    coords = np.asarray(nets, dtype=float).transpose(3, 0, 1, 2)
    m, n = coords.shape[2] - 1, coords.shape[3] - 1
    bu, bu_low = _grid_bases(m, samples)
    bv, bv_low = _grid_bases(n, samples)
    # (3, P, n+1, samples): the net collapsed along u at each grid u.
    rows = np.tensordot(coords, bu, axes=([2], [1]))
    value = np.moveaxis(np.tensordot(rows, bv, axes=([2], [1])), 0, -1)
    if not partials:
        return value
    if m == 0:
        partial_u = np.zeros_like(value)
    else:
        hodograph = np.tensordot(m * np.diff(coords, axis=2), bu_low, axes=([2], [1]))
        partial_u = np.moveaxis(np.tensordot(hodograph, bv, axes=([2], [1])), 0, -1)
    if n == 0:
        partial_v = np.zeros_like(value)
    else:
        partial_v = n * np.moveaxis(np.tensordot(np.diff(rows, axis=2), bv_low, axes=([2], [1])), 0, -1)
    return value, partial_u, partial_v


@lru_cache(maxsize=None)
def _grid_bases(degree: int, samples: int):
    """Read-only `_bernstein_pair` of a degree on np.linspace(0, 1, samples)."""
    bases = _bernstein_pair(degree, np.linspace(0.0, 1.0, samples))
    for basis in bases:
        if basis is not None:
            basis.flags.writeable = False
    return bases


def _bernstein_pair(degree: int, x: np.ndarray):
    """Degree and degree-1 Bernstein values at x, from one recurrence run.

    Returns (B^degree, B^(degree-1)) with a trailing basis axis; the lower
    basis is None at degree 0.  B^degree takes the last recurrence level's
    operations, so it equals `all_bernstein(degree, x)` bit for bit.
    """
    if degree == 0:
        return np.ones(x.shape + (1,)), None
    low = all_bernstein(degree - 1, x)
    full = np.zeros(x.shape + (degree + 1,))
    full[..., :-1] = (1.0 - x)[..., None] * low
    full[..., 1:] += x[..., None] * low
    return full, low


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products over the last axis, in a fixed order.

    Elementwise only, so each row's bits do not depend on the other rows.
    """
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out = out + a[..., k] * b[..., k]
    return out


def _contract(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_i basis[..., i] * coeffs[..., i, :, ...], accumulated in index order.

    An explicit loop of elementwise products, not a BLAS contraction, so each
    sample's sum takes the same operations whatever else is in the batch.
    """
    extra = (None,) * (coeffs.ndim - basis.ndim)
    out = basis[(..., 0) + extra] * coeffs[:, :, 0]
    for i in range(1, basis.shape[-1]):
        out += basis[(..., i) + extra] * coeffs[:, :, i]
    return out


def evaluate_stacked(nets: np.ndarray, uv: np.ndarray):
    """Values and both partials of P stacked nets of one shape at once.

    `nets` is (P, m+1, n+1, 3) and `uv` is (P, K, 2): net p is evaluated at
    its K parameter pairs.  Returns (S, S_u, S_v), each (P, K, 3).  The u and
    v Bernstein matrices are built once and serve all three results; the
    partials contract the hodograph nets with the degree-1-lower basis.  The
    result agrees with `BezierSurface.evaluate` to rounding only, and each
    sample's bits do not depend on the other samples of the batch.
    """
    nets = np.asarray(nets, dtype=float)
    uv = np.asarray(uv, dtype=float)
    m, n = nets.shape[1] - 1, nets.shape[2] - 1
    if m < n:
        # Collapse the longer axis first: the per-sample rows then hold the
        # shorter one, which keeps the batch's intermediates small.
        value, partial_v, partial_u = evaluate_stacked(
            nets.transpose(0, 2, 1, 3), uv[..., ::-1]
        )
        return value, partial_u, partial_v
    bu, bu_low = _bernstein_pair(m, uv[..., 0])
    bv, bv_low = _bernstein_pair(n, uv[..., 1])
    # (P, K, n+1, 3): the net collapsed along u at each sample, n <= m.
    rows = _contract(bu, nets[:, None])
    value = _contract(bv, rows)
    if m == 0:
        partial_u = np.zeros_like(value)
    else:
        partial_u = _contract(bv, _contract(bu_low, m * np.diff(nets, axis=1)[:, None]))
    if n == 0:
        partial_v = np.zeros_like(value)
    else:
        partial_v = n * _contract(bv_low, np.diff(rows, axis=2))
    return value, partial_u, partial_v


def _subpatch_nets(net: np.ndarray, boxes) -> np.ndarray:
    """(C, m+1, n+1, 3) nets of one net restricted to C boxes (u0, u1, v0, v1).

    One `_subsegment_polygon` pass restricts every copy in u, and one
    restricts the results in v, so each net has the bits of restricting it
    alone.  The stack is C-contiguous.
    """
    net = np.asarray(net, dtype=float)
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    nets = _subsegment_polygon(np.broadcast_to(net, (boxes.shape[0],) + net.shape),
                               boxes[:, 0], boxes[:, 1])
    nets = _subsegment_polygon(nets.transpose(0, 2, 1, 3), boxes[:, 2], boxes[:, 3])
    return np.ascontiguousarray(nets.transpose(0, 2, 1, 3))


# ---------------------------------------------------------------------------
# Basis conversion
# ---------------------------------------------------------------------------

def bernstein_from_monomial(coeffs: np.ndarray) -> np.ndarray:
    """Bernstein coefficients of a polynomial given by monomial a_0..a_l.

    Same degree; works on scalar coefficient vectors or on (l+1, d)
    point-valued ones, one column at a time: b_k = sum_j C(k,j)/C(l,j) a_j,
    each sum correctly rounded by `math.fsum`.
    """
    a = np.asarray(coeffs, dtype=float)
    flat = a.reshape(a.shape[0], -1)
    l = a.shape[0] - 1
    out = np.zeros_like(flat)
    for k in range(l + 1):
        weights = np.array([math.comb(k, j) / math.comb(l, j) for j in range(k + 1)])
        out[k] = [math.fsum(terms) for terms in (weights[:, None] * flat[:k + 1]).T.tolist()]
    return out.reshape(a.shape)


# ---------------------------------------------------------------------------
# Boundary polynomial and reparameterization
# ---------------------------------------------------------------------------

# Uniform samples of a boundary polynomial's range search.
_RANGE_TS = np.linspace(0.0, 1.0, 257)


def _trim_rows(coeffs: np.ndarray):
    """Zero each row's trailing coefficients at most 1e-14 of its scale.

    `coeffs` is (R, l+1), monomial and ascending; the scale of a row is
    max(1, its largest magnitude), and coefficient 0 is never trimmed.
    Returns the trimmed copy and each row's degree after trimming.
    """
    out = np.array(coeffs, dtype=float)
    scale = np.maximum(1.0, np.abs(out).max(axis=1))
    small = np.abs(out[:, 1:]) <= 1e-14 * scale[:, None]
    trailing = np.logical_and.accumulate(small[:, ::-1], axis=1)[:, ::-1]
    out[:, 1:][trailing] = 0.0
    return out, out.shape[1] - 1 - trailing.sum(axis=1)


def polyval_rows(coeffs: np.ndarray, x) -> np.ndarray:
    """Row r of monomial coefficients at x (shared, or row r of a stack).

    The Horner steps of `np.polynomial.polynomial.polyval`, elementwise, so
    each value equals the one-polynomial call bit for bit; trailing zero
    coefficients leave the value's bits unchanged.
    """
    out = coeffs[:, -1:] + x * 0
    for i in range(2, coeffs.shape[1] + 1):
        out = coeffs[:, -i, None] + out * x
    return out


def quadratic_roots(a, b, c) -> np.ndarray:
    """Real roots of a*x^2 + b*x + c, elementwise over arrays of one shape.

    Returns shape + (2,), NaN in place of a missing root: one for a linear
    row (a == 0), both for a constant or a complex pair.  A complex pair
    whose imaginary part is below 1e-9 counts as the double root -b / 2a.
    Distinct roots come from q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2 as q / a
    and c / q, which cancels nothing.
    """
    a, b, c = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, c)))
    out = np.full(a.shape + (2,), np.nan)
    linear = (a == 0.0) & (b != 0.0)
    out[linear, 0] = -c[linear] / b[linear]
    quad = a != 0.0
    a, b, c = a[quad], b[quad], c[quad]
    disc = b * b - 4.0 * a * c
    q = -0.5 * (b + np.copysign(np.sqrt(np.abs(disc)), b))
    # q is 0 only for b == c == 0, a double root at 0.
    roots = np.stack([q / a, np.where(q == 0.0, 0.0, c / np.where(q == 0.0, 1.0, q))], axis=-1)
    pair = disc < 0.0
    roots[pair] = np.nan
    near = pair & (np.sqrt(-np.minimum(disc, 0.0)) < 2e-9 * np.abs(a))
    roots[near] = (-b / (2.0 * a))[near, None]
    out[quad] = roots
    return out


def unit_ranges(coeffs: np.ndarray, degrees, values=None):
    """(lo, hi) of R stacked polynomials of degree at most 3 over [0, 1].

    `coeffs` is (R, l+1) from `_trim_rows`, whose degrees are `degrees`, and
    `values`, if given, holds each row's values at samples of [0, 1] whose
    first is 0 and that include 1, such as a fit's samples; else the rows
    are evaluated at `_RANGE_TS`.  The range is taken over those samples
    plus the real roots of f' in [0, 1], from `quadratic_roots`, row by
    row.
    """
    if np.any(degrees > MAX_BOUNDARY_DEGREE):
        raise UnsupportedDegreeError(
            f"boundary degree {int(degrees.max())} exceeds cap {MAX_BOUNDARY_DEGREE}"
        )
    if values is None:
        values = polyval_rows(coeffs, _RANGE_TS)
    lo, hi = values.min(axis=1), values.max(axis=1)
    rows = np.flatnonzero(degrees >= 2)
    if rows.shape[0]:
        dc = np.zeros((rows.shape[0], 3))
        dc[:, :coeffs.shape[1] - 1] = coeffs[rows, 1:] * np.arange(1, coeffs.shape[1])
        roots = quadratic_roots(dc[:, 2], dc[:, 1], dc[:, 0])
        inside = (-1e-9 < roots) & (roots < 1.0 + 1e-9)
        at = polyval_rows(coeffs[rows], np.clip(np.where(inside, roots, 0.0), 0.0, 1.0))
        at = np.where(inside, at, values[rows, :1])
        lo[rows] = np.minimum(lo[rows], at.min(axis=1))
        hi[rows] = np.maximum(hi[rows], at.max(axis=1))
    return lo, hi


@dataclass(eq=False)
class BoundaryPolynomial:
    """f(t) = sum a_i t^i driving the trapezoid substitution u = s * f(t).

    Coefficients are monomial, ascending.  Trailing zero coefficients are
    trimmed so `degree` reflects the true degree.
    """

    coefficients: np.ndarray
    _range: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be a finite 1D sequence")
        trimmed, degree = _trim_rows(c[None])
        self.coefficients = trimmed[0, :degree[0] + 1]

    @property
    def degree(self) -> int:
        return self.coefficients.shape[0] - 1

    def unit_range(self):
        """(min, max) of f over [0,1]: the one-polynomial case of `unit_ranges`.

        Computed once per polynomial and kept.
        """
        if self._range is None:
            lo, hi = unit_ranges(self.coefficients[None], np.array([self.degree]))
            self._range = (float(lo[0]), float(hi[0]))
        return self._range

    @classmethod
    def with_range(cls, coefficients, lo: float, hi: float) -> BoundaryPolynomial:
        """A polynomial whose range over [0,1] is already known, (lo, hi)."""
        out = cls(coefficients)
        out._range = (lo, hi)
        return out

    def shifted_scaled(self, shift: float, scale: float) -> BoundaryPolynomial:
        """(f + shift) / scale, whose range is mapped from f's, not searched again."""
        lo, hi = self.unit_range()
        coeffs = self.coefficients.copy()
        coeffs[0] += shift
        return BoundaryPolynomial.with_range(
            coeffs / scale, (lo + shift) / scale, (hi + shift) / scale
        )

    def validate_unit_range(self):
        lo, hi = self.unit_range()
        if lo < -_UNIT_SLACK or hi > 1.0 + _UNIT_SLACK:
            raise DomainError(
                f"boundary polynomial range [{lo:.3e}, {hi:.3e}] leaves [0, 1]"
            )


def _bernstein_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bernstein coefficients of P stacked products of Bernstein polynomials.

    B_i^k * B_j^l = C(k,i) C(l,j) / C(k+l,i+j) * B_{i+j}^{k+l}: scale by the
    binomials, convolve, unscale.  `a` is (P, k+1) and `b` is (P, l+1) or
    point-valued, (P, l+1, d); elementwise along the stack axis.
    """
    k, l = a.shape[1] - 1, b.shape[1] - 1
    trail = (1,) * (b.ndim - 2)
    scaled_b = b * _binomials(l).reshape((-1,) + trail)
    scaled_a = a * _binomials(k)
    out = np.zeros(b.shape[:1] + (k + l + 1,) + b.shape[2:])
    for i in range(k + 1):
        out[:, i:i + l + 1] += scaled_a[:, i].reshape((-1, 1) + trail) * scaled_b
    return out / _binomials(k + l).reshape((-1,) + trail)


@lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """Read-only row n of Pascal's triangle, as floats."""
    row = np.array([math.comb(n, i) for i in range(n + 1)], dtype=float)
    row.flags.writeable = False
    return row


def compose_reparameterize_many(nets: np.ndarray, fs) -> np.ndarray:
    """Exact Bezier forms of (s, t) -> S_k(s * f_k(t), t) for P stacked nets.

    `nets` is (P, m+1, n+1, 3), all of one shape, and `fs` holds P boundary
    polynomials of one degree p; returns the (P, m+1, m*p+n+1, 3) composed
    nets.  With B_i^m(s*x) = sum_q B_q^m(s) B_i^q(x), row q of a composed
    net is sum_{i<=q} B_i^q(f(t)) * R_i(t), where R_i is row i of the net as
    a curve in t and B_i^q(f) = C(q,i) f^i (1-f)^(q-i).  Every product is
    formed in Bernstein form along the stack axis, and row q of all P nets
    is elevated to degree m*p + n in one call.  The operations are
    elementwise, so net k's bits do not depend on the rest of the stack.
    """
    nets = np.asarray(nets, dtype=float)
    m, n = nets.shape[1] - 1, nets.shape[2] - 1
    p = fs[0].degree
    if m > MAX_SURFACE_DEGREE or n > MAX_SURFACE_DEGREE:
        raise UnsupportedDegreeError(
            f"surface bidegree ({m}, {n}) exceeds cap {MAX_SURFACE_DEGREE}"
        )
    if p > MAX_BOUNDARY_DEGREE:
        raise UnsupportedDegreeError(
            f"boundary degree {p} exceeds cap {MAX_BOUNDARY_DEGREE}"
        )
    if any(f.degree != p for f in fs):
        raise ValueError("stacked boundary polynomials must share one degree")
    for f in fs:
        f.validate_unit_range()

    f_bern = bernstein_from_monomial(np.stack([f.coefficients for f in fs], axis=1)).T
    ones = np.ones((nets.shape[0], 1))
    f_pow, g_pow = [ones], [ones]
    for _ in range(m):
        f_pow.append(_bernstein_product(f_pow[-1], f_bern))
        g_pow.append(_bernstein_product(g_pow[-1], 1.0 - f_bern))

    rows = []
    for q in range(m + 1):
        row = sum(
            _bernstein_product(
                math.comb(q, i) * _bernstein_product(f_pow[i], g_pow[q - i]),
                nets[:, i],
            )
            for i in range(q + 1)
        )
        rows.append(_elevate_axis0(row.transpose(1, 0, 2), m * p + n))
    return np.ascontiguousarray(np.stack(rows).transpose(2, 0, 1, 3))


def compose_reparameterize(surface: BezierSurface, f: BoundaryPolynomial) -> BezierSurface:
    """Exact Bezier form of (s, t) -> surface(s * f(t), t).

    Output bidegree is (m, m*p + n) for input bidegree (m, n) and deg f = p.
    The one-net case of `compose_reparameterize_many`, with its bits.
    """
    return BezierSurface(compose_reparameterize_many(surface.control_net[None], [f])[0])
