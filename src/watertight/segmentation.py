"""Trimmed-domain segmentation and patch normalization.

A domain curve (the trim) is split into segments monotone in both
parameter coordinates, the retained region is decomposed into rectangle
cells plus curved trapezoids whose curved edge spans two adjacent curve
breakpoints, each trapezoid is given the orientation of its patch
parameters, its curved edge is fitted by a low-degree polynomial in that
frame, and every cell is normalized to a standard-domain Bezier patch:
rectangles by plain subpatch extraction, trapezoids by relabeling the
control net into the frame and composing with the fitted boundary
polynomial.

Conventions used throughout:

* Graph frame: each monotone segment is read as a single-valued graph,
  either u = f(v) or v = g(u).  The dependent coordinate is the "band"
  axis; a trapezoid cell occupies the band between the two breakpoint
  values and extends along the independent axis from the curve to the
  domain edge on the retained side.
* (s, t) frame: a trapezoid's orientation record names the cell-local axis
  that s runs along and whether s runs toward the lower coordinate; t runs
  along the other axis, with the trim parameter w.  Relabeling the cell
  into that frame (a transpose and axis reversals of the control net, no
  arithmetic) makes the retained region {0 <= x <= f(y)} with f mapping
  [0,1] into [0,1] and reaching 1 at one endpoint (the through-vertex).  f
  may vanish at the other endpoint, which collapses one patch edge; such
  degenerate cells are legal.  The patch is S(s*f(t), t) in that frame,
  transposed back when the relabeling is a reflection, so it keeps the
  surface's orientation and its curved edge is U1 or V1, running with w.
  The frame follows by rule from how `decompose_domain` builds the cell,
  and an arc from corner to corner admits a second one; classification
  reads both from the arc's end points, with no arc solve.
* Trim segments by index: `cut_trims` cuts both domain curves at one set
  of parameters and names each curve's turning points as breakpoint
  indices.  A monotone segment holds its breakpoint index range and a
  trapezoid the index of its trim segment, whose breakpoints give its
  w_span; nothing looks a segment up by parameter.
* One arc per trapezoid: a trapezoid's curved edge is exactly its trim
  segment.  The map into the cell's local [0,1]^2 is affine, and so is
  the relabeling into an (s, t) frame, so the segment's control polygon
  mapped into either is the edge's exact Bezier form there (affine
  invariance).  The edge f of each candidate frame is sampled on that
  polygon at the arc's own parameter w, and the retained sample sits at
  the height of its point at w = 1/2.  Membership and the keep tests need
  only which side of an arc a point lies on, which convex-hull
  subdivision of the polygon decides (`_left_of_arcs`); no arc is solved
  for a coordinate value.  Nothing evaluates the trim curve again.
* Batched passes: after `decompose_trim`, every step runs over all cells
  of a decomposition at once.  The retained samples of a decomposition's
  cells are one Bernstein product at w = 1/2 per arc degree, and the
  edge of every (cell, candidate frame) is one at the uniform w of
  `_EDGE_WS`.  The fit is one vectorized pass per degree over every open
  (cell, candidate) row: coefficients from each row's weighted normal
  equations, residuals and ranges from stacked Horner evaluation and
  closed-form roots; the samples are dropped once the cells are fitted.
  The cells that miss are tightened through one `_trapezoids` call, which
  places all their retained samples, and get a second fit pass.  Every
  cell's subpatch is then cut from the surface net in one batched de
  Casteljau restriction (`bezier._subpatch_nets`), rectangles at their
  bounds and trapezoids at their patch bounds, and normalization relabels
  and composes the trapezoids of each (frame, deg f) in one
  `compose_reparameterize_many` call; each patch is built once.
  Each step is elementwise or row by row, so a cell's bits do not depend
  on the rest of its batch: they equal its one-cell call's.
* Cell membership is half-open (lower/left edges inclusive, upper/right
  exclusive except at the domain boundary), so tiling is assertable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .bezier import (
    MAX_BOUNDARY_DEGREE,
    BezierSurface,
    BoundaryPolynomial,
    Edge,
    PiecewiseBezierCurve,
    _dot,
    _split_rows,
    _subpatch_nets,
    _trim_rows,
    all_bernstein,
    compose_reparameterize_many,
    polyval_rows,
    quadratic_roots,
    unit_ranges,
)
from .errors import AmbiguousCaseError, DegenerateCellError, FitError, UnsupportedDegreeError

RECTANGLE = "rectangle"
TRAPEZOID = "trapezoid"

_COORD_TOL = 1e-9
# Cut parameters this close to a breakpoint, or to a smaller kept cut, merge.
_CUT_TOL = 1e-7
# Trim segments are at most cubic, so each hodograph coordinate's roots
# are those of a quadratic.
_MAX_TRIM_DEGREE = 3
# Uniform values of an arc's own Bezier parameter w: the samples each
# candidate edge is fitted and checked at.
_EDGE_WS = np.linspace(0.0, 1.0, 257)
# Halvings of an arc in `_left_of_arcs`: 2^-64 of its parameter range is
# below rounding.
_HALVINGS = 64


class GraphAxis(Enum):
    """Which coordinate is the single-valued function of the other."""

    U_OF_V = "u(v)"
    V_OF_U = "v(u)"


@dataclass(eq=False)
class MonotoneSegment:
    """The domain curve between breakpoints `first` and `last`, monotone (or
    constant) in both coordinates."""

    curve: PiecewiseBezierCurve
    first: int
    last: int
    axis: GraphAxis
    u_trend: int
    v_trend: int

    def midpoint(self) -> np.ndarray:
        """The curve point at the middle of the segment's parameter range."""
        bp = self.curve.breakpoints
        return self.curve.evaluate(0.5 * (bp[self.first] + bp[self.last]))


@dataclass(frozen=True)
class TrapezoidCase:
    """Orientation of a trapezoid's patch: s runs along cell-local axis
    `s_axis` (0 for u, 1 for v) from the straight edge to the arc, toward
    the lower coordinate when `s_reversed`; t runs with w, so whether it is
    reversed follows from the arc (`_frames`)."""

    s_axis: int
    s_reversed: bool


@lru_cache(maxsize=None)
def _edge_basis(degree: int) -> np.ndarray:
    """Read-only Bernstein basis at `_EDGE_WS`."""
    basis = all_bernstein(degree, _EDGE_WS)
    basis.flags.writeable = False
    return basis


def _left_of_arcs(polygons: np.ndarray, x, y) -> np.ndarray:
    """Whether each point (x[i], y[i]) lies strictly left of arc i, x below
    the arc's x at height y.

    `polygons` is (N, d+1, 2), columns (x, y); each arc is monotone in y
    and its end points straddle y[i].  Convex-hull subdivision (Lane and
    Riesenfeld): a point is decided once x leaves its piece's control
    polygon x-range, else the piece is halved at w = 1/2 by `_split_rows`
    and the half whose ends straddle y is kept.  After `_HALVINGS` halvings
    the piece is below rounding, and its first x decides.  The steps are
    elementwise, so a row's answer does not depend on the rest of the batch.
    """
    pieces = np.asarray(polygons, dtype=float)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    end = pieces[:, -1, 1]
    sign = np.where(end >= pieces[:, 0, 1], 1.0, -1.0)
    left = np.zeros(x.shape, dtype=bool)
    rows = np.arange(x.shape[0])
    for _ in range(_HALVINGS):
        xs = pieces[..., 0]
        below = x[rows] < xs.min(axis=1)
        left[rows[below]] = True
        open_ = ~below & (x[rows] < xs.max(axis=1))
        rows, pieces = rows[open_], pieces[open_]
        if rows.shape[0] == 0:
            return left
        first, second = _split_rows(pieces, np.full(rows.shape, 0.5))
        mid, at = first[:, -1, 1], y[rows]
        # A height the midpoint meets goes with the first half, unless it is
        # the arc's end height: a flat end then keeps its own end point.
        lower = (sign[rows] * (mid - at) >= 0.0) & ((mid != at) | (at != end[rows]))
        pieces = np.where(lower[:, None, None], first, second)
    left[rows] = x[rows] < pieces[:, 0, 0]
    return left


def odd_crossings(polygons: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether the ray from each query (u, v) toward +u crosses a closed loop
    of Bezier segments, (S, d+1, 2) and each monotone in u and v, an odd
    number of times.

    A segment straddles v when its end points do, half-open.  Bisection
    finds the one straddling segment of each run of segments heading one
    way in v.  The ray crosses it when the query lies left of it, by
    `_left_of_arcs`.
    """
    ends = np.append(polygons[:, 0, 1], polygons[-1, -1, 1])
    trend = np.sign(np.diff(ends))
    turns = np.flatnonzero(trend)
    turns = turns[1:][trend[turns[1:]] != trend[turns[:-1]]]
    queries, segments = [], []
    for first, last in zip([0, *turns], [*turns, polygons.shape[0]]):
        # Negated, a falling run's heights rise; its half-open side flips.
        rising = ends[last] >= ends[first]
        sign = 1.0 if rising else -1.0
        k = np.searchsorted(sign * ends[first:last + 1], sign * v, "right" if rising else "left") - 1
        hit = np.flatnonzero((k >= 0) & (k < last - first))
        queries.append(hit)
        segments.append(first + k[hit])
    q, s = np.concatenate(queries), np.concatenate(segments)
    cross = _left_of_arcs(polygons[s], u[q], v[q])
    return np.bincount(q[cross], minlength=u.shape[0]) % 2 == 1


def _arc_stacks(cells):
    """(indices, stacked local control polygons) of the cells' arcs, one
    pair per arc degree."""
    sizes = np.array([cell.arc.shape[0] for cell in cells], dtype=int)
    for size in np.unique(sizes).tolist():
        idx = np.flatnonzero(sizes == size)
        yield idx, np.stack([cells[i].arc for i in idx])


def _frames(cells, cases):
    """Stacked (s_axis, s_reversed, t_reversed) columns of each cell's frame
    `cases[c]`; t runs toward the lower coordinate when the arc's w does."""
    s_axis = np.array([case.s_axis for case in cases], dtype=int)
    s_reversed = np.array([case.s_reversed for case in cases], dtype=bool)
    ends = np.array([cell.arc[[0, -1]] for cell in cells]).reshape(-1, 2, 2)
    rows = np.arange(len(cells))
    return s_axis, s_reversed, ends[rows, 1, 1 - s_axis] < ends[rows, 0, 1 - s_axis]


def _to_frame(points, s_axis, s_reversed, t_reversed) -> np.ndarray:
    """(R, K, 2) local points in each row's (s, t) frame: the coordinate
    along s first, and a reversed coordinate x read as 1 - x."""
    out = np.where(s_axis[:, None, None] == 1, points[..., ::-1], points)
    flips = np.stack([s_reversed, t_reversed], axis=-1)[:, None, :]
    return np.where(flips, 1.0 - out, out)


def _frame_edges(cells, cases) -> np.ndarray:
    """(C, K, 2) points (x, y) of each cell's arc in its (s, t) frame
    `cases[c]`, at the K values `_EDGE_WS` of the arc's own parameter w.

    `_to_frame` maps the arc's local control polygon into the frame; the
    map is affine, so the mapped polygon is the edge's exact Bezier form
    there, and one Bernstein product per arc degree evaluates it.  In every
    frame `_classify_candidates` admits, y rises from 0 to 1 with w; the
    first and last samples' y are set to exactly 0 and 1.
    """
    frames = _frames(cells, cases)
    pts = np.empty((len(cells), _EDGE_WS.shape[0], 2))
    for idx, polygons in _arc_stacks(cells):
        framed = _to_frame(polygons, *(column[idx] for column in frames))
        basis = _edge_basis(framed.shape[1] - 1)
        pts[idx] = np.stack([_dot(basis, framed[:, None, :, k]) for k in range(2)], axis=-1)
    pts[:, 0, 1], pts[:, -1, 1] = 0.0, 1.0
    return pts


@dataclass(eq=False)
class DomainCell:
    """A rectangle or curved-trapezoid sub-region of the parameter domain; a
    trapezoid's curved edge is trim segment `segment` of `parent_curve`,
    whose control polygon in the cell's local [0,1]^2 is `arc`."""

    kind: str
    bounds: tuple
    axis: GraphAxis | None = None
    toward_far_edge: bool | None = None
    segment: int | None = None
    parent_curve: PiecewiseBezierCurve | None = None
    retained_sample: tuple | None = None
    case: TrapezoidCase | None = None
    boundary_fn: BoundaryPolynomial | None = None
    patch_bounds: tuple | None = None
    fit_residual: float = 0.0
    arc: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        u0, u1, v0, v1 = self.bounds
        if not (0.0 <= u0 < u1 <= 1.0 and 0.0 <= v0 < v1 <= 1.0):
            raise DegenerateCellError(f"cell bounds {self.bounds} degenerate")
        if self.patch_bounds is None:
            self.patch_bounds = self.bounds
        if self.kind == TRAPEZOID:
            self.arc = (self.parent_curve.polygons[self.segment] - (u0, v0)) / (u1 - u0, v1 - v0)

    @property
    def w_span(self):
        """A trapezoid's trim interval (w0, w1); None for a rectangle."""
        if self.segment is None:
            return None
        bp = self.parent_curve.breakpoints
        return float(bp[self.segment]), float(bp[self.segment + 1])


@dataclass(eq=False)
class PatchDecomposition:
    """Cells of one trimmed surface and their normalized patches."""

    cells: list
    patches: list
    curved_edges: list
    breakpoints: np.ndarray
    boundary_indices: list = field(default_factory=list)


class _NeedsSplit(Exception):
    """Internal: the fit tolerance needs extra curve splits at these params.

    `residual` is the smallest miss of the worst cell, whose trim interval is
    `w_span`.
    """

    def __init__(self, params, residual: float, w_span):
        super().__init__(f"needs splits at {params}")
        self.params = list(params)
        self.residual = residual
        self.w_span = w_span


# ---------------------------------------------------------------------------
# Monotone splitting
# ---------------------------------------------------------------------------

def monotone_split_params(curve: PiecewiseBezierCurve):
    """Interior parameters where du/dw or dv/dw changes sign.

    Each coordinate of a trim segment's hodograph is a polynomial of degree
    at most 2, whose real roots (`quadratic_roots`) cut the segment into at
    most three pieces of one sign; the value at a piece's middle names it,
    as 0 within 1e-12 of the largest power coefficient of any segment.  A
    turning point ends a nonzero piece whose next nonzero piece has the
    other sign, so a breakpoint counts where the sign flips across it, as
    at a kink of a C0 trim.  Raises UnsupportedDegreeError for a segment
    above cubic.
    """
    bp, polygons, degree = curve.breakpoints, curve.polygons, curve.degree
    if degree > _MAX_TRIM_DEGREE:
        raise UnsupportedDegreeError(
            f"trim segment degree {degree} exceeds cap {_MAX_TRIM_DEGREE}"
        )
    # Power coefficients (a, b, c) of each segment's hodograph in w, (S, 2, 3).
    coeffs = np.zeros((polygons.shape[0], 2, 3))
    spans = np.diff(bp)[:, None]
    h = [degree * (polygons[:, i + 1] - polygons[:, i]) / spans for i in range(degree)]
    if degree == 3:
        coeffs[...] = np.stack([h[0] - 2.0 * h[1] + h[2], 2.0 * (h[1] - h[0]), h[0]], axis=-1)
    elif degree == 2:
        coeffs[..., 1:] = np.stack([h[1] - h[0], h[0]], axis=-1)
    elif degree == 1:
        coeffs[..., 2] = h[0]
    roots = quadratic_roots(coeffs[..., 0], coeffs[..., 1], coeffs[..., 2])
    roots = np.sort(np.where((0.0 < roots) & (roots < 1.0), roots, 1.0), axis=-1)
    knots = np.concatenate([np.zeros(roots.shape[:-1] + (1,)), roots,
                            np.ones(roots.shape[:-1] + (1,))], axis=-1)
    mid = 0.5 * (knots[..., :-1] + knots[..., 1:])
    a, b, c = (coeffs[..., i, None] for i in range(3))
    g = (a * mid + b) * mid + c
    scale = max(float(np.abs(coeffs).max()), 1e-30)
    signs = np.where((np.abs(g) <= 1e-12 * scale) | (knots[..., 1:] == knots[..., :-1]),
                     0, np.sign(g))
    # Each piece's end as a global parameter, pieces in curve order per coordinate.
    ends = (1.0 - knots[..., 1:]) * bp[:-1, None, None] + knots[..., 1:] * bp[1:, None, None]
    params = []
    for comp in range(2):
        sign, end = signs[:, comp].reshape(-1), ends[:, comp].reshape(-1)
        nonzero = np.flatnonzero(sign)
        flips = sign[nonzero[1:]] != sign[nonzero[:-1]]
        params.extend(end[nonzero[:-1][flips]].tolist())
    return sorted(p for p in params if 1e-9 < p < 1.0 - 1e-9)


def cut_trims(curves, roots, extra=()):
    """Cut domain curves that share one breakpoint array at one set of parameters.

    `roots[k]` holds curve k's `monotone_split_params`.  Every curve is cut
    at the roots of all of them plus `extra` (fit-driven splits), less those
    within `_CUT_TOL` of a breakpoint or of a smaller kept parameter, so the
    cut curves share one breakpoint array too.  Returns (cut curve, cuts)
    per curve: `cuts` holds the indices of the breakpoints nearest its own
    roots, which they were cut at or merged into.
    """
    breakpoints = curves[0].breakpoints
    if any(not np.array_equal(curve.breakpoints, breakpoints) for curve in curves):
        raise ValueError("cut curves must share one breakpoint array")
    params = []
    for p in sorted([p for own in roots for p in own] + list(extra)):
        if (_CUT_TOL < p < 1.0 - _CUT_TOL and np.abs(breakpoints - p).min() > _CUT_TOL
                and not (params and p - params[-1] <= _CUT_TOL)):
            params.append(float(p))
    out = []
    for curve, own in zip(curves, roots):
        cut = curve.subdivide_at(params)
        bp, own = cut.breakpoints, np.asarray(own, dtype=float)
        right = np.clip(np.searchsorted(bp, own), 1, bp.shape[0] - 1)
        nearest = np.where(own - bp[right - 1] <= bp[right] - own, right - 1, right)
        out.append((cut, sorted(set(nearest.tolist()))))
    return out


def _trend(values: np.ndarray) -> int:
    """+1 strictly increasing, -1 strictly decreasing, 0 constant; else raises."""
    diffs = np.diff(values)
    span = float(values.max() - values.min())
    if span <= 1e-10:
        return 0
    if np.all(diffs > -1e-12):
        return 1
    if np.all(diffs < 1e-12):
        return -1
    raise DegenerateCellError("coordinate not monotone over segment")


def split_monotone(curve: PiecewiseBezierCurve, cuts):
    """Split the domain curve at the breakpoint indices `cuts` (its turning
    points, from `cut_trims`) into segments monotone in both coordinates."""
    if np.ptp(curve.polygons.reshape(-1, curve.dim), axis=0).max() <= 1e-12:
        raise ValueError("degenerate (single-point) domain curve")
    ends = sorted({0, curve.polygons.shape[0], *cuts})
    ws = curve.breakpoints[ends]
    samples = curve.evaluate_many(np.linspace(ws[:-1], ws[1:], 101, axis=1).reshape(-1))
    samples = samples.reshape(len(ends) - 1, 101, -1)
    segments = []
    for first, last, pts in zip(ends[:-1], ends[1:], samples):
        u_trend = _trend(pts[:, 0])
        v_trend = _trend(pts[:, 1])
        if v_trend != 0:
            axis = GraphAxis.U_OF_V
        elif u_trend != 0:
            axis = GraphAxis.V_OF_U
        else:
            raise DegenerateCellError("segment constant in both coordinates")
        segments.append(
            MonotoneSegment(
                curve=curve,
                first=first,
                last=last,
                axis=axis,
                u_trend=u_trend,
                v_trend=v_trend,
            )
        )
    return segments


# ---------------------------------------------------------------------------
# Domain decomposition
# ---------------------------------------------------------------------------

def _graph_indices(axis: GraphAxis):
    """(independent index, dependent index) into (u, v)."""
    return (1, 0) if axis is GraphAxis.U_OF_V else (0, 1)


def _cell_bounds_from_graph(axis: GraphAxis, x_extent, y_extent):
    if axis is GraphAxis.U_OF_V:
        return (y_extent[0], y_extent[1], x_extent[0], x_extent[1])
    return (x_extent[0], x_extent[1], y_extent[0], y_extent[1])


def _trapezoids(curve: PiecewiseBezierCurve, axis: GraphAxis, specs) -> list:
    """Trapezoid cells and their retained samples.

    `specs` holds one (segment, toward_far, x_extent, y_extent) per cell.  A
    cell's sample lies at the height of its arc's point at w = 1/2, halfway
    along the independent axis between that point and the cell edge on the
    retained side.  One Bernstein product per arc degree evaluates the
    points on the arcs' local control polygons.
    """
    cells = [
        DomainCell(
            kind=TRAPEZOID,
            bounds=_cell_bounds_from_graph(axis, x_extent, y_extent),
            axis=axis,
            toward_far_edge=toward_far,
            segment=segment,
            parent_curve=curve,
        )
        for segment, toward_far, x_extent, y_extent in specs
    ]
    local = np.empty((len(cells), 2))
    for idx, polygons in _arc_stacks(cells):
        local[idx] = _dot(all_bernstein(polygons.shape[1] - 1, 0.5), polygons.transpose(0, 2, 1))
    xi, _ = _graph_indices(axis)
    local[:, xi] = 0.5 * (local[:, xi] + [float(cell.toward_far_edge) for cell in cells])
    bounds = np.array([cell.bounds for cell in cells]).reshape(-1, 2, 2)
    samples = bounds[:, :, 0] + local * (bounds[:, :, 1] - bounds[:, :, 0])
    for cell, sample in zip(cells, samples.tolist()):
        cell.retained_sample = tuple(sample)
    return cells


def decompose_domain(segment: MonotoneSegment, keep_side: str):
    """Trapezoid cells for one monotone segment, one per trim segment.

    ``keep_side`` names the retained side in the dependent coordinate:
    "below" keeps dependent <= curve, "above" keeps dependent >= curve.
    Each trapezoid's curved edge spans two adjacent breakpoints and passes
    through the cell corner at the interval's near end; the cell extends
    along the independent axis to the domain edge on the retained side.
    """
    if keep_side not in ("below", "above"):
        raise ValueError("keep_side must be 'below' or 'above'")
    xi, yi = _graph_indices(segment.axis)
    curve = segment.curve
    specs = []
    for k in range(segment.first, segment.last):
        polygon = curve.polygons[k]
        x0, y0 = float(polygon[0, xi]), float(polygon[0, yi])
        x1, y1 = float(polygon[-1, xi]), float(polygon[-1, yi])
        if abs(y1 - y0) <= 1e-12:
            continue
        if abs(x1 - x0) <= 1e-12:
            raise DegenerateCellError(
                "curved edge constant in the independent coordinate"
            )
        f_increasing = (y1 - y0 > 0) == (x1 - x0 > 0)
        toward_far = (keep_side == "below") == f_increasing
        x_extent = (min(x0, x1), 1.0) if toward_far else (0.0, max(x0, x1))
        if x_extent[1] - x_extent[0] <= 1e-12:
            raise DegenerateCellError("keep side inconsistent with curve position")
        specs.append((k, toward_far, x_extent, (min(y0, y1), max(y0, y1))))
    return _trapezoids(curve, segment.axis, specs)


def _rectangle_cell(bounds) -> DomainCell:
    u0, u1, v0, v1 = bounds
    cell = DomainCell(kind=RECTANGLE, bounds=bounds)
    cell.retained_sample = (0.5 * (u0 + u1), 0.5 * (v0 + v1))
    return cell


def cell_contains(cell: DomainCell, u: float, v: float) -> bool:
    """Half-open membership; the curved edge itself belongs to its trapezoid.

    A trapezoid holds a point of its box on the retained side of its arc:
    `_left_of_arcs` on the arc's local columns in graph order, negated
    along the independent axis when the cell lies on the arc's lower side.
    """
    u0, u1, v0, v1 = cell.bounds

    def in_range(x, lo, hi):
        upper_ok = x < hi or (hi == 1.0 and x <= 1.0)
        return lo <= x and upper_ok

    if not (in_range(u, u0, u1) and in_range(v, v0, v1)):
        return False
    if cell.kind == RECTANGLE:
        return True
    xi, yi = _graph_indices(cell.axis)
    point = _local_coords(cell, u, v)
    sign = 1.0 if cell.toward_far_edge else -1.0
    arc = cell.arc[None][..., [xi, yi]] * (sign, 1.0)
    return not _left_of_arcs(arc, [sign * point[xi]], [point[yi]])[0]


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def _local_coords(cell: DomainCell, u: float, v: float):
    u0, u1, v0, v1 = cell.bounds
    return (u - u0) / (u1 - u0), (v - v0) / (v1 - v0)


def _relabel(nets: np.ndarray, case: TrapezoidCase, t_reversed: bool) -> np.ndarray:
    """Stacked trapezoid control nets, (P, m+1, n+1, 3), in one (s, t) frame.

    Axis 1 then runs along s, from the straight edge to the arc, and axis 2
    runs with w: a transpose when s runs along v, then a reversal of each
    axis that runs toward the lower coordinate.  The nets are only
    reordered.
    """
    out = nets.transpose(0, 2, 1, 3) if case.s_axis else nets
    return out[:, ::-1 if case.s_reversed else 1, ::-1 if t_reversed else 1]


def _classify_candidates(cells):
    """Each cell's orientations putting it into the {x <= f(y)} form, by rule.

    s runs along the independent axis from the straight edge to the arc,
    reversed when the cell extends toward the far edge.  An arc spanning
    the cell's whole independent extent runs corner to corner and admits s
    along the band axis too, reversed unless the cell extends toward the far
    edge exactly when f increases.  A frame qualifies when the arc's ends
    lie at y = 0 and 1 in it, one at x = 1; `_fit_stack` raises
    AmbiguousCaseError for a cell with none.  The frame whose through-vertex
    lies a counterclockwise quarter turn from s comes first.
    """
    owner, cases = [], []
    for i, cell in enumerate(cells):
        xi, yi = _graph_indices(cell.axis)
        (x0, y0), (x1, y1) = cell.arc[[0, -1]][:, [xi, yi]].tolist()
        owner.append(i)
        cases.append(TrapezoidCase(xi, cell.toward_far_edge))
        if min(x0, x1) <= _COORD_TOL and max(x0, x1) >= 1.0 - _COORD_TOL:
            f_increasing = (y1 > y0) == (x1 > x0)
            owner.append(i)
            cases.append(TrapezoidCase(yi, cell.toward_far_edge != f_increasing))
    framed = [cells[i] for i in owner]
    s_axis, s_reversed, t_reversed = _frames(framed, cases)
    ends = np.array([cell.arc[[0, -1]] for cell in framed]).reshape(-1, 2, 2)
    (x0, y0), (x1, y1) = _to_frame(ends, s_axis, s_reversed, t_reversed).transpose(1, 2, 0)
    passing = ((np.abs(y0) <= _COORD_TOL) & (np.abs(y1 - 1.0) <= _COORD_TOL)
               & (np.abs(np.maximum(x0, x1) - 1.0) <= _COORD_TOL))
    # The through-vertex is at t = 1 when x1 > x0; that end lies a
    # counterclockwise quarter turn from s unless the frame reflects.
    later = (x1 > x0) == (s_axis.astype(bool) ^ s_reversed ^ t_reversed)
    candidates = [[] for _ in cells]
    for k in np.lexsort((later, owner)).tolist():
        if passing[k]:
            candidates[owner[k]].append(cases[k])
    return candidates


# ---------------------------------------------------------------------------
# Boundary polynomial fitting
# ---------------------------------------------------------------------------

def _fit_rows(points, degree: int):
    """Endpoint-exact weighted least-squares fits of R stacked edges at one degree.

    `points` (R, K, 2) holds each edge's samples (x, y), y rising from 0 at
    the first to 1 at the last; x is fitted as a polynomial in y through
    both end samples.  Each sample is weighted by its share of y
    (`np.gradient`), so the fit approximates one over uniform heights.  The
    interior basis y^i (1 - y), i = 1..degree-1, vanishes at both ends; its
    normal equations are summed and solved row by row, so a row's bits do
    not depend on the stack.  Returns the monomial coefficients
    (R, degree+1) trimmed as `BoundaryPolynomial` trims them, their
    degrees, their values at the samples' y and each row's residual, the
    largest miss in x there.
    """
    if degree < 1:
        raise ValueError("fit degree must be at least 1")
    x, y = points[..., 0], points[..., 1]
    x0, x1 = x[:, :1], x[:, -1:]
    coeffs = np.zeros((x.shape[0], degree + 1))
    coeffs[:, :1] = x0
    coeffs[:, 1:2] = x1 - x0
    if degree >= 2:
        basis = np.stack([y**i * (1.0 - y) for i in range(1, degree)], axis=1)
        weighted = np.gradient(y, axis=1)[:, None] * basis
        gram = (weighted[:, :, None] * basis[:, None]).sum(axis=-1)
        rhs = (weighted * (x - (x0 + (x1 - x0) * y))[:, None]).sum(axis=-1)
        sol = np.linalg.solve(gram, rhs[..., None])[..., 0]
        coeffs[:, 1:degree] += sol
        coeffs[:, 2:] -= sol
    coeffs, degrees = _trim_rows(coeffs)
    values = polyval_rows(coeffs, y)
    return coeffs, degrees, values, np.abs(values - x).max(axis=1)


def fit_boundary_polynomial(points, degree: int, tol: float):
    """Least-squares polynomial fit of a single-valued edge, endpoints exact.

    The one-edge case of `_fit_rows`: `points` (K, 2) holds the edge's
    samples (x, y).  Returns (BoundaryPolynomial, max_residual); raises
    FitError when the residual exceeds tol.
    """
    coeffs, _, _, residual = _fit_rows(np.asarray(points, dtype=float)[None], degree)
    residual = float(residual[0])
    if residual > tol:
        raise FitError(
            f"degree-{degree} fit misses tolerance {tol:.3e}; "
            "raise the degree or re-split the cell",
            residual,
        )
    return BoundaryPolynomial(coeffs[0]), residual


def _absorbed_bounds(bounds, cases, lo, hi):
    """Extraction boxes stretched so that each fitted polynomial maps into [0,1].

    A least-squares fit may leave [0,1] by about its residual (overshoot past
    the through-vertex, undershoot past a collapsed end).  Extending the box
    along s by d0 = max(0, -lo) below and d1 = max(0, hi - 1) above, in
    units of its size, and remapping f to (f + d0) / (d0 + max(1, hi))
    absorbs both without changing the composed geometry: u = s*f(t) lands
    on the same domain points either way.  `bounds` is (R, 4) and `lo`,
    `hi` are (R,); returns the boxes, whether each stays in the domain, d0
    and d1.
    """
    k = 2 * np.array([case.s_axis for case in cases], dtype=int)
    flip = np.array([case.s_reversed for case in cases], dtype=bool)
    d0, d1 = np.maximum(0.0, -lo), np.maximum(0.0, hi - 1.0)
    rows = np.arange(k.shape[0])
    boxes = np.array(bounds, dtype=float)
    size = boxes[rows, k + 1] - boxes[rows, k]
    boxes[rows, k] -= np.where(flip, d1, d0) * size
    boxes[rows, k + 1] += np.where(flip, d0, d1) * size
    u0, u1, v0, v1 = boxes.T
    inside = (0.0 <= u0) & (u0 < u1) & (u1 <= 1.0) & (0.0 <= v0) & (v0 < v1) & (v1 <= 1.0)
    return boxes, inside, d0, d1


def _fit_stack(cells, candidates, edges, fit_tol: float) -> dict:
    """Fit classified trapezoids from their candidates' sampled edges, at once.

    `candidates` holds each cell's candidate orientations, and `edges` one
    row per (cell, candidate), in that order: the edge's frame points
    (x, y), (K, 2), as `_frame_edges` samples them.  Each degree from 2 up
    to the cap fits the rows of every cell still open in one `_fit_rows`
    and ranges the rows within tolerance in one `unit_ranges`, from their
    values at the samples.  A cell takes its first row in (degree,
    candidate) order that meets the tolerance and whose range excursion its
    box can absorb (degenerate cells admit two orientations, and near curve
    extrema only one of them has bounded slope); that fills case,
    boundary_fn, fit_residual and patch_bounds in place.  Returns a
    _NeedsSplit for each cell with no such row, keyed by cell, carrying the
    arc's parametric midpoint and the smallest miss: a residual past the
    tolerance, else an excursion past the domain.
    """
    if not all(candidates):
        raise AmbiguousCaseError("cell admits no orientation of the form {x <= f(y)}")
    owner = np.repeat(np.arange(len(cells)), [len(cases) for cases in candidates])
    cases = [case for cell_cases in candidates for case in cell_cases]
    bounds = np.array([cells[i].bounds for i in owner], dtype=float)
    closest = np.full(len(cells), np.inf)
    open_ = np.ones(len(cells), dtype=bool)
    for degree in range(2, MAX_BOUNDARY_DEGREE + 1):
        rows = np.flatnonzero(open_[owner])
        if rows.shape[0] == 0:
            break
        coeffs, degrees, values, residual = _fit_rows(edges[rows], degree)
        within = ~(residual > fit_tol)
        lo, hi = np.full(rows.shape, np.nan), np.full(rows.shape, np.nan)
        lo[within], hi[within] = unit_ranges(coeffs[within], degrees[within], values[within])
        boxes, inside, d0, d1 = _absorbed_bounds(bounds[rows], [cases[r] for r in rows], lo, hi)
        passing = within & inside
        miss = np.where(within, np.maximum(d0, d1), residual)
        np.minimum.at(closest, owner[rows[~passing]], miss[~passing])
        hits = np.flatnonzero(passing)
        fitted, first = np.unique(owner[rows[hits]], return_index=True)
        for i, k in zip(fitted.tolist(), hits[first].tolist()):
            cell = cells[i]
            poly = BoundaryPolynomial.with_range(coeffs[k], float(lo[k]), float(hi[k]))
            cell.case = cases[rows[k]]
            cell.fit_residual = float(residual[k])
            if d0[k] == 0.0 and d1[k] == 0.0:
                cell.patch_bounds = cell.bounds
            else:
                cell.patch_bounds = tuple(boxes[k].tolist())
                poly = poly.shifted_scaled(float(d0[k]), float(d0[k]) + max(1.0, float(hi[k])))
            cell.boundary_fn = poly
        open_[fitted] = False
    misses = {}
    for i in np.flatnonzero(open_).tolist():
        w0, w1 = cells[i].w_span
        misses[cells[i]] = _NeedsSplit([0.5 * (w0 + w1)], float(closest[i]), (w0, w1))
    return misses


def fit_cell(cell: DomainCell, candidates, edges, fit_tol: float) -> DomainCell:
    """Fit one classified trapezoid's boundary polynomial, widened for overshoot.

    The one-cell case of `_fit_stack`: `edges` holds each candidate's frame
    points (x, y), (K, 2).  Raises _NeedsSplit when no (degree, candidate)
    meets the tolerance.
    """
    misses = _fit_stack([cell], [candidates], np.asarray(edges, dtype=float), fit_tol)
    if misses:
        raise misses[cell]
    return cell


def _fit_cells(cells, fit_tol: float, fits=None) -> dict:
    """Classify and fit trapezoids, sampling each (cell, candidate) edge once.

    One `_frame_edges` call samples every candidate's edge at the arc's own
    parameter, and `_fit_stack` fits them all; the samples are dropped once
    the cells are fitted.  Returns the _NeedsSplit of each cell that misses,
    keyed by cell, in cell order.

    `fits`, when given, maps `_fit_key`s to earlier outcomes at this
    fit_tol: a cell found there takes its stored fit, or
    misses by its stored residual, and is not fitted again; the outcomes of
    the cells fitted here are added.  A cell's fit depends on nothing
    else, so a reused one has the bits of a fresh one.
    """
    if not cells:
        return {}
    fits = {} if fits is None else fits
    keys = [_fit_key(cell) for cell in cells]
    fresh = [(cell, key) for cell, key in zip(cells, keys) if key not in fits]
    if fresh:
        fresh_cells = [cell for cell, _ in fresh]
        candidates = _classify_candidates(fresh_cells)
        owners = [cell for cell, cases in zip(fresh_cells, candidates) for _ in cases]
        edges = _frame_edges(owners, [case for cases in candidates for case in cases])
        fresh_misses = _fit_stack(fresh_cells, candidates, edges, fit_tol)
        for cell, key in fresh:
            miss = fresh_misses.get(cell)
            fits[key] = miss.residual if miss is not None else (
                cell.case, cell.boundary_fn, cell.fit_residual, cell.patch_bounds)
    misses = {}
    for cell, key in zip(cells, keys):
        outcome = fits[key]
        if isinstance(outcome, tuple):
            cell.case, cell.boundary_fn, cell.fit_residual, cell.patch_bounds = outcome
        else:
            w0, w1 = cell.w_span
            misses[cell] = _NeedsSplit([0.5 * (w0 + w1)], outcome, (w0, w1))
    return misses


def _fit_key(cell: DomainCell):
    """What a trapezoid's fit depends on: its trim segment's control
    points, its bounds and its retained sample."""
    polygon = cell.parent_curve.polygons[cell.segment]
    return polygon.tobytes(), polygon.shape, cell.bounds, cell.retained_sample


def _tighten_cells(cells) -> list:
    """Shrink trapezoids to their arcs' bounding boxes, each plus a filler rectangle.

    Used when a full-extent cell cannot be fitted: near a curve extremum
    the band-axis orientation has unbounded slope, while the tight box also
    admits the cross orientation.  A tight cell plus its filler (None when
    empty) covers exactly the same region as the original cell.  The cells
    share one trim curve and graph axis, as the trapezoids of one
    decomposition do, so one `_trapezoids` call places all their retained
    samples.  Returns (tight, filler) per cell.
    """
    if not cells:
        return []
    curve, axis = cells[0].parent_curve, cells[0].axis
    if any(cell.parent_curve is not curve or cell.axis is not axis for cell in cells):
        raise ValueError("tightened cells must share one trim curve and graph axis")
    xi, yi = _graph_indices(axis)
    specs, fillers = [], []
    for cell in cells:
        ends = curve.polygons[cell.segment, [0, -1]]
        x_lo, x_hi = sorted(float(p[xi]) for p in ends)
        y_lo, y_hi = sorted(float(p[yi]) for p in ends)
        specs.append((cell.segment, cell.toward_far_edge, (x_lo, x_hi), (y_lo, y_hi)))
        filler_extent = (x_hi, 1.0) if cell.toward_far_edge else (0.0, x_lo)
        filler = None
        if filler_extent[1] - filler_extent[0] > 1e-12:
            filler = _rectangle_cell(_cell_bounds_from_graph(axis, filler_extent, (y_lo, y_hi)))
        fillers.append(filler)
    return list(zip(_trapezoids(curve, axis, specs), fillers))


def tighten_cell(cell: DomainCell):
    """(tight, filler) of one trapezoid: the one-cell case of `_tighten_cells`."""
    return _tighten_cells([cell])[0]


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def _normalize_trapezoids(nets: np.ndarray, cells) -> list:
    """(patch, curved edge) of each fitted trapezoid: S(s*f(t), t) in its frame.

    `nets` holds each cell's subpatch net, cut at its `patch_bounds`.  The
    nets of one frame, t-reversal and deg f are relabeled into that frame
    (index-only) and composed in one `compose_reparameterize_many` call.  A
    composed net is transposed back when its relabeling is a reflection, so
    the patch keeps the surface's orientation; its curved edge is then V1,
    else U1, and its parameter runs with w either way.
    """
    if any(cell.case is None or cell.boundary_fn is None for cell in cells):
        raise ValueError("trapezoid cell must be classified and fitted first")
    _, _, t_reversed = _frames(cells, [cell.case for cell in cells])
    groups = {}
    for k, (cell, flip) in enumerate(zip(cells, t_reversed.tolist())):
        groups.setdefault((cell.case, flip, cell.boundary_fn.degree), []).append(k)
    out = [None] * len(cells)
    for (case, flip, _), index in groups.items():
        composed = compose_reparameterize_many(
            _relabel(nets[index], case, flip), [cells[k].boundary_fn for k in index]
        )
        reflects = bool(case.s_axis) ^ case.s_reversed ^ flip
        for k, net in zip(index, composed):
            if reflects:
                out[k] = (BezierSurface(net.transpose(1, 0, 2).copy()), Edge.V1)
            else:
                out[k] = (BezierSurface(net), Edge.U1)
    return out


# ---------------------------------------------------------------------------
# Whole-trim driver
# ---------------------------------------------------------------------------

def _side_probes(segment: MonotoneSegment) -> np.ndarray:
    """(2, 2) points just below and above the segment's midpoint in its
    dependent coordinate, whose keep answers name its retained side."""
    _, yi = _graph_indices(segment.axis)
    probes = np.repeat(segment.midpoint()[None], 2, axis=0)
    probes[:, yi] = np.clip(probes[:, yi] + (-1e-4, 1e-4), 0.0, 1.0)
    return probes


def _check_retained(kept) -> None:
    if not np.all(kept):
        raise DegenerateCellError("trapezoid extension leaves the retained region")


def _covered(extents, mids) -> np.ndarray:
    """Whether some extent (c0, c1) holds each mid within 1e-12: the
    running maximum of the ends, over the extents sorted by start."""
    if not extents:
        return np.zeros(mids.shape, dtype=bool)
    ext = np.asarray(extents, dtype=float)
    starts, ends = ext[:, 0] - 1e-12, ext[:, 1] + 1e-12
    order = np.argsort(starts, kind="stable")
    reach = np.maximum.accumulate(ends[order])
    count = np.searchsorted(starts[order], mids, side="right")
    return (count > 0) & (reach[np.maximum(count - 1, 0)] >= mids)


def decompose_trim(curve: PiecewiseBezierCurve, cuts, keep_fn):
    """Decompose the retained side of a trim curve into cells that tile it.

    The curve turns at breakpoint indices `cuts` (see `cut_trims`).
    Trapezoids come from each monotone segment; leftover full-width bands in
    the shared dependent coordinate become rectangles when the keep test
    retains them.  The bands run across the graph axis of the segments
    that vary in both coordinates, which `split_monotone` reads as u(v),
    else of the first segment.

    `keep_fn(u, v)` takes arrays u and v of one shape and returns a bool
    array of that shape.  It is called once for the side probes of every
    segment, then once per segment for its trapezoids' retained samples;
    the last segment's call also carries the probes of the leftover bands.
    So a trim makes at most (segments + 1) calls, whatever its cell count,
    and the checks raise in the order of a segment-by-segment pass.
    """
    segments = split_monotone(curve, cuts)
    axis = (GraphAxis.U_OF_V if any(s.u_trend and s.v_trend for s in segments)
            else segments[0].axis)
    xi, yi = _graph_indices(axis)

    probes = np.array([_side_probes(seg) for seg in segments])
    keep_lo, keep_hi = np.asarray(keep_fn(probes[..., 0], probes[..., 1]), dtype=bool).T
    cells = []
    cut_values = {0.0, 1.0}
    covered = []
    for k, seg in enumerate(segments):
        if keep_lo[k] == keep_hi[k]:
            raise DegenerateCellError(
                "keep side inconsistent with curve position at segment midpoint"
            )
        seg_cells = decompose_domain(seg, "below" if keep_lo[k] else "above")
        samples = np.array([cell.retained_sample for cell in seg_cells]).reshape(-1, 2)
        if k + 1 < len(segments) and seg_cells:
            _check_retained(keep_fn(samples[:, 0], samples[:, 1]))
        for cell in seg_cells:
            y_ext = tuple(cell.bounds[2 * yi:2 * yi + 2])
            covered.append(y_ext)
            cut_values.update(y_ext)
        if not seg_cells:
            cut_values.add(float(seg.midpoint()[yi]))
        cells.extend(seg_cells)

    cuts = np.array(sorted(cut_values))
    wide = cuts[1:] - cuts[:-1] > 1e-12
    lows, highs = cuts[:-1][wide], cuts[1:][wide]
    mids = 0.5 * (lows + highs)
    in_cell = _covered(covered, mids)
    band = np.empty((int(np.sum(~in_cell)), 3, 2))
    band[:, :, yi] = mids[~in_cell, None]
    band[:, :, xi] = (0.2, 0.5, 0.8)
    queries = np.concatenate([samples, band.reshape(-1, 2)])
    kept = np.asarray(keep_fn(queries[:, 0], queries[:, 1]) if queries.size else [], dtype=bool)
    _check_retained(kept[:samples.shape[0]])
    band_kept = iter(kept[samples.shape[0]:].reshape(-1, 3))
    pending = None
    for lo, hi, held in zip(lows.tolist(), highs.tolist(), in_cell):
        if held:
            if pending is not None:
                cells.append(_leftover_rectangle(axis, pending))
                pending = None
            continue
        answers = next(band_kept)
        if answers.any() != answers.all():
            raise DegenerateCellError("leftover band is only partially retained")
        if answers[0]:
            pending = (pending[0], hi) if pending else (lo, hi)
        elif pending is not None:
            cells.append(_leftover_rectangle(axis, pending))
            pending = None
    if pending is not None:
        cells.append(_leftover_rectangle(axis, pending))
    return segments, cells


def _leftover_rectangle(axis: GraphAxis, y_extent) -> DomainCell:
    bounds = _cell_bounds_from_graph(axis, (0.0, 1.0), y_extent)
    return _rectangle_cell(bounds)


def build_patch_decomposition(surface: BezierSurface, curve: PiecewiseBezierCurve,
                              cuts, keep_fn, fit_tol: float = 1e-4,
                              fits=None) -> PatchDecomposition:
    """Decompose, classify, fit, and normalize one trimmed surface.

    The trim `curve` turns at breakpoint indices `cuts`, from `cut_trims`.
    `keep_fn(u, v)` names the retained region: it takes arrays u and v of
    one shape and returns a bool array of that shape, as the predicates of
    `pipeline.keep_region_fn` do; those count crossings on the trim's own
    Bezier segments, cut at its turning points.  `decompose_trim` calls it
    at most once per monotone segment plus once.

    Trapezoids are classified and fitted in one batched pass, from degree 2
    up; the ones that miss are tightened together, and the tightened cells
    get a second pass.
    Every cell's subpatch is then cut in one batched restriction, and the
    fitted trapezoids are composed in one stacked call per (net shape,
    deg f).  Raises the internal _NeedsSplit (caught by the
    pipeline) when some tightened cell cannot meet the fit tolerance at the
    degree cap.  `fits` is `_fit_cells`' store of earlier fits, for builds
    of one fit_tol that share it.
    """
    _, cells = decompose_trim(curve, cuts, keep_fn)
    missed = _fit_cells([c for c in cells if c.kind == TRAPEZOID], fit_tol, fits)
    tightened = dict(zip(missed, _tighten_cells(list(missed))))
    still_missed = _fit_cells([tight for tight, _ in tightened.values()], fit_tol, fits)
    if still_missed:
        worst = max(still_missed.values(), key=lambda err: err.residual)
        raise _NeedsSplit(
            [p for err in still_missed.values() for p in err.params], worst.residual, worst.w_span
        )
    fitted = []
    for cell in cells:
        tight, filler = tightened.get(cell, (cell, None))
        fitted.append(tight)
        if filler is not None:
            fitted.append(filler)
    cells = fitted

    traps = [i for i, c in enumerate(cells) if c.kind == TRAPEZOID]
    nets = _subpatch_nets(surface.control_net, [c.patch_bounds for c in cells])
    patches = [BezierSurface(net) if c.kind == RECTANGLE else None for c, net in zip(cells, nets)]
    curved_edges = [None] * len(cells)
    normalized = _normalize_trapezoids(nets[traps], [cells[i] for i in traps])
    for i, (patch, edge) in zip(traps, normalized):
        patches[i], curved_edges[i] = patch, edge

    return PatchDecomposition(
        cells=cells,
        patches=patches,
        curved_edges=curved_edges,
        breakpoints=curve.breakpoints.copy(),
        boundary_indices=sorted(traps, key=lambda i: cells[i].segment),
    )
