"""Domain segmentation: monotone splitting, cell decomposition,
trapezoid classification, boundary fitting, and patch normalization."""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from watertight import (
    BezierCurve,
    BezierSurface,
    BoundaryPolynomial,
    DegenerateCellError,
    FitError,
    PiecewiseBezierCurve,
    StageError,
    UnsupportedDegreeError,
    degree_elevate_curve,
    extract_subpatch,
)
import watertight.bezier
import watertight.segmentation as segmentation
from watertight.bezier import MAX_BOUNDARY_DEGREE, Edge, evaluate_stacked
from watertight.intersect import build_intersection_data, interpolate_domain_curve
from watertight.pipeline import MARCH_TOL, PipelineConfig, prepare_decompositions, run_pipeline
from watertight.segmentation import (
    RECTANGLE,
    TRAPEZOID,
    DomainCell,
    GraphAxis,
    TrapezoidCase,
    _CHECK_TS,
    _FIT_TS,
    _classify_candidates,
    _fit_cells,
    _fit_pinv,
    _frame_arcs,
    _normalize_trapezoids,
    _relabel,
    _solve_arcs,
    _t_reversed,
    _tighten_cells,
    build_patch_decomposition,
    cell_contains,
    cut_trims,
    decompose_domain,
    decompose_trim,
    fit_boundary_polynomial,
    monotone_split_params,
    split_monotone,
    tighten_cell,
)
from watertight.shapes import flat_patch, paraboloid_patch, plane_patch


def line_curve(p0, p1):
    return PiecewiseBezierCurve(np.array([[p0, p1]], dtype=float), np.array([0.0, 1.0]))


def domain_circle(n=16, radius=0.2, center=(0.5, 0.5)):
    angles = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    pts = np.stack([
        center[0] + radius * np.cos(angles),
        center[1] + radius * np.sin(angles),
    ], axis=1)
    pts = np.vstack([pts, pts[0]])
    return interpolate_domain_curve(pts)


def cut_at_roots(curve):
    """A raw curve cut at its own monotone roots, as the pipeline cuts it:
    (cut curve, breakpoint indices of its turning points)."""
    return cut_trims([curve], [monotone_split_params(curve)])[0]


def outside_circle(u, v, radius=0.2, center=(0.5, 0.5)):
    return (u - center[0]) ** 2 + (v - center[1]) ** 2 >= radius**2


def linear_trapezoid_cell(p0, p1, bounds, axis, toward_far_edge, sample):
    """Hand-built trapezoid cell with a straight curved edge."""
    cell = DomainCell(
        kind=TRAPEZOID,
        bounds=bounds,
        axis=axis,
        toward_far_edge=toward_far_edge,
        segment=0,
        parent_curve=line_curve(p0, p1),
        retained_sample=sample,
    )
    return cell


def candidates_of(cell):
    return _classify_candidates([cell])[0]


def fit_one(cell, fit_degree, fit_tol):
    """Classify and fit one trapezoid; it must meet the tolerance."""
    assert not _fit_cells([cell], fit_degree, fit_tol)


def to_frame(cell, case, point):
    """A local cell point in the case's (s, t) frame: s from the straight edge
    toward the arc, t with the arc's own direction."""
    x, y = point[case.s_axis], point[1 - case.s_axis]
    start, end = cell.arc.polygon[[0, -1], 1 - case.s_axis]
    return (1.0 - x if case.s_reversed else x), (1.0 - y if end < start else y)


def domain_point(cell, edge, p1, p2):
    """The domain point a normalized patch's parameters stand for.

    A rectangle maps its box affinely; a trapezoid's patch is u = s*f(t) in
    its frame, with s and t swapped when its curved edge is V1.
    """
    u0, u1, v0, v1 = cell.patch_bounds
    local = [p1, p2]
    if cell.kind == TRAPEZOID:
        s, t = (p1, p2) if edge is Edge.U1 else (p2, p1)
        x, y, case = s * float(cell.boundary_fn(t)), t, cell.case
        start, end = cell.arc.polygon[[0, -1], 1 - case.s_axis]
        local[case.s_axis] = 1.0 - x if case.s_reversed else x
        local[1 - case.s_axis] = 1.0 - y if end < start else y
    return u0 + local[0] * (u1 - u0), v0 + local[1] * (v1 - v0)


def sampled(edge_fn):
    """An edge's values at the fit heights and at the check heights."""
    return tuple(np.broadcast_to(edge_fn(ts), ts.shape) for ts in (_FIT_TS, _CHECK_TS))


def hodograph_at(curve, w):
    """The global-parameter derivative at w, from the segment's own hodograph."""
    idx, local = curve.locate(w)
    span = curve.breakpoints[idx + 1] - curve.breakpoints[idx]
    return BezierCurve(curve.polygons[idx]).derivative().evaluate(local) / span


def loop_split_params(curve):
    """The sampled search `monotone_split_params` replaced: a bracket
    between each pair of consecutive nonzero derivative samples of opposite
    sign, 64 samples per segment, refined by brentq."""
    ws = np.linspace(0.0, 1.0, 64 * curve.polygons.shape[0] + 1)
    derivs = curve.derivative_many(ws)
    scale = max(float(np.abs(derivs).max()), 1e-30)
    params = []
    for comp in range(2):
        g = derivs[:, comp]
        signs = np.where(np.abs(g) <= 1e-12 * scale, 0, np.sign(g)).astype(int)
        last_nonzero = last_idx = None
        for i, sign in enumerate(signs):
            if sign == 0:
                continue
            if last_nonzero is not None and sign != last_nonzero:
                root = brentq(lambda w: hodograph_at(curve, w)[comp], ws[last_idx], ws[i],
                              xtol=1e-10)
                params.append(float(root))
            last_nonzero, last_idx = sign, i
    return sorted(p for p in params if 1e-9 < p < 1.0 - 1e-9)


class TestSplitMonotone:
    def test_monotone_line_single_segment(self):
        curve = line_curve([0.2, 0.0], [0.8, 1.0])
        segments = split_monotone(*cut_at_roots(curve))
        assert len(segments) == 1
        seg = segments[0]
        assert seg.axis is GraphAxis.U_OF_V
        assert (seg.first, seg.last) == (0, 1)

    def test_full_circle_splits_monotone(self):
        curve = domain_circle(16)
        segments = split_monotone(*cut_at_roots(curve))
        assert len(segments) >= 2
        for seg in segments:
            bp = seg.curve.breakpoints
            ws = np.linspace(bp[seg.first], bp[seg.last], 101)
            pts = np.array([seg.curve.evaluate(w) for w in ws])
            for c in range(2):
                d = np.diff(pts[:, c])
                assert np.all(d >= -1e-10) or np.all(d <= 1e-10)

    def test_half_circle_splits_at_extremum(self):
        # Upper half circle: u sweeps monotonically, v has one interior max.
        angles = np.linspace(np.pi, 0.0, 9)
        pts = np.stack([0.5 + 0.2 * np.cos(angles), 0.5 + 0.2 * np.sin(angles)], axis=1)
        curve = interpolate_domain_curve(pts)
        segments = split_monotone(*cut_at_roots(curve))
        assert len(segments) == 2
        split_w = segments[0].curve.breakpoints[segments[0].last]
        top = curve.evaluate(split_w)
        assert abs(top[0] - 0.5) <= 1e-8

    @pytest.mark.parametrize("plane", [(0.0, 0.0, 0.04), (0.3, 0.0, 0.02), (0.5, 0.5, -0.2),
                                       (0.6, 0.0, -0.05)])
    @pytest.mark.parametrize("step", [0.18, 0.02])
    def test_split_params_match_the_sample_loop(self, plane, step):
        data = build_intersection_data(paraboloid_patch(), plane_patch(*plane), step, MARCH_TOL)
        for curve in (data.domain_curve_a, data.domain_curve_b, domain_circle(16)):
            got, want = monotone_split_params(curve), loop_split_params(curve)
            assert len(got) == len(want)
            assert np.all(np.abs(np.subtract(got, want)) <= 1e-10)

    @pytest.mark.parametrize("junction", [0.5, 0.37])
    @pytest.mark.parametrize("degree", [1, 3])
    def test_kink_where_v_reverses_is_a_turning_point(self, junction, degree):
        # A C0 trim whose dv/dw jumps from + to - at its inner breakpoint;
        # no segment has an interior turning point.
        legs = [np.array([[0.2, 0.0], [0.5, 0.5]]), np.array([[0.5, 0.5], [0.8, 0.0]])]
        curve = PiecewiseBezierCurve([degree_elevate_curve(BezierCurve(leg), degree).control_points
                                      for leg in legs], np.array([0.0, junction, 1.0]))
        cut, cuts = cut_at_roots(curve)
        assert cuts == [1]
        assert len(split_monotone(cut, cuts)) == 2

    def test_segment_above_cubic_raises(self):
        quartic = np.array([[[0.1, 0.1], [0.3, 0.6], [0.5, 0.2], [0.7, 0.8], [0.9, 0.4]]])
        with pytest.raises(UnsupportedDegreeError):
            monotone_split_params(PiecewiseBezierCurve(quartic, np.array([0.0, 1.0])))

    def test_degenerate_rejected(self):
        curve = PiecewiseBezierCurve(np.array([[[0.5, 0.5], [0.5, 0.5]]]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            split_monotone(*cut_at_roots(curve))


class TestDecomposeDomain:
    def test_quadrant_with_8_breakpoints(self):
        angles = np.linspace(np.pi / 2, np.pi, 8)
        pts = np.stack([0.5 + 0.2 * np.cos(angles), 0.5 + 0.2 * np.sin(angles)], axis=1)
        curve = interpolate_domain_curve(pts)
        (seg,) = split_monotone(*cut_at_roots(curve))
        cells = decompose_domain(seg, "below")
        traps = [c for c in cells if c.kind == TRAPEZOID]
        assert len(traps) == 7
        # No overlap among emitted cells on random samples that hit them.
        rng = np.random.default_rng(5)
        hits = 0
        for u, v in rng.uniform(0, 1, size=(10_000, 2)):
            owners = sum(cell_contains(c, u, v) for c in cells)
            assert owners <= 1
            hits += owners
        assert hits > 0

    def test_keep_side_validation(self):
        curve = line_curve([0.5, 0.0], [0.5, 1.0])
        (seg,) = split_monotone(*cut_at_roots(curve))
        with pytest.raises(ValueError):
            decompose_domain(seg, "sideways")


class TestDecomposeTrim:
    def test_straight_trim_single_rectangle(self):
        curve = line_curve([0.5, 0.0], [0.5, 1.0])
        segments, cells = decompose_trim(*cut_at_roots(curve), lambda u, v: u <= 0.5)
        assert len(cells) == 1
        cell = cells[0]
        assert cell.kind == RECTANGLE
        assert cell.bounds == pytest.approx((0.0, 0.5, 0.0, 1.0))

    def test_three_breakpoint_segment(self):
        # Boundary-to-boundary trim with one interior breakpoint.
        curve = line_curve([0.3, 0.0], [0.8, 1.0]).subdivide_at([0.5])
        segments, cells = decompose_trim(*cut_at_roots(curve), lambda u, v: u <= 0.3 + 0.5 * v)
        traps = [c for c in cells if c.kind == TRAPEZOID]
        rects = [c for c in cells if c.kind == RECTANGLE]
        assert len(traps) == 2
        assert len(rects) == 1
        assert rects[0].bounds == pytest.approx((0.0, 0.3, 0.0, 1.0))
        # Each trapezoid spans exactly one segment of the trim.
        assert sorted(t.w_span for t in traps) == [(0.0, 0.5), (0.5, 1.0)]

    def test_circle_keep_outside_tiles(self):
        curve = domain_circle(16)
        segments, cells = decompose_trim(*cut_at_roots(curve), outside_circle)
        traps = [c for c in cells if c.kind == TRAPEZOID]
        rects = [c for c in cells if c.kind == RECTANGLE]
        assert len(traps) >= 12
        assert len(rects) >= 2
        rng = np.random.default_rng(11)
        for u, v in rng.uniform(0, 1, size=(10_000, 2)):
            owners = sum(cell_contains(c, u, v) for c in cells)
            if outside_circle(u, v):
                assert owners == 1, (u, v, owners)
            else:
                assert owners == 0, (u, v, owners)

    def test_open_chain_keep_left(self):
        curve = line_curve([0.3, 0.0], [0.8, 1.0]).subdivide_at([0.4, 0.7])
        segments, cells = decompose_trim(*cut_at_roots(curve), lambda u, v: u <= 0.3 + 0.5 * v)
        rng = np.random.default_rng(13)
        for u, v in rng.uniform(0, 1, size=(4_000, 2)):
            owners = sum(cell_contains(c, u, v) for c in cells)
            retained = u <= 0.3 + 0.5 * v
            assert owners == (1 if retained else 0)


def _quarter_turns(a, b, r):
    for _ in range(r):
        a, b = 1.0 - b, a
    return a, b


def _line_cells():
    """Straight-edged cells in all eight orientations, plus a corner-to-corner one."""
    cells = []
    for transpose in (False, True):
        for r in range(4):
            def xform(p):
                x, y = p
                if transpose:
                    x, y = y, x
                return list(_quarter_turns(x, y, r))

            p0, p1 = xform([0.5, 0.2]), xform([0.8, 0.7])
            corners = np.array([xform([0.0, 0.2]), xform([0.8, 0.7])])
            lo, hi = corners.min(axis=0), corners.max(axis=0)
            axis = GraphAxis.U_OF_V if (r % 2 == 1) != transpose else GraphAxis.V_OF_U
            cells.append((p0, p1, (lo[0], hi[0], lo[1], hi[1]), axis, tuple(xform([0.2, 0.45]))))
    cells.append(([0.2, 0.0], [0.8, 1.0], (0.2, 0.8, 0.0, 1.0), GraphAxis.U_OF_V, (0.4, 0.9)))
    return cells


class TestClassification:
    def test_canonical_case(self):
        cell = linear_trapezoid_cell(
            [0.5, 0.2], [0.8, 0.7],
            bounds=(0.0, 0.8, 0.2, 0.7),
            axis=GraphAxis.V_OF_U,
            toward_far_edge=False,
            sample=(0.2, 0.45),
        )
        assert candidates_of(cell) == [TrapezoidCase(0, False)]
        assert not _t_reversed(cell, TrapezoidCase(0, False))

    def test_rotated_cell_gets_different_case(self):
        base = linear_trapezoid_cell(
            [0.5, 0.2], [0.8, 0.7],
            bounds=(0.0, 0.8, 0.2, 0.7),
            axis=GraphAxis.V_OF_U,
            toward_far_edge=False,
            sample=(0.2, 0.45),
        )
        case_base = candidates_of(base)[0]
        # Rotate all defining data a quarter turn: (u, v) -> (1 - v, u).
        rot = lambda p: [1.0 - p[1], p[0]]
        cell = linear_trapezoid_cell(
            rot([0.5, 0.2]), rot([0.8, 0.7]),
            bounds=(0.3, 0.8, 0.0, 0.8),
            axis=GraphAxis.U_OF_V,
            toward_far_edge=False,
            sample=tuple(rot([0.2, 0.45])),
        )
        # The quarter turn carries the base's s direction, +u, onto +v.
        assert case_base == TrapezoidCase(0, False)
        assert candidates_of(cell) == [TrapezoidCase(1, False)]

    def test_eight_distinct_cases(self):
        # The eight symmetries of the square give eight distinct frames:
        # (axis of s, s reversed, t reversed).
        frames = set()
        for p0, p1, bounds, axis, sample in _line_cells()[:8]:
            cell = linear_trapezoid_cell(p0, p1, bounds, axis, False, sample)
            (case,) = candidates_of(cell)
            frames.add((case.s_axis, case.s_reversed, _t_reversed(cell, case)))
        assert len(frames) == 8

    def test_corner_to_corner_strict_vs_relaxed(self):
        # A curve through two cell corners admits two orientations; the one
        # whose through-vertex lies a counterclockwise quarter turn from s
        # comes first.
        cell = linear_trapezoid_cell(
            [0.2, 0.0], [0.8, 1.0],
            bounds=(0.2, 0.8, 0.0, 1.0),
            axis=GraphAxis.U_OF_V,
            toward_far_edge=True,
            sample=(0.4, 0.9),
        )
        assert candidates_of(cell) == [TrapezoidCase(0, False), TrapezoidCase(1, True)]
        # On the other diagonal that order is not the search order.
        cell = linear_trapezoid_cell(
            [0.2, 1.0], [0.8, 0.0],
            bounds=(0.2, 0.8, 0.0, 1.0),
            axis=GraphAxis.U_OF_V,
            toward_far_edge=False,
            sample=(0.38, 0.2),
        )
        assert candidates_of(cell) == [TrapezoidCase(1, False), TrapezoidCase(0, False)]

    @pytest.mark.parametrize("p0, p1, bounds, axis, sample", _line_cells())
    def test_net_and_points_relabel_alike(self, rng, p0, p1, bounds, axis, sample):
        # The relabeled net, read at a point's frame coordinates, is the
        # cell's net at the point itself.
        cell = linear_trapezoid_cell(p0, p1, bounds, axis, False, sample)
        sub = BezierSurface(rng.uniform(-1.0, 1.0, (3, 4, 3)))
        points = rng.uniform(0.0, 1.0, (20, 2))
        for case in candidates_of(cell):
            framed = BezierSurface(_relabel(cell, case, net=sub.control_net).copy())
            at = _relabel(cell, case, points=points)
            assert np.array_equal(at, [to_frame(cell, case, p) for p in points])
            for p, q in zip(points, at):
                assert np.abs(framed.evaluate(*q) - sub.evaluate(*p)).max() <= 1e-14


class TestArc:
    @pytest.mark.parametrize("p0, p1, bounds, axis, sample", _line_cells())
    def test_straight_edge_matches_analytic_inverse(self, p0, p1, bounds, axis, sample):
        cell = linear_trapezoid_cell(p0, p1, bounds, axis, False, sample)
        u0, u1, v0, v1 = bounds
        local = [((p[0] - u0) / (u1 - u0), (p[1] - v0) / (v1 - v0)) for p in (p0, p1)]
        ts = np.linspace(0.0, 1.0, 257)
        candidates = candidates_of(cell)
        assert candidates
        for case in candidates:
            (x0, y0), (x1, y1) = (to_frame(cell, case, e) for e in local)
            want = x0 + (x1 - x0) * (ts - y0) / (y1 - y0)
            got = _frame_arcs([cell], [case], ts)[0]
            assert np.abs(got - want).max() <= 1e-15

    def test_circle_edge_matches_brentq_on_the_trim(self):
        curve = domain_circle(16)
        _, cells = decompose_trim(*cut_at_roots(curve), outside_circle)
        traps = [c for c in cells if c.kind == TRAPEZOID]
        assert len(traps) >= 12
        ts = np.linspace(0.0, 1.0, 33)
        for cell in traps:
            u0, u1, v0, v1 = cell.bounds
            w0, w1 = cell.w_span

            def framed(w, case):
                u, v = cell.parent_curve.evaluate(w)
                return to_frame(cell, case, ((u - u0) / (u1 - u0), (v - v0) / (v1 - v0)))

            for case in candidates_of(cell):
                want = []
                for t in ts:
                    h0, h1 = framed(w0, case)[1] - t, framed(w1, case)[1] - t
                    if abs(h0) <= 1e-14:
                        w = w0
                    elif abs(h1) <= 1e-14:
                        w = w1
                    else:
                        w = brentq(lambda w: framed(w, case)[1] - t, w0, w1, xtol=1e-16)
                    want.append(framed(w, case)[0])
                got = _frame_arcs([cell], [case], ts)[0]
                assert np.abs(got - np.array(want)).max() <= 1e-12

    def test_batched_solver_matches_points_at_bit_for_bit(self):
        _, cells = decompose_trim(*cut_at_roots(domain_circle(16)), outside_circle)
        traps = [c for c in cells if c.kind == TRAPEZOID]
        polygons = np.stack([c.arc.polygon for c in traps])
        coords = np.arange(len(traps)) % 2
        # Heights inside, at and beyond each arc's range: the samples stop
        # after different numbers of Newton steps.
        rng = np.random.default_rng(7)
        values = np.hstack([
            rng.uniform(-0.1, 1.1, (len(traps), 40)), np.tile([0.0, 0.5, 1.0], (len(traps), 1))
        ])
        batch = _solve_arcs(polygons, coords, values)
        for cell, coord, row, got in zip(traps, coords, values, batch):
            assert np.array_equal(cell.arc.points_at(coord, row), got)
            for k in (0, 17, 41):
                assert np.array_equal(cell.arc.points_at(coord, row[k]), got[k:k + 1])
        smaller = _solve_arcs(polygons[3:9], coords[3:9], values[3:9, 5:20])
        assert np.array_equal(smaller, batch[3:9, 5:20])


class TestTightenCell:
    @staticmethod
    def _quadrant_cells(radius=0.2):
        angles = np.linspace(np.pi / 2, np.pi, 6)
        pts = np.stack([0.5 + radius * np.cos(angles), 0.5 + radius * np.sin(angles)], axis=1)
        (seg,) = split_monotone(*cut_at_roots(interpolate_domain_curve(pts)))
        return decompose_domain(seg, "below")

    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_tight_cell_and_filler_tile_the_cell(self, index):
        cell = self._quadrant_cells()[index]
        tight, filler = tighten_cell(cell)
        assert filler is not None
        assert tight.w_span == cell.w_span
        grid = np.linspace(0.0, 1.0, 101)
        inside = 0
        for u in grid:
            for v in grid:
                whole = cell_contains(cell, u, v)
                parts = cell_contains(tight, u, v) + cell_contains(filler, u, v)
                assert parts == whole, (u, v)
                inside += whole
        assert inside > 0

    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_tight_cell_and_filler_fit_and_map_onto_the_surface(self, index):
        surface = paraboloid_patch()
        tight, filler = tighten_cell(self._quadrant_cells()[index])
        fit_one(tight, 2, 1e-2)
        patch, edge = _normalize_trapezoids(surface, [tight])[0]
        pieces = [(patch, tight, edge), (extract_subpatch(surface, *filler.bounds), filler, None)]
        for piece, cell, edge in pieces:
            for s in np.linspace(0.0, 1.0, 11):
                for t in np.linspace(0.0, 1.0, 11):
                    u, v = domain_point(cell, edge, s, t)
                    want = surface.evaluate(min(max(u, 0.0), 1.0), min(max(v, 0.0), 1.0))
                    assert np.linalg.norm(piece.evaluate(s, t) - want) <= 1e-9


def lstsq_coefficients(ys, degree):
    """The endpoint-exact least-squares fit by `np.linalg.lstsq`, monomial."""
    ts = _FIT_TS
    y0, y1 = ys[0], ys[-1]
    basis = np.stack([ts**i * (1.0 - ts) for i in range(1, degree)], axis=1)
    sol = np.linalg.lstsq(basis, ys - (y0 + (y1 - y0) * ts), rcond=None)[0]
    coeffs = np.zeros(degree + 1)
    coeffs[0], coeffs[1] = y0, y1 - y0
    for i, c in enumerate(sol, start=1):
        coeffs[i] += c
        coeffs[i + 1] -= c
    return coeffs


class TestBoundaryFit:
    def test_linear_edge_exact(self):
        poly, residual = fit_boundary_polynomial(*sampled(lambda v: 0.2 + 0.6 * v), 1, 1e-9)
        assert np.allclose(poly.coefficients, [0.2, 0.6], atol=1e-12)
        assert residual <= 1e-12

    def test_constant_edge(self):
        poly, residual = fit_boundary_polynomial(*sampled(lambda v: 0.5), 1, 1e-9)
        assert poly.degree == 0
        assert float(poly(0.3)) == pytest.approx(0.5, abs=1e-14)
        assert residual <= 1e-12

    @staticmethod
    def _circle_arc_edge(t):
        # 22.5-degree circular arc in cell-local coordinates (bounded slope),
        # the kind of edge the circle demo's cells actually carry.
        x0, x1 = np.cos(np.radians(60.0)), np.cos(np.radians(37.5))
        y0, y1 = np.sin(np.radians(60.0)), np.sin(np.radians(37.5))
        x = x0 + (x1 - x0) * t
        y = np.sqrt(1.0 - x**2)
        return (y - min(y0, y1)) / abs(y1 - y0)

    def test_circle_arc_quadratic_vs_normal_equations(self):
        edge = self._circle_arc_edge
        poly, residual = fit_boundary_polynomial(*sampled(edge), 2, 1e-2)
        assert residual < 1e-2
        # Independent oracle: solve the constrained least squares by normal
        # equations on the single free basis function t(1-t).
        ts = np.linspace(0, 1, 64)
        ys = np.array([edge(t) for t in ts])
        y0, y1 = ys[0], ys[-1]
        linear = y0 + (y1 - y0) * ts
        phi = ts * (1 - ts)
        c = float(phi @ (ys - linear) / (phi @ phi))
        want = np.array([y0, (y1 - y0) + c, -c])
        assert np.allclose(poly.coefficients, want, atol=1e-10)

    def test_pinv_fit_matches_lstsq_on_circle_arc_edges(self):
        _, cells = decompose_trim(*cut_at_roots(domain_circle(16)), outside_circle)
        traps = [c for c in cells if c.kind == TRAPEZOID]
        owners = [(c, case) for c in traps for case in candidates_of(c)]
        edges = _frame_arcs(
            [c for c, _ in owners], [k for _, k in owners], np.concatenate([_FIT_TS, _CHECK_TS])
        )
        samples = [(e[:_FIT_TS.shape[0]], e[_FIT_TS.shape[0]:]) for e in edges]
        samples.append(sampled(self._circle_arc_edge))
        assert len(samples) > 12
        for fit_values, check_values in samples:
            for degree in (2, 3):
                poly, _ = fit_boundary_polynomial(fit_values, check_values, degree, np.inf)
                got = np.zeros(degree + 1)
                got[:poly.coefficients.shape[0]] = poly.coefficients
                want = lstsq_coefficients(fit_values, degree)
                assert np.abs(got - want).max() <= 1e-14

    def test_tolerance_violation(self):
        with pytest.raises(FitError) as err:
            fit_boundary_polynomial(*sampled(self._circle_arc_edge), 1, 1e-6)
        assert err.value.residual > 1e-6


class TestNormalization:
    def test_rectangle_delegates_to_extraction(self):
        surface = paraboloid_patch()
        dec = build_patch_decomposition(
            surface, *cut_at_roots(domain_circle(12)), outside_circle, 2, 1e-2
        )
        rects = [(c, p) for c, p in zip(dec.cells, dec.patches) if c.kind == RECTANGLE]
        assert rects
        for cell, patch in rects:
            want = extract_subpatch(surface, *cell.bounds)
            assert np.array_equal(patch.control_net, want.control_net)

    def test_flat_diagonal_matches_composition_example(self):
        cell = linear_trapezoid_cell(
            [0.0, 0.0], [1.0, 1.0],
            bounds=(0.0, 1.0, 0.0, 1.0),
            axis=GraphAxis.V_OF_U,
            toward_far_edge=False,
            sample=(0.2, 0.8),
        )
        fit_one(cell, 1, 1e-9)
        assert cell.case == TrapezoidCase(0, False)
        patch, edge = _normalize_trapezoids(flat_patch(), [cell])[0]
        assert edge is Edge.U1
        want = np.array([
            [[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 1.0, 0.0]],
            [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [1.0, 1.0, 0.0]],
        ])
        assert np.allclose(patch.control_net, want, atol=1e-13)

    def test_bicubic_quadratic_fit_degrees_and_distance(self):
        surface = paraboloid_patch().elevated_u(3).elevated_v(3)
        angles = np.linspace(np.pi / 2, np.pi, 6)
        pts = np.stack([0.5 + 0.2 * np.cos(angles), 0.5 + 0.2 * np.sin(angles)], axis=1)
        curve = interpolate_domain_curve(pts)
        (seg,) = split_monotone(*cut_at_roots(curve))
        cells = decompose_domain(seg, "below")
        cell = cells[2]
        fit_one(cell, 2, 1e-2)
        patch, edge = _normalize_trapezoids(surface, [cell])[0]
        degrees = sorted((patch.degree_u, patch.degree_v))
        assert degrees == [3, 3 * cell.boundary_fn.degree + 3]
        worst = 0.0
        for s in np.linspace(0, 1, 21):
            for t in np.linspace(0, 1, 21):
                u, v = domain_point(cell, edge, s, t)
                want = surface.evaluate(min(max(u, 0.0), 1.0), min(max(v, 0.0), 1.0))
                worst = max(worst, float(np.linalg.norm(patch.evaluate(s, t) - want)))
        assert worst <= 1e-9

    def test_curved_edge_tracks_domain_curve(self):
        surface = paraboloid_patch()
        curve = domain_circle(12)
        dec = build_patch_decomposition(surface, *cut_at_roots(curve), outside_circle, 2, 1e-2)
        lip = _surface_lipschitz(surface)
        for idx in dec.boundary_indices:
            cell = dec.cells[idx]
            patch = dec.patches[idx]
            edge_curve = patch.edge_curve(dec.curved_edges[idx])
            w0, w1 = cell.w_span
            for frac in np.linspace(0, 1, 9):
                w = w0 + frac * (w1 - w0)
                uv = np.clip(cell.parent_curve.evaluate(w), 0, 1)
                on_surface = surface.evaluate(uv[0], uv[1])
                gap = np.linalg.norm(_closest_on_curve(edge_curve, on_surface))
                assert gap <= cell.fit_residual * lip + 1e-6


def _surface_lipschitz(surface):
    worst = 0.0
    for u in np.linspace(0, 1, 11):
        for v in np.linspace(0, 1, 11):
            su = surface.partial_u().evaluate(u, v)
            sv = surface.partial_v().evaluate(u, v)
            worst = max(worst, float(np.linalg.norm(su)), float(np.linalg.norm(sv)))
    return worst


def _closest_on_curve(curve, point):
    best = None
    for t in np.linspace(0, 1, 201):
        d = curve.evaluate(t) - point
        if best is None or np.linalg.norm(d) < np.linalg.norm(best):
            best = d
    return best


class TestPatchDecomposition:
    def test_paraboloid_circle_decomposition(self):
        surface = paraboloid_patch()
        curve = domain_circle(12)
        dec = build_patch_decomposition(surface, *cut_at_roots(curve), outside_circle, 2, 1e-2)
        assert len(dec.patches) == len(dec.cells)
        assert dec.boundary_indices
        for idx in dec.boundary_indices:
            assert dec.cells[idx].kind == TRAPEZOID
            assert dec.curved_edges[idx] is not None
        spans = [dec.cells[i].w_span for i in dec.boundary_indices]
        assert all(s0 < s1 for s0, s1 in spans)
        assert spans == sorted(spans)

    def test_patches_match_surface_in_their_frames(self):
        surface = paraboloid_patch()
        curve = domain_circle(12)
        dec = build_patch_decomposition(surface, *cut_at_roots(curve), outside_circle, 2, 1e-2)
        for cell, patch, edge in zip(dec.cells, dec.patches, dec.curved_edges):
            for s in np.linspace(0.05, 0.95, 4):
                for t in np.linspace(0.05, 0.95, 4):
                    u, v = domain_point(cell, edge, s, t)
                    u, v = min(max(u, 0.0), 1.0), min(max(v, 0.0), 1.0)
                    want = surface.evaluate(u, v)
                    got = patch.evaluate(s, t)
                    assert np.linalg.norm(got - want) <= 1e-9

    def test_normalization_reuses_the_fitted_range(self, monkeypatch):
        surface = paraboloid_patch()
        dec = build_patch_decomposition(
            surface, *cut_at_roots(domain_circle(12)), outside_circle, 2, 1e-2
        )
        traps = [c for c in dec.cells if c.kind == TRAPEZOID]
        # Some fits were widened, so their polynomial was remapped.
        assert any(c.patch_bounds != c.bounds for c in traps)

        def search(*_):
            raise AssertionError("the range of a fitted polynomial was searched again")

        monkeypatch.setattr(watertight.bezier, "unit_ranges", search)
        for cell in traps:
            _normalize_trapezoids(surface, [cell])[0]

    def test_exhausted_split_budget_names_the_missing_interval(self):
        s1, s2 = paraboloid_patch(), plane_patch(0.0, 0.0, 0.04)
        config = PipelineConfig(march_step=0.18, fit_tol=1e-6)
        data = build_intersection_data(s1, s2, config.march_step, MARCH_TOL)
        with pytest.raises(FitError, match="split budget") as err:
            prepare_decompositions(data, s1, s2, config)
        assert 1e-6 < err.value.residual < 1e-3
        w0, w1 = map(float, re.search(r"interval \[(\S+), (\S+)\]", str(err.value)).groups())
        assert 0.0 <= w0 < w1 <= 1.0


def mirror_patch(lift):
    """z = lift - (x - 0.5)^2 - (y - 0.5)^2 over the unit square."""
    net = paraboloid_patch(-1.0).control_net.copy()
    net[..., 2] += lift
    return BezierSurface(net)


# The demo and one case of each benchmark workload, each against the
# paraboloid; every surface has x = u and y = v.
_ORIENTATION_CASES = {
    "demo": (plane_patch(0.0, 0.0, 0.04), PipelineConfig()),
    "level-circle": (plane_patch(0.0, 0.0, 0.04), PipelineConfig(march_step=0.01)),
    "mirror": (mirror_patch(0.1), PipelineConfig(fit_tol=1e-5)),
    "corner-clip": (
        plane_patch(0.5, 0.5, -0.2),
        PipelineConfig(reduce_tolerance=1e-3, keep_a="right", keep_b="right"),
    ),
}


class TestOrientation:
    @pytest.mark.parametrize("name", sorted(_ORIENTATION_CASES))
    def test_every_patch_keeps_the_surface_orientation(self, name):
        # With x = u and y = v, d(x, y)/d(s, t) is the patch's Jacobian in
        # the parameter domain; a mirror-image patch reads negative.
        other, config = _ORIENTATION_CASES[name]
        model = run_pipeline(paraboloid_patch(), other, config).model
        ts = np.arange(1, 8) / 8.0
        st = np.stack(np.meshgrid(ts, ts, indexing="ij"), axis=-1).reshape(1, -1, 2)
        for patch_set in (model.set_a, model.set_b):
            dec = patch_set.decomposition
            assert {dec.curved_edges[i] for i in dec.boundary_indices} <= {Edge.U1, Edge.V1}
            for patch in patch_set.patches:
                _, xs, xt = evaluate_stacked(patch.control_net[None], st)
                jacobian = xs[..., 0] * xt[..., 1] - xs[..., 1] * xt[..., 0]
                assert jacobian.min() > 0.0


def load_workloads():
    """The benchmark's workload definitions, loaded from their file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def reference_fit(cell, candidates, edges, fit_degree, fit_tol):
    """The per-cell search the stacked fit replaces, one (degree, candidate)
    at a time: the first endpoint-exact least-squares fit that meets the
    tolerance and whose range excursion the cell's box absorbs.  Returns
    (case, polynomial, residual, patch bounds), or (None, smallest miss)."""
    closest = np.inf
    for degree in range(fit_degree, MAX_BOUNDARY_DEGREE + 1):
        for case, edge in zip(candidates, edges):
            ys, check = edge[:_FIT_TS.shape[0]], edge[_FIT_TS.shape[0]:]
            y0, y1 = ys[0], ys[-1]
            coeffs = np.zeros(degree + 1)
            coeffs[0], coeffs[1] = y0, y1 - y0
            if degree >= 2:
                sol = _fit_pinv(degree) @ (ys - (y0 + (y1 - y0) * _FIT_TS))
                coeffs[1:degree] += sol
                coeffs[2:] -= sol
            poly = BoundaryPolynomial(coeffs)
            residual = float(np.abs(poly(_CHECK_TS) - check).max())
            if residual > fit_tol:
                closest = min(closest, residual)
                continue
            lo, hi = poly.unit_range()
            d0, d1 = max(0.0, -lo), max(0.0, hi - 1.0)
            if d0 == 0.0 and d1 == 0.0:
                return case, poly, residual, cell.bounds
            bounds = list(cell.bounds)
            k = 2 * case.s_axis
            size = bounds[k + 1] - bounds[k]
            low, high = (d1, d0) if case.s_reversed else (d0, d1)
            bounds[k] -= low * size
            bounds[k + 1] += high * size
            u0, u1, v0, v1 = bounds
            if not (0.0 <= u0 < u1 <= 1.0 and 0.0 <= v0 < v1 <= 1.0):
                closest = min(closest, max(d0, d1))
                continue
            return case, poly.shifted_scaled(d0, d0 + max(1.0, hi)), residual, tuple(bounds)
    return None, closest


def _fit_cases():
    """The demo and the six benchmark cases at seed 0, by name."""
    cases = {"demo": (paraboloid_patch(), plane_patch(0.0, 0.0, 0.04), PipelineConfig())}
    workloads = load_workloads()
    for workload in ("dense-march", "tight-fit", "clip-reduce"):
        for case in workloads.build_cases(workload, 0):
            cases[f"{workload}/{case.name}"] = (case.surface_a, case.surface_b, case.config)
    return cases


_FIT_CASES = _fit_cases()


class TestStackedFit:
    @pytest.mark.parametrize("name", sorted(_FIT_CASES))
    def test_choices_match_a_per_cell_reference(self, name, monkeypatch):
        s1, s2, config = _FIT_CASES[name]
        stacked = segmentation._fit_stack
        counts = {"fitted": 0, "missed": 0}

        def checked(cells, candidates, edges, fit_degree, fit_tol):
            want, start = [], 0
            for cell, cases in zip(cells, candidates):
                rows = edges[start:start + len(cases)]
                want.append(reference_fit(cell, cases, rows, fit_degree, fit_tol))
                start += len(cases)
            misses = stacked(cells, candidates, edges, fit_degree, fit_tol)
            for cell, ref in zip(cells, want):
                if ref[0] is None:
                    counts["missed"] += 1
                    w0, w1 = cell.w_span
                    assert misses[cell].residual == ref[1]
                    assert misses[cell].params == [0.5 * (w0 + w1)]
                    continue
                counts["fitted"] += 1
                case, poly, residual, bounds = ref
                assert cell not in misses
                assert cell.case == case
                assert np.array_equal(cell.boundary_fn.coefficients, poly.coefficients)
                assert cell.boundary_fn.unit_range() == poly.unit_range()
                assert cell.fit_residual == residual
                assert cell.patch_bounds == bounds
            return misses

        monkeypatch.setattr(segmentation, "_fit_stack", checked)
        data = build_intersection_data(s1, s2, config.march_step, MARCH_TOL)
        prepare_decompositions(data, s1, s2, config)
        assert counts["fitted"] > 0
        if name.startswith("tight-fit"):
            assert counts["missed"] > 0

    def test_tightened_cells_match_one_at_a_time(self):
        cells = TestTightenCell._quadrant_cells()
        together = _tighten_cells(cells)
        for cell, (tight, filler) in zip(cells, together):
            one, one_filler = tighten_cell(cell)
            assert tight.bounds == one.bounds
            assert tight.retained_sample == one.retained_sample
            assert (filler is None) == (one_filler is None)
            assert filler is None or filler.bounds == one_filler.bounds
        with pytest.raises(ValueError, match="one trim curve"):
            _tighten_cells(cells + TestTightenCell._quadrant_cells(0.3)[:1])

    @staticmethod
    def _two_candidate_rows():
        """A whole-domain cell, and two sampled edges: the first an exact
        quadratic whose range reaches 1 + 1/24 past the domain edge, the
        second t^2."""
        cell = linear_trapezoid_cell([0.0, 0.0], [1.0, 1.0], (0.0, 1.0, 0.0, 1.0),
                                     GraphAxis.V_OF_U, False, (0.2, 0.8))
        ts = np.concatenate([_FIT_TS, _CHECK_TS])
        edges = np.stack([ts + 1.5 * ts * (1.0 - ts), ts**2])
        return cell, [TrapezoidCase(0, False), TrapezoidCase(1, True)], edges

    def test_unabsorbable_excursion_falls_through_to_the_next_candidate(self):
        cell, cases, edges = self._two_candidate_rows()
        want = reference_fit(cell, cases, edges, 2, 1e-6)
        assert not segmentation._fit_stack([cell], [cases], edges, 2, 1e-6)
        assert cell.case == want[0] == cases[1]
        assert np.array_equal(cell.boundary_fn.coefficients, want[1].coefficients)
        assert cell.patch_bounds == want[3] == cell.bounds

    def test_miss_carries_the_smallest_excursion(self):
        cell, cases, edges = self._two_candidate_rows()
        _, closest = reference_fit(cell, cases[:1], edges[:1], 2, 1e-6)
        assert closest == pytest.approx(1.0 / 24.0, rel=1e-12)
        misses = segmentation._fit_stack([cell], [cases[:1]], edges[:1], 2, 1e-6)
        assert misses[cell].residual == closest
        assert cell.case is None


class TestFitReuse:
    @pytest.mark.parametrize("name", ["tight-fit/level-circle", "tight-fit/mirror"])
    def test_resplit_rounds_reuse_fits_with_their_bits(self, name, monkeypatch):
        # Shared across rounds, the store fits fewer cells than fresh builds
        # do, and every patch and boundary polynomial keeps its bits.
        s1, s2, config = _FIT_CASES[name]
        data = build_intersection_data(s1, s2, config.march_step, MARCH_TOL)
        stacked, build = segmentation._fit_stack, segmentation.build_patch_decomposition
        fitted = []

        def counted(cells, *args):
            fitted.append(len(cells))
            return stacked(cells, *args)

        def fresh(*args, fits=None, **kwargs):
            return build(*args, **kwargs)

        monkeypatch.setattr(segmentation, "_fit_stack", counted)
        shared = prepare_decompositions(data, s1, s2, config)
        shared_count, fitted[:] = sum(fitted), []
        monkeypatch.setattr(watertight.pipeline, "build_patch_decomposition", fresh)
        alone = prepare_decompositions(data, s1, s2, config)
        assert shared_count < sum(fitted)
        for got, want in zip(shared, alone):
            assert len(got.patches) == len(want.patches)
            for p, q in zip(got.patches, want.patches):
                assert np.array_equal(p.control_net, q.control_net)
            for c, d in zip(got.decomposition.cells, want.decomposition.cells):
                assert c.bounds == d.bounds and c.patch_bounds == d.patch_bounds
                assert c.case == d.case and c.fit_residual == d.fit_residual
                if c.boundary_fn is not None:
                    assert np.array_equal(c.boundary_fn.coefficients, d.boundary_fn.coefficients)


def snapped_split(curve, search):
    """The split that breakpoint indices replace: search the cut curve for
    its monotone roots again, snap each to the nearest breakpoint within
    1e-5 and insert the others.  Returns the inserted parameters and one
    (w0, w1, axis, u_trend, v_trend) per monotone segment."""
    cuts, inserts = {0.0, 1.0}, []
    for p in search(curve):
        near = curve.breakpoints[np.argmin(np.abs(curve.breakpoints - p))]
        if abs(near - p) <= 1e-5:
            cuts.add(float(near))
        else:
            inserts.append(p)
            cuts.add(p)
    refined = curve.subdivide_at(inserts) if inserts else curve
    cut_list = sorted(cuts)
    lows, highs = cut_list[:-1], cut_list[1:]
    samples = refined.evaluate_many(np.linspace(lows, highs, 101, axis=1).reshape(-1))
    segments = []
    for lo, hi, pts in zip(lows, highs, samples.reshape(len(lows), 101, -1)):
        u_trend, v_trend = segmentation._trend(pts[:, 0]), segmentation._trend(pts[:, 1])
        axis = GraphAxis.U_OF_V if v_trend != 0 else GraphAxis.V_OF_U
        segments.append((lo, hi, axis, u_trend, v_trend))
    return inserts, segments


class TestCutOnce:
    @pytest.mark.parametrize("name", ["demo-budget", "tight-fit/level-circle"])
    def test_monotone_roots_are_searched_twice_per_run(self, name, monkeypatch):
        # Once per domain curve, however many re-split rounds follow: the
        # demo at fit_tol 1e-6 runs out of its 6 rounds.
        if name == "demo-budget":
            s1, s2 = paraboloid_patch(), plane_patch(0.0, 0.0, 0.04)
            config = PipelineConfig(march_step=0.18, fit_tol=1e-6)
        else:
            s1, s2, config = _FIT_CASES[name]
        search, build = segmentation.monotone_split_params, segmentation.build_patch_decomposition
        calls, builds = [], []

        def counted(curve):
            calls.append(curve)
            return search(curve)

        def counted_build(*args, **kwargs):
            builds.append(args[0])
            return build(*args, **kwargs)

        monkeypatch.setattr(segmentation, "monotone_split_params", counted)
        monkeypatch.setattr(watertight.pipeline, "monotone_split_params", counted)
        monkeypatch.setattr(watertight.pipeline, "build_patch_decomposition", counted_build)
        try:
            result = run_pipeline(s1, s2, config)
        except StageError as err:
            assert name == "demo-budget" and "split budget" in str(err)
        else:
            assert result.model.triples
        assert len(calls) == 2
        # More than one round: side a was decomposed again.
        assert sum(surface is s1 for surface in builds) > 1

    @pytest.mark.parametrize("name", sorted(_FIT_CASES))
    def test_monotone_segments_match_a_search_and_snap_reference(self, name, monkeypatch):
        s1, s2, config = _FIT_CASES[name]
        search, split = segmentation.monotone_split_params, segmentation.split_monotone
        counts = []

        def compared(curve, cuts):
            segments = split(curve, cuts)
            inserts, want = snapped_split(curve, search)
            bp = curve.breakpoints
            assert inserts == []
            assert [(float(bp[s.first]), float(bp[s.last]), s.axis, s.u_trend, s.v_trend)
                    for s in segments] == want
            assert all(s.curve is curve for s in segments)
            counts.append(len(segments))
            return segments

        monkeypatch.setattr(segmentation, "split_monotone", compared)
        data = build_intersection_data(s1, s2, config.march_step, MARCH_TOL)
        prepare_decompositions(data, s1, s2, config)
        assert len(counts) >= 2 and max(counts) > 1

    def test_roots_near_a_breakpoint_merge_into_it(self):
        curves = [line_curve([0.2, 0.0], [0.8, 1.0]).subdivide_at([0.5]),
                  line_curve([0.0, 0.3], [1.0, 0.6]).subdivide_at([0.5])]
        roots = [[0.5 + 5e-8, 0.25], [0.25 + 9e-8, 0.7]]
        (cut_a, cuts_a), (cut_b, cuts_b) = cut_trims(curves, roots, [0.7 - 2e-8, 0.9])
        # 0.25, 0.7 - 2e-8 and 0.9 are cut; every other parameter merges
        # into the breakpoint nearest it.
        assert cut_a.breakpoints.tolist() == cut_b.breakpoints.tolist()
        assert cut_a.breakpoints.tolist() == [0.0, 0.25, 0.5, 0.7 - 2e-8, 0.9, 1.0]
        assert cuts_a == [1, 2] and cuts_b == [1, 3]
        with pytest.raises(ValueError, match="one breakpoint array"):
            cut_trims([curves[0], line_curve([0.0, 0.3], [1.0, 0.6])], roots)
