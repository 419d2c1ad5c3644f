"""Bernstein/Bezier algebra tests.

Derived expectations are checked against independent oracles computed here:
direct basis summation for evaluation, pointwise sampling for subdivision,
elevation and composition, and hand-evaluated polynomials for basis changes.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from watertight import (
    BezierCurve,
    BezierSurface,
    BoundaryPolynomial,
    DomainError,
    PiecewiseBezierCurve,
    ReductionError,
    UnsupportedDegreeError,
    bernstein_from_monomial,
    compose_reparameterize,
    degree_reduce_curve,
)
from watertight.bezier import (
    _elevate_axis0,
    _subpatch_nets,
    _trim_rows,
    all_bernstein,
    compose_reparameterize_many,
    de_casteljau,
    de_casteljau_many,
    de_casteljau_split,
    degree_reduce_many,
    evaluate_grid_products,
    evaluate_pointwise,
    evaluate_stacked,
    polyval_rows,
    quadratic_roots,
    unit_ranges,
)


def direct_bernstein(k, l, x):
    """Naive closed form, the oracle for the recurrence."""
    return math.comb(l, k) * x**k * (1.0 - x) ** (l - k)


def direct_surface_eval(net, u, v):
    """Direct double Bernstein sum with compensated accumulation."""
    m = net.shape[0] - 1
    n = net.shape[1] - 1
    out = np.zeros(3)
    for c in range(3):
        out[c] = math.fsum(
            direct_bernstein(i, m, u) * direct_bernstein(j, n, v) * net[i, j, c]
            for i in range(m + 1)
            for j in range(n + 1)
        )
    return out


def random_surface(rng, m, n, scale=10.0):
    return BezierSurface(rng.uniform(-scale, scale, size=(m + 1, n + 1, 3)))


def monomial_from_bernstein(bern):
    """Monomial coefficients of sum_k b_k C(p,k) t^k (1-t)^(p-k), by np.polynomial."""
    t = np.polynomial.Polynomial([0.0, 1.0])
    p = len(bern) - 1
    total = sum(b * math.comb(p, k) * t**k * (1 - t) ** (p - k) for k, b in enumerate(bern))
    return np.pad(total.coef, (0, p + 1 - len(total.coef)))


def random_unit_polynomial(rng, p):
    """Valid boundary polynomial: Bernstein coefficients in [0,1] guarantee range."""
    bern = rng.uniform(0.0, 1.0, size=p + 1)
    return BoundaryPolynomial(monomial_from_bernstein(bern))


def f_at(f, t):
    """A boundary polynomial's value at t, from its monomial coefficients."""
    return np.polynomial.polynomial.polyval(t, f.coefficients)


def bernstein_sum(coeffs, t):
    """sum_k coeffs[k] B_k(t) by the direct closed form; coeffs may be point-valued."""
    l = coeffs.shape[0] - 1
    return sum(direct_bernstein(k, l, t) * coeffs[k] for k in range(l + 1))


def hodograph(points):
    """A polygon's hodograph along axis 0: degree times its forward
    differences, zero for a constant."""
    degree = points.shape[0] - 1
    return degree * np.diff(points, axis=0) if degree else np.zeros_like(points)


def hodograph_surfaces(surface):
    """The (S_u, S_v) hodograph nets of a surface, as surfaces."""
    net = surface.control_net
    return (BezierSurface(hodograph(net)),
            BezierSurface(hodograph(net.transpose(1, 0, 2)).transpose(1, 0, 2).copy()))


def subpatch(surface, u0, u1, v0, v1):
    """The surface restricted to one box, by `_subpatch_nets`."""
    return BezierSurface(_subpatch_nets(surface.control_net, [(u0, u1, v0, v1)])[0])


def bilinear_flat():
    net = np.array([
        [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
    ])
    return BezierSurface(net)


class TestBernsteinBasis:
    def test_known_value(self):
        assert all_bernstein(3, 0.5)[1] == pytest.approx(0.375, abs=1e-15)

    def test_endpoint(self):
        assert all_bernstein(4, 0.0)[0] == 1.0

    def test_partition_of_unity_degree7(self):
        total = math.fsum(all_bernstein(7, 0.3))
        assert abs(total - 1.0) <= 1e-14

    def test_negative_degree_raises(self):
        with pytest.raises(IndexError):
            all_bernstein(-1, 0.5)

    @given(
        l=st.integers(min_value=0, max_value=12),
        x=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_of_unity_property(self, l, x):
        assert abs(math.fsum(all_bernstein(l, x)) - 1.0) <= 1e-13

    def test_matches_direct_form(self):
        for l in range(9):
            for x in np.linspace(0.0, 1.0, 11):
                for k, value in enumerate(all_bernstein(l, x)):
                    assert value == pytest.approx(direct_bernstein(k, l, x), abs=1e-14)


class TestSurfaceEvaluation:
    def test_bilinear_center(self):
        s = bilinear_flat()
        assert np.allclose(s.evaluate(0.5, 0.5), [0.5, 0.5, 0.0], atol=1e-15)

    def test_corner_interpolation(self):
        rng = np.random.default_rng(7)
        s = random_surface(rng, 3, 2)
        assert np.array_equal(s.evaluate(0.0, 0.0), s.control_net[0, 0])
        assert np.array_equal(s.evaluate(1.0, 0.0), s.control_net[-1, 0])
        assert np.array_equal(s.evaluate(0.0, 1.0), s.control_net[0, -1])
        assert np.array_equal(s.evaluate(1.0, 1.0), s.control_net[-1, -1])

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        s = random_surface(rng, 3, 3)
        got = s.evaluate(0.3, 0.7)
        want = direct_surface_eval(s.control_net, 0.3, 0.7)
        assert np.linalg.norm(got - want) <= 1e-13

    def test_domain_check(self):
        s = bilinear_flat()
        with pytest.raises(DomainError):
            s.evaluate(-0.1, 0.5)
        with pytest.raises(DomainError):
            s.evaluate(0.5, 1.1)

    def test_convex_hull_box(self):
        rng = np.random.default_rng(13)
        s = random_surface(rng, 4, 3)
        lo = s.control_net.reshape(-1, 3).min(axis=0) - 1e-12
        hi = s.control_net.reshape(-1, 3).max(axis=0) + 1e-12
        for u in np.linspace(0, 1, 9):
            for v in np.linspace(0, 1, 9):
                p = s.evaluate(u, v)
                assert np.all(p >= lo) and np.all(p <= hi)

    def test_grid_matches_scalar(self):
        rng = np.random.default_rng(17)
        s = random_surface(rng, 3, 2)
        us = np.linspace(0, 1, 7)
        vs = np.linspace(0, 1, 5)
        grid = s.evaluate_grid(us, vs)
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                assert np.array_equal(grid[i, j], s.evaluate(u, v))


class TestFusedEvaluation:
    """`evaluate_with_partials`: one pass for the point and both partials."""

    @given(
        degrees=st.tuples(st.integers(0, 10), st.integers(0, 10)),
        seed=st.integers(0, 2**32 - 1),
        magnitude=st.floats(-3.0, 3.0),
        u=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        v=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_evaluate_and_the_hodographs(self, degrees, seed, magnitude, u, v):
        m, n = degrees
        net = np.random.default_rng(seed).uniform(-1.0, 1.0, (m + 1, n + 1, 3)) * 10.0**magnitude
        s = BezierSurface(net)
        value, partial_u, partial_v = s.evaluate_with_partials(u, v)
        assert np.array_equal(value, s.evaluate(u, v))
        # The scale of a partial: the hodograph's coefficient bound (degree
        # times the net's largest coordinate) times the m + n levels of
        # rounding that one tensor pass accumulates.
        scale = max(m + n, 1) * np.abs(net).max()
        su, sv = hodograph_surfaces(s)
        assert np.abs(partial_u - su.evaluate(u, v)).max() <= 1e-15 * max(m, 1) * scale
        assert np.abs(partial_v - sv.evaluate(u, v)).max() <= 1e-15 * max(n, 1) * scale

    def test_domain_check(self):
        with pytest.raises(DomainError):
            bilinear_flat().evaluate_with_partials(0.5, 1.1)


class TestGridProducts:
    @pytest.mark.parametrize("degrees", [(0, 0), (1, 1), (2, 1), (3, 9), (10, 2), (0, 4), (8, 3)])
    def test_matches_de_casteljau_grids(self, degrees):
        m, n = degrees
        nets = np.random.default_rng(m * 11 + n).uniform(-1.0, 1.0, (4, m + 1, n + 1, 3))
        ts = np.linspace(0.0, 1.0, 21)
        uv = np.stack(np.meshgrid(ts, ts, indexing="ij"), axis=-1).reshape(-1, 2)
        value, partial_u, partial_v = evaluate_grid_products(nets, 21, partials=True)
        pointwise = np.stack([evaluate_pointwise(net, uv).reshape(21, 21, 3) for net in nets])
        assert np.allclose(value, pointwise, rtol=0.0, atol=1e-14)
        assert np.array_equal(evaluate_grid_products(nets, 21), value)
        for k, net in enumerate(nets):
            su, sv = hodograph_surfaces(BezierSurface(net))
            assert np.allclose(partial_u[k], su.evaluate_grid(ts, ts), rtol=0.0, atol=1e-13)
            assert np.allclose(partial_v[k], sv.evaluate_grid(ts, ts), rtol=0.0, atol=1e-13)


class TestPiecewiseCurve:
    def test_linear_midpoint(self):
        c = PiecewiseBezierCurve(np.array([[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]]), np.array([0.0, 1.0]))
        assert np.allclose(c.evaluate(0.5), [0.5, 0.5, 0.5], atol=1e-15)

    def test_breakpoint_returns_shared_junction(self):
        j = np.array([1.0, 2.0, 3.0])
        c = PiecewiseBezierCurve(np.array([[[0.0, 0.0, 0.0], j], [j, [2.0, 0.0, 1.0]]]),
                                 np.array([0.0, 0.4, 1.0]))
        assert np.array_equal(c.evaluate(0.4), j)

    def test_two_segment_local_parameter(self):
        rng = np.random.default_rng(3)
        cps1 = rng.standard_normal((4, 3))
        cps2 = rng.standard_normal((4, 3))
        cps2[0] = cps1[-1]
        c = PiecewiseBezierCurve(np.stack([cps1, cps2]), np.array([0.0, 0.5, 1.0]))
        # Manual segment-local evaluation as the oracle.
        want = de_casteljau(cps2, (0.75 - 0.5) / 0.5)
        assert np.allclose(c.evaluate(0.75), want, atol=1e-15)

    def test_junction_mismatch_rejected(self):
        polygons = np.array([[[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0 + 1e-9], [2.0, 0.0]]])
        with pytest.raises(ValueError, match="junction"):
            PiecewiseBezierCurve(polygons, np.array([0.0, 0.5, 1.0]))

    def test_subdivide_preserves_values(self):
        rng = np.random.default_rng(5)
        cps = rng.standard_normal((4, 2))
        c = PiecewiseBezierCurve(cps[None], np.array([0.0, 1.0]))
        c2 = c.subdivide_at([0.25, 0.7])
        assert c2.polygons.shape == (3, 4, 2)
        for t in np.linspace(0, 1, 23):
            assert np.allclose(c.evaluate(t), c2.evaluate(t), atol=1e-13)

    def test_out_of_range(self):
        c = PiecewiseBezierCurve(np.array([[[0.0, 0.0], [1.0, 1.0]]]), np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            c.evaluate(1.5)

    def test_subdivide_skips_as_the_scan_over_every_breakpoint(self):
        rng = np.random.default_rng(8)
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 30)), [1.0]])
        polygons = rng.standard_normal((31, 4, 2))
        polygons[1:, 0] = polygons[:-1, -1]
        curve = PiecewiseBezierCurve(polygons, breaks)
        # Parameters at, within, just past and well past 1e-13 of a
        # breakpoint or of each other, repeats, the domain ends and fresh ones.
        near = breaks[rng.integers(0, 32, 40)] + rng.choice(
            [0.0, 5e-14, -5e-14, 1e-13, -1e-13, 1.5e-13, -1.5e-13, 1e-9], 40)
        fresh = rng.uniform(0.0, 1.0, 40)
        params = np.concatenate([near, fresh, fresh[:10] + 8e-14, fresh[:5], [0.0, 1.0]])
        params = params[(params >= 0.0) & (params <= 1.0)]
        got, want = curve.subdivide_at(params), scanned_subdivide(curve, params)
        assert np.array_equal(got.breakpoints, want.breakpoints)
        assert want.polygons.shape[0] > curve.polygons.shape[0] + 40
        assert np.array_equal(got.polygons, want.polygons)
        with pytest.raises(DomainError, match="outside"):
            curve.subdivide_at([0.5, 1.0 + 1e-9])


def scanned_subdivide(curve, params):
    """`subdivide_at` as it was, testing each parameter against every
    breakpoint with a scan and splitting a list of per-segment polygons."""
    segments = [polygon.copy() for polygon in curve.polygons]
    breaks = list(curve.breakpoints)
    for t in sorted(set(float(p) for p in params)):
        if any(abs(t - b) <= 1e-13 for b in breaks):
            continue
        idx = int(np.searchsorted(breaks, t, side="right")) - 1
        lo, hi = breaks[idx], breaks[idx + 1]
        segments[idx:idx + 1] = de_casteljau_split(segments[idx], (t - lo) / (hi - lo))
        breaks.insert(idx + 1, t)
    return PiecewiseBezierCurve(np.array(segments), np.array(breaks))


def split_rows(pts, t):
    """Reference de Casteljau split along axis 0, kept apart from bezier.py."""
    left, right = [pts[0]], [pts[-1]]
    while pts.shape[0] > 1:
        pts = (1.0 - t) * pts[:-1] + t * pts[1:]
        left.append(pts[0])
        right.append(pts[-1])
    return np.array(left), np.array(right[::-1])


def restrict_rows(pts, a, b):
    if a > 0.0:
        pts = split_rows(pts, a)[1]
        b = (b - a) / (1.0 - a)
    if b < 1.0:
        pts = split_rows(pts, b)[0]
    return pts


class TestSubpatchExtraction:
    def test_matches_axis_split_reference_bitwise(self):
        rng = np.random.default_rng(21)
        for m, n in ((1, 1), (2, 3), (4, 2), (6, 6)):
            s = random_surface(rng, m, n)
            for box in ((0.0, 1.0, 0.0, 1.0), (0.2, 0.9, 0.0, 0.35), (0.0, 0.4, 0.6, 1.0),
                        tuple(np.concatenate([np.sort(rng.uniform(0, 1, 2)) for _ in range(2)]))):
                u0, u1, v0, v1 = box
                want = restrict_rows(s.control_net, u0, u1)
                want = restrict_rows(want.transpose(1, 0, 2), v0, v1).transpose(1, 0, 2)
                got = subpatch(s, u0, u1, v0, v1).control_net
                assert np.array_equal(got, want)

    def test_batched_boxes_match_one_box_calls_bitwise(self):
        # Boxes that touch the domain edge leave that end unsplit, so a net
        # holding signed zeros keeps their bits there.
        rng = np.random.default_rng(24)
        s = random_surface(rng, 3, 2)
        net = s.control_net.copy()
        net[::2, :, 2] = -0.0
        s = BezierSurface(net)
        boxes = [(0.0, 1.0, 0.0, 1.0), (0.0, 0.3, 0.5, 1.0), (0.25, 1.0, 0.0, 0.75),
                 (0.1, 0.6, 0.2, 0.9), (0.6, 1.0, 0.0, 1.0)]
        nets = _subpatch_nets(s.control_net, boxes)
        assert nets.shape == (len(boxes),) + s.control_net.shape
        assert nets.flags.c_contiguous
        for box, got in zip(boxes, nets):
            want = restrict_rows(s.control_net, box[0], box[1])
            want = restrict_rows(want.transpose(1, 0, 2), box[2], box[3]).transpose(1, 0, 2)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(got, subpatch(s, *box).control_net)
        assert np.array_equal(np.signbit(nets[0]), np.signbit(net))

    def test_full_domain_identity(self):
        rng = np.random.default_rng(19)
        s = random_surface(rng, 3, 3)
        sub = subpatch(s, 0.0, 1.0, 0.0, 1.0)
        assert np.array_equal(sub.control_net, s.control_net)

    def test_bilinear_half(self):
        sub = subpatch(bilinear_flat(), 0.0, 0.5, 0.0, 1.0)
        corners = sub.control_net
        assert np.allclose(corners[0, 0], [0.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(corners[1, 0], [0.5, 0.0, 0.0], atol=1e-15)
        assert np.allclose(corners[0, 1], [0.0, 1.0, 0.0], atol=1e-15)
        assert np.allclose(corners[1, 1], [0.5, 1.0, 0.0], atol=1e-15)

    def test_sampled_equality_oracle(self):
        rng = np.random.default_rng(23)
        s = random_surface(rng, 3, 3)
        sub = subpatch(s, 0.25, 0.75, 0.25, 0.75)
        assert sub.degree_u == 3 and sub.degree_v == 3
        for a in np.linspace(0, 1, 11):
            for b in np.linspace(0, 1, 11):
                want = s.evaluate(0.25 + a * 0.5, 0.25 + b * 0.5)
                assert np.linalg.norm(sub.evaluate(a, b) - want) <= 1e-12

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_subdivision_exactness_property(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        s = random_surface(rng, m, n)
        u0, u1 = sorted(rng.uniform(0.0, 1.0, 2))
        v0, v1 = sorted(rng.uniform(0.0, 1.0, 2))
        if u1 - u0 < 1e-3 or v1 - v0 < 1e-3:
            return
        sub = subpatch(s, u0, u1, v0, v1)
        for a in np.linspace(0, 1, 5):
            for b in np.linspace(0, 1, 5):
                want = s.evaluate(u0 + a * (u1 - u0), v0 + b * (v1 - v0))
                assert np.linalg.norm(sub.evaluate(a, b) - want) <= 1e-12


def loop_elevate(pts, target):
    """Reference: one degree step at a time, one control point at a time."""
    while pts.shape[0] - 1 < target:
        d = pts.shape[0] - 1
        new = np.empty((d + 2, pts.shape[1]))
        new[0] = pts[0]
        new[-1] = pts[-1]
        for i in range(1, d + 1):
            a = i / (d + 1)
            new[i] = a * pts[i - 1] + (1.0 - a) * pts[i]
        pts = new
    return pts


class TestDegreeElevation:
    def test_matches_pointwise_loop_bitwise(self):
        rng = np.random.default_rng(33)
        for degree in range(0, 5):
            for target in range(degree, 9):
                pts = rng.uniform(-10, 10, size=(degree + 1, 3))
                assert np.array_equal(_elevate_axis0(pts, target), loop_elevate(pts, target))

    def test_surface_elevation_matches_per_row_loops_bitwise(self):
        # A net elevated along u (axis 0) or, transposed, along v.
        rng = np.random.default_rng(34)
        net = random_surface(rng, 2, 3).control_net
        for target in (3, 4, 7):
            want_u = np.stack([loop_elevate(net[:, j], target) for j in range(net.shape[1])], axis=1)
            assert np.array_equal(_elevate_axis0(net, target), want_u)
        for target in (3, 5, 8):
            want_v = np.stack([loop_elevate(net[i], target) for i in range(net.shape[0])], axis=0)
            got = _elevate_axis0(net.transpose(1, 0, 2), target).transpose(1, 0, 2)
            assert np.array_equal(got, want_v)
        with pytest.raises(ValueError):
            _elevate_axis0(net, 1)

    def test_linear_to_quadratic_midpoint(self):
        e = _elevate_axis0(np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 0.0]]), 2)
        assert np.allclose(
            e,
            [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0]],
            atol=1e-15,
        )

    def test_identity_at_same_degree(self):
        rng = np.random.default_rng(29)
        c = rng.standard_normal((4, 3))
        e = _elevate_axis0(c, 3)
        assert np.array_equal(e, c)
        assert e is not c

    def test_cubic_to_degree9_pointwise(self):
        rng = np.random.default_rng(31)
        c = rng.standard_normal((4, 3))
        e = _elevate_axis0(c, 9)
        assert e.shape == (10, 3)
        for t in np.linspace(0, 1, 21):
            assert np.linalg.norm(de_casteljau(c, t) - de_casteljau(e, t)) <= 1e-12

    def test_target_below_degree_rejected(self):
        with pytest.raises(ValueError):
            _elevate_axis0(np.zeros((4, 3)), 2)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        target=st.integers(min_value=3, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_elevation_exactness_property(self, seed, target):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-10, 10, size=(4, 3))
        e = _elevate_axis0(c, target)
        for t in np.linspace(0, 1, 9):
            assert np.linalg.norm(de_casteljau(c, t) - de_casteljau(e, t)) <= 1e-12


class TestDegreeReduction:
    def test_recovers_elevated_cubic(self):
        rng = np.random.default_rng(37)
        cubic = rng.standard_normal((4, 3))
        elevated = BezierCurve(_elevate_axis0(cubic, 5))
        reduced = degree_reduce_curve(elevated, 3, tol=1e-8)
        assert np.allclose(reduced.control_points, cubic, atol=1e-10)

    def test_line_stored_as_cubic(self):
        p0 = np.array([0.0, 0.0, 0.0])
        p1 = np.array([3.0, 3.0, 3.0])
        cps = np.array([p0, p0 + (p1 - p0) / 3, p0 + 2 * (p1 - p0) / 3, p1])
        reduced = degree_reduce_curve(BezierCurve(cps), 1, tol=1e-9)
        assert np.allclose(reduced.control_points, [p0, p1], atol=1e-12)

    def test_infeasible_reduction_reports_deviation(self):
        cps = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
        curve = BezierCurve(cps)
        actual = max(
            np.linalg.norm(de_casteljau(cps, t) - de_casteljau(cps[[0, -1]], t))
            for t in np.linspace(0, 1, 257)
        )
        with pytest.raises(ReductionError) as err:
            degree_reduce_curve(curve, 1, tol=1e-9)
        assert err.value.deviation == pytest.approx(actual, rel=1e-9)


def lstsq_reduction(cps, target):
    """Endpoint-interpolating least-squares reduction by `np.linalg.lstsq`,
    over the samples `degree_reduce_curve` fits: the reference for its
    cached pseudo-inverse."""
    degree = cps.shape[0] - 1
    ts = np.linspace(0.0, 1.0, max(10 * degree, 4 * (target + 1)))
    values = np.array([de_casteljau(cps, t) for t in ts])
    basis = all_bernstein(target, ts)
    rhs = values - np.outer(basis[:, 0], cps[0]) - np.outer(basis[:, -1], cps[-1])
    interior = np.linalg.lstsq(basis[:, 1:-1], rhs, rcond=None)[0]
    return np.vstack([cps[0], interior, cps[-1]])


def reducible_and_bumped(rng, degree, target, count):
    """`count` polygons of `degree`: even ones elevated from `target`, odd
    ones the same with a bump of 1e-2 at one interior control point."""
    rows = np.stack([
        _elevate_axis0(rng.standard_normal((target + 1, 3)), degree) for _ in range(count)
    ])
    rows[1::2, degree // 2] += 1e-2 * rng.standard_normal((count // 2, 3))
    return rows


class TestBatchedReduction:
    # More rows than one check batch holds, so the batch cut is crossed.
    @pytest.mark.parametrize("degree, target", [(3, 1), (6, 1), (6, 3), (8, 2), (8, 3)])
    def test_matches_one_curve_reduction(self, degree, target):
        rng = np.random.default_rng(1000 + 10 * degree + target)
        rows = reducible_and_bumped(rng, degree, target, 150)
        tol = 1e-6
        reduced, deviation = degree_reduce_many(rows, target)
        assert reduced.shape == (150, target + 1, 3)
        decisions = []
        for row, got, dev in zip(rows, reduced, deviation):
            scale = np.abs(row).max()
            try:
                one = degree_reduce_curve(BezierCurve(row), target, tol)
            except ReductionError as err:
                decisions.append(False)
                assert dev > tol
                assert err.deviation == pytest.approx(dev, rel=1e-12)
            else:
                decisions.append(True)
                assert dev <= tol
                assert np.abs(one.control_points - got).max() <= 1e-15 * scale
        assert decisions == [k % 2 == 0 for k in range(150)]

    @pytest.mark.parametrize("degree, target", [(3, 1), (6, 3), (8, 2), (8, 3)])
    def test_pseudo_inverse_matches_lstsq(self, degree, target):
        rng = np.random.default_rng(1100 + 10 * degree + target)
        rows = reducible_and_bumped(rng, degree, target, 8)
        reduced, _ = degree_reduce_many(rows, target)
        for row, got in zip(rows, reduced):
            assert np.array_equal(got[[0, -1]], row[[0, -1]])
            assert np.abs(got - lstsq_reduction(row, target)).max() <= 1e-14 * np.abs(row).max()

    def test_deviation_is_sampled_distance(self):
        rng = np.random.default_rng(1200)
        rows = reducible_and_bumped(rng, 6, 3, 4)
        reduced, deviation = degree_reduce_many(rows, 3)
        dense = np.linspace(0.0, 1.0, 257)
        for row, got, dev in zip(rows, reduced, deviation):
            want = np.linalg.norm(
                de_casteljau_many(row, dense) - de_casteljau_many(got, dense), axis=1
            ).max()
            assert dev == pytest.approx(want, rel=1e-9, abs=1e-15)


class TestBasisConversion:
    def test_degree_one(self):
        assert np.array_equal(bernstein_from_monomial(np.array([0.0, 1.0])), [0.0, 1.0])

    def test_round_trip_degree6(self):
        # Monomial coefficients in, Bernstein coefficients out: both forms
        # must evaluate to the same polynomial (np.polynomial is the oracle).
        rng = np.random.default_rng(41)
        a = rng.uniform(-5, 5, size=7)
        b = bernstein_from_monomial(a)
        for t in np.linspace(0.0, 1.0, 17):
            want = np.polynomial.polynomial.polyval(t, a)
            assert bernstein_sum(b, t) == pytest.approx(want, abs=1e-12)

    def test_shifted_square(self):
        # (t - 0.5)^2 has monomial coefficients (0.25, -1, 1); verify the
        # Bernstein form by evaluating both at t in {0, 0.5, 1}.
        bern = bernstein_from_monomial(np.array([0.25, -1.0, 1.0]))
        assert np.allclose(bern, [0.25, -0.25, 0.25], atol=1e-14)
        for t in (0.0, 0.5, 1.0):
            direct = (t - 0.5) ** 2
            via_basis = math.fsum(bern[k] * direct_bernstein(k, 2, t) for k in range(3))
            assert via_basis == pytest.approx(direct, abs=1e-14)

    def test_point_valued_round_trip(self):
        rng = np.random.default_rng(43)
        a = rng.uniform(-5, 5, size=(7, 3))
        b = bernstein_from_monomial(a)
        assert b.shape == (7, 3)
        for t in np.linspace(0.0, 1.0, 17):
            want = np.polynomial.polynomial.polyval(t, a)
            assert np.allclose(bernstein_sum(b, t), want, rtol=0.0, atol=1e-12)


class TestBoundaryPolynomial:
    def test_trailing_zeros_trimmed(self):
        f = BoundaryPolynomial(np.array([0.5, 0.25, 0.0]))
        assert f.degree == 1

    def test_range_with_interior_extremum(self):
        # 4t(1-t) peaks at exactly 1.0 at t=0.5, found via the derivative root.
        f = BoundaryPolynomial(np.array([0.0, 4.0, -4.0]))
        lo, hi = f.unit_range()
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)
        f.validate_unit_range()

    def test_out_of_range_rejected(self):
        f = BoundaryPolynomial(np.array([0.0, 4.4, -4.0]))
        with pytest.raises(DomainError):
            f.validate_unit_range()


class TestComposition:
    def test_constant_one_is_identity(self):
        rng = np.random.default_rng(47)
        s = random_surface(rng, 2, 3)
        out = compose_reparameterize(s, BoundaryPolynomial(np.array([1.0])))
        assert out.degree_u == 2 and out.degree_v == 3
        assert np.allclose(out.control_net, s.control_net, atol=1e-12)

    def test_bilinear_with_linear_f(self):
        s = bilinear_flat()
        out = compose_reparameterize(s, BoundaryPolynomial(np.array([0.0, 1.0])))
        assert (out.degree_u, out.degree_v) == (1, 2)
        want = np.array([
            [[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 1.0, 0.0]],
            [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [1.0, 1.0, 0.0]],
        ])
        assert np.allclose(out.control_net, want, atol=1e-13)
        # Pointwise oracle: the composed map is (s*t, t, 0).
        for a in np.linspace(0, 1, 5):
            for b in np.linspace(0, 1, 5):
                assert np.allclose(out.evaluate(a, b), [a * b, b, 0.0], atol=1e-13)

    def test_degree_law_bicubic_quadratic(self):
        rng = np.random.default_rng(53)
        s = random_surface(rng, 3, 3)
        f = random_unit_polynomial(rng, 2)
        assert f.degree == 2
        out = compose_reparameterize(s, f)
        assert (out.degree_u, out.degree_v) == (3, 9)

    def test_composition_exactness(self):
        rng = np.random.default_rng(59)
        # Ten random small shapes (drawn lazily, between the nets and the f's),
        # then shapes up to the caps MAX_SURFACE_DEGREE and MAX_BOUNDARY_DEGREE.
        random_shapes = (
            (int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            for _ in range(10)
        )
        cap_shapes = [(4, 6, 3), (6, 6, 3), (8, 10, 3), (10, 10, 3)]
        for m, n, p in itertools.chain(random_shapes, cap_shapes):
            s = random_surface(rng, m, n)
            f = random_unit_polynomial(rng, p)
            out = compose_reparameterize(s, f)
            assert out.degree_v == m * f.degree + n
            worst = 0.0
            for a in np.linspace(0, 1, 21):
                for b in np.linspace(0, 1, 21):
                    want = s.evaluate(min(max(a * float(f_at(f, b)), 0.0), 1.0), b)
                    worst = max(worst, float(np.linalg.norm(out.evaluate(a, b) - want)))
            assert worst <= 1e-9

    def test_degree_caps(self):
        rng = np.random.default_rng(61)
        big = random_surface(rng, 11, 2)
        with pytest.raises(UnsupportedDegreeError):
            compose_reparameterize(big, BoundaryPolynomial(np.array([1.0])))
        s = random_surface(rng, 2, 2)
        quartic = BoundaryPolynomial(np.array([0.1, 0.1, 0.1, 0.1, 0.1]))
        with pytest.raises(UnsupportedDegreeError):
            compose_reparameterize(s, quartic)

    def test_range_violation_rejected(self):
        s = bilinear_flat()
        with pytest.raises(DomainError):
            compose_reparameterize(s, BoundaryPolynomial(np.array([0.0, 2.0])))


def polyroots_range(coeffs):
    """The range search by `np.polynomial.polynomial.polyroots`, one polynomial."""
    f = BoundaryPolynomial(coeffs)
    ts = list(np.linspace(0.0, 1.0, 257))
    c = f.coefficients
    dc = c[1:] * np.arange(1, c.shape[0]) if c.shape[0] > 1 else np.zeros(1)
    if dc.shape[0] > 1 or dc[0] != 0.0:
        for root in np.polynomial.polynomial.polyroots(dc):
            if abs(root.imag) < 1e-9 and -1e-9 < root.real < 1.0 + 1e-9:
                ts.append(min(max(float(root.real), 0.0), 1.0))
    values = f_at(f, np.array(ts))
    return float(values.min()), float(values.max())


class TestStackedComposition:
    @given(
        shape=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        count=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_net_matches_its_one_net_call_and_the_surface(self, shape, count, seed):
        m, n, p = shape
        rng = np.random.default_rng(seed)
        nets = rng.uniform(-10.0, 10.0, size=(count, m + 1, n + 1, 3))
        fs = [random_unit_polynomial(rng, p) for _ in range(count)]
        assume(all(f.degree == p for f in fs))
        stacked = compose_reparameterize_many(nets, fs)
        assert stacked.shape == (count, m + 1, m * p + n + 1, 3)
        ts = np.linspace(0.0, 1.0, 7)
        for net, f, got in zip(nets, fs, stacked):
            one = compose_reparameterize(BezierSurface(net), f).control_net
            assert np.array_equal(got, one)
            surface, composed = BezierSurface(net), BezierSurface(got)
            for a in ts:
                for b in ts:
                    want = surface.evaluate(min(max(a * float(f_at(f, b)), 0.0), 1.0), b)
                    assert np.abs(composed.evaluate(a, b) - want).max() <= 1e-12 * 10.0

    def test_mixed_degrees_rejected(self):
        nets = np.zeros((2, 2, 2, 3))
        fs = [BoundaryPolynomial(np.array([0.5, 0.25])), BoundaryPolynomial(np.array([0.5]))]
        with pytest.raises(ValueError, match="one degree"):
            compose_reparameterize_many(nets, fs)

    def test_every_polynomial_is_range_checked(self):
        nets = np.zeros((2, 2, 2, 3))
        fs = [BoundaryPolynomial(np.array([0.5, 0.25])), BoundaryPolynomial(np.array([0.0, 2.0]))]
        with pytest.raises(DomainError):
            compose_reparameterize_many(nets, fs)

    def test_stacked_ranges_match_polyroots(self):
        """Each stacked row has its one-polynomial range bit for bit, and
        `polyroots`' range within 1e-15 of the row's scale."""
        rng = np.random.default_rng(71)
        rows = [rng.uniform(-2.0, 2.0, size=4) for _ in range(200)]
        # Trimmed tops, a linear derivative, complex and repeated roots.
        rows += [np.array([0.5, 0.25, 1e-16, 0.0]), np.array([0.0, 4.0, -4.0, 0.0]),
                 np.array([0.2, 0.0, 0.0, 1.0]), np.array([0.3, 0.0, 0.0, 0.0])]
        coeffs, degrees = _trim_rows(np.stack(rows))
        lo, hi = unit_ranges(coeffs, degrees)
        for row, a, b in zip(rows, lo, hi):
            scale = max(1.0, np.abs(row).max())
            want = polyroots_range(row)
            assert abs(a - want[0]) <= 1e-15 * scale and abs(b - want[1]) <= 1e-15 * scale
            assert BoundaryPolynomial(row).unit_range() == (float(a), float(b))


def companion_ranges(coeffs, degrees, values):
    """The range search `unit_ranges` replaced: the roots of f' by the
    eigenvalues of its companion matrix, as `polyroots` finds them."""
    lo, hi = values.min(axis=1), values.max(axis=1)
    for degree in np.unique(degrees[degrees >= 2]):
        rows = np.flatnonzero(degrees == degree)
        dc = coeffs[rows, 1:degree + 1] * np.arange(1, degree + 1)
        if degree == 2:
            roots = -dc[:, :1] / dc[:, 1:]
        else:
            size = degree - 1
            companion = np.zeros((rows.shape[0], size, size))
            companion[:, np.arange(1, size), np.arange(size - 1)] = 1.0
            companion[:, :, -1] -= dc[:, :-1] / dc[:, -1:]
            roots = np.linalg.eigvals(companion)
        real = np.real(roots)
        inside = (np.abs(np.imag(roots)) < 1e-9) & (-1e-9 < real) & (real < 1.0 + 1e-9)
        at = np.where(inside, polyval_rows(coeffs[rows], np.clip(real, 0.0, 1.0)), values[rows, :1])
        lo[rows] = np.minimum(lo[rows], at.min(axis=1))
        hi[rows] = np.maximum(hi[rows], at.max(axis=1))
    return lo, hi


class TestQuadraticRoots:
    """`quadratic_roots`, the one root search, and `unit_ranges` on it."""

    def test_ranges_match_the_companion_search(self):
        rng = np.random.default_rng(73)
        rows = rng.uniform(-2.0, 2.0, (4000, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (4000, 1))
        # Derivatives with both roots in [0, 1], and one with a double root at 0.4.
        r = np.sort(rng.uniform(0.0, 1.0, (1000, 2)), axis=1)
        rows = np.vstack([rows, np.stack([rng.uniform(-1, 1, 1000), r[:, 0] * r[:, 1],
                                          -(r[:, 0] + r[:, 1]) / 2, np.full(1000, 1 / 3)], axis=1),
                          [[0.0, 0.16, -0.4, 1 / 3]]])
        coeffs, degrees = _trim_rows(rows)
        values = polyval_rows(coeffs, np.linspace(0.0, 1.0, 257))
        lo, hi = unit_ranges(coeffs, degrees, values)
        want_lo, want_hi = companion_ranges(coeffs, degrees, values)
        scale = np.maximum(1.0, np.abs(coeffs).max(axis=1))
        assert np.all(np.abs(lo - want_lo) <= 1e-15 * scale)
        assert np.all(np.abs(hi - want_hi) <= 1e-15 * scale)

    def test_distinct_real_roots(self):
        rng = np.random.default_rng(79)
        r = rng.uniform(-2.0, 2.0, (500, 2))
        a = rng.uniform(0.5, 2.0, 500) * rng.choice([-1.0, 1.0], 500)
        roots = quadratic_roots(a, -a * (r[:, 0] + r[:, 1]), a * r[:, 0] * r[:, 1])
        assert np.abs(np.sort(roots, axis=1) - np.sort(r, axis=1)).max() <= 1e-12

    def test_linear_and_constant_rows(self):
        roots = quadratic_roots([0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-1.0, 3.0, 0.0])
        assert roots[0, 0] == 0.5 and np.isnan(roots[0, 1])
        assert np.all(np.isnan(roots[1:]))

    def test_double_roots(self):
        assert np.array_equal(quadratic_roots(1.0, -1.0, 0.25), [0.5, 0.5])
        assert np.array_equal(quadratic_roots(1.0, 0.0, 0.0), [0.0, 0.0])

    def test_near_double_roots(self):
        # (x - 2^-10)^2 + d: imaginary parts sqrt(d) of 4.7e-10 and 3.0e-8.
        near = quadratic_roots(1.0, -2.0**-9, 2.0**-20 + 2.0**-62)
        assert np.array_equal(near, [2.0**-10, 2.0**-10])
        assert np.all(np.isnan(quadratic_roots(1.0, -2.0**-9, 2.0**-20 + 2.0**-50)))
        assert np.all(np.isnan(quadratic_roots(1.0, 0.0, 1.0)))

    def test_degree_above_the_cap_raises(self):
        with pytest.raises(UnsupportedDegreeError):
            unit_ranges(np.array([[0.1, 0.1, 0.1, 0.1, 0.1]]), np.array([4]))


class TestAffineEquivariance:
    @staticmethod
    def _random_affine(rng):
        a = rng.uniform(-2, 2, size=(3, 3))
        b = rng.uniform(-5, 5, size=3)
        return lambda pts: pts @ a.T + b

    def test_ops_commute_with_affine(self):
        rng = np.random.default_rng(67)
        apply = self._random_affine(rng)
        s = random_surface(rng, 3, 2, scale=3.0)
        s_t = BezierSurface(apply(s.control_net.reshape(-1, 3)).reshape(s.control_net.shape))

        for u, v in [(0.3, 0.8), (0.0, 1.0), (0.6, 0.2)]:
            assert np.allclose(apply(s.evaluate(u, v)[None])[0], s_t.evaluate(u, v), atol=1e-11)

        sub = subpatch(s, 0.2, 0.9, 0.1, 0.7)
        sub_t = subpatch(s_t, 0.2, 0.9, 0.1, 0.7)
        assert np.allclose(
            apply(sub.control_net.reshape(-1, 3)).reshape(sub.control_net.shape),
            sub_t.control_net,
            atol=1e-11,
        )

        c = rng.uniform(-3, 3, size=(4, 3))
        e = _elevate_axis0(c, 7)
        e_t = _elevate_axis0(apply(c), 7)
        assert np.allclose(apply(e), e_t, atol=1e-11)

        f = random_unit_polynomial(rng, 2)
        comp = compose_reparameterize(s, f)
        comp_t = compose_reparameterize(s_t, f)
        assert np.allclose(
            apply(comp.control_net.reshape(-1, 3)).reshape(comp.control_net.shape),
            comp_t.control_net,
            atol=1e-11,
        )


def scalar_bernstein(degree, x):
    """The stable recurrence, one parameter at a time: the batched oracle."""
    vals = np.zeros(degree + 1)
    vals[0] = 1.0
    u = 1.0 - x
    for j in range(1, degree + 1):
        saved = 0.0
        for k in range(j):
            temp = vals[k]
            vals[k] = saved + u * temp
            saved = x * temp
        vals[j] = saved
    return vals


def chained_curve(rng, degree, count, dim=3):
    """Piecewise curve of `count` segments of one degree, random breaks."""
    polygons = rng.standard_normal((count, degree + 1, dim))
    for k in range(1, count):
        polygons[k, 0] = polygons[k - 1, -1]
    inner = np.sort(rng.uniform(0.0, 1.0, count - 1))
    return PiecewiseBezierCurve(polygons, np.concatenate([[0.0], inner, [1.0]]))


def hodograph_at(curve, t):
    """The global-parameter derivative at t, from the segment's own hodograph."""
    idx, local = curve.locate(t)
    span = curve.breakpoints[idx + 1] - curve.breakpoints[idx]
    return de_casteljau(hodograph(curve.polygons[idx]), local) / span


def kernel_params(rng, curve):
    return np.concatenate([[0.0, 1.0], curve.breakpoints, rng.uniform(0.0, 1.0, 50)])


class TestBatchedKernels:
    """Batched kernels take the scalar arithmetic, so they match bit for bit."""

    @pytest.mark.parametrize("degree", range(8))
    def test_de_casteljau_many_matches_scalar(self, degree):
        rng = np.random.default_rng(100 + degree)
        cps = rng.standard_normal((degree + 1, 3))
        ts = np.concatenate([[0.0, 1.0, 0.5], rng.uniform(0.0, 1.0, 40)])
        want = np.array([de_casteljau(cps, t) for t in ts])
        assert np.array_equal(de_casteljau_many(cps, ts), want)
        stacks = rng.standard_normal((ts.shape[0], degree + 1, 2))
        want = np.array([de_casteljau(p, t) for p, t in zip(stacks, ts)])
        assert np.array_equal(de_casteljau_many(stacks, ts), want)

    def test_de_casteljau_many_endpoints_exact(self):
        cps = np.array([[-0.0, 1.0], [3.0, -2.0], [0.5, 0.25]])
        out = de_casteljau_many(cps, np.array([0.0, 1.0]))
        assert np.array_equal(out, cps[[0, -1]])
        assert np.signbit(out[0, 0])

    @pytest.mark.parametrize("degree", range(8))
    def test_piecewise_batches_match_scalar(self, degree):
        rng = np.random.default_rng(200 + degree)
        curve = chained_curve(rng, degree, 5)
        ts = kernel_params(rng, curve)
        assert np.array_equal(
            curve.evaluate_many(ts), np.array([curve.evaluate(t) for t in ts])
        )
        assert np.array_equal(
            curve.derivative_many(ts), np.array([hodograph_at(curve, t) for t in ts])
        )

    def test_mixed_degree_stack_raises(self):
        # A curve has one degree: a cubic and a quadratic do not stack.
        cubic = np.array([[0.0, 0.0], [0.2, 0.5], [0.6, 0.5], [1.0, 1.0]])
        quadratic = np.array([[1.0, 1.0], [1.5, 1.2], [2.0, 0.0]])
        with pytest.raises(ValueError):
            PiecewiseBezierCurve([cubic, quadratic], np.array([0.0, 0.5, 1.0]))

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 7, 12])
    def test_all_bernstein_batch_matches_recurrence(self, degree):
        rng = np.random.default_rng(400 + degree)
        xs = np.concatenate([[0.0, 1.0, 0.5], rng.uniform(0.0, 1.0, 60)])
        batch = all_bernstein(degree, xs)
        assert batch.shape == (xs.shape[0], degree + 1)
        for x, row in zip(xs, batch):
            assert np.array_equal(row, scalar_bernstein(degree, x))
            assert np.array_equal(all_bernstein(degree, x), row)

    @pytest.mark.parametrize("m,n", [(0, 0), (1, 2), (3, 3), (3, 9), (5, 1)])
    def test_surface_evaluate_many_matches_scalar(self, m, n):
        rng = np.random.default_rng(500 + 10 * m + n)
        s = random_surface(rng, m, n)
        uv = np.vstack([
            [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.5]],
            rng.uniform(0.0, 1.0, (60, 2)),
        ])
        want = np.array([s.evaluate(u, v) for u, v in uv])
        scale = np.abs(s.control_net).max()
        assert np.abs(s.evaluate_many(uv) - want).max() <= 1e-14 * scale

    @pytest.mark.parametrize("m,n", [(0, 0), (0, 3), (2, 0), (1, 2), (3, 9), (8, 4)])
    def test_evaluate_stacked_matches_evaluate_and_partials(self, m, n):
        rng = np.random.default_rng(700 + 10 * m + n)
        surfaces = [random_surface(rng, m, n) for _ in range(3)]
        uv = np.concatenate([
            np.broadcast_to([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.5]], (3, 4, 2)),
            rng.uniform(0.0, 1.0, (3, 30, 2)),
        ], axis=1)
        value, su, sv = evaluate_stacked(np.stack([s.control_net for s in surfaces]), uv)
        assert value.shape == su.shape == sv.shape == (3, 34, 3)
        for p, s in enumerate(surfaces):
            scale = np.abs(s.control_net).max() * max(m, n, 1)
            pu, pv = hodograph_surfaces(s)
            for k, (u, v) in enumerate(uv[p]):
                assert np.abs(value[p, k] - s.evaluate(u, v)).max() <= 1e-14 * scale
                assert np.abs(su[p, k] - pu.evaluate(u, v)).max() <= 1e-13 * scale
                assert np.abs(sv[p, k] - pv.evaluate(u, v)).max() <= 1e-13 * scale

    def test_evaluate_stacked_partials_match_finite_differences(self):
        rng = np.random.default_rng(800)
        nets = rng.uniform(-1.0, 1.0, (2, 4, 6, 3))
        uv = rng.uniform(0.1, 0.9, (2, 25, 2))
        h = 1e-6
        _, su, sv = evaluate_stacked(nets, uv)
        for axis, partial in ((0, su), (1, sv)):
            step = np.zeros(2)
            step[axis] = h
            plus = evaluate_stacked(nets, uv + step)[0]
            minus = evaluate_stacked(nets, uv - step)[0]
            assert np.abs((plus - minus) / (2 * h) - partial).max() <= 1e-7

    def test_evaluate_stacked_sample_bits_independent_of_batch(self):
        rng = np.random.default_rng(900)
        nets = rng.uniform(-1.0, 1.0, (4, 5, 3, 3))
        uv = rng.uniform(0.0, 1.0, (4, 17, 2))
        batch = evaluate_stacked(nets, uv)
        for p in range(4):
            for k in range(17):
                alone = evaluate_stacked(nets[p:p + 1], uv[p:p + 1, k:k + 1])
                for whole, single in zip(batch, alone):
                    assert np.array_equal(whole[p, k], single[0, 0])

    @pytest.mark.parametrize("m,n", [(0, 0), (0, 3), (2, 0), (2, 6), (8, 4)])
    def test_grid_stacked_matches_grid(self, m, n):
        """Stacked nets through `evaluate_pointwise` equal each net's
        `evaluate_grid` and scalar `evaluate` bit for bit."""
        rng = np.random.default_rng(950 + 10 * m + n)
        nets = rng.uniform(-1.0, 1.0, (5, m + 1, n + 1, 3))
        us, vs = np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 4)
        uv = np.stack(np.meshgrid(us, vs, indexing="ij"), axis=-1).reshape(-1, 2)
        stacked = evaluate_pointwise(np.repeat(nets, uv.shape[0], axis=0), np.tile(uv, (5, 1)))
        stacked = stacked.reshape(5, 7, 4, 3)
        for net, grid in zip(nets, stacked):
            surface = BezierSurface(net)
            assert np.array_equal(grid, surface.evaluate_grid(us, vs))
            assert np.array_equal(grid, evaluate_pointwise(net, uv).reshape(7, 4, 3))
            for i, j in itertools.product(range(7), range(4)):
                assert np.array_equal(grid[i, j], surface.evaluate(us[i], vs[j]))

    def test_derivative_many_builds_no_curves_when_repeated(self, monkeypatch):
        rng = np.random.default_rng(600)
        curve = chained_curve(rng, 3, 300, dim=2)
        ts = np.linspace(0.0, 1.0, 64 * 300 + 1)
        first = curve.derivative_many(ts)
        builds = []
        original = BezierCurve.__post_init__

        def counting(self):
            builds.append(1)
            original(self)

        monkeypatch.setattr(BezierCurve, "__post_init__", counting)
        second = curve.derivative_many(ts)
        assert not builds
        assert np.array_equal(first, second)
