"""Batched keep-region predicates against the per-point tests they replace,
and the number of predicate calls a decomposition makes."""

import numpy as np
import pytest

from watertight import BezierCurve, DegenerateCellError, PiecewiseBezierCurve
from watertight.intersect import build_intersection_data
from watertight.pipeline import KEEP_CHOICES, MARCH_TOL, keep_region_fn
from watertight.segmentation import cut_trims, decompose_trim, monotone_split_params
from watertight.shapes import paraboloid_patch, plane_patch

TRIMS = {
    "demo-circle": plane_patch(0.0, 0.0, 0.04),
    "corner-clip": plane_patch(0.5, 0.5, -0.2),
    "off-centre-arc": plane_patch(0.6, 0.0, -0.05),
}


def cut_at_roots(curve):
    """The curve cut at its monotone roots, and their breakpoint indices."""
    return cut_trims([curve], [monotone_split_params(curve)])[0]


def polyline(curve):
    ts = np.linspace(0.0, 1.0, 64 * len(curve.segments) + 1)
    return curve.evaluate_many(ts), curve.derivative_many(ts)


def reference_inside(poly, u, v):
    """Even-odd count over every polyline edge, one point at a time."""
    x0, y0 = poly[:-1, 0], poly[:-1, 1]
    x1, y1 = poly[1:, 0], poly[1:, 1]
    straddle = (y0 > v) != (y1 > v)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = x0 + (v - y0) * (x1 - x0) / (y1 - y0)
    return int(np.sum(straddle & (xs > u))) % 2 == 1


def reference_side(pts, tangents, u, v):
    """Cross product with the tangent of the first nearest sample."""
    p = np.array([u, v])
    i = int(np.argmin(np.sum((pts - p) ** 2, axis=1)))
    t = tangents[i]
    off = p - pts[i]
    return t[0] * off[1] - t[1] * off[0]


def reference_keeps(curve, us, vs):
    """{spec: bool array} from the per-point reference loops."""
    pts, tangents = polyline(curve)
    poly = pts if curve.is_closed else np.vstack([pts, pts[0]])
    inside = np.array([reference_inside(poly, u, v) for u, v in zip(us, vs)])
    side = np.array([reference_side(pts, tangents, u, v) for u, v in zip(us, vs)])
    return {"inside": inside, "outside": ~inside, "left": side >= 0.0, "right": side <= 0.0}


@pytest.fixture(scope="module", params=sorted(TRIMS))
def trim(request):
    data = build_intersection_data(paraboloid_patch(), TRIMS[request.param], 0.02, MARCH_TOL)
    return data.domain_curve_a


def queries(curve):
    """A 101 x 101 grid, every retained sample of the keeps that decompose,
    and the polyline's samples at the curve's breakpoints."""
    grid = np.linspace(0.0, 1.0, 101)
    uu, vv = np.meshgrid(grid, grid)
    points = [np.stack([uu.reshape(-1), vv.reshape(-1)], axis=1)]
    retained = []
    for spec in KEEP_CHOICES:
        try:
            _, cells = decompose_trim(*cut_at_roots(curve), keep_region_fn(spec, curve))
        except DegenerateCellError:  # the keeps this trim cannot decompose
            continue
        retained += [cell.retained_sample for cell in cells]
    assert retained
    points.append(np.array(retained))
    points.append(polyline(curve)[0][::64])
    return np.vstack(points)


def test_batched_keeps_match_the_per_point_reference(trim):
    points = queries(trim)
    want = reference_keeps(trim, points[:, 0], points[:, 1])
    for spec in KEEP_CHOICES:
        got = keep_region_fn(spec, trim)(points[:, 0], points[:, 1])
        assert got.dtype == bool and got.shape == (points.shape[0],)
        assert np.array_equal(got, want[spec]), spec


def test_scalar_and_shaped_queries(trim):
    us = np.linspace(0.05, 0.95, 12).reshape(3, 4)
    vs = us[::-1]
    for spec in KEEP_CHOICES:
        keep = keep_region_fn(spec, trim)
        batch = keep(us, vs)
        assert batch.shape == (3, 4)
        for index, answer in np.ndenumerate(batch):
            scalar = keep(float(us[index]), float(vs[index]))
            assert isinstance(scalar, np.bool_) and scalar == answer


def polyline_curve(points):
    """Straight segments through `points`, breakpoints evenly spaced."""
    points = np.asarray(points, dtype=float)
    segments = [BezierCurve(points[k:k + 2]) for k in range(points.shape[0] - 1)]
    return PiecewiseBezierCurve(segments, np.linspace(0.0, 1.0, len(segments) + 1))


def test_a_tie_between_two_samples_takes_the_first():
    # Two strands running right, one below and one above (0.5, 0.5), with
    # exact samples at equal distance from it: the first strand's tangent
    # says "left", the second's "right".
    curve = polyline_curve([[0.25, 0.25], [0.5, 0.25], [0.75, 0.25], [0.75, 0.0], [0.0, 0.0],
                            [0.0, 0.75], [0.25, 0.75], [0.5, 0.75], [0.75, 0.75]])
    us, vs = np.array([0.5, 0.375, 0.625]), np.array([0.5, 0.5, 0.5])
    want = reference_keeps(curve, us, vs)
    assert want["left"].all() and not want["right"].any()
    for spec in ("left", "right"):
        assert np.array_equal(keep_region_fn(spec, curve)(us, vs), want[spec]), spec


def test_a_tie_among_more_samples_than_the_tree_returns_takes_the_first():
    # Sixteen spokes out of (0.5, 0.5) and back: seventeen samples sit
    # exactly on the centre, each with its spoke's tangent, and only the
    # first spoke points up.  A query near the centre ties more samples
    # than the k-d tree returns, so it is ranked over every sample.
    angles = np.concatenate([[0.5 * np.pi], np.linspace(1.1 * np.pi, 1.9 * np.pi, 15)])
    tips = 0.5 + 0.25 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    points = [[0.5, 0.5]]
    for tip in tips:
        points += [tip, [0.5, 0.5]]
    curve = polyline_curve(points)
    us = 0.5 + np.array([1e-3, -1e-3, 2e-4, -5e-4])
    vs = np.full(us.shape, 0.5)
    want = reference_keeps(curve, us, vs)
    for spec in ("left", "right"):
        assert np.array_equal(keep_region_fn(spec, curve)(us, vs), want[spec]), spec


class CountingKeep:
    def __init__(self, keep):
        self.keep = keep
        self.calls = 0

    def __call__(self, u, v):
        self.calls += 1
        return self.keep(u, v)


@pytest.mark.parametrize("step", [0.18, 0.02, 0.005])
def test_decompose_trim_calls_keep_once_per_segment_plus_one(step):
    data = build_intersection_data(paraboloid_patch(), TRIMS["demo-circle"], step, MARCH_TOL)
    keep = CountingKeep(keep_region_fn("outside", data.domain_curve_a))
    segments, cells = decompose_trim(*cut_at_roots(data.domain_curve_a), keep)
    assert len(cells) > len(segments) + 1
    assert keep.calls <= len(segments) + 1


def test_open_chain_calls_keep_once_per_segment_plus_one():
    data = build_intersection_data(paraboloid_patch(), TRIMS["corner-clip"], 0.02, MARCH_TOL)
    curve = data.domain_curve_a
    keep = CountingKeep(keep_region_fn("right", curve))
    segments, cells = decompose_trim(*cut_at_roots(curve), keep)
    assert len(cells) > len(segments) + 1
    assert keep.calls <= len(segments) + 1
