"""Keep-region predicates against the analytic regions of the circles the
paraboloid and a plane meet in, and the number of predicate calls a
decomposition makes."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from watertight import BezierCurve, DomainError, EmptyRegionError, PiecewiseBezierCurve
from watertight.intersect import build_intersection_data
from watertight.pipeline import KEEP_CHOICES, MARCH_TOL, PipelineConfig, keep_region_fn, run_pipeline
from watertight.segmentation import cut_trims, decompose_trim, monotone_split_params
from watertight.shapes import paraboloid_patch, plane_patch

# Plane coefficients (a, b, c) of z = a*u + b*v + c.
TRIMS = {
    "demo-circle": (0.0, 0.0, 0.04),
    "corner-clip": (0.5, 0.5, -0.2),
    "off-centre-arc": (0.6, 0.0, -0.05),
    "tilted-arc": (0.3, 0.0, 0.02),
}
# Points this near the analytic circle, or a closing chord, are not checked.
BAND = 1e-6
GRID = np.linspace(0.0, 1.0, 101)


def cut_at_roots(curve):
    """The curve cut at its monotone roots, and their breakpoint indices."""
    return cut_trims([curve], [monotone_split_params(curve)])[0]


def circle_of(a, b, c):
    """Centre and radius of the domain circle where the paraboloid
    z = (u - 1/2)^2 + (v - 1/2)^2 meets the plane z = a*u + b*v + c."""
    cx, cy = 0.5 + 0.5 * a, 0.5 + 0.5 * b
    return cx, cy, math.sqrt(c + 0.5 * (a + b) + 0.25 * (a * a + b * b))


def edge_crossings(cx, cy, r):
    """(K, 2) points where the circle meets the unit square's edges."""
    out = []
    for edge in (0.0, 1.0):
        for centre_across, centre_along, point in ((cx, cy, lambda s: (edge, s)),
                                                   (cy, cx, lambda s: (s, edge))):
            h = r * r - (edge - centre_across) ** 2
            if h >= 0.0:
                out += [point(s) for s in centre_along + np.array([-1.0, 1.0]) * math.sqrt(h)
                        if 0.0 <= s <= 1.0]
    return np.array(out).reshape(-1, 2)


def grid_points(grid=GRID):
    uu, vv = np.meshgrid(grid, grid)
    return uu.reshape(-1), vv.reshape(-1)


def analytic_keeps(curve, circle, u, v, band=BAND):
    """({spec: retained}, checked) at points (u, v) for a trim on `circle`
    that crosses the square once.

    "left"/"right" are taken relative to the trim's direction, as
    `perfbench/checks.retained_area` takes them: a counter-clockwise arc has
    the disk on its left.  "inside" of an open arc is the part of the disk
    on the arc's side of its chord.  `checked` leaves out the points within
    `band` of the circle or the chord.
    """
    cx, cy, r = circle
    dist = np.hypot(u - cx, v - cy)
    disk = dist < r
    checked = np.abs(dist - r) > band
    middle = curve.segments[len(curve.segments) // 2]
    p, d = middle.evaluate(0.5), middle.derivative().evaluate(0.5)
    ccw = (p[0] - cx) * d[1] - (p[1] - cy) * d[0] > 0.0
    left = disk if ccw else ~disk
    inside = disk
    if not curve.is_closed:
        (x0, y0), (x1, y1) = edge_crossings(cx, cy, r)
        length = math.hypot(x1 - x0, y1 - y0)
        side = ((x1 - x0) * (v - y0) - (y1 - y0) * (u - x0)) / length
        arc_side = (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) > 0.0
        inside = disk & ((side > 0.0) == arc_side)
        checked &= np.abs(side) > band
    return {"inside": inside, "outside": ~inside, "left": left, "right": ~left}, checked


def trim_of(plane):
    data = build_intersection_data(paraboloid_patch(), plane_patch(*plane), 0.02, MARCH_TOL)
    return cut_at_roots(data.domain_curve_a)[0]


@pytest.fixture(scope="module", params=sorted(TRIMS))
def trim(request):
    return request.param, trim_of(TRIMS[request.param])


def test_keeps_match_the_analytic_region(trim):
    name, curve = trim
    u, v = grid_points()
    want, checked = analytic_keeps(curve, circle_of(*TRIMS[name]), u, v)
    assert checked.sum() > 0.98 * u.shape[0]
    for spec in KEEP_CHOICES:
        got = keep_region_fn(spec, curve)(u, v)
        assert got.dtype == bool and got.shape == u.shape
        assert np.array_equal(got[checked], want[spec][checked]), spec


def reversed_curve(curve):
    segments = [BezierCurve(seg.control_points[::-1].copy()) for seg in reversed(curve.segments)]
    return PiecewiseBezierCurve(segments, 1.0 - curve.breakpoints[::-1])


def test_a_reversed_trim_swaps_left_and_right(trim):
    name, curve = trim
    u, v = grid_points()
    cx, cy, r = circle_of(*TRIMS[name])
    off = np.abs(np.hypot(u - cx, v - cy) - r) > BAND
    back = reversed_curve(curve)
    for spec, swapped in (("left", "right"), ("right", "left")):
        assert np.array_equal(keep_region_fn(spec, back)(u, v)[off],
                              keep_region_fn(swapped, curve)(u, v)[off]), spec


def test_scalar_and_shaped_queries(trim):
    _, curve = trim
    us = np.linspace(0.05, 0.95, 12).reshape(3, 4)
    vs = us[::-1]
    for spec in KEEP_CHOICES:
        keep = keep_region_fn(spec, curve)
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


def test_edge_points_beside_the_closing_path_follow_the_curve():
    # A cut from the bottom edge to the right edge, running up and right:
    # its right is the corner triangle at (1, 0).  The closing path leaves
    # at (1, 0.4) and re-enters at (0.6, 0), outside the square, so the
    # edge points between those ends and the corner are on the right.
    curve = polyline_curve([[0.6, 0.0], [0.8, 0.2], [1.0, 0.4]])
    s = np.linspace(0.0, 1.0, 101)
    u = np.concatenate([s, np.ones(101), s, np.zeros(101)])
    v = np.concatenate([np.zeros(101), s, np.ones(101), s])
    corner = v < u - 0.6
    on_curve = np.isclose(v, u - 0.6, atol=1e-12)
    right = keep_region_fn("right", curve)(u, v)
    left = keep_region_fn("left", curve)(u, v)
    assert np.array_equal(right[~on_curve], corner[~on_curve])
    assert np.array_equal(left[~on_curve], ~corner[~on_curve])
    assert corner.sum() == 80


def test_crossings_match_a_count_over_every_segment(rng):
    # A closed star of straight segments, each tip followed by a level step
    # halfway to the next, so the loop runs up and down in v many times;
    # against a test of every segment at every query.
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 40))
    radii = rng.uniform(0.1, 0.45, 40)
    tips = 0.5 + radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    steps = np.stack([0.5 * (tips[:, 0] + np.roll(tips[:, 0], -1)), tips[:, 1]], axis=1)
    points = np.vstack([np.stack([tips, steps], axis=1).reshape(-1, 2), tips[:1]])
    (x0, y0), (x1, y1) = points[:-1].T, points[1:].T
    u, v = rng.uniform(0.0, 1.0, (2, 4000))
    straddle = (y0 > v[:, None]) != (y1 > v[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = x0 + (v[:, None] - y0) * (x1 - x0) / (y1 - y0)
    want = np.sum(straddle & (xs > u[:, None]), axis=1) % 2 == 1
    assert 0 < want.sum() < want.shape[0]
    assert np.array_equal(keep_region_fn("inside", polyline_curve(points))(u, v), want)


@pytest.mark.parametrize("spec", ["left", "right"])
def test_an_open_trim_off_the_domain_edge_has_no_side(spec):
    curve = polyline_curve([[0.6, 0.0], [0.8, 0.2], [0.9, 0.4]])
    with pytest.raises(DomainError, match="must lie on the domain edge"):
        keep_region_fn(spec, curve)
    # The chord still closes it for "inside"/"outside".
    assert keep_region_fn("inside", curve)(0.73, 0.15)


@pytest.mark.parametrize("spec", ["inside", "outside"])
def test_a_straight_open_trim_closed_by_its_chord_has_no_area(spec):
    curve = polyline_curve([[0.6, 0.0], [0.8, 0.5], [1.0, 1.0]])
    with pytest.raises(EmptyRegionError, match=f"keep '{spec}' names a region with no area"):
        keep_region_fn(spec, curve)
    # Its ends lie on the domain edge, so "left"/"right" still name a side.
    assert keep_region_fn("right", curve)(0.9, 0.2)


@pytest.mark.parametrize("name, patches", [("corner-clip", 90), ("off-centre-arc", 70)])
def test_outside_of_a_curved_open_cut_decomposes(name, patches):
    # The chord closes these arcs into regions with area, so the no-area
    # error does not fire and "outside" still decomposes.
    result = run_pipeline(paraboloid_patch(), plane_patch(*TRIMS[name]), PipelineConfig())
    assert result.report["patches_a"] == result.report["patches_b"] == patches


@settings(max_examples=15, deadline=None)
@given(
    a=st.floats(-0.6, 0.6),
    b=st.floats(-0.6, 0.6),
    r=st.floats(0.1, 0.45),
)
def test_random_planes_give_the_analytic_circle(a, b, r):
    # z = a*u + b*v + c against the paraboloid, with c set by the radius.
    c = r * r - 0.5 * (a + b) - 0.25 * (a * a + b * b)
    cx, cy, _ = circle_of(a, b, c)
    crossings = edge_crossings(cx, cy, r)
    # One arc, or one loop inside the square, meeting the edges at least
    # 0.05 apart and away from the corners.
    assume(crossings.shape[0] in (0, 2))
    if crossings.shape[0] == 0:
        assume(min(cx, cy, 1.0 - cx, 1.0 - cy) > r + 0.02)
    else:
        assume(np.hypot(*(crossings[0] - crossings[1])) > 0.05)
        assume(np.all(np.abs(crossings - np.round(crossings)).max(axis=1) > 0.05))
    curve = trim_of((a, b, c))
    on = curve.evaluate_many(np.linspace(0.0, 1.0, 401))
    # At a march step of 0.02 a loop of radius 0.1 misses its circle by up
    # to 1.4e-5, on the closing segment, which spans up to 1.6 steps.
    assert np.abs(np.hypot(on[:, 0] - cx, on[:, 1] - cy) - r).max() < 5e-5
    u, v = grid_points(np.linspace(0.0, 1.0, 41))
    want, checked = analytic_keeps(curve, (cx, cy, r), u, v, band=5e-5)
    for spec in KEEP_CHOICES:
        got = keep_region_fn(spec, curve)(u, v)
        assert np.array_equal(got[checked], want[spec][checked]), spec


class CountingKeep:
    def __init__(self, keep):
        self.keep = keep
        self.calls = 0

    def __call__(self, u, v):
        self.calls += 1
        return self.keep(u, v)


@pytest.mark.parametrize("step", [0.18, 0.02, 0.005])
def test_decompose_trim_calls_keep_once_per_segment_plus_one(step):
    data = build_intersection_data(paraboloid_patch(), plane_patch(*TRIMS["demo-circle"]),
                                   step, MARCH_TOL)
    curve, cuts = cut_at_roots(data.domain_curve_a)
    keep = CountingKeep(keep_region_fn("outside", curve))
    segments, cells = decompose_trim(curve, cuts, keep)
    assert len(cells) > len(segments) + 1
    assert keep.calls <= len(segments) + 1


def test_open_chain_calls_keep_once_per_segment_plus_one():
    data = build_intersection_data(paraboloid_patch(), plane_patch(*TRIMS["corner-clip"]),
                                   0.02, MARCH_TOL)
    curve, cuts = cut_at_roots(data.domain_curve_a)
    keep = CountingKeep(keep_region_fn("right", curve))
    segments, cells = decompose_trim(curve, cuts, keep)
    assert len(cells) > len(segments) + 1
    assert keep.calls <= len(segments) + 1
