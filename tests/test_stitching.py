"""Boundary alignment, control point replacement, and watertight verification."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from watertight import AlignmentError, EmptyRegionError, ReductionError, StageError
from watertight.bezier import (
    BezierCurve,
    BezierSurface,
    Edge,
    _elevate_axis0,
    all_bernstein,
    de_casteljau_many,
    degree_elevate_curve,
    degree_reduce_curve,
)
from watertight.intersect import build_intersection_data, invert_points, measure_gap
from watertight.pipeline import MARCH_TOL, PipelineConfig, prepare_decompositions, run_pipeline
from watertight.shapes import flat_patch, paraboloid_patch, plane_patch
from watertight.segmentation import RECTANGLE
import watertight.stitching as stitching
from watertight.stitching import (
    PatchSet,
    _stitch_deviation,
    align_boundary,
    stitch_boundary,
    verify_watertight,
    WatertightModel,
)


def edge_curve(patch, edge):
    """A patch's edge as a curve: a copy of its control row."""
    return BezierCurve(stitching._edge_row(patch.control_net, edge).copy())


def with_edge(patch, edge, points):
    """A copy of a patch whose edge row holds `points`."""
    net = patch.control_net.copy()
    stitching._edge_row(net, edge)[...] = points
    return BezierSurface(net)


def elevated(patch, axis, target):
    """A patch elevated exactly along u (axis 0) or v (axis 1)."""
    net = _elevate_axis0(np.moveaxis(patch.control_net, axis, 0), target)
    return BezierSurface(np.moveaxis(net, 0, axis))


@pytest.fixture(scope="module")
def demo():
    # The canonical coarse demo: about eight intersection points.
    s1 = paraboloid_patch()
    s2 = plane_patch(0.0, 0.0, 0.04)
    config = PipelineConfig(march_step=0.18)
    data = build_intersection_data(s1, s2, config.march_step, MARCH_TOL)
    set_a, set_b = prepare_decompositions(data, s1, s2, config)
    return s1, s2, data, set_a, set_b


class TestAlignment:
    def test_pairs_cover_all_intervals(self, demo):
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        assert len(triples) == len(set_a.decomposition.boundary_indices)
        spans = [t.w_span for t in triples]
        assert spans == sorted(spans)
        for first, second in zip(spans[:-1], spans[1:]):
            assert first[1] == pytest.approx(second[0], abs=1e-12)

    def test_segments_concatenate_to_curve(self, demo):
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        for before, after in zip(triples[:-1], triples[1:]):
            assert np.array_equal(
                before.segment.control_points[-1], after.segment.control_points[0]
            )

    def test_segment_endpoints_near_intersection_points(self, demo):
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        breaks = list(data.curve_c.breakpoints)
        for triple in triples:
            for w, cp in (
                (triple.w_span[0], triple.segment.control_points[0]),
                (triple.w_span[1], triple.segment.control_points[-1]),
            ):
                matches = [k for k, b in enumerate(breaks) if abs(b - w) <= 1e-12]
                if matches:
                    p = data.points[matches[0]].position
                    assert np.linalg.norm(cp - p) <= 1e-12

    def test_edge_direction_matches_curve(self, demo):
        s1, s2, data, set_a, set_b = demo
        for patch_set, surface in ((set_a, s1), (set_b, s2)):
            bp = patch_set.decomposition.breakpoints
            for idx, edge, k in patch_set.boundary_entries():
                span = bp[k], bp[k + 1]
                curve_edge = edge_curve(patch_set.patches[idx], edge)
                start = data.curve_c.evaluate(span[0])
                end = data.curve_c.evaluate(span[1])
                d_start = np.linalg.norm(curve_edge.evaluate(0.0) - start)
                d_end = np.linalg.norm(curve_edge.evaluate(1.0) - end)
                swapped = np.linalg.norm(curve_edge.evaluate(0.0) - end)
                assert d_start < swapped
                assert max(d_start, d_end) < 0.05

    @staticmethod
    def _nudged(patch_set, w, delta=1e-12):
        """The patch set with its breakpoint at w moved by delta."""
        breakpoints = patch_set.decomposition.breakpoints.copy()
        breakpoints[breakpoints == w] += delta
        return PatchSet(replace(patch_set.decomposition, breakpoints=breakpoints))

    @pytest.mark.parametrize("sides", ["b", "both"])
    def test_differing_breakpoints_raise(self, demo, sides):
        # A difference far below any matching tolerance is still a
        # difference: trim segment k must be one piece of the intersection
        # on every curve, so the arrays must be equal.  The nudged
        # breakpoint is one of the space curve's own.
        s1, s2, data, set_a, set_b = demo
        w = data.curve_c.breakpoints[1]
        if sides == "both":
            set_a = self._nudged(set_a, w)
        with pytest.raises(AlignmentError, match="breakpoints differ"):
            align_boundary(data, set_a, self._nudged(set_b, w))

    def test_boundary_on_different_segments_raises(self, demo):
        s1, s2, data, set_a, set_b = demo
        dec = set_b.decomposition
        fewer = PatchSet(replace(dec, boundary_indices=dec.boundary_indices[1:]))
        with pytest.raises(AlignmentError, match="different trim segments"):
            align_boundary(data, set_a, fewer)

    def test_pairs_share_their_trim_segment(self, demo):
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        bp = set_a.decomposition.breakpoints
        for triple in triples:
            k = set_a.decomposition.cells[triple.patch_a].segment
            assert set_b.decomposition.cells[triple.patch_b].segment == k
            assert triple.w_span == (bp[k], bp[k + 1])


class TestStitching:
    def test_boundary_control_points_bitwise_shared(self, demo):
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        model = stitch_boundary(set_a, set_b, triples)
        for triple, segment in zip(model.triples, model.shared_boundary):
            edge_a = edge_curve(model.set_a.patches[triple.patch_a], triple.edge_a)
            edge_b = edge_curve(model.set_b.patches[triple.patch_b], triple.edge_b)
            assert np.array_equal(edge_a.control_points, segment.control_points)
            assert np.array_equal(edge_b.control_points, segment.control_points)

    def test_interior_and_off_boundary_patches_untouched(self, demo):
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        model = stitch_boundary(set_a, set_b, triples)
        boundary = {t.patch_a for t in triples}
        for idx, patch in enumerate(set_a.patches):
            if idx not in boundary:
                assert np.array_equal(
                    patch.control_net, model.set_a.patches[idx].control_net
                )

    def test_input_patch_sets_unchanged(self, demo):
        s1, s2, data, set_a, set_b = demo
        before = [list(set_a.patches), list(set_b.patches)]
        nets = [[p.control_net.copy() for p in patches] for patches in before]
        triples = align_boundary(data, set_a, set_b)
        model = stitch_boundary(set_a, set_b, triples, reduce_tolerance=1e-3)
        for patch_set, out, patches, copies in zip(
            (set_a, set_b), (model.set_a, model.set_b), before, nets
        ):
            assert len(patch_set.patches) == len(patches)
            assert all(now is then for now, then in zip(patch_set.patches, patches))
            assert all(
                np.array_equal(p.control_net, net) for p, net in zip(patches, copies)
            )
            assert out.patches is not patch_set.patches
        assert all(model.set_a.patches[t.patch_a] is not set_a.patches[t.patch_a]
                   for t in triples)

    def test_idempotent(self, demo):
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        once = stitch_boundary(set_a, set_b, triples)
        twice = stitch_boundary(once.set_a, once.set_b, align_boundary(data, once.set_a, once.set_b))
        for a, b in zip(once.set_a.patches, twice.set_a.patches):
            assert np.array_equal(a.control_net, b.control_net)

    def test_deviation_positive_but_bounded(self, demo):
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        model = stitch_boundary(set_a, set_b, triples)
        gap_a = measure_gap(data.curve_c, s1, 100, data.domain_curve_a)
        gap_b = measure_gap(data.curve_c, s2, 100, data.domain_curve_b)
        pre = max(gap_a.max_gap, gap_b.max_gap)
        assert model.deviation > 0.0
        assert model.deviation <= 4.0 * pre

    def test_interpolation_preserved(self, demo):
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        model = stitch_boundary(set_a, set_b, triples)
        breaks = list(data.curve_c.breakpoints)
        for triple in model.triples:
            edge = edge_curve(model.set_a.patches[triple.patch_a], triple.edge_a)
            for w, t_edge in ((triple.w_span[0], 0.0), (triple.w_span[1], 1.0)):
                if any(abs(b - w) <= 1e-12 for b in breaks):
                    want = data.curve_c.evaluate(w)
                    assert np.linalg.norm(edge.evaluate(t_edge) - want) <= 1e-12

    def test_segment_above_both_edge_degrees_is_absorbed(self, demo):
        # A segment one degree above both edges of its pair: both patches
        # are elevated exactly along the edge, and both edges take the
        # segment's polygon.
        s1, s2, data, set_a, set_b = demo
        triple = align_boundary(data, set_a, set_b)[0]
        patch_a, patch_b = set_a.patches[triple.patch_a], set_b.patches[triple.patch_b]
        # One above the larger edge degree: its control-point count.
        degree = max(len(stitching._edge_row(patch_a.control_net, triple.edge_a)),
                     len(stitching._edge_row(patch_b.control_net, triple.edge_b)))
        polygon = _elevate_axis0(triple.segment.control_points, degree)
        polygon[degree // 2, 2] += 1e-4
        model = stitch_boundary(set_a, set_b, [replace(triple, segment=BezierCurve(polygon))])
        assert model.shared_boundary[0].degree == degree
        for before, after, edge in ((patch_a, model.set_a.patches[triple.patch_a], triple.edge_a),
                                    (patch_b, model.set_b.patches[triple.patch_b], triple.edge_b)):
            assert np.array_equal(stitching._edge_row(after.control_net, edge), polygon)
            want = elevated(before, 1 if edge in (Edge.U0, Edge.U1) else 0, degree).control_net
            stitching._edge_row(want, edge)[...] = polygon
            assert np.array_equal(after.control_net, want)
        assert verify_watertight(model).max_gap == 0.0

    def test_verify_exact_zero(self, demo):
        # Every edge row holds its shared segment's polygon, and each of its
        # control points is compared once.
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        model = stitch_boundary(set_a, set_b, triples)
        report = verify_watertight(model)
        assert report.max_gap == 0.0
        assert report.rms_gap == 0.0
        assert report.sample_count == sum(len(seg.control_points) for seg in model.shared_boundary)

    def test_unstitched_gap_matches_curve_gaps(self, demo):
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        unstitched = WatertightModel(
            set_a=set_a, set_b=set_b, shared_boundary=[], triples=triples
        )
        report = verify_watertight(unstitched)
        gap_a = measure_gap(data.curve_c, s1, 100, data.domain_curve_a)
        gap_b = measure_gap(data.curve_c, s2, 100, data.domain_curve_b)
        combined = gap_a.max_gap + gap_b.max_gap
        # The control rows bound the edges' distance at equal parameter, so
        # the check never reports less than any sample of it.
        assert report.max_gap >= per_triple_gap(unstitched, 65) > 0.0
        assert 0.1 * combined <= report.max_gap <= 3.0 * combined

    def test_perturbed_boundary_detected(self, demo):
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        model = stitch_boundary(set_a, set_b, triples)
        triple = model.triples[0]
        net = model.set_a.patches[triple.patch_a].control_net.copy()
        row = stitching._edge_row(net, triple.edge_a)
        row[len(row) // 2, 2] += 1e-6  # a view into net
        model.set_a.patches[triple.patch_a] = BezierSurface(net)
        report = verify_watertight(model)
        assert abs(report.max_gap - 1e-6) <= 1e-12
        assert report.max_gap >= per_triple_gap(model, 65)


def test_one_surface_per_output_patch(monkeypatch):
    # Segmentation builds each patch once, and stitching builds each
    # stitched patch once more: no surface is built and then replaced.
    builds = []
    original = BezierSurface.__post_init__

    def counting(self):
        builds.append(1)
        original(self)

    surfaces = paraboloid_patch(), plane_patch(0.0, 0.0, 0.04)
    monkeypatch.setattr(BezierSurface, "__post_init__", counting)
    report = run_pipeline(*surfaces, PipelineConfig(march_step=0.02)).report
    assert len(builds) == report["patches_a"] + report["patches_b"] + 2 * report["boundary_pairs"]
    assert len(builds) == 288


class TestPlanarConsistency:
    def test_exact_planar_stitch_is_identity(self):
        # Two planes meeting along an exact line; the curve through two
        # points is that exact line, and stitching changes nothing.
        s1 = plane_patch(0.0, 0.0, 0.0)
        s2 = plane_patch(1.0, 0.0, -0.5)
        data = build_intersection_data(s1, s2, 0.4, 1e-10)
        gap_a = measure_gap(data.curve_c, s1, 50, data.domain_curve_a)
        gap_b = measure_gap(data.curve_c, s2, 50, data.domain_curve_b)
        assert gap_a.max_gap <= 1e-9
        assert gap_b.max_gap <= 1e-9

    def test_reduction_keeps_watertightness(self, demo):
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        model = stitch_boundary(set_a, set_b, triples, reduce_tolerance=1e-3)
        report = verify_watertight(model)
        assert report.max_gap == 0.0


class TestStraightCuts:
    def test_straight_edge_elevated_to_cubic_segment(self):
        # A planar cut fits a degree-1 boundary polynomial, so the patch edge
        # has degree 2, below the cubic curve segment; elevating it is exact.
        config = PipelineConfig(keep_a="left", keep_b="left")
        result = run_pipeline(flat_patch(), plane_patch(1.0, 0.5, -0.6), config)
        assert result.report["boundary_pairs"] > 0
        assert result.report["post_stitch_gap"]["max"] == 0.0
        assert result.model.report_post.sample_count > 0

    def test_axis_aligned_cut_is_not_vacuously_watertight(self):
        # The cut u = 0.5 splits each domain into rectangles only: no patch
        # edge carries the curve, so there is nothing to stitch.
        config = PipelineConfig(keep_a="left", keep_b="left")
        with pytest.raises(StageError) as err:
            run_pipeline(flat_patch(), plane_patch(1.0, 0.0, -0.5), config)
        assert err.value.stage == "align"
        assert "neither side has a boundary patch" in str(err.value)

    @pytest.mark.parametrize("plane", [(1.0, 0.5, -0.6), (1.0, 0.0, -0.5)])
    @pytest.mark.parametrize("keep", ["inside", "outside"])
    def test_inside_or_outside_of_a_straight_cut_has_no_area(self, plane, keep):
        # Closed by its own chord, a straight trim bounds no area, so
        # "inside" names nothing and "outside" the whole square.
        config = PipelineConfig(keep_a=keep, keep_b=keep)
        with pytest.raises(StageError) as err:
            run_pipeline(flat_patch(), plane_patch(*plane), config)
        assert err.value.stage == "segment"
        assert isinstance(err.value.cause, EmptyRegionError)
        assert f"keep '{keep}' names a region with no area" in str(err.value)


def same_parameter_bound(before, after, grid=20):
    ts = np.linspace(0.0, 1.0, grid + 1)
    return np.linalg.norm(before.evaluate_grid(ts, ts) - after.evaluate_grid(ts, ts), axis=2).max()


def slid_edge(delta):
    """flat_patch() elevated to degree 3 in u, its v=0 edge lifted by delta
    along the normal and its inner control points slid along the edge."""
    net = elevated(flat_patch(), 0, 3).control_net.copy()
    net[1:3, 0, 0] = [0.5, 0.8]
    net[:, 0, 2] += delta
    return BezierSurface(net)


def lifted_edge(delta):
    """flat_patch() and a copy whose v=0 edge is lifted by delta along the normal."""
    before = flat_patch()
    net = before.control_net.copy()
    net[:, 0, 2] += delta
    return before, BezierSurface(net)


def mixed_pairs(delta):
    """One lifted-and-slid pair among pairs of other shapes, more pairs than
    one inversion batch holds."""
    pairs = [(flat_patch(), slid_edge(0.0)) for _ in range(20)]
    pairs.insert(7, (flat_patch(), slid_edge(delta)))
    paraboloid = paraboloid_patch()
    return pairs + [(paraboloid, elevated(paraboloid, 1, 4)) for _ in range(3)]


def unpruned_deviation(pairs, grid=20):
    """`_stitch_deviation` with every sample inverted, in batches of 8 pairs."""
    ts = np.linspace(0.0, 1.0, grid + 1)
    uu, vv = np.meshgrid(ts, ts, indexing="ij")
    seeds = np.stack([uu.reshape(-1), vv.reshape(-1)], axis=1)
    groups = {}
    for before, after in pairs:
        groups.setdefault(before.control_net.shape, []).append((before, after))
    deviation = 0.0
    for members in groups.values():
        for k in range(0, len(members), 8):
            chunk = members[k:k + 8]
            nets = np.stack([before.control_net for before, _ in chunk])
            pa = np.stack([before.evaluate_grid(ts, ts).reshape(-1, 3) for before, _ in chunk])
            pb = np.stack([after.evaluate_grid(ts, ts).reshape(-1, 3) for _, after in chunk])
            bound = np.linalg.norm(pa - pb, axis=2)
            _, dist, _ = invert_points(nets, pb, np.broadcast_to(seeds, pb.shape[:2] + (2,)))
            deviation = max(deviation, float(np.minimum(dist, bound).max()))
    return deviation


class TestDeviationOracles:
    def test_lifted_edge_moves_by_the_lift(self):
        delta = 1e-3
        deviation = _stitch_deviation([lifted_edge(delta)])
        assert deviation == pytest.approx(delta, rel=1e-12)

    def test_sliding_within_the_plane_does_not_move_the_surface(self):
        before, after = flat_patch(), slid_edge(0.0)
        assert same_parameter_bound(before, after) > 1e-3
        assert _stitch_deviation([(before, after)]) <= 1e-12

    def test_elevated_after_nets_of_other_shapes(self):
        # One lifted-and-slid pair among pairs of other shapes and more
        # pairs than one inversion batch holds: the set distance is the lift.
        delta = 1e-3
        pairs = mixed_pairs(delta)
        assert slid_edge(delta).control_net.shape != flat_patch().control_net.shape
        assert same_parameter_bound(*pairs[7]) > 10 * delta
        assert _stitch_deviation(pairs) == pytest.approx(delta, rel=1e-12)

    def test_pruned_deviation_matches_unpruned_reference(self, demo):
        model, demo_pairs = stitched_pairs(demo)
        assert model.deviation == unpruned_deviation(demo_pairs)
        for pairs in (demo_pairs, [lifted_edge(1e-3)], [(flat_patch(), slid_edge(0.0))],
                      mixed_pairs(1e-3)):
            assert _stitch_deviation(pairs) == unpruned_deviation(pairs)

    def test_pair_order_does_not_change_the_bits(self, demo):
        rng = np.random.default_rng(7)
        for pairs in (stitched_pairs(demo)[1], mixed_pairs(1e-3)):
            want = _stitch_deviation(pairs)
            for _ in range(4):
                assert _stitch_deviation([pairs[k] for k in rng.permutation(len(pairs))]) == want

    def test_largest_bound_is_inverted_first(self, demo, monkeypatch):
        # The first batch is the first 32 pairs of the first pair's shapes;
        # its largest-bound sample is the first one inverted.
        _, pairs = stitched_pairs(demo)
        calls = record_inversions(monkeypatch)
        _stitch_deviation(pairs)
        shapes = (pairs[0][0].control_net.shape, pairs[0][1].control_net.shape)
        batch = [pair for pair in pairs
                 if (pair[0].control_net.shape, pair[1].control_net.shape) == shapes][:32]
        ts = np.linspace(0.0, 1.0, 21)
        taylor, same, _ = stitching._deviation_bounds(
            np.stack([before.control_net for before, _ in batch]),
            np.stack([after.control_net for _, after in batch]), ts)
        pair, sample = np.divmod(int(np.argmax(np.minimum(taylor, same))), 441)
        before, after = batch[pair]
        assert np.array_equal(calls[0][0][0], before.control_net)
        assert np.array_equal(calls[0][1][0, 0], after.evaluate_grid(ts, ts).reshape(-1, 3)[sample])

    @pytest.mark.parametrize("step", [0.18, 0.02])
    def test_few_samples_are_inverted(self, monkeypatch, step):
        # Most samples cannot raise the maximum and are never inverted.
        _, pairs = stitched_pairs(demo_case(step))
        calls = record_inversions(monkeypatch)
        _stitch_deviation(pairs)
        assert sum(points.shape[0] * points.shape[1] for _, points in calls) < 0.05 * 441 * len(pairs)

    def test_tight_fit_mirror_pairs_match_the_unpruned_reference(self):
        net = paraboloid_patch(-1.0).control_net.copy()
        net[..., 2] += 0.1
        config = PipelineConfig(fit_tol=1e-5)
        case = prepared(paraboloid_patch(), BezierSurface(net), config)
        model, pairs = stitched_pairs(case)
        assert model.deviation == unpruned_deviation(pairs) > 0.0


def record_inversions(monkeypatch):
    """Record the (nets, points) of each `invert_points` call of stitching."""
    calls = []

    def recording(nets, points, seeds):
        calls.append((nets, points))
        return invert_points(nets, points, seeds)

    monkeypatch.setattr(stitching, "invert_points", recording)
    return calls


def prepared(s1, s2, config):
    data = build_intersection_data(s1, s2, config.march_step, MARCH_TOL)
    return (s1, s2, data) + prepare_decompositions(data, s1, s2, config)


def demo_case(step):
    return prepared(paraboloid_patch(), plane_patch(0.0, 0.0, 0.04), PipelineConfig(march_step=step))


class TestDeviationBound:
    @given(
        degrees=st.tuples(st.integers(1, 8), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
        lift=st.floats(2.0, 9.0),
        elevate=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_caps_the_stepped_and_the_inverted_distance(self, degrees, seed, lift, elevate):
        # A gently curved before net and an after net within 10^-lift of
        # it, elevated along v or not, as stitching leaves them.
        m, n = degrees
        rng = np.random.default_rng(seed)
        us, vs = np.meshgrid(np.linspace(0.0, 1.0, m + 1), np.linspace(0.0, 1.0, n + 1), indexing="ij")
        net = np.stack([us, vs, np.zeros_like(us)], axis=-1) + rng.uniform(-0.1, 0.1, (m + 1, n + 1, 3))
        before = BezierSurface(net)
        after = BezierSurface(net + 10.0 ** -lift * rng.standard_normal(net.shape))
        if elevate:
            after = elevated(after, 1, n + 2)
        ts = np.linspace(0.0, 1.0, 21)
        taylor, same, step = stitching._deviation_bounds(
            before.control_net[None], after.control_net[None], ts)
        uu, vv = np.meshgrid(ts, ts, indexing="ij")
        seeds = np.stack([uu.reshape(-1), vv.reshape(-1)], axis=1)
        points = after.evaluate_grid(ts, ts).reshape(-1, 3)
        stepped = np.array([before.evaluate(*uv) for uv in np.clip(seeds + step[0], 0.0, 1.0)])
        assert np.all(taylor[0] >= np.linalg.norm(points - stepped, axis=1))
        assert np.all(same[0] >= np.linalg.norm(points - before.evaluate_grid(ts, ts).reshape(-1, 3), axis=1))
        _, dist, _ = invert_points(before.control_net[None], points[None], seeds[None])
        assert np.all(taylor[0] >= dist[0])


def stitched_pairs(demo):
    """The demo stitched, and its (input, returned) patch pairs."""
    s1, s2, data, set_a, set_b = demo
    triples = align_boundary(data, set_a, set_b)
    model = stitch_boundary(set_a, set_b, triples)
    pairs = [(set_a.patches[t.patch_a], model.set_a.patches[t.patch_a]) for t in triples]
    pairs += [(set_b.patches[t.patch_b], model.set_b.patches[t.patch_b]) for t in triples]
    return model, pairs


def reduce_rows(patch, edge, target, tol):
    """The stitched direction of a patch reduced one row at a time."""
    net = patch.control_net if edge in (Edge.U0, Edge.U1) else patch.control_net.transpose(1, 0, 2)
    rows = np.stack([degree_reduce_curve(BezierCurve(row), target, tol).control_points for row in net])
    return BezierSurface(rows if edge in (Edge.U0, Edge.U1) else rows.transpose(1, 0, 2))


def per_pair_reduction(set_a, set_b, triples, tol):
    """Stitched patches and shared edges with each pair reduced on its own,
    row by row: the reference for the batched reduction.  Returns the
    patches of both sides and the shared edges."""
    model = stitch_boundary(set_a, set_b, triples)
    patches_a, patches_b = list(model.set_a.patches), list(model.set_b.patches)
    shared = list(model.shared_boundary)
    for k, triple in enumerate(triples):
        target = max(triple.segment.degree, 1)
        if target >= shared[k].degree:
            continue
        try:
            net_a = reduce_rows(patches_a[triple.patch_a], triple.edge_a, target, tol)
            net_b = reduce_rows(patches_b[triple.patch_b], triple.edge_b, target, tol)
            edge = degree_reduce_curve(shared[k], target, tol)
        except ReductionError:
            continue
        patches_a[triple.patch_a] = with_edge(net_a, triple.edge_a, edge.control_points)
        patches_b[triple.patch_b] = with_edge(net_b, triple.edge_b, edge.control_points)
        shared[k] = edge
    return patches_a, patches_b, shared


def with_line_segments(triples):
    """The triples with each curve segment replaced by its chord (target 1)."""
    return [replace(t, segment=BezierCurve(t.segment.control_points[[0, -1]])) for t in triples]


def with_bumped_row(patch_set, triple, degree):
    """A copy of side b whose patch of `triple` is elevated along its edge to
    `degree` and carries a bump on the row opposite its edge."""
    patch = patch_set.patches[triple.patch_b]
    if triple.edge_b in (Edge.U0, Edge.U1):
        net = elevated(patch, 1, degree).control_net.copy()
        net[-1 if triple.edge_b is Edge.U0 else 0, degree // 2, 2] += 0.05
    else:
        net = elevated(patch, 0, degree).control_net.copy()
        net[degree // 2, -1 if triple.edge_b is Edge.V0 else 0, 2] += 0.05
    patches = list(patch_set.patches)
    patches[triple.patch_b] = BezierSurface(net)
    return PatchSet(replace(patch_set.decomposition, patches=patches))


def per_triple_gap(model, samples):
    """The matched edges' largest distance at `samples` shared parameters:
    the sampled gap that `verify_watertight`'s control-row check bounds."""
    ts = np.linspace(0.0, 1.0, samples)
    side_a, side_b = [], []
    for triple in model.triples:
        cps_a = stitching._edge_row(model.set_a.patches[triple.patch_a].control_net, triple.edge_a)
        cps_b = stitching._edge_row(model.set_b.patches[triple.patch_b].control_net, triple.edge_b)
        side_a.append(de_casteljau_many(cps_a, ts))
        side_b.append(de_casteljau_many(cps_b, ts))
    return float(np.linalg.norm(np.concatenate(side_a) - np.concatenate(side_b), axis=1).max())


class TestBatchedReduction:
    @pytest.mark.parametrize("target", [1, 3])
    def test_matches_per_pair_reference(self, demo, target):
        # Target 3: the demo's cubic segments, every pair reduces.  Target 1:
        # chords in place of the segments, about half the pairs miss 1e-3.
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        if target == 1:
            triples = with_line_segments(triples)
        model = stitch_boundary(set_a, set_b, triples, reduce_tolerance=1e-3)
        patches_a, patches_b, shared = per_pair_reduction(set_a, set_b, triples, 1e-3)
        kept = [edge.degree == target for edge in shared]
        assert [edge.degree == target for edge in model.shared_boundary] == kept
        assert all(kept) if target == 3 else 0 < sum(kept) < len(kept)
        for triple, got, want in zip(triples, model.shared_boundary, shared):
            assert np.abs(got.control_points - want.control_points).max() <= 1e-15
            for got_patch, want_patch in (
                (model.set_a.patches[triple.patch_a], patches_a[triple.patch_a]),
                (model.set_b.patches[triple.patch_b], patches_b[triple.patch_b]),
            ):
                assert got_patch.control_net.shape == want_patch.control_net.shape
                scale = np.abs(want_patch.control_net).max()
                assert np.abs(got_patch.control_net - want_patch.control_net).max() <= 1e-15 * scale

    def test_failing_row_keeps_its_pair_elevated(self, demo):
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        bad = triples[1]
        degree = stitch_boundary(set_a, set_b, triples).shared_boundary[1].degree
        bumped = with_bumped_row(set_b, bad, degree)
        elevated = stitch_boundary(set_a, bumped, triples)
        model = stitch_boundary(set_a, bumped, triples, reduce_tolerance=1e-3)
        assert elevated.shared_boundary[1].degree > 3
        assert np.array_equal(model.shared_boundary[1].control_points,
                              elevated.shared_boundary[1].control_points)
        assert np.array_equal(model.set_a.patches[bad.patch_a].control_net,
                              elevated.set_a.patches[bad.patch_a].control_net)
        assert np.array_equal(model.set_b.patches[bad.patch_b].control_net,
                              elevated.set_b.patches[bad.patch_b].control_net)
        others = [k for k in range(len(triples)) if k != 1]
        assert all(model.shared_boundary[k].degree == 3 for k in others)
        assert verify_watertight(model).max_gap == 0.0

    def test_deviation_measured_on_returned_patches(self, demo):
        # A bump that a loose tolerance lets the reduction flatten: the
        # returned patch moves by far more than its stitched edge does.
        s1, s2, data, set_a, set_b = demo
        triples = align_boundary(data, set_a, set_b)
        degree = stitch_boundary(set_a, set_b, triples).shared_boundary[1].degree
        bumped = with_bumped_row(set_b, triples[1], degree)
        model = stitch_boundary(set_a, bumped, triples, reduce_tolerance=5e-2)
        assert all(edge.degree == 3 for edge in model.shared_boundary)
        pairs = [(set_a.patches[t.patch_a], model.set_a.patches[t.patch_a]) for t in triples]
        pairs += [(bumped.patches[t.patch_b], model.set_b.patches[t.patch_b]) for t in triples]
        assert model.deviation == _stitch_deviation(pairs)
        assert model.deviation > 4 * stitch_boundary(set_a, bumped, triples).deviation


def internal_seam_gaps(patches, skip, samples=17, near=1e-8):
    """Set distance from samples of every internal seam edge of one side to
    the nearest edge of another of its patches.

    An internal seam edge is neither in `skip` (the side's stitched
    (patch, edge) pairs) nor on the domain edge; the
    surfaces are graphs over (u, v), so an edge on the domain edge keeps u or
    v at 0 or 1.  Each sample is projected by Newton onto every edge of
    another patch whose control polygon's bounding box lies within `near`
    of it, seeded from a 65-point table; a sample with no such edge gets its
    nearest box distance, a lower bound above `near`.
    """
    keys = [(i, edge) for i in range(len(patches)) for edge in Edge]
    curves = [edge_curve(patches[i], edge) for i, edge in keys]
    degree = max(curve.degree for curve in curves)
    polys = np.stack([degree_elevate_curve(curve, degree).control_points for curve in curves])
    owners = np.array([i for i, _ in keys])
    pts = np.einsum("ki,eid->ekd", all_bernstein(degree, np.linspace(0.0, 1.0, samples)), polys)
    on_domain_edge = np.abs(pts[..., :2, None] - [0.0, 1.0]).max(axis=1).min(axis=(1, 2)) < 1e-12
    seams = [k for k, key in enumerate(keys) if key not in skip and not on_domain_edge[k]]
    points = pts[seams].reshape(-1, 3)
    lo, hi = polys.min(axis=1), polys.max(axis=1)
    box = np.linalg.norm(np.maximum(0.0, np.maximum(lo - points[:, None], points[:, None] - hi)), axis=2)
    box[np.repeat(owners[seams], samples)[:, None] == owners] = np.inf
    gaps = box.min(axis=1)
    n, e = np.nonzero(box <= near)
    p, q = polys[e], points[n]
    seeds = np.linspace(0.0, 1.0, 65)
    table = np.einsum("ki,nid->nkd", all_bernstein(degree, seeds), p)
    t = seeds[np.linalg.norm(table - q[:, None], axis=2).argmin(axis=1)]
    d1 = degree * np.diff(p, axis=1)
    d2 = (degree - 1) * np.diff(d1, axis=1)
    for _ in range(20):
        c = np.einsum("ni,nid->nd", all_bernstein(degree, t), p) - q
        c1 = np.einsum("ni,nid->nd", all_bernstein(degree - 1, t), d1)
        c2 = np.einsum("ni,nid->nd", all_bernstein(degree - 2, t), d2)
        h = (c * c2).sum(axis=1) + (c1 * c1).sum(axis=1)
        t = np.clip(t - (c * c1).sum(axis=1) / np.where(h > 0.0, h, 1.0), 0.0, 1.0)
    gaps[n] = np.inf
    np.minimum.at(gaps, n, np.linalg.norm(np.einsum("ni,nid->nd", all_bernstein(degree, t), p) - q, axis=1))
    return gaps


@pytest.fixture(scope="module", params=[(0.0, 0.04), (0.3, 0.02)], ids=["demo", "tilted-plane"])
def stitched_outside(request):
    """The paraboloid cut by z = a*u + c at the default config, keep outside."""
    a, c = request.param
    return run_pipeline(paraboloid_patch(), plane_patch(a, 0.0, c), PipelineConfig()).model


def side_seams(model, side):
    """A side's patches and its stitched (patch, edge) pairs."""
    patch_set = model.set_a if side == "a" else model.set_b
    return list(patch_set.patches), {(getattr(t, f"patch_{side}"), getattr(t, f"edge_{side}"))
                                     for t in model.triples}


class TestInternalSeams:
    """Seams between patches of one side, at the default march step: no
    patch edge inside the retained region is left open.  The worst gaps
    (about 4e-11 on the demo) lie where a leftover rectangle's edge faces
    several trapezoid edges.  At coarser steps stitching opens them on the
    paraboloid side (3.3e-4 at step 0.18), because it moves the corners of
    stitched patches onto the shared curve and their unstitched neighbours
    keep their edges."""

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_every_internal_seam_closes(self, stitched_outside, side):
        gaps = internal_seam_gaps(*side_seams(stitched_outside, side))
        assert gaps.size > 1000
        assert gaps.max() <= 1e-10

    def test_an_opened_seam_is_seen(self, stitched_outside):
        # The middle control point of the u = u0 edge of an inner rectangle,
        # moved by 1e-6 in z: that edge alone is sampled.
        patches, _ = side_seams(stitched_outside, "a")
        cells = stitched_outside.set_a.decomposition.cells
        k = next(i for i, cell in enumerate(cells) if cell.kind == RECTANGLE and cell.bounds[0] > 0.0)
        net = patches[k].control_net.copy()
        net[0, 1, 2] += 1e-6
        patches[k] = BezierSurface(net)
        others = {(i, edge) for i in range(len(patches)) for edge in Edge} - {(k, Edge.U0)}
        gaps = internal_seam_gaps(patches, others)
        assert gaps.size == 17
        assert 1e-7 < gaps.max() <= 1e-6


class TestPipelineConfig:
    @pytest.mark.parametrize("field, value", [
        ("keep_a", "inner"),
        ("keep_b", "Left"),
        ("march_step", -0.02),
        ("march_step", 0.0),
        ("march_step", float("inf")),
        ("fit_tol", 0.0),
        ("fit_tol", float("nan")),
        ("fit_tol", float("inf")),
        ("reduce_tolerance", 0.0),
        ("reduce_tolerance", -1e-3),
        ("reduce_tolerance", float("inf")),
        ("march_step", None),
        ("march_step", True),
        ("march_step", "0.02"),
        ("fit_tol", None),
        ("fit_tol", "1e-4"),
        ("fit_tol", False),
        ("reduce_tolerance", True),
        ("reduce_tolerance", "1e-3"),
    ])
    def test_a_bad_field_is_rejected_before_any_march(self, monkeypatch, field, value):
        marches = []
        monkeypatch.setattr(
            "watertight.pipeline.build_intersection_data", lambda *args: marches.append(args)
        )
        with pytest.raises(ValueError, match=field):
            run_pipeline(paraboloid_patch(), plane_patch(0.0, 0.0, 0.04),
                         PipelineConfig(**{field: value}))
        assert marches == []

    def test_reduce_tolerance_may_be_left_unset(self):
        assert PipelineConfig(reduce_tolerance=None).reduce_tolerance is None
