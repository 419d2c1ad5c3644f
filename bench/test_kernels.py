"""Microbenchmarks of the batched Bezier kernels, with pytest-benchmark.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest bench/ --benchmark-autosave

Results are printed as a table and saved under `.benchmarks/`; compare two
saved runs with `pytest-benchmark compare`.  `bench/` lies outside the
test paths in pyproject.toml, so the plain test command never collects
these files.

Each benchmark times one kernel on the sizes the pipeline feeds it: a
domain curve of 300 cubic segments (a dense march), the construction,
subdivision at 64 parameters and evaluation of one of 500, a 441-point grid on a
(3, 9) patch, one batch of the stitch deviation's point inversion (16
stacked patches, 441 samples each), the march of a tilted arc at step
0.01, one of its steps and its 32x32 nearest-point seeding search, the
monotone split parameters of the demo's trim, the pre-stitch gap
measurement and the lifting of a dense domain curve, the segmentation of
the demo's side a at step 0.005, its batched keep test at every retained
sample, its one batched arc solve and its vectorized boundary fit, a
model_io save and a load of that demo's model and of the tilted arc's at
step 0.01, the stacked composition of 300 nets,
one batched subpatch extraction of every cell of the step-0.005 demo's
side a, the stitch deviation of the demo and of the tight-fit mirror, the
degree reduction of one curve, the whole stitch of the corner clip with
its batched reduction, and the final gap check of a stitched model.
"""

import numpy as np
import pytest

from watertight.bezier import (
    BezierCurve,
    BezierSurface,
    BoundaryPolynomial,
    PiecewiseBezierCurve,
    _subpatch_nets,
    compose_reparameterize,
    compose_reparameterize_many,
    degree_elevate_curve,
    degree_reduce_curve,
)
from watertight import model_io
from watertight.intersect import (
    _match,
    _nearest,
    _predict,
    build_intersection_data,
    invert_points,
    lift_domain_curve,
    march_intersection,
    measure_gap,
)
from watertight.pipeline import (
    MARCH_TOL,
    PipelineConfig,
    keep_region_fn,
    prepare_decompositions,
    run_pipeline,
)
from watertight.segmentation import (
    _EDGE_WS,
    RECTANGLE,
    TRAPEZOID,
    _classify_candidates,
    _fit_stack,
    _frame_edges,
    build_patch_decomposition,
    cut_trims,
    monotone_split_params,
)
from watertight.shapes import paraboloid_patch, plane_patch
from watertight.stitching import (
    _stitch_deviation,
    align_boundary,
    stitch_boundary,
    verify_watertight,
)


def chained_polygons(rng, count):
    """`count` random cubic polygons in [0, 1]^2, each starting where the last ends."""
    polygons = rng.uniform(0.0, 1.0, (count, 4, 2))
    polygons[1:, 0] = polygons[:-1, -1]
    return polygons


def chained_cubics(rng, count):
    return PiecewiseBezierCurve(chained_polygons(rng, count), np.linspace(0.0, 1.0, count + 1))


@pytest.fixture(scope="module")
def demo():
    """The demo circle: paraboloid against the plane z = 0.04, step 0.02."""
    return run_pipeline(paraboloid_patch(), plane_patch(0.0, 0.0, 0.04), PipelineConfig())


@pytest.fixture(scope="module")
def stitched_demo(demo):
    return demo.model


@pytest.fixture(scope="module")
def fine_demo():
    """The demo at step 0.005."""
    return run_pipeline(paraboloid_patch(), plane_patch(0.0, 0.0, 0.04), PipelineConfig(march_step=0.005))


def test_derivative_many_300_segments(benchmark):
    curve = chained_cubics(np.random.default_rng(1), 300)
    ws = np.linspace(0.0, 1.0, 64 * 300 + 1)
    out = benchmark(curve.derivative_many, ws)
    assert out.shape == (ws.shape[0], 2)


def test_build_subdivide_evaluate_500_segments(benchmark):
    rng = np.random.default_rng(7)
    polygons = chained_polygons(rng, 500)
    breaks = np.linspace(0.0, 1.0, 501)
    params = rng.uniform(0.0, 1.0, 64)
    # 16 samples per segment of the subdivided curve.
    ws = np.linspace(0.0, 1.0, 16 * 564 + 1)

    def run():
        return PiecewiseBezierCurve(polygons, breaks).subdivide_at(params).evaluate_many(ws)

    assert benchmark(run).shape == (ws.shape[0], 2)


def test_surface_evaluate_many_441_points(benchmark):
    rng = np.random.default_rng(2)
    surface = BezierSurface(rng.uniform(-1.0, 1.0, (4, 10, 3)))
    ts = np.linspace(0.0, 1.0, 21)
    uu, vv = np.meshgrid(ts, ts, indexing="ij")
    uv = np.stack([uu.reshape(-1), vv.reshape(-1)], axis=1)
    out = benchmark(surface.evaluate_many, uv)
    assert out.shape == (441, 3)


def test_invert_points_16_nets_441_samples(benchmark):
    rng = np.random.default_rng(4)
    # Gently curved (8, 4) nets: a unit square with a small random height.
    us, vs = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 5), indexing="ij")
    nets = np.stack([
        np.stack([us, vs, 0.05 * rng.standard_normal(us.shape)], axis=-1)
        for _ in range(16)
    ])
    ts = np.linspace(0.0, 1.0, 21)
    uu, vv = np.meshgrid(ts, ts, indexing="ij")
    seeds = np.broadcast_to(np.stack([uu.reshape(-1), vv.reshape(-1)], axis=1), (16, 441, 2))
    points = np.stack([
        BezierSurface(net).evaluate_grid(ts, ts).reshape(-1, 3) for net in nets
    ]) + rng.normal(0.0, 1e-4, (16, 441, 3))
    uv, dist, converged = benchmark(invert_points, nets, points, seeds)
    assert converged.all()


def test_march_intersection_tilted_arc(benchmark):
    # The shape of the dense-march workload's tilted arc.
    points = benchmark(march_intersection, paraboloid_patch(), plane_patch(0.3, 0.0, 0.02), 0.01, 1e-10)
    assert len(points) == 226


def test_nearest_32x32_seeding_grid(benchmark):
    # The march's seeding search: every point of side a's 32x32 grid
    # against every point of side b's, on the tilted arc.
    ts = np.linspace(0.0, 1.0, 32)
    pts1 = paraboloid_patch().evaluate_grid(ts, ts).reshape(-1, 3)
    pts2 = plane_patch(0.3, 0.0, 0.02).evaluate_grid(ts, ts).reshape(-1, 3)
    index, d2 = benchmark(_nearest, pts1, pts2)
    assert index.shape == d2.shape == (1024,)


def test_monotone_split_params_demo_trim(benchmark, demo):
    params = benchmark(monotone_split_params, demo.data.domain_curve_a)
    assert len(params) == 4


def test_measure_gap_200_samples_demo(benchmark, demo):
    data = demo.data
    report = benchmark(measure_gap, data.curve_c, paraboloid_patch(), 200, data.domain_curve_a)
    assert report.flagged == 0


def test_lift_domain_curve_9001_samples(benchmark, demo):
    lifted = benchmark(lift_domain_curve, paraboloid_patch(), demo.data.domain_curve_a, 9001)
    assert lifted.shape == (9001, 3)


def test_build_patch_decomposition_demo(benchmark, fine_demo):
    # Side a of the demo at step 0.005, on the trim curve the pipeline
    # settled on (shared breakpoints and re-splits included), cut at its
    # turning points, which are breakpoints of it already.
    cells = fine_demo.model.set_a.decomposition.cells
    curve = next(c.parent_curve for c in cells if c.kind == TRAPEZOID)
    curve, cuts = cut_trims([curve], [monotone_split_params(curve)])[0]
    keep = keep_region_fn("outside", curve)
    dec = benchmark(build_patch_decomposition, paraboloid_patch(), curve, cuts, keep, 1e-4)
    assert len(dec.patches) == 263


def test_keep_predicate_demo_retained_samples(benchmark, fine_demo):
    # The batched keep test of side a at step 0.005, on its trim cut at its
    # turning points, at every retained sample of its cells in one call.
    samples = np.array([c.retained_sample for c in fine_demo.model.set_a.decomposition.cells])
    curve = fine_demo.data.domain_curve_a
    curve, _ = cut_trims([curve], [monotone_split_params(curve)])[0]
    keep = keep_region_fn("outside", curve)
    kept = benchmark(keep, samples[:, 0], samples[:, 1])
    assert kept.all()


def _saved_model(surfaces, result):
    return model_io.ModelFile(
        surfaces=surfaces,
        intersection=result.data,
        patch_sets=[model_io.encode_patch_set(result.model.set_a),
                    model_io.encode_patch_set(result.model.set_b)],
        reports=result.report,
    )


@pytest.fixture(scope="module")
def demo_model(fine_demo):
    """The model file of the demo at step 0.005."""
    return _saved_model([paraboloid_patch(), plane_patch(0.0, 0.0, 0.04)], fine_demo)


@pytest.fixture(scope="module")
def tilted_arc_model():
    """The model file of the dense-march workload's tilted arc, unjittered:
    the largest file the benchmark writes."""
    surfaces = [paraboloid_patch(), plane_patch(0.3, 0.0, 0.02)]
    return _saved_model(surfaces, run_pipeline(*surfaces, PipelineConfig(march_step=0.01)))


def _assert_loads_back(model, loaded):
    assert loaded.patch_sets == model.patch_sets
    assert loaded.reports == model.reports
    assert np.array_equal(loaded.intersection.lifted_a, model.intersection.lifted_a)


@pytest.mark.parametrize("name", ["demo_model", "tilted_arc_model"])
def test_save_model(benchmark, request, tmp_path, name):
    model = request.getfixturevalue(name)
    path = str(tmp_path / "model.json")
    benchmark(model_io.save_model, model, path)
    _assert_loads_back(model, model_io.load_model(path))


@pytest.mark.parametrize("name", ["demo_model", "tilted_arc_model"])
def test_load_model(benchmark, request, tmp_path, name):
    # Loading lifts both domain curves again.
    model = request.getfixturevalue(name)
    path = str(tmp_path / "model.json")
    model_io.save_model(model, path)
    _assert_loads_back(model, benchmark(model_io.load_model, path))


def test_frame_edges_demo_decomposition(benchmark, fine_demo):
    # Every trapezoid of side a at step 0.005, in its fitted orientation, at
    # the 257 samples of its own parameter: a fit pass's edge sampling.
    cells = [c for c in fine_demo.model.set_a.decomposition.cells if c.kind == TRAPEZOID]
    edges = benchmark(_frame_edges, cells, [c.case for c in cells])
    assert edges.shape == (len(cells), _EDGE_WS.shape[0], 2)


def test_fit_stack_demo_trapezoids(benchmark, fine_demo):
    # Every trapezoid of side a at step 0.005, fitted in one vectorized pass
    # from the sampled edges of the frames the rule gives it; each round
    # refits the same cells.
    cells = [c for c in fine_demo.model.set_a.decomposition.cells if c.kind == TRAPEZOID]
    candidates = _classify_candidates(cells)
    owners = [cell for cell, cases in zip(cells, candidates) for _ in cases]
    edges = _frame_edges(owners, [case for cases in candidates for case in cases])
    misses = benchmark(_fit_stack, cells, candidates, edges, 1e-4)
    assert not misses


def test_stitch_deviation_demo(benchmark, demo):
    s1, s2 = paraboloid_patch(), plane_patch(0.0, 0.0, 0.04)
    set_a, set_b = prepare_decompositions(demo.data, s1, s2, PipelineConfig())
    triples = align_boundary(demo.data, set_a, set_b)
    model = stitch_boundary(set_a, set_b, triples)
    pairs = [(set_a.patches[t.patch_a], model.set_a.patches[t.patch_a]) for t in triples]
    pairs += [(set_b.patches[t.patch_b], model.set_b.patches[t.patch_b]) for t in triples]
    deviation = benchmark(_stitch_deviation, pairs)
    assert deviation == model.deviation


def test_stitch_deviation_tight_fit_mirror(benchmark):
    # The tight-fit workload's mirror case: the paraboloid against
    # z = 0.1 - (x-0.5)^2 - (y-0.5)^2 at fit_tol 1e-5, 156 stitched pairs.
    s1 = paraboloid_patch()
    net = paraboloid_patch(-1.0).control_net.copy()
    net[..., 2] += 0.1
    s2 = BezierSurface(net)
    config = PipelineConfig(fit_tol=1e-5)
    data = build_intersection_data(s1, s2, config.march_step, MARCH_TOL)
    set_a, set_b = prepare_decompositions(data, s1, s2, config)
    triples = align_boundary(data, set_a, set_b)
    model = stitch_boundary(set_a, set_b, triples)
    pairs = [(set_a.patches[t.patch_a], model.set_a.patches[t.patch_a]) for t in triples]
    pairs += [(set_b.patches[t.patch_b], model.set_b.patches[t.patch_b]) for t in triples]
    deviation = benchmark(_stitch_deviation, pairs)
    assert deviation == model.deviation


def test_march_step_tilted_arc(benchmark):
    # One step of the tilted arc's march at step 0.01: the tangent
    # predictor from a marched point, then the corrector onto the step plane.
    s1, s2 = paraboloid_patch(), plane_patch(0.3, 0.0, 0.02)
    start = march_intersection(s1, s2, 0.01, 1e-10)[100]
    q = np.concatenate([start.params_a, start.params_b])
    _, _, partials, (p1, _) = _match(s1, s2, q)
    n1, n2 = np.cross(*partials[:2]), np.cross(*partials[2:])
    d = np.cross(n1, n2)
    d /= np.linalg.norm(d)

    def step():
        predicted = np.clip(_predict(q, d, 0.01, partials), 0.0, 1.0)
        return _match(s1, s2, predicted, plane=(d, p1 + 0.01 * d))

    _, residual, _, (moved, _) = benchmark(step)
    assert residual <= 1e-10
    assert abs(np.linalg.norm(moved - p1) - 0.01) <= 1e-3


def test_degree_reduce_8_to_3(benchmark):
    cubic = BezierCurve(np.random.default_rng(3).standard_normal((4, 3)))
    curve = degree_elevate_curve(cubic, 8)
    reduced = benchmark(degree_reduce_curve, curve, 3, 1e-8)
    assert reduced.degree == 3


def test_stitch_boundary_corner_clip(benchmark):
    # The clip-reduce workload's corner clip: the whole stitch, with every
    # pair's stitched direction reduced back to its segment's degree.
    s1, s2 = paraboloid_patch(), plane_patch(0.5, 0.5, -0.2)
    config = PipelineConfig(reduce_tolerance=1e-3, keep_a="right", keep_b="right")
    data = build_intersection_data(s1, s2, config.march_step, MARCH_TOL)
    set_a, set_b = prepare_decompositions(data, s1, s2, config)
    triples = align_boundary(data, set_a, set_b)
    model = benchmark(stitch_boundary, set_a, set_b, triples, 1e-3)
    assert all(edge.degree == max(t.segment.degree, 1)
               for edge, t in zip(model.shared_boundary, triples))


def test_subpatch_nets_demo_side_a(benchmark, fine_demo):
    # Every cell of side a at step 0.005 cut from the paraboloid in one
    # batched restriction; rectangles keep their cut nets as patches.
    dec = fine_demo.model.set_a.decomposition
    nets = benchmark(_subpatch_nets, paraboloid_patch().control_net,
                     [cell.patch_bounds for cell in dec.cells])
    assert nets.shape[0] == len(dec.cells)
    assert all(np.array_equal(net, patch.control_net)
               for net, patch, cell in zip(nets, dec.patches, dec.cells) if cell.kind == RECTANGLE)


def test_verify_watertight_demo(benchmark, stitched_demo):
    report = benchmark(verify_watertight, stitched_demo)
    assert report.max_gap == 0.0
    assert report.sample_count > 0


@pytest.mark.parametrize("m, n", [(2, 2), (10, 10)])
def test_compose_reparameterize_cubic_f(benchmark, m, n):
    surface = BezierSurface(np.random.default_rng(5).uniform(-1.0, 1.0, (m + 1, n + 1, 3)))
    # f(t) = 0.3 + 0.4 t - 0.2 t^2 + 0.1 t^3 stays inside [0, 1] on [0, 1].
    f = BoundaryPolynomial(np.array([0.3, 0.4, -0.2, 0.1]))
    out = benchmark(compose_reparameterize, surface, f)
    assert (out.degree_u, out.degree_v) == (m, 3 * m + n)


def test_compose_reparameterize_many_300_nets(benchmark):
    # 300 biquadratic nets, the size of a tight-fit round's trapezoids.
    nets = np.random.default_rng(6).uniform(-1.0, 1.0, (300, 3, 3, 3))
    fs = [BoundaryPolynomial(np.array([0.3, 0.4, -0.2, 0.1])) for _ in range(300)]
    out = benchmark(compose_reparameterize_many, nets, fs)
    assert out.shape == (300, 3, 9, 3)
