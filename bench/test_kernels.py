"""Microbenchmarks of the batched Bezier kernels, with pytest-benchmark.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest bench/ --benchmark-autosave

Results are printed as a table and saved under `.benchmarks/`; compare two
saved runs with `pytest-benchmark compare`.  `bench/` lies outside the
test paths in pyproject.toml, so the plain test command never collects
these files.

Each benchmark times one kernel on the sizes the pipeline feeds it: a
domain curve of 300 cubic segments (a dense march), the 441-point grid
`_patch_deviation` inverts on a (3, 9) stitched patch, the degree
reduction stitching tries, and the final gap check of a stitched model.
"""

import numpy as np
import pytest

from watertight.bezier import (
    BezierCurve,
    BezierSurface,
    PiecewiseBezierCurve,
    degree_elevate_curve,
    degree_reduce_curve,
)
from watertight.pipeline import PipelineConfig, run_pipeline
from watertight.shapes import paraboloid_patch, plane_patch
from watertight.stitching import verify_watertight


def chained_cubics(rng, count):
    segments = []
    start = rng.uniform(0.0, 1.0, 2)
    for _ in range(count):
        cps = rng.uniform(0.0, 1.0, (4, 2))
        cps[0] = start
        segments.append(BezierCurve(cps))
        start = cps[-1]
    return PiecewiseBezierCurve(segments, np.linspace(0.0, 1.0, count + 1))


@pytest.fixture(scope="module")
def stitched_demo():
    """The demo circle: paraboloid against the plane z = 0.04, step 0.02."""
    result = run_pipeline(paraboloid_patch(), plane_patch(0.0, 0.0, 0.04), PipelineConfig())
    return result.model


def test_derivative_many_300_segments(benchmark):
    curve = chained_cubics(np.random.default_rng(1), 300)
    ws = np.linspace(0.0, 1.0, 64 * 300 + 1)
    out = benchmark(curve.derivative_many, ws)
    assert out.shape == (ws.shape[0], 2)


def test_surface_evaluate_many_441_points(benchmark):
    rng = np.random.default_rng(2)
    surface = BezierSurface(rng.uniform(-1.0, 1.0, (4, 10, 3)))
    ts = np.linspace(0.0, 1.0, 21)
    uu, vv = np.meshgrid(ts, ts, indexing="ij")
    uv = np.stack([uu.reshape(-1), vv.reshape(-1)], axis=1)
    out = benchmark(surface.evaluate_many, uv)
    assert out.shape == (441, 3)


def test_degree_reduce_8_to_3(benchmark):
    cubic = BezierCurve(np.random.default_rng(3).standard_normal((4, 3)))
    curve = degree_elevate_curve(cubic, 8)
    reduced = benchmark(degree_reduce_curve, curve, 3, 1e-8)
    assert reduced.degree == 3


def test_verify_watertight_demo(benchmark, stitched_demo):
    report = benchmark(verify_watertight, stitched_demo)
    assert report.max_gap == 0.0
    assert report.sample_count > 0
