"""The benchmark's per-layer tracer still finds and wraps every hook it names.

`perfbench/tracer.py` wraps functions and methods of the package by name
(`measure_gap`, `BezierSurface.evaluate_many`, ...); renaming or deleting
one breaks `perfbench/run.py --trace 1`.  This test loads the tracer from
its file, installs it, runs a small case through the wrappers and removes
it again.  It only reads `perfbench/`.
"""

import importlib.util
from pathlib import Path

import numpy as np

import watertight.intersect as intersect
import watertight.pipeline as pipeline
from watertight.bezier import BezierSurface
from watertight.pipeline import PipelineConfig, run_pipeline
from watertight.shapes import paraboloid_patch, plane_patch

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_hook():
    originals = (
        intersect.measure_gap,
        pipeline.measure_gap,
        BezierSurface.__dict__["evaluate_many"],
    )
    trace = load_tracer().Tracer()
    trace.install()
    try:
        assert intersect.measure_gap is not originals[0]
        assert pipeline.measure_gap is not originals[1]
        assert BezierSurface.__dict__["evaluate_many"] is not originals[2]
        run_pipeline(
            paraboloid_patch(), plane_patch(0.0, 0.0, 0.04), PipelineConfig(march_step=0.18)
        )
        paraboloid_patch().evaluate_many(np.array([[0.5, 0.5]]))
    finally:
        trace.uninstall()
    assert (
        intersect.measure_gap,
        pipeline.measure_gap,
        BezierSurface.__dict__["evaluate_many"],
    ) == originals
    metrics = trace.layer_metrics(rounds=1)
    assert metrics["intersect.measure_samples"][0] == 400
    assert metrics["stitching.pairs"][0] > 0
    assert metrics["bezier.surface_eval_many_points"][0] == 1


def test_tracer_reads_the_reduce_path():
    # With reduce_tolerance set, the stitch hook reads each triple's segment
    # degree and each shared boundary curve's degree.
    trace = load_tracer().Tracer()
    trace.install()
    try:
        run_pipeline(
            paraboloid_patch(), plane_patch(0.5, 0.5, -0.2),
            PipelineConfig(march_step=0.18, reduce_tolerance=1e-3, keep_a="right", keep_b="right"),
        )
    finally:
        trace.uninstall()
    metrics = trace.layer_metrics(rounds=1)
    tried, kept = metrics["stitching.reduce_tried"][0], metrics["stitching.reduce_kept"][0]
    assert 0 < kept <= tried
    assert (tried, kept) == (16, 16)
