"""Per-layer tracing of the watertight modules, from outside the program.

``Tracer.install`` wraps public functions and methods of each module
(layer) in place and ``Tracer.uninstall`` restores them; nothing inside
``src/`` changes.  A module-level function is replaced under every name
that refers to it in a ``watertight`` module, because the pipeline imports
its stages by name.

Times are inclusive (a layer's time contains the layers it calls) and a
recursive call is timed once, at its outermost entry.  Functions called
hundreds of thousands of times per case (``BezierCurve`` construction,
scalar ``de_casteljau``) are counted without a clock or a span, to keep the
tracing overhead down.  Spans are kept in memory and written out by the
caller when the run ends.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import watertight.bezier as bezier
import watertight.intersect as intersect
import watertight.model_io as model_io
import watertight.pipeline as pipeline
import watertight.segmentation as segmentation
import watertight.stitching as stitching
from watertight.bezier import BezierCurve, BezierSurface, PiecewiseBezierCurve


def evaluate_many_flops(net_shape, points: int) -> int:
    """Flops of one BezierSurface.evaluate_many call, computed from the net.

    Each de Casteljau level does a multiply, a multiply and an add per
    output coordinate: the u pass collapses (m+1) rows of (n+1) points, the
    v pass then collapses (n+1) points.
    """
    m, n = net_shape[0] - 1, net_shape[1] - 1
    dim = net_shape[2]
    per_point = 3 * dim * ((n + 1) * m * (m + 1) // 2 + n * (n + 1) // 2)
    return per_point * points


class Tracer:
    """Counts and times calls into the watertight layers."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self._stack = []
        self._depth = defaultdict(int)
        self._restore = []
        self._segment_surface = None

    # -- installation -----------------------------------------------------

    def _replace_function(self, module, name, wrapper):
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "watertight" or mod is None:
                continue
            if getattr(mod, name, None) is original:
                self._restore.append((mod, name, original))
                setattr(mod, name, wrapper(original))

    def _replace_method(self, cls, name, wrapper):
        original = cls.__dict__[name]
        self._restore.append((cls, name, original))
        setattr(cls, name, wrapper(original))

    def install(self):
        f, m = self._replace_function, self._replace_method
        f(intersect, "build_intersection_data", self._timed("intersect.march", after=self._after_march))
        f(intersect, "measure_gap", self._timed("intersect.measure", after=self._after_measure))
        f(pipeline, "prepare_decompositions", self._timed("pipeline.segment", before=self._before_segment))
        f(pipeline, "keep_region_fn", self._keep_region)
        f(segmentation, "build_patch_decomposition", self._timed("segmentation.build", before=self._before_build))
        f(segmentation, "decompose_trim", self._timed("segmentation.decompose", after=self._after_decompose))
        f(segmentation, "fit_cell", self._timed("segmentation.fit"))
        f(segmentation, "fit_boundary_polynomial", self._timed("segmentation.fit_polynomial", after=self._after_fit_polynomial))
        f(segmentation, "tighten_cell", self._timed("segmentation.tighten"))
        f(bezier, "compose_reparameterize", self._timed("bezier.compose"))
        f(bezier, "degree_reduce_curve", self._timed("bezier.reduce"))
        f(bezier, "de_casteljau", self._counted("bezier.de_casteljau"))
        m(BezierCurve, "__post_init__", self._counted("bezier.curve_builds"))
        m(PiecewiseBezierCurve, "derivative_many", self._timed("bezier.derivative_many"))
        m(BezierSurface, "evaluate_many", self._timed("bezier.surface_eval_many", before=self._before_eval_many))
        f(stitching, "align_boundary", self._timed("stitching.align", after=self._after_align))
        f(stitching, "stitch_boundary", self._timed("stitching.stitch", after=self._after_stitch))
        f(stitching, "verify_watertight", self._timed("stitching.verify", after=self._after_verify))
        f(model_io, "save_model", self._timed("model_io.save", after=self._after_save))
        f(model_io, "load_model", self._timed("model_io.load"))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- wrappers -----------------------------------------------------------

    def _counted(self, name):
        counts = self.counts

        def wrap(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap

    def _timed(self, name, before=None, after=None):
        def wrap(fn):
            def timed(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                self.counts[name + ".calls"] += 1
                self._depth[name] += 1
                parent = self._stack[-1] if self._stack else None
                span_id = len(self.spans)
                self.spans.append(None)
                self._stack.append(span_id)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    self._stack.pop()
                    self._depth[name] -= 1
                    if self._depth[name] == 0:
                        self.seconds[name] += t1 - t0
                    self.spans[span_id] = (span_id, parent, name, t0, t1)
                if after is not None:
                    after(args, kwargs, result)
                return result
            return timed
        return wrap

    def _keep_region(self, fn):
        timed = self._timed("pipeline.keep_region")

        def keep_region_fn(spec, curve):
            predicate = timed(fn)(spec, curve)
            return timed(predicate)
        return keep_region_fn

    # -- counters read from arguments and results ---------------------------

    def _after_march(self, args, kwargs, data):
        self.counts["intersect.points"] += len(data.points)

    def _after_measure(self, args, kwargs, report):
        self.counts["intersect.measure_samples"] += report.sample_count
        self.counts["intersect.measure_flagged"] += report.flagged

    def _before_segment(self, args, kwargs):
        self._segment_surface = args[1]

    def _before_build(self, args, kwargs):
        # One re-split round decomposes side a once (side b may not be reached).
        if args[0] is self._segment_surface:
            self.counts["pipeline.split_rounds"] += 1

    def _after_decompose(self, args, kwargs, result):
        self.counts["segmentation.cells"] += len(result[1])

    def _after_fit_polynomial(self, args, kwargs, result):
        self.counts["segmentation.fit_accepted"] += 1

    def _before_eval_many(self, args, kwargs):
        surface, uv = args[0], args[1]
        points = len(uv)
        self.counts["bezier.surface_eval_many_points"] += points
        self.counts["bezier.surface_eval_many_flops"] += evaluate_many_flops(
            surface.control_net.shape, points
        )

    def _after_align(self, args, kwargs, triples):
        self.counts["stitching.pairs"] += len(triples)

    def _after_stitch(self, args, kwargs, model):
        set_a, set_b, triples = args[:3]
        tol = args[3] if len(args) > 3 else kwargs.get("reduce_tolerance")
        if tol is None:
            return
        for triple, shared in zip(triples, model.shared_boundary):
            edge_degree = max(
                _edge_degree(set_a.patches[triple.patch_a], triple.edge_a),
                _edge_degree(set_b.patches[triple.patch_b], triple.edge_b),
            )
            target = max(triple.segment.degree, 1)
            if target < edge_degree:
                self.counts["stitching.reduce_tried"] += 1
                if shared.degree == target:
                    self.counts["stitching.reduce_kept"] += 1

    def _after_verify(self, args, kwargs, report):
        self.counts["stitching.verify_samples"] += report.sample_count

    def _after_save(self, args, kwargs, result):
        self.counts["model_io.bytes"] += os.path.getsize(args[1])

    # -- results ------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round of the workload, as (value, unit)."""
        s, c = self.seconds, self.counts
        attempts = c["segmentation.fit_polynomial.calls"]
        out = {
            "intersect.march_s": (s["intersect.march"], "s"),
            "intersect.points": (c["intersect.points"], "count"),
            "intersect.measure_s": (s["intersect.measure"], "s"),
            "intersect.measure_samples": (c["intersect.measure_samples"], "count"),
            "intersect.measure_flagged": (c["intersect.measure_flagged"], "count"),
            "pipeline.segment_s": (s["pipeline.segment"], "s"),
            "pipeline.split_rounds": (c["pipeline.split_rounds"], "count"),
            "pipeline.keep_region_s": (s["pipeline.keep_region"], "s"),
            "segmentation.decompose_s": (s["segmentation.decompose"], "s"),
            "segmentation.cells": (c["segmentation.cells"], "count"),
            "segmentation.fit_s": (s["segmentation.fit"], "s"),
            "segmentation.fit_attempts": (attempts, "count"),
            "segmentation.fit_accepted": (c["segmentation.fit_accepted"], "count"),
            "segmentation.tighten_calls": (c["segmentation.tighten.calls"], "count"),
            "bezier.curve_builds": (c["bezier.curve_builds"], "count"),
            "bezier.derivative_many_calls": (c["bezier.derivative_many.calls"], "count"),
            "bezier.derivative_many_s": (s["bezier.derivative_many"], "s"),
            "bezier.surface_eval_many_points": (c["bezier.surface_eval_many_points"], "count"),
            "bezier.surface_eval_many_s": (s["bezier.surface_eval_many"], "s"),
            "bezier.surface_eval_many_flops": (c["bezier.surface_eval_many_flops"], "flop"),
            "bezier.compose_calls": (c["bezier.compose.calls"], "count"),
            "bezier.compose_s": (s["bezier.compose"], "s"),
            "bezier.reduce_calls": (c["bezier.reduce.calls"], "count"),
            "bezier.reduce_s": (s["bezier.reduce"], "s"),
            "bezier.de_casteljau_calls": (c["bezier.de_casteljau"], "count"),
            "stitching.align_s": (s["stitching.align"], "s"),
            "stitching.stitch_s": (s["stitching.stitch"], "s"),
            "stitching.verify_s": (s["stitching.verify"], "s"),
            "stitching.pairs": (c["stitching.pairs"], "count"),
            "stitching.verify_samples": (c["stitching.verify_samples"], "count"),
            "stitching.reduce_tried": (c["stitching.reduce_tried"], "count"),
            "stitching.reduce_kept": (c["stitching.reduce_kept"], "count"),
            "model_io.save_s": (s["model_io.save"], "s"),
            "model_io.load_s": (s["model_io.load"], "s"),
            "model_io.bytes": (c["model_io.bytes"], "B"),
        }
        out = {k: (v / rounds, unit) for k, (v, unit) in out.items()}
        out["segmentation.fit_yield"] = (
            c["segmentation.fit_accepted"] / attempts if attempts else 0.0, "ratio"
        )
        return out

    def self_times(self) -> dict:
        """Each layer's self time: span durations minus their child spans."""
        child = defaultdict(float)
        for span in self.spans:
            if span is not None and span[1] is not None:
                child[span[1]] += span[4] - span[3]
        out = defaultdict(float)
        for span in self.spans:
            if span is not None:
                out[span[2]] += span[4] - span[3] - child[span[0]]
        return dict(out)


def _edge_degree(patch, edge) -> int:
    """Degree of a patch along one of its edges (the edge's control count - 1)."""
    return patch.control_net.shape[1 if edge.name in ("U0", "U1") else 0] - 1
