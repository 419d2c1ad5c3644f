"""End-to-end watertighting: intersect, segment, normalize, stitch, verify.

Stage 1 turns each trimmed surface into standard-domain patches whose shape
is unchanged; stage 2 replaces the boundary control points on both sides
with the shared intersection curve's control points and verifies that the
boundary gap is exactly zero.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .bezier import BezierSurface, PiecewiseBezierCurve
from .errors import FitError, GeometryError, NoIntersectionError, StageError
from .intersect import IntersectionData, build_intersection_data, measure_gap
from .segmentation import (
    _NeedsSplit,
    build_patch_decomposition,
    monotone_split_params,
)
from .stitching import (
    PatchSet,
    WatertightModel,
    align_boundary,
    stitch_boundary,
    verify_watertight,
)

log = logging.getLogger(__name__)

KEEP_CHOICES = ("outside", "inside", "left", "right")
# Residual that accepts a marched intersection point.
MARCH_TOL = 1e-10
# Curve samples of each pre-stitch gap measurement, and edge samples of the
# post-stitch check.
GAP_SAMPLES = 200
VERIFY_SAMPLES = 65
# Re-split rounds before an unmet fit tolerance is reported.
MAX_SPLIT_ROUNDS = 6


@dataclass
class PipelineConfig:
    march_step: float = 0.02
    fit_tol: float = 1e-4
    reduce_tolerance: float | None = None
    keep_a: str = "outside"
    keep_b: str = "outside"


@dataclass(eq=False)
class PipelineResult:
    data: IntersectionData
    model: WatertightModel
    report: dict


# ---------------------------------------------------------------------------
# Keep-region predicates
# ---------------------------------------------------------------------------

def keep_region_fn(spec: str, curve: PiecewiseBezierCurve):
    """Point membership test for the retained side of a trim curve.

    "inside"/"outside" use even-odd counting against a dense polyline of the
    (closed) curve; "left"/"right" take the sign of the cross product of the
    nearest sampled tangent with the offset, relative to curve direction.
    """
    if spec not in KEEP_CHOICES:
        raise ValueError(f"keep spec must be one of {KEEP_CHOICES}")
    n = 64 * len(curve.segments) + 1
    ts = np.linspace(0.0, 1.0, n)
    pts = curve.evaluate_many(ts)

    if spec in ("inside", "outside"):
        poly = pts if curve.is_closed else np.vstack([pts, pts[0]])

        def inside(u, v):
            crossings = 0
            x0, y0 = poly[:-1, 0], poly[:-1, 1]
            x1, y1 = poly[1:, 0], poly[1:, 1]
            straddle = (y0 > v) != (y1 > v)
            with np.errstate(divide="ignore", invalid="ignore"):
                xs = x0 + (v - y0) * (x1 - x0) / (y1 - y0)
            crossings = int(np.sum(straddle & (xs > u)))
            return crossings % 2 == 1

        if spec == "inside":
            return inside
        return lambda u, v: not inside(u, v)

    tangents = curve.derivative_many(ts)

    def side(u, v):
        p = np.array([u, v])
        i = int(np.argmin(np.sum((pts - p) ** 2, axis=1)))
        t = tangents[i]
        off = p - pts[i]
        return t[0] * off[1] - t[1] * off[0]

    if spec == "left":
        return lambda u, v: side(u, v) >= 0.0
    return lambda u, v: side(u, v) <= 0.0


# ---------------------------------------------------------------------------
# Decomposition with shared breakpoints
# ---------------------------------------------------------------------------

def _dedupe_params(params, existing, tol=1e-7):
    out = []
    for p in sorted(params):
        if not (tol < p < 1.0 - tol):
            continue
        if np.any(np.abs(existing - p) <= tol):
            continue
        if out and p - out[-1] <= tol:
            continue
        out.append(float(p))
    return out


def prepare_decompositions(data: IntersectionData, s1: BezierSurface,
                           s2: BezierSurface, config: PipelineConfig):
    """Decompose both trimmed surfaces over one shared breakpoint set.

    Both domain curves are subdivided at the union of both sides' monotone
    split parameters (plus any fit-driven re-splits), so every trim interval
    produces exactly one boundary patch per side and the two decompositions
    align one to one.
    """
    keep_a = keep_region_fn(config.keep_a, data.domain_curve_a)
    keep_b = keep_region_fn(config.keep_b, data.domain_curve_b)
    extra = list(monotone_split_params(data.domain_curve_a))
    extra += monotone_split_params(data.domain_curve_b)
    for _ in range(MAX_SPLIT_ROUNDS):
        params = _dedupe_params(extra, data.curve_c.breakpoints)
        curve_a = data.domain_curve_a.subdivide_at(params)
        curve_b = data.domain_curve_b.subdivide_at(params)
        try:
            dec_a = build_patch_decomposition(s1, curve_a, keep_a, fit_tol=config.fit_tol)
            dec_b = build_patch_decomposition(s2, curve_b, keep_b, fit_tol=config.fit_tol)
            return PatchSet(dec_a), PatchSet(dec_b)
        except _NeedsSplit as err:
            log.info("fit tolerance needs %d extra splits", len(err.params))
            extra.extend(err.params)
            residual, (w0, w1) = err.residual, err.w_span
    raise FitError(
        f"fit tolerance {config.fit_tol:.3e} unreachable within the split budget of "
        f"{MAX_SPLIT_ROUNDS} rounds; the trim interval [{w0:.6f}, {w1:.6f}] still misses it",
        residual,
    )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (NoIntersectionError, StageError):
        raise
    except GeometryError as err:
        raise StageError(name, err) from err


def run_pipeline(s1: BezierSurface, s2: BezierSurface,
                 config: PipelineConfig | None = None) -> PipelineResult:
    """March, interpolate, decompose, normalize, stitch, and verify."""
    config = config or PipelineConfig()
    data = _stage(
        "march", build_intersection_data, s1, s2, config.march_step, MARCH_TOL
    )
    set_a, set_b = _stage("segment", prepare_decompositions, data, s1, s2, config)
    triples = _stage("align", align_boundary, data, set_a, set_b)
    model = _stage(
        "stitch", stitch_boundary, set_a, set_b, triples, config.reduce_tolerance
    )
    gap_a = _stage(
        "measure", measure_gap, data.curve_c, s1, GAP_SAMPLES, data.domain_curve_a
    )
    gap_b = _stage(
        "measure", measure_gap, data.curve_c, s2, GAP_SAMPLES, data.domain_curve_b
    )
    post = _stage("verify", verify_watertight, model, VERIFY_SAMPLES)
    model.report_pre = (gap_a, gap_b)
    model.report_post = post
    report = {
        "intersection_points": len(data.points),
        "closed": data.closed,
        "patches_a": len(set_a.patches),
        "patches_b": len(set_b.patches),
        "boundary_pairs": len(triples),
        "pre_stitch_gap_a": {"max": gap_a.max_gap, "rms": gap_a.rms_gap},
        "pre_stitch_gap_b": {"max": gap_b.max_gap, "rms": gap_b.rms_gap},
        "post_stitch_gap": {"max": post.max_gap, "rms": post.rms_gap},
        "stitch_deviation": model.deviation,
    }
    return PipelineResult(data=data, model=model, report=report)
