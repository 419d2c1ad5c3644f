"""End-to-end watertighting: intersect, segment, normalize, stitch, verify.

Stage 1 turns each trimmed surface into standard-domain patches whose shape
is unchanged; stage 2 replaces the boundary control points on both sides
with the shared intersection curve's control points and verifies that the
boundary gap is exactly zero.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .bezier import BezierSurface, PiecewiseBezierCurve
from .errors import FitError, GeometryError, NoIntersectionError, StageError
from .intersect import IntersectionData, build_intersection_data, measure_gap
from .segmentation import (
    _NeedsSplit,
    build_patch_decomposition,
    cut_trims,
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
# Polyline samples per trim segment of the keep predicates, the k-d tree
# candidates of a nearest-sample query, and the float temporaries (in
# elements) of one block of keep queries: 2**17, about 1 MB.
_KEEP_SAMPLES = 64
_KEEP_NEAR = 8
_KEEP_CHUNK = 2**17


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

def _batched(test):
    """A predicate of arrays u and v (or scalars) from a test of flat arrays."""
    def predicate(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        return test(u.reshape(-1), v.reshape(-1)).reshape(u.shape)[()]
    return predicate


def _crossing_test(poly: np.ndarray):
    """Even-odd test against a closed polyline, edges grouped in blocks of
    `_KEEP_SAMPLES`.

    An edge straddles a query's v only when its block's v-range holds v, so
    a query tests the edges of those blocks alone; each edge keeps the
    straddle and `xs > u` expressions of a test over every edge.
    """
    blocks = -(-(poly.shape[0] - 1) // _KEEP_SAMPLES)
    # Repeats of the last point add edges of zero height, which never straddle.
    poly = np.vstack([poly, np.repeat(poly[-1:], blocks * _KEEP_SAMPLES + 1 - poly.shape[0], 0)])
    starts = poly[:-1].reshape(blocks, _KEEP_SAMPLES, 2)
    ends = poly[1:].reshape(blocks, _KEEP_SAMPLES, 2)
    y_lo = np.minimum(starts[..., 1].min(axis=1), ends[:, -1, 1])
    y_hi = np.maximum(starts[..., 1].max(axis=1), ends[:, -1, 1])
    rows = max(1, _KEEP_CHUNK // blocks)
    pairs = _KEEP_CHUNK // _KEEP_SAMPLES

    def inside(u, v):
        crossings = np.zeros(u.shape[0], dtype=int)
        for k in range(0, u.shape[0], rows):
            vk = v[k:k + rows, None]
            query, block = np.nonzero((y_lo <= vk) & (vk <= y_hi))
            query += k
            for j in range(0, query.shape[0], pairs):
                q, b = query[j:j + pairs], block[j:j + pairs]
                (x0, y0), (x1, y1) = starts[b].transpose(2, 0, 1), ends[b].transpose(2, 0, 1)
                uq, vq = u[q, None], v[q, None]
                straddle = (y0 > vq) != (y1 > vq)
                with np.errstate(divide="ignore", invalid="ignore"):
                    xs = x0 + (vq - y0) * (x1 - x0) / (y1 - y0)
                np.add.at(crossings, q, np.sum(straddle & (xs > uq), axis=1))
        return crossings % 2 == 1

    return inside


def _side_test(pts: np.ndarray, tangents: np.ndarray):
    """Cross product of the nearest sample's tangent with the offset to it.

    The nearest sample is the first of least squared distance, as
    `np.argmin` over every sample gives it: the k-d tree's `_KEEP_NEAR`
    nearest are re-ranked by that expression.  A query whose candidates
    might leave out a tie (its farthest candidate is as near as its
    nearest, up to rounding) is ranked over every sample.
    """
    tree = cKDTree(pts)
    rows = max(1, _KEEP_CHUNK // (2 * pts.shape[0]))

    def side(u, v):
        p = np.stack([u, v], axis=1)
        dist, idx = tree.query(p, k=_KEEP_NEAR)
        near = np.sum((pts[idx] - p[:, None]) ** 2, axis=2)
        ties = near == near.min(axis=1, keepdims=True)
        nearest = np.where(ties, idx, pts.shape[0]).min(axis=1)
        wide = np.flatnonzero(dist[:, -1] <= dist[:, 0] * (1.0 + 1e-12))
        for k in range(0, wide.shape[0], rows):
            q = wide[k:k + rows]
            nearest[q] = np.argmin(np.sum((pts - p[q, None]) ** 2, axis=2), axis=1)
        t, off = tangents[nearest], p - pts[nearest]
        return t[:, 0] * off[:, 1] - t[:, 1] * off[:, 0]

    return side


def keep_region_fn(spec: str, curve: PiecewiseBezierCurve):
    """Point membership test for the retained side of a trim curve.

    The predicate takes arrays u and v of one shape, or scalars, and
    returns a bool array of that shape (a numpy bool for scalars).
    "inside"/"outside" use even-odd counting against a dense polyline of the
    (closed) curve, `_KEEP_SAMPLES` samples per trim segment; "left"/"right"
    take the sign of the cross product of the nearest sampled tangent with
    the offset, relative to curve direction.  A query tests only the edges
    of the polyline blocks whose v-range holds it, and finds its nearest
    sample through a k-d tree; the answers are those of a test of every
    edge and every sample.
    """
    if spec not in KEEP_CHOICES:
        raise ValueError(f"keep spec must be one of {KEEP_CHOICES}")
    n = _KEEP_SAMPLES * len(curve.segments) + 1
    ts = np.linspace(0.0, 1.0, n)
    pts = curve.evaluate_many(ts)

    if spec in ("inside", "outside"):
        inside = _crossing_test(pts if curve.is_closed else np.vstack([pts, pts[0]]))
        if spec == "inside":
            return _batched(inside)
        return _batched(lambda u, v: ~inside(u, v))

    side = _side_test(pts, curve.derivative_many(ts))
    if spec == "left":
        return _batched(lambda u, v: side(u, v) >= 0.0)
    return _batched(lambda u, v: side(u, v) <= 0.0)


# ---------------------------------------------------------------------------
# Decomposition with shared breakpoints
# ---------------------------------------------------------------------------

def prepare_decompositions(data: IntersectionData, s1: BezierSurface,
                           s2: BezierSurface, config: PipelineConfig):
    """Decompose both trimmed surfaces over one shared breakpoint set.

    The one place that decides where the trims are cut: each domain curve's
    monotone roots are found once, and every round cuts both curves at all
    of them plus the fit-driven re-splits so far (`cut_trims`), handing each
    side's decomposition its own turning points as breakpoint indices.
    """
    curves = [data.domain_curve_a, data.domain_curve_b]
    keeps = [keep_region_fn(config.keep_a, curves[0]), keep_region_fn(config.keep_b, curves[1])]
    roots = [monotone_split_params(curve) for curve in curves]
    splits = []
    for _ in range(MAX_SPLIT_ROUNDS):
        trims = cut_trims(curves, roots, splits)
        try:
            return tuple(
                PatchSet(build_patch_decomposition(surface, *trim, keep, fit_tol=config.fit_tol))
                for surface, trim, keep in zip((s1, s2), trims, keeps)
            )
        except _NeedsSplit as err:
            log.info("fit tolerance needs %d extra splits", len(err.params))
            splits.extend(err.params)
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
