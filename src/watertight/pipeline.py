"""End-to-end watertighting: intersect, segment, normalize, stitch, verify.

Stage 1 turns each trimmed surface into standard-domain patches whose shape
is unchanged; stage 2 replaces the boundary control points on both sides
with the shared intersection curve's control points and verifies, control
point by control point, that the boundary gap is exactly zero.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bezier import BezierSurface, PiecewiseBezierCurve, _elevate_axis0, all_bernstein
from .errors import (
    DomainError,
    EmptyRegionError,
    FitError,
    GeometryError,
    NoIntersectionError,
    StageError,
)
from .intersect import IntersectionData, build_intersection_data, measure_gap
from .segmentation import (
    _NeedsSplit,
    build_patch_decomposition,
    cut_trims,
    monotone_split_params,
    odd_crossings,
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
# Curve samples of each pre-stitch gap measurement.
GAP_SAMPLES = 200
# Re-split rounds before an unmet fit tolerance is reported.
MAX_SPLIT_ROUNDS = 6


@dataclass
class PipelineConfig:
    march_step: float = 0.02
    fit_tol: float = 1e-4
    reduce_tolerance: float | None = None
    keep_a: str = "outside"
    keep_b: str = "outside"

    def __post_init__(self):
        for name in ("keep_a", "keep_b"):
            if getattr(self, name) not in KEEP_CHOICES:
                raise ValueError(f"{name} must be one of {KEEP_CHOICES}, not {getattr(self, name)!r}")
        for name in ("march_step", "fit_tol", "reduce_tolerance"):
            value = getattr(self, name)
            if value is None and name == "reduce_tolerance":
                continue
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and 0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, not {value!r}")


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


def _closing_path(end: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Straight segments from an open trim's end back to its start around
    the unit square, counter-clockwise and outside it: out from the centre
    to the square [-1, 2]^2 (p -> 3p - 1), along it and back in.  Both ends
    must lie on the domain edge, within 1e-12.  Returns (2, K, 2): the K
    segments' first points, then their last.
    """
    offsets = np.array([end, start, (0, 0), (1, 0), (1, 1), (0, 1)], dtype=float) - 0.5
    if np.abs(offsets[:2]).max(axis=1).min() < 0.5 - 1e-12:
        raise DomainError(f"open trim ends {end} and {start} must lie on the domain edge")
    angles = np.arctan2(offsets[:, 1], offsets[:, 0])
    turns = (angles - angles[0]) % (2.0 * np.pi)
    # The square's corners between the end and the start, counter-clockwise.
    order = 2 + np.argsort(turns[2:])
    passed = offsets[order[turns[order] < turns[1]]]
    outer = 0.5 + 3.0 * np.vstack([offsets[:1], passed, offsets[1:2]])
    points = np.vstack([end, outer, start])
    return np.stack([points[:-1], points[1:]])


def _signed_area(polygons: np.ndarray) -> float:
    """Area enclosed by a closed loop of degree-d Bezier segments, positive
    when it runs counter-clockwise: d-node Gauss-Legendre per segment, exact
    for the degree 2d - 1 integrand of (x y' - y x') / 2."""
    degree = polygons.shape[1] - 1
    nodes, weights = np.polynomial.legendre.leggauss(degree)
    ts = 0.5 * (nodes + 1.0)
    p = np.einsum("ki,sid->skd", all_bernstein(degree, ts), polygons)
    dp = np.einsum("ki,sid->skd", all_bernstein(degree - 1, ts), degree * np.diff(polygons, axis=1))
    cross = p[..., 0] * dp[..., 1] - p[..., 1] * dp[..., 0]
    return float(0.25 * np.sum(weights * cross))


def keep_region_fn(spec: str, curve: PiecewiseBezierCurve):
    """Point membership test for the retained side of a trim curve.

    The predicate takes arrays u and v of one shape, or scalars, and
    returns a bool array of that shape (a numpy bool for scalars).  It is an
    even-odd count (`segmentation.odd_crossings`) against one closed loop
    of the trim's own Bezier segments, which must be monotone in u and v,
    as `cut_trims` returns them.  "inside"/"outside" close an open trim by
    its chord.  "left"/"right" name the region on that side of the oriented
    trim: the inside of a counter-clockwise closed trim, or, for an open
    trim with both ends on the domain edge, the loop closed outside the
    square by `_closing_path`.  Raises EmptyRegionError when the chord
    closes an open trim into a loop of no area (|area| <= 1e-12), as for a
    straight cut: "inside" then names nothing, and "outside" the whole
    square, with no seam.
    """
    if spec not in KEEP_CHOICES:
        raise ValueError(f"keep spec must be one of {KEEP_CHOICES}")
    polygons, closed = curve.polygons, curve.is_closed
    if not closed:
        end, start = polygons[-1, -1], polygons[0, 0]
        path = np.array([[end], [start]]) if spec in ("inside", "outside") else _closing_path(end, start)
        # An open trim has degree 1 at least; its closing lines are raised to it.
        closing = _elevate_axis0(path, curve.degree)
        polygons = np.concatenate([polygons, closing.transpose(1, 0, 2)])
    if not closed and spec in ("inside", "outside") and abs(_signed_area(polygons)) <= 1e-12:
        raise EmptyRegionError(
            f"keep {spec!r} names a region with no area: the trim closed by its chord encloses none"
        )
    if closed and spec in ("left", "right"):
        outside = (spec == "left") != (_signed_area(polygons) > 0.0)
    else:
        outside = spec in ("outside", "right")
    return _batched(lambda u, v: odd_crossings(polygons, u, v) != outside)


# ---------------------------------------------------------------------------
# Decomposition with shared breakpoints
# ---------------------------------------------------------------------------

def prepare_decompositions(data: IntersectionData, s1: BezierSurface,
                           s2: BezierSurface, config: PipelineConfig):
    """Decompose both trimmed surfaces over one shared breakpoint set.

    The one place that decides where the trims are cut: each domain curve's
    monotone roots are found once, and every round cuts both curves at all
    of them plus the fit-driven re-splits so far (`cut_trims`), handing each
    side's decomposition its own turning points as breakpoint indices.  The
    keep predicates answer from the first round's cut, whose segments are
    monotone.  A trapezoid that a re-split leaves as it was (same trim
    segment, bounds and retained sample) keeps its fit from the round
    before, through one store of fits shared by the rounds of this call.
    """
    curves = [data.domain_curve_a, data.domain_curve_b]
    roots = [monotone_split_params(curve) for curve in curves]
    trims = cut_trims(curves, roots)
    keeps = [keep_region_fn(config.keep_a, trims[0][0]), keep_region_fn(config.keep_b, trims[1][0])]
    splits = []
    fits = {}
    for _ in range(MAX_SPLIT_ROUNDS):
        try:
            return tuple(
                PatchSet(build_patch_decomposition(surface, *trim, keep,
                                                   fit_tol=config.fit_tol, fits=fits))
                for surface, trim, keep in zip((s1, s2), trims, keeps)
            )
        except _NeedsSplit as err:
            log.info("fit tolerance needs %d extra splits", len(err.params))
            splits.extend(err.params)
            residual, (w0, w1) = err.residual, err.w_span
            trims = cut_trims(curves, roots, splits)
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
    post = _stage("verify", verify_watertight, model)
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
