"""Boundary replacement: the shared intersection curve overwrites patch edges.

After both surfaces are decomposed and normalized, each trapezoid patch's
curved edge corresponds to one interval of the intersection curve between
two breakpoints.  Stitching degree-elevates that curve interval to the
common edge degree of the matched patch pair, or to the interval's own
degree where that is higher (elevating a lower-degree patch along its trim
direction first, which is exact), and writes the same control points into
both edges.  Matched edges then hold bitwise-identical control polygons,
so evaluating them with the same de Casteljau code yields a boundary gap
of exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bezier import (
    BezierCurve,
    BezierSurface,
    Edge,
    PiecewiseBezierCurve,
    de_casteljau_many,
    degree_elevate_curve,
    degree_reduce_curve,
)
from .errors import AlignmentError, ReductionError
from .intersect import GapReport, IntersectionData, invert_points
from .segmentation import TRAPEZOID, PatchDecomposition


@dataclass(eq=False)
class PatchSet:
    """One surface's decomposition plus its boundary patches in trim order."""

    decomposition: PatchDecomposition

    @property
    def patches(self):
        return self.decomposition.patches

    def boundary_entries(self):
        """(patch index, curved edge, w_span) along the trim."""
        dec = self.decomposition
        return [
            (i, dec.curved_edges[i], dec.cells[i].w_span)
            for i in dec.boundary_indices
        ]


@dataclass(eq=False)
class StitchTriple:
    """One matched boundary pair and its intersection-curve interval."""

    patch_a: int
    edge_a: Edge
    patch_b: int
    edge_b: Edge
    w_span: tuple
    segment: BezierCurve


@dataclass(eq=False)
class WatertightModel:
    set_a: PatchSet
    set_b: PatchSet
    shared_boundary: list
    triples: list
    report_pre: tuple = (None, None)
    report_post: GapReport | None = None
    deviation: float = 0.0


def _edge_degree(patch: BezierSurface, edge: Edge) -> int:
    return patch.degree_v if edge in (Edge.U0, Edge.U1) else patch.degree_u


def _elevate_along_edge(patch: BezierSurface, edge: Edge, target: int) -> BezierSurface:
    if edge in (Edge.U0, Edge.U1):
        return patch.elevated_v(target) if target > patch.degree_v else patch
    return patch.elevated_u(target) if target > patch.degree_u else patch


def align_boundary(data: IntersectionData, set_a: PatchSet, set_b: PatchSet):
    """Match boundary patches across surfaces and cut the curve between them.

    Both decompositions must carry the same trim-interval structure (shared
    breakpoints inherited from one IntersectionData); the space curve is
    subdivided at every interval boundary, and each sub-segment is paired
    with exactly one boundary patch per side.  Patch edges already run with
    increasing curve parameter, so no reorientation is needed.
    """
    entries_a = set_a.boundary_entries()
    entries_b = set_b.boundary_entries()
    if not entries_a and not entries_b and data.points:
        raise AlignmentError(
            f"the intersection has {len(data.points)} points but neither side has "
            "a boundary patch to stitch; the cut is not reparameterized onto any "
            "patch edge (axis-aligned straight cuts are not supported)"
        )
    if len(entries_a) != len(entries_b):
        raise AlignmentError(
            f"boundary patch counts differ: {len(entries_a)} vs {len(entries_b)}"
        )
    params = []
    for (_, _, span_a), (_, _, span_b) in zip(entries_a, entries_b):
        if abs(span_a[0] - span_b[0]) > 1e-9 or abs(span_a[1] - span_b[1]) > 1e-9:
            raise AlignmentError(
                "breakpoint spans differ between sides; decompositions do not "
                "derive from one intersection"
            )
        params.extend(span_a)
    curve = data.curve_c.subdivide_at(params)
    triples = []
    for (ia, edge_a, span), (ib, edge_b, _) in zip(entries_a, entries_b):
        seg_idx = curve.segment_index_of(span[0], span[1])
        triples.append(
            StitchTriple(
                patch_a=ia,
                edge_a=edge_a,
                patch_b=ib,
                edge_b=edge_b,
                w_span=span,
                segment=curve.segments[seg_idx],
            )
        )
    return triples


def stitch_boundary(set_a: PatchSet, set_b: PatchSet, triples,
                    reduce_tolerance: float | None = None) -> WatertightModel:
    """Overwrite matched boundary edges with the shared curve's control points.

    Returns new patch sets with their own patch lists; the input sets and
    their patches stay as they were, and the rest of each decomposition
    (cells, maps, curved edges) is shared.  Interior control points are
    untouched.  The recorded deviation is the max sampled distance between
    each modified patch and its pre-stitch self.  With ``reduce_tolerance``
    set, a degree reduction of the stitched direction is attempted per
    matched pair and silently skipped when infeasible.
    """
    out_a = PatchSet(replace(set_a.decomposition, patches=list(set_a.patches)))
    out_b = PatchSet(replace(set_b.decomposition, patches=list(set_b.patches)))
    shared = []
    pairs = []
    for triple in triples:
        patch_a = out_a.patches[triple.patch_a]
        patch_b = out_b.patches[triple.patch_b]
        d_edge = max(
            _edge_degree(patch_a, triple.edge_a),
            _edge_degree(patch_b, triple.edge_b),
            triple.segment.degree,
        )
        elevated = degree_elevate_curve(triple.segment, d_edge)
        patch_a = _elevate_along_edge(patch_a, triple.edge_a, d_edge)
        patch_b = _elevate_along_edge(patch_b, triple.edge_b, d_edge)
        new_a = patch_a.with_edge(triple.edge_a, elevated.control_points)
        new_b = patch_b.with_edge(triple.edge_b, elevated.control_points)
        pairs.append((out_a.patches[triple.patch_a], new_a))
        pairs.append((out_b.patches[triple.patch_b], new_b))
        out_a.patches[triple.patch_a] = new_a
        out_b.patches[triple.patch_b] = new_b
        shared.append(elevated)

    if reduce_tolerance is not None:
        shared = _try_reduce(out_a, out_b, triples, shared, reduce_tolerance)

    return WatertightModel(
        set_a=out_a,
        set_b=out_b,
        shared_boundary=shared,
        triples=list(triples),
        deviation=_stitch_deviation(pairs),
    )


# Patches per inversion batch in `_stitch_deviation`: 8 patches of 441
# samples keep a batch's arrays to a few MB.
_DEVIATION_BATCH = 8


def _stitch_deviation(pairs, grid: int = 20) -> float:
    """Max distance from post-stitch sample points to the pre-stitch patch.

    Each (before, after) pair is sampled on a (grid+1)^2 parameter grid.  A
    set distance, not a same-parameter one: the replacement curve carries a
    chord-length-like parameterization, so comparing at equal parameters
    would report tangential sliding that does not move the surface.  The
    same-parameter distance upper-bounds each sample's set distance and caps
    it, so a sample whose bound does not exceed the running maximum cannot
    raise it and is not inverted; `invert_points` treats each sample on its
    own, so the result keeps its bits.  Pairs are inverted onto their
    `before` nets in fixed batches of equal-shape nets, which bounds the
    memory a batch takes.
    """
    ts = np.linspace(0.0, 1.0, grid + 1)
    uu, vv = np.meshgrid(ts, ts, indexing="ij")
    seeds = np.stack([uu.reshape(-1), vv.reshape(-1)], axis=1)
    groups = {}
    for before, after in pairs:
        groups.setdefault(before.control_net.shape, []).append((before, after))
    deviation = 0.0
    for members in groups.values():
        for k in range(0, len(members), _DEVIATION_BATCH):
            chunk = members[k:k + _DEVIATION_BATCH]
            pa = np.stack([before.evaluate_grid(ts, ts).reshape(-1, 3) for before, _ in chunk])
            pb = np.stack([after.evaluate_grid(ts, ts).reshape(-1, 3) for _, after in chunk])
            bound = np.linalg.norm(pa - pb, axis=2)
            raises = bound > deviation
            counts = raises.sum(axis=1)
            live = np.flatnonzero(counts)
            if live.shape[0] == 0:
                continue
            # Each live pair's samples that can raise the maximum, padded
            # to one width with repeats of its first one.
            order = np.argsort(~raises[live], axis=1, kind="stable")
            width = int(counts.max())
            pick = np.where(np.arange(width) < counts[live, None], order[:, :width], order[:, :1])
            nets = np.stack([chunk[i][0].control_net for i in live])
            points = np.take_along_axis(pb[live], pick[..., None], axis=1)
            _, dist, _ = invert_points(nets, points, seeds[pick])
            cap = np.take_along_axis(bound[live], pick, axis=1)
            deviation = max(deviation, float(np.minimum(dist, cap).max()))
    return deviation


def _reduce_patch_rows(patch: BezierSurface, edge: Edge, target: int,
                       tol: float) -> BezierSurface:
    """Reduce the stitched direction of a patch to `target` degree."""
    net = patch.control_net
    if edge in (Edge.U0, Edge.U1):
        rows = [
            degree_reduce_curve(BezierCurve(net[i]), target, tol).control_points
            for i in range(net.shape[0])
        ]
        return BezierSurface(np.stack(rows, axis=0))
    cols = [
        degree_reduce_curve(BezierCurve(net[:, j]), target, tol).control_points
        for j in range(net.shape[1])
    ]
    return BezierSurface(np.stack(cols, axis=1))


def _try_reduce(out_a: PatchSet, out_b: PatchSet, triples, shared, tol):
    """Attempt per-pair degree reduction of the stitched direction.

    Both sides must reduce for a pair to be rewritten (identical edge rows
    stay bitwise identical because the same reduction runs on both); an
    infeasible pair keeps its elevated form.
    """
    new_shared = []
    for triple, segment in zip(triples, shared):
        target = max(triple.segment.degree, 1)
        if target >= segment.degree:
            new_shared.append(segment)
            continue
        try:
            red_a = _reduce_patch_rows(
                out_a.patches[triple.patch_a], triple.edge_a, target, tol
            )
            red_b = _reduce_patch_rows(
                out_b.patches[triple.patch_b], triple.edge_b, target, tol
            )
        except ReductionError:
            new_shared.append(segment)
            continue
        reduced_edge = degree_reduce_curve(segment, target, tol)
        red_a = red_a.with_edge(triple.edge_a, reduced_edge.control_points)
        red_b = red_b.with_edge(triple.edge_b, reduced_edge.control_points)
        out_a.patches[triple.patch_a] = red_a
        out_b.patches[triple.patch_b] = red_b
        new_shared.append(reduced_edge)
    return new_shared


def verify_watertight(model: WatertightModel, samples: int = 65) -> GapReport:
    """Max distance between matched boundary edges at shared parameters.

    Edge curves are extracted as control polygons and evaluated with the
    same de Casteljau routine on both sides, so stitched models report a
    gap of exactly zero.
    """
    if not model.triples:
        return GapReport(0.0, 0.0, 0, np.zeros(3))
    ts = np.linspace(0.0, 1.0, samples)
    side_a, side_b = [], []
    for triple in model.triples:
        cps_a = model.set_a.patches[triple.patch_a].edge_curve(triple.edge_a).control_points
        cps_b = model.set_b.patches[triple.patch_b].edge_curve(triple.edge_b).control_points
        side_a.append(de_casteljau_many(cps_a, ts))
        side_b.append(de_casteljau_many(cps_b, ts))
    pa = np.concatenate(side_a)
    pb = np.concatenate(side_b)
    arr = np.linalg.norm(pa - pb, axis=1)
    worst = int(np.argmax(arr))
    return GapReport(
        max_gap=float(arr[worst]),
        rms_gap=float(np.sqrt(np.mean(arr**2))),
        sample_count=arr.size,
        worst_point=0.5 * (pa[worst] + pb[worst]),
    )
