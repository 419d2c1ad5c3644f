"""Boundary replacement: the shared intersection curve overwrites patch edges.

After both surfaces are decomposed and normalized, each trapezoid patch's
curved edge corresponds to one interval of the intersection curve between
two breakpoints.  Stitching degree-elevates that curve interval to the
common edge degree of the matched patch pair, or to the interval's own
degree where that is higher (elevating a lower-degree patch along its trim
direction first, which is exact), and writes the same control points into
both edges.  Matched edges then hold one control polygon, so the boundary
gap is exactly zero by construction.  `verify_watertight` checks exactly
that, with no sampling: it compares each pair's edge control rows, whose
largest distance bounds the edges' distance at equal parameter.

The stage works on stacks of patches.  Optional degree reduction brings the
stitched direction back down to the segment's degree: every stitched row
of every reducible pair (both patches and the shared segment) of one
(edge degree, target) goes through one `degree_reduce_many`, whose fit and
257-sample check are products with matrices cached per degree pair, cut at
a fixed number of rows to bound their memory; a pair is rewritten only when
all of its rows pass.  The deviation evaluates batches of equal-shape nets
in one stacked de Casteljau pass, then inverts the pairs in descending
order of their same-parameter bound until no bound can raise the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bezier import (
    BezierCurve,
    BezierSurface,
    Edge,
    degree_elevate_curve,
    degree_reduce_many,
    evaluate_grid_stacked,
)
from .errors import AlignmentError
from .intersect import GapReport, IntersectionData, invert_points
from .segmentation import PatchDecomposition


@dataclass(eq=False)
class PatchSet:
    """One surface's decomposition plus its boundary patches in trim order."""

    decomposition: PatchDecomposition

    @property
    def patches(self):
        return self.decomposition.patches

    def boundary_entries(self):
        """(patch index, curved edge, trim segment index) along the trim."""
        dec = self.decomposition
        return [
            (i, dec.curved_edges[i], dec.cells[i].segment)
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
    report_post: GapReport | None = None
    deviation: float = 0.0


def _edge_degree(patch: BezierSurface, edge: Edge) -> int:
    return patch.degree_v if edge in (Edge.U0, Edge.U1) else patch.degree_u


def _elevate_along_edge(patch: BezierSurface, edge: Edge, target: int) -> BezierSurface:
    if edge in (Edge.U0, Edge.U1):
        return patch.elevated_v(target) if target > patch.degree_v else patch
    return patch.elevated_u(target) if target > patch.degree_u else patch


def align_boundary(data: IntersectionData, set_a: PatchSet, set_b: PatchSet):
    """Pair boundary patches across surfaces by trim segment index.

    Segment k of the space curve and of both domain curves is one piece of
    the intersection: the space curve is cut once, at the decompositions'
    breakpoints, and trim segment k's boundary patches are paired with its
    segment k.  Raises AlignmentError unless the cut curve and both sides
    share one breakpoint array and both sides' boundary patches lie on the
    same trim segments.  Patch edges already run with increasing curve
    parameter, so no reorientation is needed.
    """
    entries_a = set_a.boundary_entries()
    entries_b = set_b.boundary_entries()
    if not entries_a and not entries_b and data.points:
        raise AlignmentError(
            f"the intersection has {len(data.points)} points but neither side has "
            "a boundary patch to stitch; the cut is not reparameterized onto any "
            "patch edge (axis-aligned straight cuts are not supported)"
        )
    curve = data.curve_c.subdivide_at(set_a.decomposition.breakpoints)
    bp = curve.breakpoints
    if not all(np.array_equal(bp, s.decomposition.breakpoints) for s in (set_a, set_b)):
        raise AlignmentError(
            "breakpoints differ between sides; decompositions do not "
            "derive from one intersection"
        )
    if [k for *_, k in entries_a] != [k for *_, k in entries_b]:
        raise AlignmentError(
            f"boundary patches lie on different trim segments: {len(entries_a)} "
            f"on side a, {len(entries_b)} on side b"
        )
    return [
        StitchTriple(ia, edge_a, ib, edge_b, (float(bp[k]), float(bp[k + 1])), curve.segments[k])
        for (ia, edge_a, k), (ib, edge_b, _) in zip(entries_a, entries_b)
    ]


def stitch_boundary(set_a: PatchSet, set_b: PatchSet, triples,
                    reduce_tolerance: float | None = None) -> WatertightModel:
    """Overwrite matched boundary edges with the shared curve's control points.

    Returns new patch sets with their own patch lists; the input sets and
    their patches stay as they were, and the rest of each decomposition
    (cells, curved edges) is shared.  Interior control points are
    untouched.  With ``reduce_tolerance`` set, the stitched direction of
    every matched pair is reduced back to the curve segment's degree (at
    least 1) in batches (see `_try_reduce`); a pair any of whose rows
    misses the tolerance keeps its elevated form.  The recorded deviation
    is the max sampled distance between each returned patch and its
    pre-stitch self.
    """
    out_a = PatchSet(replace(set_a.decomposition, patches=list(set_a.patches)))
    out_b = PatchSet(replace(set_b.decomposition, patches=list(set_b.patches)))
    shared = []
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
        out_a.patches[triple.patch_a] = patch_a.with_edge(triple.edge_a, elevated.control_points)
        out_b.patches[triple.patch_b] = patch_b.with_edge(triple.edge_b, elevated.control_points)
        shared.append(elevated)

    if reduce_tolerance is not None:
        shared = _try_reduce(out_a, out_b, triples, shared, reduce_tolerance)

    pairs = [(set_a.patches[t.patch_a], out_a.patches[t.patch_a]) for t in triples]
    pairs += [(set_b.patches[t.patch_b], out_b.patches[t.patch_b]) for t in triples]
    return WatertightModel(
        set_a=out_a,
        set_b=out_b,
        shared_boundary=shared,
        triples=list(triples),
        deviation=_stitch_deviation(pairs),
    )


# Grid intervals per parameter of the deviation samples, and patches per
# grid evaluation and per inversion batch in `_stitch_deviation`: 8 patches
# of 441 samples keep a batch's arrays to a few MB.
_DEVIATION_GRID = 20
_DEVIATION_BATCH = 8


def _stitch_deviation(pairs) -> float:
    """Max distance from post-stitch sample points to the pre-stitch patch.

    Each (before, after) pair is sampled on a (`_DEVIATION_GRID` + 1)^2
    parameter grid.  A set distance, not a same-parameter one: the
    replacement curve carries a chord-length-like parameterization, so
    comparing at equal parameters would report tangential sliding that
    does not move the surface.  The
    same-parameter distance upper-bounds each sample's set distance and caps
    it, so a sample whose bound does not exceed the running maximum cannot
    raise it and is not inverted; `invert_points` treats each sample on its
    own, so the result keeps its bits whatever the order.

    Pairs are grouped by the shapes of their before and after nets.  A
    first pass evaluates both sides of every pair in fixed batches, one
    stacked grid evaluation each, and keeps only the after points and the
    bounds.  The pairs are then inverted in descending order of their
    largest bound, in batches of one group, each onto its before nets,
    until the next pair's largest bound does not exceed the running
    maximum.
    """
    ts = np.linspace(0.0, 1.0, _DEVIATION_GRID + 1)
    uu, vv = np.meshgrid(ts, ts, indexing="ij")
    seeds = np.stack([uu.reshape(-1), vv.reshape(-1)], axis=1)
    groups = {}
    for before, after in pairs:
        key = (before.control_net.shape, after.control_net.shape)
        groups.setdefault(key, []).append((before.control_net, after.control_net))
    stacks = []
    for members in groups.values():
        before, after = (np.stack(side) for side in zip(*members))
        pb = np.empty((before.shape[0], seeds.shape[0], 3))
        bound = np.empty(pb.shape[:2])
        for k in range(0, before.shape[0], _DEVIATION_BATCH):
            batch = slice(k, k + _DEVIATION_BATCH)
            pa = evaluate_grid_stacked(before[batch], ts, ts).reshape(-1, seeds.shape[0], 3)
            pb[batch] = evaluate_grid_stacked(after[batch], ts, ts).reshape(pa.shape)
            bound[batch] = np.linalg.norm(pa - pb[batch], axis=2)
        top = bound.max(axis=1)
        stacks.append((before, pb, bound, top, list(np.argsort(-top, kind="stable"))))
    deviation = 0.0
    while stacks:
        # The group whose next pair has the largest bound goes next.
        before, pb, bound, top, queue = max(stacks, key=lambda stack: stack[3][stack[4][0]])
        if top[queue[0]] <= deviation:
            break
        take = np.array(queue[:_DEVIATION_BATCH])
        del queue[:_DEVIATION_BATCH]
        stacks = [stack for stack in stacks if stack[4]]
        take = take[top[take] > deviation]
        raises = bound[take] > deviation
        counts = raises.sum(axis=1)
        # Each pair's samples that can raise the maximum, padded to one
        # width with repeats of its first one.
        order = np.argsort(~raises, axis=1, kind="stable")
        width = int(counts.max())
        pick = np.where(np.arange(width) < counts[:, None], order[:, :width], order[:, :1])
        points = np.take_along_axis(pb[take], pick[..., None], axis=1)
        _, dist, _ = invert_points(before[take], points, seeds[pick])
        cap = np.take_along_axis(bound[take], pick, axis=1)
        deviation = max(deviation, float(np.minimum(dist, cap).max()))
    return deviation


def _stitched_rows(net: np.ndarray, edge: Edge) -> np.ndarray:
    """The net as a stack of curves along the edge's direction, and back."""
    return net if edge in (Edge.U0, Edge.U1) else net.transpose(1, 0, 2)


def _try_reduce(out_a: PatchSet, out_b: PatchSet, triples, shared, tol):
    """Reduce the stitched direction of every matched pair that allows it.

    Pairs whose edge degree exceeds the target (the curve segment's degree,
    at least 1) are grouped by (edge degree, target).  A group's rows --
    every stitched-direction row of patch a, every one of patch b and the
    shared segment, pair by pair -- go through one `degree_reduce_many`.
    A pair is rewritten only when all of its rows stay within tol, and the
    reduced segment is written into both edges, so matched edges stay
    bitwise identical; any other pair keeps its elevated form.
    """
    new_shared = list(shared)
    groups = {}
    for k, (triple, segment) in enumerate(zip(triples, shared)):
        target = max(triple.segment.degree, 1)
        if target < segment.degree:
            groups.setdefault((segment.degree, target), []).append(k)
    for (_, target), members in groups.items():
        parts = []
        for k in members:
            triple = triples[k]
            parts += [
                _stitched_rows(out_a.patches[triple.patch_a].control_net, triple.edge_a),
                _stitched_rows(out_b.patches[triple.patch_b].control_net, triple.edge_b),
                shared[k].control_points[None],
            ]
        sizes = [part.shape[0] for part in parts]
        reduced, deviation = degree_reduce_many(np.concatenate(parts), target)
        starts = np.cumsum([0] + sizes[:-1])
        pair_deviation = np.maximum.reduceat(deviation, starts[::3])
        pieces = np.split(reduced, starts[1:])
        for j, k in enumerate(members):
            if pair_deviation[j] > tol:
                continue
            triple = triples[k]
            rows_a, rows_b, segment = pieces[3 * j:3 * j + 3]
            edge = segment[0]
            out_a.patches[triple.patch_a] = BezierSurface(
                _stitched_rows(rows_a, triple.edge_a)).with_edge(triple.edge_a, edge)
            out_b.patches[triple.patch_b] = BezierSurface(
                _stitched_rows(rows_b, triple.edge_b)).with_edge(triple.edge_b, edge)
            new_shared[k] = BezierCurve(edge)
    return new_shared


def verify_watertight(model: WatertightModel) -> GapReport:
    """Largest control-point distance between matched boundary edges.

    The lower-degree row of a pair (only unstitched models have one) is
    first elevated exactly.  By the convex-hull property the result bounds
    the edges' distance at equal parameter; it is exactly 0.0 when both
    edges hold one polygon, as stitching writes them.  `sample_count` is the
    number of control points compared.
    """
    if not model.triples:
        return GapReport(0.0, 0.0, 0, np.zeros(3))
    side_a, side_b = [], []
    for t in model.triples:
        edge_a = model.set_a.patches[t.patch_a].edge_curve(t.edge_a)
        edge_b = model.set_b.patches[t.patch_b].edge_curve(t.edge_b)
        degree = max(edge_a.degree, edge_b.degree)
        side_a.append(degree_elevate_curve(edge_a, degree).control_points)
        side_b.append(degree_elevate_curve(edge_b, degree).control_points)
    pa, pb = np.concatenate(side_a), np.concatenate(side_b)
    arr = np.linalg.norm(pa - pb, axis=1)
    worst = int(np.argmax(arr))
    return GapReport(
        max_gap=float(arr[worst]),
        rms_gap=float(np.sqrt(np.mean(arr**2))),
        sample_count=arr.size,
        worst_point=0.5 * (pa[worst] + pb[worst]),
    )
