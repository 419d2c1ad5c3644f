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
all of its rows pass.

The reported deviation is the largest distance from a grid of samples on
each returned patch to its pre-stitch self, each sample inverted onto the
old patch by Gauss-Newton and capped by its same-parameter distance.
Few samples can reach that maximum, so few are inverted.  Batches of 32
pairs of one net shape get a rigorous second-order bound on every sample
from a few Bernstein matrix products: one Gauss-Newton step, plus the
Taylor remainder that the second hodographs' control points bound.  The
samples inverted so far give a running lower bound, and a sample whose
bound does not exceed it is dropped.  The rest are inverted in descending
order of their bounds until the next one cannot raise the maximum.  The
inverted samples use the full grid's points, seeds and caps, so the
result has the bits of inverting them all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bezier import (
    BezierCurve,
    BezierSurface,
    Edge,
    _dot,
    _elevate_axis0,
    degree_elevate_curve,
    degree_reduce_many,
    evaluate_grid_products,
    evaluate_pointwise,
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
        StitchTriple(ia, edge_a, ib, edge_b, (float(bp[k]), float(bp[k + 1])),
                     BezierCurve(curve.polygons[k]))
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


# Grid intervals per parameter of the deviation samples; pairs per bound
# batch; samples a batch inverts up front to raise the lower bound; and
# samples per inversion call.
_DEVIATION_GRID = 20
_DEVIATION_BATCH = 32
_DEVIATION_PROBES = 4
_DEVIATION_CHUNK = 32
# Slop of a bound, relative to it and to the before net's largest
# coordinate: it covers the rounding of the matrix products and the
# stopping tolerances of `invert_points`.
_BOUND_REL_SLOP = 1e-9
_BOUND_ABS_SLOP = 1e-11


def _stitch_deviation(pairs) -> float:
    """Max distance from post-stitch sample points to the pre-stitch patch.

    Each (before, after) pair is sampled on a (`_DEVIATION_GRID` + 1)^2
    parameter grid.  A set distance, not a same-parameter one: the
    replacement curve carries a chord-length-like parameterization, so
    comparing at equal parameters would report tangential sliding that
    does not move the surface.  A sample's value is min(`invert_points`
    distance from its grid parameter, same-parameter distance), and the
    result is the max over all samples.

    Few samples can reach that max, and only those are inverted.  Pairs
    are grouped by the shapes of their before and after nets and taken in
    batches of `_DEVIATION_BATCH`, which keeps each batch's arrays to a few
    MB; `_deviation_bounds` caps every sample of a batch from a few
    Bernstein matrix products.  The max of the samples inverted so far is
    a running lower bound on the result, and a batch keeps only the
    samples whose bound exceeds it.  When more than `_DEVIATION_CHUNK`
    would stay, the batch first inverts its `_DEVIATION_PROBES`
    largest-bound samples, largest first, to raise that lower bound.  The
    kept samples of all batches are then inverted in descending order of
    their bounds, a chunk of one group at a time, until the next bound
    does not exceed the running max.  An inverted sample gets the point,
    seed and cap of the full grid, and `invert_points` treats each sample
    on its own, so the result has the bits of inverting every sample,
    whatever is pruned and in whatever order.
    """
    ts = np.linspace(0.0, 1.0, _DEVIATION_GRID + 1)
    uu, vv = np.meshgrid(ts, ts, indexing="ij")
    seeds = np.stack([uu.reshape(-1), vv.reshape(-1)], axis=1)
    groups = {}
    for before, after in pairs:
        key = (before.control_net.shape, after.control_net.shape)
        groups.setdefault(key, []).append((before.control_net, after.control_net))
    deviation = 0.0
    queues = []
    for members in groups.values():
        before, after = (np.stack(side) for side in zip(*members))
        kept = []
        for k in range(0, before.shape[0], _DEVIATION_BATCH):
            taylor, same, _ = _deviation_bounds(before[k:k + _DEVIATION_BATCH],
                                                after[k:k + _DEVIATION_BATCH], ts)
            bound = np.minimum(taylor, same).reshape(-1)
            rest = np.flatnonzero(bound > deviation)
            if rest.shape[0] > _DEVIATION_CHUNK:
                top = rest[np.argpartition(-bound[rest], _DEVIATION_PROBES)[:_DEVIATION_PROBES]]
                probes = top[np.argsort(-bound[top], kind="stable")]
                pair, sample = np.divmod(probes, seeds.shape[0])
                deviation = max(deviation, _inverted_max(before, after, k + pair, seeds[sample]))
                rest = np.setdiff1d(rest, probes)
                rest = rest[bound[rest] > deviation]
            pair, sample = np.divmod(rest, seeds.shape[0])
            kept.append((k + pair, sample, bound[rest]))
        pair, sample, bound = (np.concatenate(part) for part in zip(*kept))
        order = np.argsort(-bound, kind="stable")
        queues.append([before, after, pair[order], sample[order], bound[order]])
    queues = [queue for queue in queues if queue[4].shape[0]]
    while queues:
        # The group whose next sample has the largest bound goes next.
        queue = max(queues, key=lambda q: q[4][0])
        before, after, pair, sample, bound = queue
        if bound[0] <= deviation:
            break
        take = np.flatnonzero(bound[:_DEVIATION_CHUNK] > deviation)
        deviation = max(deviation, _inverted_max(before, after, pair[take], seeds[sample[take]]))
        queue[2:] = pair[_DEVIATION_CHUNK:], sample[_DEVIATION_CHUNK:], bound[_DEVIATION_CHUNK:]
        queues = [queue for queue in queues if queue[4].shape[0]]
    return deviation


def _deviation_bounds(before: np.ndarray, after: np.ndarray, ts: np.ndarray):
    """Two (P, T*T) upper bounds on each grid sample's deviation value, and
    the (P, T*T, 2) clamped Gauss-Newton steps the first is formed with.

    For the after point X and the before patch B at the sample's parameter
    p, one Gauss-Newton step delta = (ds, dt), clamped into the square,
    gives |X - B(p + delta)| <= |r - J delta| + (ds^2 M_ss + 2 |ds dt| M_st
    + dt^2 M_tt) / 2, with r = X - B(p) and J = (B_s, B_t): Taylor's
    remainder on the segment from p to p + delta, with M the largest second
    partials over the square, which the convex hull of the second
    hodographs bounds (M_ss = m (m - 1) max |second u difference of the
    net|, and so on).  That bound caps the set distance, and with it the
    `invert_points` distance from p whenever Gauss-Newton from p ends no
    farther than B(p + delta), as it does for points this near their
    patch.  The second bound, the same-parameter distance |r|, caps the
    value directly.  Each comes with `_BOUND_REL_SLOP` of itself and
    `_BOUND_ABS_SLOP` of the net's largest coordinate added.
    """
    count, m, n = before.shape[0], before.shape[1] - 1, before.shape[2] - 1
    samples = ts.shape[0]
    value, su, sv = (part.reshape(count, -1, 3)
                     for part in evaluate_grid_products(before, samples, partials=True))
    r = evaluate_grid_products(after, samples).reshape(value.shape) - value
    a, b, c = _dot(su, su), _dot(su, sv), _dot(sv, sv)
    g1, g2 = _dot(su, r), _dot(sv, r)
    det = a * c - b * b
    det = np.where(det > 0.0, det, np.inf)
    u = np.repeat(ts, samples)
    v = np.tile(ts, samples)
    ds = np.clip(u + (c * g1 - b * g2) / det, 0.0, 1.0) - u
    dt = np.clip(v + (a * g2 - b * g1) / det, 0.0, 1.0) - v
    linear = r - su * ds[..., None] - sv * dt[..., None]
    m_ss, m_st, m_tt = (_largest_norm(part)[:, None] for part in (
        m * (m - 1) * np.diff(before, 2, axis=1),
        m * n * np.diff(np.diff(before, axis=1), axis=2),
        n * (n - 1) * np.diff(before, 2, axis=2),
    ))
    second = 0.5 * (ds * ds * m_ss + 2.0 * np.abs(ds * dt) * m_st + dt * dt * m_tt)
    slop = _BOUND_ABS_SLOP * np.abs(before).reshape(count, -1).max(axis=1)[:, None]
    taylor = (np.sqrt(_dot(linear, linear)) + second) * (1.0 + _BOUND_REL_SLOP) + slop
    same = np.sqrt(_dot(r, r)) * (1.0 + _BOUND_REL_SLOP) + slop
    return taylor, same, np.stack([ds, dt], axis=-1)


def _largest_norm(diffs: np.ndarray) -> np.ndarray:
    """(P,) largest point norm of each of P stacked difference nets; 0 if empty."""
    if diffs.shape[1] == 0 or diffs.shape[2] == 0:
        return np.zeros(diffs.shape[0])
    return np.linalg.norm(diffs, axis=-1).reshape(diffs.shape[0], -1).max(axis=1)


def _inverted_max(before: np.ndarray, after: np.ndarray, pair: np.ndarray,
                  uv: np.ndarray) -> float:
    """Largest value of K samples: pair[k]'s after point at grid parameter
    uv[k], inverted onto its before net from there and capped by its
    same-parameter distance."""
    if pair.shape[0] == 0:
        return 0.0
    nets = before[pair]
    start = evaluate_pointwise(nets, uv)
    points = evaluate_pointwise(after[pair], uv)
    cap = np.linalg.norm(start - points, axis=1)
    _, dist, _ = invert_points(nets, points[:, None], uv[:, None])
    return float(np.minimum(dist[:, 0], cap).max())


def _stitched_rows(net: np.ndarray, edge: Edge) -> np.ndarray:
    """The net as a stack of curves along the edge's direction, and back."""
    return net if edge in (Edge.U0, Edge.U1) else net.transpose(1, 0, 2)


def _edge_row(net: np.ndarray, edge: Edge) -> np.ndarray:
    """The edge's control row, a view into the net."""
    return _stitched_rows(net, edge)[0 if edge in (Edge.U0, Edge.V0) else -1]


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
        row_a = _edge_row(model.set_a.patches[t.patch_a].control_net, t.edge_a)
        row_b = _edge_row(model.set_b.patches[t.patch_b].control_net, t.edge_b)
        degree = max(row_a.shape[0], row_b.shape[0]) - 1
        side_a.append(_elevate_axis0(row_a, degree))
        side_b.append(_elevate_axis0(row_b, degree))
    pa, pb = np.concatenate(side_a), np.concatenate(side_b)
    arr = np.linalg.norm(pa - pb, axis=1)
    worst = int(np.argmax(arr))
    return GapReport(
        max_gap=float(arr[worst]),
        rms_gap=float(np.sqrt(np.mean(arr**2))),
        sample_count=arr.size,
        worst_point=0.5 * (pa[worst] + pb[worst]),
    )
