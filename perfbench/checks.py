"""Output checks computed apart from the program.

Every check uses the analytic form of the inputs (``workloads.Quadric``)
and evaluates Bezier nets with its own Bernstein matrices, never with the
program's evaluators.  Each check returns a list of failure messages; an
empty list means the output passed.  The bounds and why they hold are set
out in README.md.
"""

from __future__ import annotations

import math

import numpy as np

# Intersection points: |z - f(x, y)| on both analytic surfaces, and the
# distance between a point's (x, y) and its parameters on either side.
POINT_TOL = 1e-9
# Patches that stitching did not touch are exact subpatches of the input.
INTERIOR_SURFACE_TOL = 1e-12
# Stitched boundary patches: distance to the analytic surface, plus the
# case's reduce_tolerance when stitching may reduce degrees.
BOUNDARY_SURFACE_TOL = 1e-3
# Patch footprint area against the analytic retained area, plus the circle's
# length times reduce_tolerance when stitching may reduce degrees (a reduced
# boundary edge may move by up to that tolerance).
AREA_TOL = 1e-5
# Gauss-Legendre nodes per axis for the footprint area (exact for
# polynomials of degree 2*16-1 = 31 per axis).
GAUSS_NODES = 16
# Samples per axis for the surface-distance check.
SURFACE_SAMPLES = 11


# ---------------------------------------------------------------------------
# Bernstein evaluation, independent of watertight.bezier
# ---------------------------------------------------------------------------

def bernstein_matrix(degree: int, ts: np.ndarray) -> np.ndarray:
    """B[k, i] = C(degree, i) t_k^i (1 - t_k)^(degree - i)."""
    ts = np.asarray(ts, dtype=float)[:, None]
    i = np.arange(degree + 1)[None, :]
    coef = np.array([math.comb(degree, k) for k in range(degree + 1)], dtype=float)
    return coef * ts**i * (1.0 - ts) ** (degree - i)


def bernstein_derivative_matrix(degree: int, ts: np.ndarray) -> np.ndarray:
    """d/dt of bernstein_matrix: degree * (B_{i-1}^{d-1} - B_i^{d-1})."""
    ts = np.asarray(ts, dtype=float)
    out = np.zeros((ts.shape[0], degree + 1))
    if degree == 0:
        return out
    low = bernstein_matrix(degree - 1, ts)
    out[:, 1:] += degree * low
    out[:, :-1] -= degree * low
    return out


def evaluate_net(net: np.ndarray, us: np.ndarray, vs: np.ndarray,
                 du: bool = False, dv: bool = False) -> np.ndarray:
    """Points (or partial derivatives) of a tensor net on a us x vs grid."""
    m, n = net.shape[0] - 1, net.shape[1] - 1
    bu = bernstein_derivative_matrix(m, us) if du else bernstein_matrix(m, us)
    bv = bernstein_derivative_matrix(n, vs) if dv else bernstein_matrix(n, vs)
    return np.einsum("ai,ijk,bj->abk", bu, net, bv)


def _edge_row(net: np.ndarray, edge) -> np.ndarray:
    return {"U0": net[0], "U1": net[-1], "V0": net[:, 0], "V1": net[:, -1]}[edge.name]


# ---------------------------------------------------------------------------
# Analytic retained area
# ---------------------------------------------------------------------------

def disk_square_area(cx: float, cy: float, r: float) -> float:
    """Exact area of the disk (cx, cy, r) inside the unit square.

    Integrates the disk's vertical extent clipped to [0, 1] in closed form,
    piece by piece between the x values where the clipping changes.
    Needs the centre inside the square.
    """
    if not (0.0 < cx < 1.0 and 0.0 < cy < 1.0):
        raise ValueError("disk centre must lie inside the unit square")
    # Work in t = x - cx so that the disk's own ends are exactly -r and r.
    t0, t1 = max(-cx, -r), min(1.0 - cx, r)
    cuts = {t0, t1}
    for k in (1.0 - cy, cy):
        if k < r:
            h = math.sqrt(r * r - k * k)
            cuts.update(t for t in (-h, h) if t0 < t < t1)
    cuts = sorted(cuts)

    def antiderivative(t):  # integral of sqrt(r^2 - t^2)
        return 0.5 * (t * math.sqrt(max(r * r - t * t, 0.0)) + r * r * math.asin(t / r))

    area = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        half = math.sqrt(r * r - mid * mid)
        arc = antiderivative(hi) - antiderivative(lo)
        top = (hi - lo) if cy + half >= 1.0 else cy * (hi - lo) + arc
        bottom = 0.0 if cy - half <= 0.0 else cy * (hi - lo) - arc
        area += top - bottom
    return area


def _edges_crossed(cx, cy, r) -> int:
    return sum(d < r for d in (cx, 1.0 - cx, cy, 1.0 - cy))


def retained_area(circle, keep: str, domain_curve) -> float:
    """Analytic area of the region a keep spec retains.

    "inside"/"outside" close an open arc with its chord, which runs along
    the square's edge only when the disk crosses at most one edge.
    "left"/"right" are taken relative to the direction of the output's
    domain curve: a counter-clockwise arc has the disk on its left.  The
    direction is the program's convention, not a computed quantity.
    """
    cx, cy, r = circle
    disk = disk_square_area(cx, cy, r)
    if keep in ("inside", "outside"):
        if _edges_crossed(cx, cy, r) > 1:
            raise ValueError("inside/outside of an arc crossing several edges")
        return disk if keep == "inside" else 1.0 - disk
    cps = domain_curve.segments[len(domain_curve.segments) // 2].control_points
    half = np.array([0.5])
    p = (bernstein_matrix(len(cps) - 1, half) @ cps)[0]
    d = (bernstein_derivative_matrix(len(cps) - 1, half) @ cps)[0]
    ccw = (p[0] - cx) * d[1] - (p[1] - cy) * d[0] > 0.0
    return disk if (keep == "left") == ccw else 1.0 - disk


def footprint_area(patches) -> float:
    """Sum over patches of |integral of det d(x, y)/d(s, t)|, Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_NODES)
    ts, ws = 0.5 * (nodes + 1.0), 0.5 * weights
    total = 0.0
    for net in patches:
        xu = evaluate_net(net, ts, ts, du=True)
        xv = evaluate_net(net, ts, ts, dv=True)
        det = xu[..., 0] * xv[..., 1] - xu[..., 1] * xv[..., 0]
        total += abs(float(ws @ det @ ws))
    return total


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_points(case, data) -> list:
    """Intersection points satisfy both analytic surface equations."""
    fails = []
    if len(data.points) < 2:
        return [f"{case.name}: {len(data.points)} intersection points"]
    for k, p in enumerate(data.points):
        x, y, z = p.position
        errs = (
            abs(z - case.quad_a.height(x, y)),
            abs(z - case.quad_b.height(x, y)),
            float(np.abs(p.params_a - p.position[:2]).max()),
            float(np.abs(p.params_b - p.position[:2]).max()),
        )
        if max(errs) > POINT_TOL:
            fails.append(f"{case.name}: point {k} misses the surfaces by {max(errs):.3e}")
    return fails


def check_stitch(case, model, report) -> list:
    """Matched edges are bitwise identical; verification sampled and saw 0."""
    fails = []
    if not model.triples:
        fails.append(f"{case.name}: no matched boundary pairs")
    for k, t in enumerate(model.triples):
        row_a = _edge_row(model.set_a.patches[t.patch_a].control_net, t.edge_a)
        row_b = _edge_row(model.set_b.patches[t.patch_b].control_net, t.edge_b)
        if row_a.shape != row_b.shape or row_a.tobytes() != row_b.tobytes():
            fails.append(f"{case.name}: pair {k} edges differ")
    post = model.report_post
    if post is None or post.sample_count <= 0:
        fails.append(f"{case.name}: verify_watertight took no samples")
    if report["post_stitch_gap"]["max"] != 0.0:
        fails.append(f"{case.name}: post-stitch gap {report['post_stitch_gap']['max']!r}")
    return fails


def check_area(case, model, data) -> list:
    """Each side's patch footprints cover exactly the analytic retained area."""
    fails = []
    tol = AREA_TOL + 2.0 * math.pi * case.circle[2] * (case.config.reduce_tolerance or 0.0)
    sides = (
        ("a", model.set_a, case.config.keep_a, data.domain_curve_a),
        ("b", model.set_b, case.config.keep_b, data.domain_curve_b),
    )
    for side, patch_set, keep, curve in sides:
        want = retained_area(case.circle, keep, curve)
        got = footprint_area([p.control_net for p in patch_set.patches])
        if abs(got - want) > tol:
            fails.append(
                f"{case.name}: side {side} footprint area {got:.9f}, analytic {want:.9f}"
            )
    return fails


def surface_distances(quad, net) -> np.ndarray:
    """Distance from sampled patch points to the analytic surface z = f(x, y).

    |z - f| / sqrt(1 + |grad f|^2) is the exact distance for a plane and
    agrees with it to second order in the residual for the paraboloid.
    """
    ts = np.linspace(0.0, 1.0, SURFACE_SAMPLES)
    pts = evaluate_net(net, ts, ts)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    gx, gy = quad.gradient(x, y)
    return np.abs(z - quad.height(x, y)) / np.sqrt(1.0 + gx * gx + gy * gy)


def check_surface(case, model):
    """Sampled patches lie on their analytic surface; returns (fails, max)."""
    fails = []
    worst = 0.0
    boundary_tol = BOUNDARY_SURFACE_TOL + (case.config.reduce_tolerance or 0.0)
    sides = (("a", model.set_a, case.quad_a, {t.patch_a for t in model.triples}),
             ("b", model.set_b, case.quad_b, {t.patch_b for t in model.triples}))
    for side, patch_set, quad, stitched in sides:
        for i, patch in enumerate(patch_set.patches):
            net = patch.control_net
            dist = float(surface_distances(quad, net).max())
            worst = max(worst, dist)
            bound = boundary_tol if i in stitched else INTERIOR_SURFACE_TOL
            if dist > bound:
                fails.append(
                    f"{case.name}: side {side} patch {i} is {dist:.3e} off the surface"
                )
            if net[..., :2].min() < -POINT_TOL or net[..., :2].max() > 1.0 + POINT_TOL:
                fails.append(f"{case.name}: side {side} patch {i} leaves the domain")
    return fails, worst


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_curve(a, b) -> bool:
    return (
        _same_bits(a.breakpoints, b.breakpoints)
        and len(a.segments) == len(b.segments)
        and all(_same_bits(s.control_points, t.control_points)
                for s, t in zip(a.segments, b.segments))
    )


def check_round_trip(case, saved, loaded) -> list:
    """The model_io round trip gives back every number bit for bit."""
    ok = (
        len(saved.surfaces) == len(loaded.surfaces)
        and all(_same_bits(s.control_net, t.control_net)
                for s, t in zip(saved.surfaces, loaded.surfaces))
        and saved.reports == loaded.reports
        and saved.patch_sets == loaded.patch_sets
    )
    if ok:
        for rec_saved, rec_loaded in zip(saved.patch_sets, loaded.patch_sets):
            ok = ok and all(
                _same_bits(p["control_points"], q["control_points"])
                for p, q in zip(rec_saved["patches"], rec_loaded["patches"])
            )
    si, li = saved.intersection, loaded.intersection
    ok = ok and li is not None and si.closed == li.closed and len(si.points) == len(li.points)
    if ok:
        ok = all(
            _same_bits(p.position, q.position)
            and _same_bits(p.params_a, q.params_a)
            and _same_bits(p.params_b, q.params_b)
            and _same_bits([p.residual_a, p.residual_b], [q.residual_a, q.residual_b])
            for p, q in zip(si.points, li.points)
        ) and all(
            _same_curve(getattr(si, name), getattr(li, name))
            for name in ("curve_c", "domain_curve_a", "domain_curve_b")
        ) and _same_bits(si.lifted_a, li.lifted_a) and _same_bits(si.lifted_b, li.lifted_b)
    return [] if ok else [f"{case.name}: model_io round trip is not bitwise"]


def check_case(case, result, saved, loaded):
    """All checks for one operation; returns (fails, surface_error)."""
    fails = check_points(case, result.data)
    fails += check_stitch(case, result.model, result.report)
    fails += check_area(case, result.model, result.data)
    surface_fails, surface_error = check_surface(case, result.model)
    fails += surface_fails
    fails += check_round_trip(case, saved, loaded)
    return fails, surface_error
