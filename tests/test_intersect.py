"""Intersection marching, inversion, interpolation, and gap metrics."""

import logging

import numpy as np
import pytest
from scipy.spatial import cKDTree

import watertight.intersect as intersect
import watertight.stitching as stitching
from watertight import BezierSurface, LostBranchError, StageError
from watertight.bezier import bernstein_from_monomial
from watertight.intersect import (
    _NEAREST_BLOCK,
    _chord_parameters,
    _least_squares_step,
    _match,
    _nearest,
    _predict,
    _three_point_tangents,
    build_intersection_data,
    interpolate_domain_curve,
    interpolate_space_curve,
    invert_points,
    lift_domain_curve,
    march_intersection,
    measure_gap,
)
from watertight.pipeline import PipelineConfig, run_pipeline
from watertight.shapes import flat_patch, paraboloid_height, paraboloid_patch, plane_patch


def tilted_plane():
    # z = x - 0.5 over the unit square.
    return plane_patch(1.0, 0.0, -0.5)


def circle_points(n, radius=0.2, center=(0.5, 0.5), z=0.04, closed=False):
    angles = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    pts = np.stack([
        center[0] + radius * np.cos(angles),
        center[1] + radius * np.sin(angles),
        np.full(n, z),
    ], axis=1)
    if closed:
        pts = np.vstack([pts, pts[0]])
    return pts


class TestMarching:
    def test_plane_plane_line(self, flat):
        points = march_intersection(flat, tilted_plane(), step=0.05, tol=1e-10)
        assert len(points) >= 10
        for p in points:
            assert abs(p.position[0] - 0.5) <= 1e-10
            assert abs(p.position[2]) <= 1e-10
            assert p.residual_a <= 1e-10 and p.residual_b <= 1e-10
            assert np.all(p.params_a >= 0) and np.all(p.params_a <= 1)

    def test_spacing_within_band(self, flat):
        step = 0.05
        points = march_intersection(flat, tilted_plane(), step=step, tol=1e-10)
        gaps = [
            np.linalg.norm(points[i + 1].position - points[i].position)
            for i in range(len(points) - 1)
        ]
        assert all(0.5 * step <= g <= 1.5 * step for g in gaps)

    def test_paraboloid_plane_circle(self, paraboloid, level_plane):
        tol = 1e-10
        points = march_intersection(paraboloid, level_plane, step=0.05, tol=tol)
        assert len(points) >= 8
        for p in points:
            r = np.linalg.norm(p.position[:2] - 0.5)
            assert abs(r - 0.2) <= 10 * tol
            assert abs(p.position[2] - 0.04) <= 10 * tol

    def test_circle_closes(self, paraboloid, level_plane):
        points = march_intersection(paraboloid, level_plane, step=0.05, tol=1e-10)
        assert np.array_equal(points[0].position, points[-1].position)

    def test_disjoint_planes_empty(self):
        a = plane_patch(0.0, 0.0, 0.0)
        b = plane_patch(0.0, 0.0, 1.0)
        assert march_intersection(a, b, step=0.05, tol=1e-10) == []

    def test_line_ends_exactly_on_both_edges(self, flat):
        points = march_intersection(flat, tilted_plane(), step=0.05, tol=1e-10)
        assert len(points) == 21
        for side in ("params_a", "params_b"):
            assert getattr(points[0], side)[1] == 1.0
            assert getattr(points[-1], side)[1] == 0.0

    def test_tilted_arc_ends_exactly_on_the_u1_edge(self, paraboloid):
        points = march_intersection(paraboloid, plane_patch(0.3, 0.0, 0.02), step=0.01, tol=1e-10)
        for p in (points[0], points[-1]):
            assert p.params_a[0] == 1.0 and p.params_b[0] == 1.0

    def test_corner_clip_ends_exactly_on_two_edges(self, paraboloid):
        points = march_intersection(paraboloid, plane_patch(0.5, 0.5, -0.2), step=0.02, tol=1e-10)
        assert points[0].params_a[1] == 1.0 and points[0].params_b[1] == 1.0
        assert points[-1].params_a[0] == 1.0 and points[-1].params_b[0] == 1.0


class TestLostBranch:
    # The paraboloid cut at z = r^2: a circle of radius r, with a step too
    # large for it, so the step plane misses the branch inside the domain.
    @pytest.mark.parametrize("radius, step", [(0.1, 0.3), (0.045, 0.1), (0.02, 0.05)])
    @pytest.mark.parametrize("keep", ["outside", "inside", "left", "right"])
    def test_a_step_too_large_for_a_small_circle_raises(self, paraboloid, radius, step, keep):
        config = PipelineConfig(march_step=step, keep_a=keep, keep_b=keep)
        with pytest.raises(StageError) as err:
            run_pipeline(paraboloid, plane_patch(0.0, 0.0, radius**2), config)
        assert err.value.stage == "march"
        assert isinstance(err.value.cause, LostBranchError)
        assert f"march step {step:g} lost the intersection branch inside the domain" in str(err.value)

    # At a step near the circle's radius the march can land back on its own
    # branch: it revisits earlier points, winds twice, or cycles over a few
    # positions.  Just below those steps it closes the loop.
    @pytest.mark.parametrize("radius, step, revisits", [
        (0.1, 0.1, True), (0.1, 0.099, True), (0.2, 0.198, True), (0.2, 0.2, True),
        (0.1, 0.098, False), (0.2, 0.196, False),
    ])
    def test_a_march_that_revisits_its_branch_raises(self, paraboloid, radius, step, revisits):
        plane = plane_patch(0.0, 0.0, radius**2)
        if revisits:
            with pytest.raises(StageError) as err:
                run_pipeline(paraboloid, plane, PipelineConfig(march_step=step))
            assert err.value.stage == "march"
            assert isinstance(err.value.cause, LostBranchError)
            assert f"march step {step:g} revisited the intersection branch: step " in str(err.value)
            return
        points = march_intersection(paraboloid, plane, step=step, tol=1e-10)
        positions = np.array([p.position for p in points])
        assert np.array_equal(positions[0], positions[-1])
        # Distances between the loop's distinct points, less its neighbours'.
        gaps = np.linalg.norm(positions[:-1, None] - positions[None, :-1], axis=2)
        n = gaps.shape[0]
        apart = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        assert gaps[np.minimum(apart, n - apart) > 1].min() >= 0.6 * step
        assert run_pipeline(paraboloid, plane, PipelineConfig(march_step=step)).report["patches_a"] > 0

    def test_the_same_circle_marches_at_a_smaller_step(self, paraboloid):
        points = march_intersection(paraboloid, plane_patch(0.0, 0.0, 0.01), step=0.02, tol=1e-10)
        assert np.array_equal(points[0].position, points[-1].position)
        for p in points:
            assert abs(np.linalg.norm(p.params_a - 0.5) - 0.1) <= 1e-9


def saddle_patch():
    """Biquadratic patch (u, v, (u-0.5)^2 - (v-0.5)^2)."""
    quad = bernstein_from_monomial(np.array([0.25, -1.0, 1.0]))
    lin = np.array([0.0, 0.5, 1.0])
    net = np.empty((3, 3, 3))
    for i in range(3):
        for j in range(3):
            net[i, j] = (lin[i], lin[j], quad[i] - quad[j])
    return BezierSurface(net)


class TestDroppedBranch:
    def test_second_branch_of_a_saddle_warns(self, caplog):
        # z = 0.01 cuts the saddle in two hyperbola branches; one is marched.
        with caplog.at_level(logging.WARNING, logger="watertight.intersect"):
            points = march_intersection(saddle_patch(), plane_patch(0.0, 0.0, 0.01), step=0.02, tol=1e-10)
        assert len(points) > 2
        assert "a converged seed lies 0.304 from the marched branch; another branch was dropped" \
            in caplog.text

    def test_demo_circle_does_not_warn(self, caplog, paraboloid, level_plane):
        with caplog.at_level(logging.WARNING, logger="watertight.intersect"):
            march_intersection(paraboloid, level_plane, step=0.02, tol=1e-10)
        assert caplog.text == ""


def unblocked_nearest(points, targets):
    """`_nearest` as one (K, T) expression, with no blocks."""
    d2 = sum((targets[:, k] - points[:, k, None]) ** 2 for k in range(3))
    index = np.argmin(d2, axis=1)
    return index, d2[np.arange(points.shape[0]), index]


class TestNearest:
    # Sizes below, at and above one block, and not multiples of it.
    SIZES = [1, _NEAREST_BLOCK - 1, _NEAREST_BLOCK, _NEAREST_BLOCK + 1, 3 * _NEAREST_BLOCK + 17]

    @pytest.mark.parametrize("count", SIZES)
    def test_random_sets_match_a_kd_tree(self, rng, count):
        for _ in range(10):
            points = rng.uniform(-1.0, 1.0, (count, 3))
            targets = rng.uniform(-1.0, 1.0, (rng.integers(1, 300), 3))
            index, d2 = _nearest(points, targets)
            dist, tree_index = cKDTree(targets).query(points)
            assert np.array_equal(np.sqrt(d2), dist)
            assert np.array_equal(index, tree_index)
            want_index, want_d2 = unblocked_nearest(points, targets)
            assert np.array_equal(index, want_index) and np.array_equal(d2, want_d2)

    @pytest.mark.parametrize("count", SIZES)
    def test_lattice_ties_take_the_first_index(self, rng, count):
        # Half-integer points against an integer lattice: most points have
        # several nearest targets at exactly one distance.
        g = np.arange(5.0)
        targets = np.stack(np.meshgrid(g, g, g[:3], indexing="ij"), axis=-1).reshape(-1, 3)
        points = rng.integers(-1, 10, (count, 3)) * 0.5
        index, d2 = _nearest(points, targets)
        d2_all = ((targets[None] - points[:, None]) ** 2).sum(axis=2)
        ties = (d2_all == d2_all.min(axis=1, keepdims=True)).sum(axis=1)
        assert count < 8 or (ties > 1).mean() > 0.5
        assert np.array_equal(index, np.argmax(d2_all == d2[:, None], axis=1))
        assert np.array_equal(np.sqrt(d2), cKDTree(targets).query(points)[0])
        want_index, want_d2 = unblocked_nearest(points, targets)
        assert np.array_equal(index, want_index) and np.array_equal(d2, want_d2)


class TestMatch:
    def test_fixed_parameter_keeps_its_bits(self, paraboloid):
        surfaces = (paraboloid, plane_patch(0.3, 0.0, 0.02))
        q0 = np.array([0.8123, 0.8, 0.8, 0.85])
        q, residual, partials, points = _match(*surfaces, q0, fixed=np.array([True, False, False, False]))
        assert q[0] == q0[0]
        assert residual <= 1e-12
        # Points and partials are those of the returned q.
        for surface, params, value, (su, sv) in zip(surfaces, (q[:2], q[2:]), points,
                                                    (partials[:2], partials[2:])):
            assert np.array_equal(surface.evaluate(*params), value)
            want = surface.evaluate_with_partials(*params)
            assert np.array_equal(want[1], su) and np.array_equal(want[2], sv)

    def test_residual_includes_the_plane_row(self, flat):
        # The plane y = 1.5 lies beyond the edge v = 1: the clamped solve ends
        # on that edge, on the line S1 = S2, but 0.5 from the plane.
        plane = (np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.5, 0.0]))
        q, residual, _, _ = _match(flat, tilted_plane(), [0.5, 0.9, 0.5, 0.9], plane=plane)
        assert q[1] == 1.0 and q[3] == 1.0
        assert np.linalg.norm(flat.evaluate(q[0], q[1]) - tilted_plane().evaluate(q[2], q[3])) <= 1e-12
        assert residual == pytest.approx(0.5, abs=1e-12)


class TestCorrectorSteps:
    def test_square_system_is_solved_directly(self, rng):
        jac = rng.standard_normal((4, 4))
        rhs = rng.standard_normal(4)
        assert np.allclose(_least_squares_step(jac, rhs), np.linalg.lstsq(jac, rhs, rcond=None)[0],
                           rtol=1e-12, atol=1e-12)

    def test_singular_square_system_takes_the_minimum_norm_step(self, rng):
        jac = rng.standard_normal((4, 4))
        jac[3] = jac[0] + jac[1]
        jac[:, 2] = 0.0
        rhs = rng.standard_normal(4)
        step = _least_squares_step(jac, rhs)
        assert np.array_equal(step, np.linalg.lstsq(jac, rhs, rcond=None)[0])
        assert step[2] == 0.0

    def test_predictor_is_each_sides_least_squares_step(self, rng):
        q = rng.uniform(0.2, 0.8, 4)
        partials = tuple(rng.standard_normal((4, 3)))
        d = rng.standard_normal(3)
        want = q + np.concatenate([
            np.linalg.lstsq(np.column_stack(partials[k:k + 2]), 0.01 * d, rcond=None)[0] for k in (0, 2)
        ])
        assert np.allclose(_predict(q, d, 0.01, partials), want, rtol=0.0, atol=1e-15)

    def test_predictor_side_with_parallel_partials_stays(self):
        su = np.array([1.0, 0.0, 0.0])
        partials = (su, 2.0 * su, su, np.array([0.0, 1.0, 0.0]))
        q = np.array([0.5, 0.5, 0.5, 0.5])
        out = _predict(q, np.array([0.0, 1.0, 0.0]), 0.1, partials)
        assert np.array_equal(out[:2], q[:2])
        assert np.allclose(out[2:], [0.5, 0.6], rtol=0.0, atol=1e-15)


def invert_one(surface, point, seed):
    """One sample of `invert_points`; it must converge."""
    uv, _, converged = invert_points(
        surface.control_net[None], np.reshape(point, (1, 1, 3)), np.reshape(seed, (1, 1, 2))
    )
    assert converged[0, 0]
    return uv[0, 0]


class TestInversion:
    def test_on_surface_round_trip(self, rng):
        s = BezierSurface(rng.uniform(-1, 1, size=(4, 4, 3)))
        target = s.evaluate(0.3, 0.7)
        uv = invert_one(s, target, seed=(0.25, 0.65))
        assert np.allclose(uv, [0.3, 0.7], atol=1e-10)

    def test_corner(self, paraboloid):
        corner = paraboloid.control_net[0, 0]
        uv = invert_one(paraboloid, corner, seed=(0.1, 0.1))
        assert np.allclose(uv, [0.0, 0.0], atol=1e-10)

    def test_off_surface_matches_grid_search(self, rng, paraboloid):
        point = np.array([0.4, 0.6, 0.5])
        ts = np.linspace(0, 1, 512)
        pts = paraboloid.evaluate_grid(ts, ts)
        d2 = np.sum((pts - point) ** 2, axis=2)
        i, j = np.unravel_index(np.argmin(d2), d2.shape)
        grid_best = np.array([ts[i], ts[j]])
        uv = invert_one(paraboloid, point, seed=grid_best)
        assert np.linalg.norm(uv - grid_best) <= 2e-3

    def test_seed_clamped(self, flat):
        uv = invert_one(flat, np.array([0.5, 0.5, 0.0]), seed=(0.4, 0.6))
        assert np.allclose(uv, [0.5, 0.5], atol=1e-10)


class TestBatchedInversion:
    def test_sample_bits_independent_of_batch(self, rng):
        nets = rng.uniform(-1.0, 1.0, (4, 3, 4, 3))
        truth = rng.uniform(0.0, 1.0, (4, 12, 2))
        points = np.array([
            [BezierSurface(net).evaluate(u, v) for u, v in params]
            for net, params in zip(nets, truth)
        ]) + rng.normal(0.0, 0.05, (4, 12, 3))
        seeds = np.clip(truth + rng.normal(0.0, 0.1, truth.shape), 0.0, 1.0)
        uv, dist, converged = invert_points(nets, points, seeds)
        # Far from these folded nets some samples run to the iteration cap
        # while the rest stop early: both kinds share every batch below.
        assert 0 < converged.sum() < converged.size
        for p in range(4):
            for k in range(12):
                one = invert_points(nets[p:p + 1], points[p:p + 1, k:k + 1], seeds[p:p + 1, k:k + 1])
                assert np.array_equal(one[0][0, 0], uv[p, k])
                assert np.array_equal(one[1][0, 0], dist[p, k])
                assert one[2][0, 0] == converged[p, k]
            # The same samples in a smaller batch of their own net.
            part = invert_points(nets[p:p + 1], points[p:p + 1, 3:9], seeds[p:p + 1, 3:9])
            assert np.array_equal(part[0][0], uv[p, 3:9])
            assert np.array_equal(part[1][0], dist[p, 3:9])

    def test_closest_point_on_an_edge_of_the_square(self, paraboloid):
        # Beyond u = 1 the closest point lies on the edge u = 1; the iteration
        # must hold u there and minimize over v alone.
        point = paraboloid.evaluate(1.0, 0.3) + np.array([0.2, 0.01, 0.0])
        uv, dist, converged = invert_points(
            paraboloid.control_net[None], point[None, None], np.array([[[0.9, 0.75]]])
        )
        assert converged[0, 0] and uv[0, 0, 0] == 1.0
        edge = paraboloid.evaluate_grid(np.array([1.0]), np.linspace(0.0, 1.0, 2001))
        assert dist[0, 0] <= np.linalg.norm(edge - point, axis=2).min()

    def test_stitch_batches_converge_within_eight_iterations(self, monkeypatch):
        iterations = []
        evaluations = [0]
        evaluate = intersect.evaluate_stacked
        invert = stitching.invert_points

        def counting_evaluate(*args):
            evaluations[0] += 1
            return evaluate(*args)

        def counting_invert(*args):
            evaluations[0] = 0
            out = invert(*args)
            iterations.append(evaluations[0])
            return out

        monkeypatch.setattr(intersect, "evaluate_stacked", counting_evaluate)
        monkeypatch.setattr(stitching, "invert_points", counting_invert)
        # The deviation inverts only samples that can raise its maximum, so
        # one demo run makes too few batches; the finer demo adds more.
        for step in (0.02, 0.005):
            run_pipeline(paraboloid_patch(), plane_patch(0.0, 0.0, 0.04),
                         PipelineConfig(march_step=step))
        assert len(iterations) >= 10
        assert max(iterations) <= 8


class TestSpaceCurveInterpolation:
    def test_two_points_linear(self):
        c = interpolate_space_curve(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
        assert c.polygons.shape == (1, 2, 3)

    def test_interpolates_inputs(self):
        pts = circle_points(9)
        c = interpolate_space_curve(pts)
        for k, w in enumerate(c.breakpoints):
            assert np.linalg.norm(c.evaluate(w) - pts[k]) <= 1e-12

    def test_collinear_linear_precision(self):
        line_dir = np.array([1.0, 2.0, -1.0])
        base = np.array([0.0, 0.5, 0.25])
        pts = base + np.outer([0.0, 0.2, 0.45, 0.8, 1.0], line_dir)
        c = interpolate_space_curve(pts)
        unit = line_dir / np.linalg.norm(line_dir)
        for t in np.linspace(0, 1, 101):
            p = c.evaluate(t)
            off = (p - base) - ((p - base) @ unit) * unit
            assert np.linalg.norm(off) <= 1e-12

    def test_circle_deviation(self):
        pts = circle_points(16, closed=True)
        c = interpolate_space_curve(pts)
        worst = 0.0
        for t in np.linspace(0, 1, 400):
            p = c.evaluate(t)
            worst = max(worst, abs(np.linalg.norm(p[:2] - 0.5) - 0.2))
        assert worst < 1e-4

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            interpolate_space_curve(np.array([[0.0, 0.0, 0.0]]))
        with pytest.raises(ValueError):
            interpolate_space_curve(np.array([[0.0, 0.0, 0.0]] * 3))


def loop_tangents(points, w, closed):
    """The per-point loop the stacked three-point tangents replace: the
    Bessel tangent at each point times theta/sin(theta) of its chords' turn."""
    def correction(d0, d1):
        n0, n1 = np.linalg.norm(d0), np.linalg.norm(d1)
        if n0 == 0.0 or n1 == 0.0:
            return 1.0
        theta = float(np.arccos(float(np.clip(d0 @ d1 / (n0 * n1), -1.0, 1.0))))
        return 1.0 if theta < 1e-8 else theta / np.sin(theta)

    n = points.shape[0]
    tangents = np.zeros_like(points)
    delta = np.diff(points, axis=0) / np.diff(w)[:, None]
    for i in range(1, n - 1):
        h0, h1 = w[i] - w[i - 1], w[i + 1] - w[i]
        bessel = (h1 * delta[i - 1] + h0 * delta[i]) / (h0 + h1)
        tangents[i] = bessel * correction(delta[i - 1], delta[i])
    if closed:
        h0, h1 = w[-1] - w[-2], w[1] - w[0]
        wrap = (h1 * delta[-1] + h0 * delta[0]) / (h0 + h1)
        tangents[0] = tangents[-1] = wrap * correction(delta[-1], delta[0])
    else:
        tangents[0] = 2.0 * delta[0] - tangents[1]
        tangents[-1] = 2.0 * delta[-1] - tangents[-2]
    return tangents


class TestThreePointTangents:
    def test_stacked_tangents_match_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(5)
        chains = [circle_points(16, closed=True), circle_points(9)]
        # A straight chain turns by less than 1e-8 at every point.
        chains.append(np.outer(np.linspace(0.0, 1.0, 7), [0.2, 0.5, -0.1]))
        for k in range(600):
            pts = rng.uniform(0.0, 1.0, (int(rng.integers(3, 40)), 2 + k % 2))
            if k % 4 >= 2:
                pts = np.vstack([pts, pts[:1]])
            chains.append(pts)
        for pts in chains:
            closed = bool(np.array_equal(pts[0], pts[-1]))
            w = _chord_parameters(pts)
            assert np.array_equal(_three_point_tangents(pts, w, closed),
                                  loop_tangents(pts, w, closed))
        # A repeated point, given its own parameter, makes a zero chord.
        pts = np.array([[0.1, 0.2], [0.4, 0.3], [0.4, 0.3], [0.7, 0.9]])
        w = np.array([0.0, 0.3, 0.6, 1.0])
        assert np.array_equal(_three_point_tangents(pts, w, False), loop_tangents(pts, w, False))


class TestDomainCurveInterpolation:
    def test_two_pairs_linear(self):
        c = interpolate_domain_curve(np.array([[0.1, 0.2], [0.9, 0.8]]))
        assert c.polygons.shape == (1, 2, 2)

    def test_linear_precision(self):
        vs = np.array([0.0, 0.3, 0.55, 0.8, 1.0])
        pts = np.stack([0.2 + 0.6 * vs, vs], axis=1)
        c = interpolate_domain_curve(pts)
        for t in np.linspace(0, 1, 101):
            u, v = c.evaluate(t)
            assert abs(u - (0.2 + 0.6 * v)) <= 1e-12

    def test_circle_in_domain(self):
        pts = circle_points(16, closed=True)[:, :2]
        c = interpolate_domain_curve(pts)
        for k, w in enumerate(c.breakpoints):
            assert np.linalg.norm(c.evaluate(w) - pts[k]) <= 1e-12
        worst = 0.0
        for t in np.linspace(0, 1, 400):
            p = c.evaluate(t)
            worst = max(worst, abs(np.linalg.norm(p - 0.5) - 0.2))
        assert worst < 1e-4

    def test_clamped_into_unit_square(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.02], [1.0, 0.0]])
        c = interpolate_domain_curve(pts)
        assert np.all(c.polygons >= 0.0)
        assert np.all(c.polygons <= 1.0)


class TestLifting:
    def test_constant_curve(self, paraboloid):
        from watertight.bezier import BezierCurve, PiecewiseBezierCurve

        seg = BezierCurve(np.array([[0.5, 0.5], [0.5, 0.5 + 1e-300]]))
        c = interpolate_domain_curve(np.array([[0.5, 0.2], [0.5, 0.8]]))
        lifted = lift_domain_curve(paraboloid, c, 7)
        for k, t in enumerate(np.linspace(0, 1, 7)):
            uv = c.evaluate(t)
            assert np.allclose(lifted[k], paraboloid.evaluate(*uv), atol=1e-15)

    def test_isoparametric_boundary(self, rng):
        s = BezierSurface(rng.uniform(-1, 1, size=(3, 4, 3)))
        c = interpolate_domain_curve(np.array([[0.0, 0.0], [0.0, 1.0]]))
        lifted = lift_domain_curve(s, c, 9)
        from watertight.bezier import de_casteljau

        for k, t in enumerate(np.linspace(0, 1, 9)):
            assert np.allclose(lifted[k], de_casteljau(s.control_net[0], t), atol=1e-13)

    def test_circle_on_paraboloid(self, paraboloid):
        pts = circle_points(24, closed=True)[:, :2]
        c = interpolate_domain_curve(pts)
        lifted = lift_domain_curve(paraboloid, c, 101)
        for p in lifted:
            assert abs(p[2] - paraboloid_height(p[0], p[1])) <= 1e-12


class TestBatchedLifting:
    def test_matches_per_sample_evaluation_bitwise(self, rng):
        # The reference is the per-sample loop lift_domain_curve replaced.
        s = BezierSurface(rng.uniform(-1, 1, size=(4, 3, 3)))
        pts = np.array([[0.0, 0.3], [0.2, 0.6], [0.5, 1.0], [1.0, 0.8], [0.7, 0.1], [0.3, 0.0]])
        c = interpolate_domain_curve(pts)
        assert c.polygons.min() == 0.0
        assert c.polygons.max() == 1.0
        for surface in (s, paraboloid_patch()):
            lifted = lift_domain_curve(surface, c, 257)
            ref = np.array([
                surface.evaluate(*np.clip(c.evaluate(t), 0.0, 1.0))
                for t in np.linspace(0.0, 1.0, 257)
            ])
            assert np.array_equal(lifted, ref)


class TestGapMeasurement:
    def test_lifted_curve_has_tiny_gap(self, paraboloid):
        pts = circle_points(12, closed=True)[:, :2]
        domain = interpolate_domain_curve(pts)
        lifted = lift_domain_curve(paraboloid, domain, 61)
        fitted = interpolate_space_curve(lifted)
        report = measure_gap(fitted, paraboloid, samples=50, seed_curve=None)
        assert report.max_gap < 1e-6
        assert report.rms_gap <= report.max_gap

    def test_constant_offset_from_plane(self, flat):
        curve = interpolate_space_curve(
            np.array([[0.0, 0.5, 1e-3], [0.5, 0.5, 1e-3], [1.0, 0.5, 1e-3]])
        )
        report = measure_gap(curve, flat, samples=20)
        assert report.max_gap == pytest.approx(1e-3, abs=1e-9)
        assert report.rms_gap == pytest.approx(1e-3, abs=1e-9)

    def test_demo_pre_stitch_gap_positive(self, paraboloid, level_plane):
        data = build_intersection_data(paraboloid, level_plane, step=0.18, tol=1e-10)
        report = measure_gap(
            data.curve_c, paraboloid, samples=100, seed_curve=data.domain_curve_a
        )
        assert report.max_gap > 0.0

    def test_batched_measure_matches_per_sample_inversion(self, paraboloid, level_plane):
        data = build_intersection_data(paraboloid, level_plane, step=0.02, tol=1e-10)
        for surface, domain in ((paraboloid, data.domain_curve_a), (level_plane, data.domain_curve_b)):
            report = measure_gap(data.curve_c, surface, 200, domain)
            ref = []
            for t in np.linspace(0.0, 1.0, 200):
                point = data.curve_c.evaluate(t)
                uv = invert_one(surface, point, np.clip(domain.evaluate(t), 0.0, 1.0))
                ref.append(np.linalg.norm(surface.evaluate(*uv) - point))
            ref = np.array(ref)
            assert report.flagged == 0
            assert abs(report.max_gap - ref.max()) <= 1e-15
            assert abs(report.rms_gap - np.sqrt(np.mean(ref**2))) <= 1e-15


    def test_grid_seeds_match_the_per_point_search(self, monkeypatch, paraboloid, level_plane):
        def per_point(surface, points, grid):
            # Reference: one lattice search per point.
            ts = np.linspace(0.0, 1.0, grid)
            pts = surface.evaluate_grid(ts, ts)
            seeds = []
            for point in points:
                d2 = np.sum((pts - point) ** 2, axis=2)
                i, j = np.unravel_index(np.argmin(d2), d2.shape)
                seeds.append([ts[i], ts[j]])
            return np.array(seeds).reshape(-1, 2)

        def every_fifth_unconverged(*args):
            # Sends some samples down the 129-grid fallback as well.
            uv, dist, converged = invert(*args)
            converged[:, ::5] = False
            return uv, dist, converged

        data = build_intersection_data(paraboloid, level_plane, step=0.1, tol=1e-10)
        points = data.curve_c.evaluate_many(np.linspace(0.0, 1.0, 60))
        invert = intersect.invert_points
        monkeypatch.setattr(intersect, "invert_points", every_fifth_unconverged)
        for surface in (paraboloid, level_plane):
            for grid in (33, 129):
                assert np.array_equal(intersect._grid_argmin(surface, points, grid),
                                      per_point(surface, points, grid))
            report = measure_gap(data.curve_c, surface, 60)
            with monkeypatch.context() as patched:
                patched.setattr(intersect, "_grid_argmin", per_point)
                ref = measure_gap(data.curve_c, surface, 60)
            assert report.flagged == ref.flagged == 12
            for name in ("max_gap", "rms_gap", "sample_count", "worst_point"):
                assert np.array_equal(getattr(report, name), getattr(ref, name))


class TestIntersectionData:
    def test_demo_curves_interpolate_points(self, paraboloid, level_plane):
        data = build_intersection_data(paraboloid, level_plane, step=0.1, tol=1e-10)
        assert data.closed
        for k, p in enumerate(data.points):
            w = data.curve_c.breakpoints[k]
            assert np.linalg.norm(data.curve_c.evaluate(w) - p.position) <= 1e-12
            assert np.linalg.norm(data.domain_curve_a.evaluate(w) - p.params_a) <= 1e-12
            assert np.linalg.norm(data.domain_curve_b.evaluate(w) - p.params_b) <= 1e-12

    def test_gap_decreases_with_more_points(self, paraboloid, level_plane):
        coarse = build_intersection_data(paraboloid, level_plane, step=0.18, tol=1e-10)
        fine = build_intersection_data(paraboloid, level_plane, step=0.04, tol=1e-10)
        assert len(fine.points) > len(coarse.points)
        gap_coarse = measure_gap(coarse.curve_c, paraboloid, 100, coarse.domain_curve_a)
        gap_fine = measure_gap(fine.curve_c, paraboloid, 100, fine.domain_curve_a)
        assert gap_fine.max_gap < gap_coarse.max_gap

    def test_lifted_polyline_on_surface(self, paraboloid, level_plane):
        data = build_intersection_data(paraboloid, level_plane, step=0.1, tol=1e-10)
        for p in data.lifted_a:
            assert abs(p[2] - paraboloid_height(p[0], p[1])) <= 1e-12
        for p in data.lifted_b:
            assert abs(p[2] - 0.04) <= 1e-12
