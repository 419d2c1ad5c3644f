"""Benchmark workloads: analytic surface pairs plus one PipelineConfig each.

Every surface has x = u and y = v, and z is a quadratic in (x, y):
side a is always the paraboloid z = (x-0.5)^2 + (y-0.5)^2, side b is a
plane z = a*x + b*y + c or the mirror z = lift - (x-0.5)^2 - (y-0.5)^2.
The intersection is therefore a circle in the shared (x, y) domain, which
the output checks in ``checks.py`` use as their oracle.

The workload seed jitters the plane coefficients and the mirror lift by a
small relative amount (``JITTER``), small enough that no case changes its
topology: closed circles stay inside the square and open arcs leave through
the same edges.  The program receives only the generated Bezier nets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from watertight.bezier import BezierSurface
from watertight.pipeline import PipelineConfig
from watertight.shapes import paraboloid_patch, plane_patch

# Relative jitter of the seed-dependent coefficients (uniform in +-JITTER).
JITTER = 1e-5


@dataclass(frozen=True)
class Quadric:
    """z = q*((x-0.5)^2 + (y-0.5)^2) + a*x + b*y + c over the unit square."""

    q: float
    a: float
    b: float
    c: float

    def height(self, x, y):
        return self.q * ((x - 0.5) ** 2 + (y - 0.5) ** 2) + self.a * x + self.b * y + self.c

    def gradient(self, x, y):
        return 2.0 * self.q * (x - 0.5) + self.a, 2.0 * self.q * (y - 0.5) + self.b


PARABOLOID = Quadric(1.0, 0.0, 0.0, 0.0)


def plane(a: float, b: float, c: float) -> Quadric:
    return Quadric(0.0, a, b, c)


def mirror(lift: float) -> Quadric:
    return Quadric(-1.0, 0.0, 0.0, lift)


def intersection_circle(qa: Quadric, qb: Quadric):
    """Centre and radius of the domain circle where two quadrics meet.

    Both sides share the same (x-0.5)^2 + (y-0.5)^2 term up to scale, so
    qa.height == qb.height is a circle whenever qa.q != qb.q.
    """
    dq = qa.q - qb.q
    da, db, dc = qb.a - qa.a, qb.b - qa.b, qb.c - qa.c
    # dq*((x-.5)^2 + (y-.5)^2) = da*x + db*y + dc
    cx = 0.5 + da / (2.0 * dq)
    cy = 0.5 + db / (2.0 * dq)
    r2 = (0.5 * da + 0.5 * db + dc) / dq + (cx - 0.5) ** 2 + (cy - 0.5) ** 2
    return cx, cy, math.sqrt(r2)


def quadric_surface(quad: Quadric) -> BezierSurface:
    """Exact Bezier net of a plane or a (scaled, lifted) paraboloid."""
    if quad.q == 0.0:
        return plane_patch(quad.a, quad.b, quad.c)
    if quad.a or quad.b:
        raise ValueError("a tilted paraboloid has no workload")
    net = paraboloid_patch(quad.q).control_net.copy()
    net[..., 2] += quad.c
    return BezierSurface(net)


@dataclass(frozen=True)
class Case:
    """One operation: a surface pair, its analytic form, and a config."""

    name: str
    quad_a: Quadric
    quad_b: Quadric
    config: PipelineConfig
    surface_a: BezierSurface
    surface_b: BezierSurface

    @property
    def circle(self):
        return intersection_circle(self.quad_a, self.quad_b)


def _case(name, quad_b, **config):
    return Case(
        name=name,
        quad_a=PARABOLOID,
        quad_b=quad_b,
        config=PipelineConfig(**config),
        surface_a=quadric_surface(PARABOLOID),
        surface_b=quadric_surface(quad_b),
    )


def _jitter(rng, value):
    return value * (1.0 + JITTER * (2.0 * rng.random() - 1.0))


def build_cases(workload: str, seed: int) -> list:
    """The cases of one workload, jittered by ``seed``."""
    rng = np.random.default_rng(seed)
    j = lambda value: _jitter(rng, value)  # noqa: E731
    if workload == "dense-march":
        return [
            _case("level-circle", plane(0.0, 0.0, j(0.04)), march_step=0.01),
            _case("tilted-arc", plane(j(0.3), 0.0, j(0.02)), march_step=0.01),
        ]
    if workload == "tight-fit":
        return [
            _case("level-circle", plane(0.0, 0.0, j(0.04)), fit_tol=1e-5),
            _case("mirror", mirror(j(0.1)), fit_tol=1e-5),
        ]
    if workload == "clip-reduce":
        # One slope for both axes keeps the corner clip symmetric about the
        # diagonal; which side of that symmetry an input falls on decides
        # the decomposition (178 or 180 patches).
        slope = j(0.5)
        return [
            _case("corner-clip", plane(slope, slope, j(-0.2)),
                  reduce_tolerance=1e-3, keep_a="right", keep_b="right"),
            _case("off-centre-arc", plane(j(0.6), 0.0, j(-0.05)),
                  reduce_tolerance=1e-3, keep_a="right", keep_b="right"),
        ]
    raise ValueError(f"unknown workload {workload!r}")

