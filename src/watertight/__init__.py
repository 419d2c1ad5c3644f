"""Geometry kernel for watertight trimmed-surface boundaries.

Two intersecting Bezier surfaces are made watertight in two stages:
curved-trapezoid boundary regions are reparameterized onto standard
[0,1]x[0,1] patches, then the boundary control points on both sides are
replaced with the control points of one shared intersection curve.
"""

from .bezier import (
    BezierCurve,
    BezierSurface,
    BoundaryPolynomial,
    Edge,
    PiecewiseBezierCurve,
    bernstein_from_monomial,
    compose_reparameterize,
    degree_reduce_curve,
)
from .errors import (
    AlignmentError,
    AmbiguousCaseError,
    DegenerateCellError,
    DomainError,
    EmptyRegionError,
    FitError,
    GeometryError,
    LostBranchError,
    NoIntersectionError,
    ParseError,
    ReductionError,
    StageError,
    UnsupportedDegreeError,
)

__version__ = "0.1.0"

__all__ = [
    "BezierCurve",
    "BezierSurface",
    "BoundaryPolynomial",
    "Edge",
    "PiecewiseBezierCurve",
    "bernstein_from_monomial",
    "compose_reparameterize",
    "degree_reduce_curve",
    "AlignmentError",
    "AmbiguousCaseError",
    "DegenerateCellError",
    "DomainError",
    "EmptyRegionError",
    "FitError",
    "GeometryError",
    "LostBranchError",
    "NoIntersectionError",
    "ParseError",
    "ReductionError",
    "StageError",
    "UnsupportedDegreeError",
    "__version__",
]
