"""Exception types shared across the kernel."""


class GeometryError(Exception):
    """Base class for all kernel errors."""


class DomainError(GeometryError, ValueError):
    """A parameter or polynomial range lies outside its legal domain."""


class UnsupportedDegreeError(GeometryError, ValueError):
    """Requested degrees exceed the configured composition caps."""


class ReductionError(GeometryError):
    """Degree reduction could not meet the requested tolerance."""

    def __init__(self, message: str, deviation: float):
        super().__init__(f"{message} (achieved deviation {deviation:.3e})")
        self.deviation = deviation


class FitError(GeometryError):
    """Boundary polynomial fit could not meet the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class NoIntersectionError(GeometryError):
    """No intersection branch could be seeded between the two surfaces."""


class LostBranchError(GeometryError):
    """A march step lost its intersection branch inside both domains."""


class AmbiguousCaseError(GeometryError):
    """A trapezoid cell admits no orientation that puts it in the {x <= f(y)} form."""


class DegenerateCellError(GeometryError):
    """Domain decomposition produced a cell with no usable interior."""


class EmptyRegionError(GeometryError):
    """A keep spec names a region with no area, such as one side of a straight
    trim closed by its own chord."""


class AlignmentError(GeometryError):
    """Patch sets do not share the breakpoint structure of one intersection."""


class ParseError(GeometryError, ValueError):
    """A model file violates the schema."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class StageError(GeometryError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
