"""Exception types shared across the package.

Two branches matter to callers: `ValidationError` covers malformed input
(bad shapes, bad cycle strings, containment failures), `NumericalError`
covers violated algebraic identities discovered while computing.
"""


class StarAnglesError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(StarAnglesError):
    """Input does not satisfy a documented precondition."""


class DimensionError(ValidationError):
    """Matrix dimensions are empty or inconsistent."""


class ShapeError(ValidationError):
    """Matrix lacks required structure (e.g. not Hermitian)."""


class ArgumentError(ValidationError):
    """Argument outside the documented domain."""


class ContainmentError(ValidationError):
    """Claimed subobject is not contained in the ambient object."""


class SizeError(ValidationError):
    """Object exceeds the configured enumeration bound."""


class ParseError(ValidationError):
    """Text input could not be parsed; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NumericalError(StarAnglesError):
    """A required identity failed beyond tolerance."""


class SingularityError(NumericalError):
    """Inverse requested of a singular positive matrix."""


class ConstructionError(NumericalError):
    """A constructor's invariant failed; names the violated property."""

    def __init__(self, prop: str, residual: float | None = None, detail: str = ""):
        msg = f"construction invariant violated: {prop}"
        if residual is not None:
            msg += f" (residual {residual:.3e})"
        if detail:
            msg += f" - {detail}"
        super().__init__(msg)
        self.prop = prop
        self.residual = residual


class InvariantError(NumericalError):
    """A verified invariant of an already-built object failed."""


class IncompatibilityError(NumericalError):
    """Intermediate subalgebra admits no compatible expectation."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message += f" (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class DegenerateDenominatorError(NumericalError):
    """Angle requested for an intermediate equal to the small algebra."""


class ExteriorAngleUndefinedError(IncompatibilityError):
    """First-floor algebras are not compatible with the dual expectation."""
