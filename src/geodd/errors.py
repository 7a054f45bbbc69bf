"""Exception hierarchy shared by all geodd modules."""


class GeoddError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(GeoddError):
    """Input matrix contains non-finite entries or is otherwise unusable."""


class DimensionMismatch(GeoddError):
    """Operands live in incompatible spaces."""


class NotInvariant(GeoddError):
    """A subspace failed the invariance/membership test it was assumed to pass.

    Carries the violating residual in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BoundarySpectrum(GeoddError):
    """An eigenvalue sits on the stability-region boundary within tolerance."""

    def __init__(self, message, eigenvalues=()):
        super().__init__(message)
        self.eigenvalues = tuple(eigenvalues)


class FixedSpectrumOutsideRegion(GeoddError):
    """A fixed (unassignable) eigenvalue violates the requested region."""

    def __init__(self, message, eigenvalues=()):
        super().__init__(message)
        self.eigenvalues = tuple(eigenvalues)


class NotStabilizablePair(GeoddError):
    """The pair (A, B) is not stabilizable / (C, A) not detectable."""


class NoSolution(GeoddError):
    """A linear inclusion has no solution (empty affine family)."""


class AllSingular(GeoddError):
    """No screened member of the feedback family is well posed. Only the
    exact determinant grid of the well-posedness condition proves that
    every member is."""


class WellPosednessViolated(GeoddError):
    """The static parameter K makes I + K*D_y singular."""


class NotWellPosed(GeoddError):
    """The loop matrix I - D_y*D_c is singular; no state-space closed loop."""


class ContinuousNotSupported(GeoddError):
    """Operation defined for discrete-time systems only."""


class SampleTooCloseToPole(GeoddError):
    """A frequency sample falls too close to the closed-loop spectrum."""


class GenerationFailed(GeoddError):
    """Random instance generation exhausted its retry budget."""


class CertificateFailed(GeoddError):
    """Internal inconsistency: a pipeline that passed analysis failed its
    own certificate. Treated as a bug signal, never as a normal outcome."""


class Infeasible(GeoddError):
    """Problem unsolvable; carries the feasibility report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class WellPosednessObstruction(GeoddError):
    """Solvable inclusions, but no well-posed K exists; carries the report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(GeoddError):
    """Problem or compensator file is malformed."""


class ShapeError(ParseError):
    """A matrix in a problem file disagrees with the declared dimensions."""
