"""Semantic exceptions shared across the package."""


class OtBayesError(Exception):
    """Base class for package-specific failures."""


class MatrixNotPDError(OtBayesError, ValueError):
    """A matrix required to be symmetric positive definite is not.

    Carries the offending smallest eigenvalue for diagnosis.
    """

    def __init__(self, message, smallest_eigenvalue=None):
        if smallest_eigenvalue is not None:
            message = f"{message} (smallest eigenvalue {smallest_eigenvalue:.3e})"
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class CompatibilityError(OtBayesError, ValueError):
    """Two measures do not admit a closed-form transport map (different
    family, generator or copula)."""


class QuadratureError(OtBayesError, RuntimeError):
    """Numerical integration did not reach the requested tolerance."""

    def __init__(self, message, achieved_tolerance=None):
        if achieved_tolerance is not None:
            message = f"{message} (achieved tolerance {achieved_tolerance:.3e})"
        super().__init__(message)
        self.achieved_tolerance = achieved_tolerance


class SizeCapError(OtBayesError, ValueError):
    """An exact discrete solve would exceed its size cap; subsample the
    input clouds, or raise ``assignment_cap`` for an assignment."""


class ScheduleError(OtBayesError, ValueError):
    """A step-size schedule violates the divergence/square-summability
    conditions required for stochastic descent."""
