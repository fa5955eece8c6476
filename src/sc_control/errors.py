"""Named exceptions raised by validators and solvers.

Every rejection carries the name of the violated invariant so callers can
branch on the failure mode instead of parsing messages.
"""


class ScControlError(Exception):
    """Base class for all package errors."""


class ValidationError(ScControlError):
    """A parameter record violates a model invariant."""


class DiscountTooLow(ValidationError):
    pass


class NonpositiveVolatility(ValidationError):
    pass


class NegativeMertonConstant(ValidationError):
    pass


class SingularTransform(ScControlError):
    """1 + sigma*rho/m = 0; the error decomposition degenerates."""


class DegenerateCloud(ScControlError):
    """All particle weights underflowed: every particle of the cloud gives the
    observation zero likelihood."""


class NoBracket(ScControlError):
    """Root bracketing failed (precondition violated)."""


class NoSolution(ScControlError):
    """Nested free-boundary search found no tangency pair."""


class QuadratureFailure(ScControlError):
    """Adaptive quadrature could not reach the requested tolerance."""


class NoConvergence(ScControlError):
    """Iterative solver exhausted max iterations; carries residual info."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual

