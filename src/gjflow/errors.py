"""Exception hierarchy for gjflow."""


class GJFlowError(Exception):
    """Base class for all gjflow errors; ``t`` is the time an error refers
    to, for the subclasses that carry one (None otherwise)."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class NonDistinctEndpoints(GJFlowError):
    """Weight endpoints are not strictly increasing at the queried time.

    Also raised for a position at +-inf; carries ``t``, the time queried, if any.
    """


class BadExponent(GJFlowError):
    """An endpoint exponent violates the integrability bound (> -1)."""


class BadConstant(GJFlowError):
    """A piece constant is not strictly positive."""


class NonFinite(GJFlowError):
    """A computed value is not a finite float.

    Raised when a leading coefficient gamma_n of the recurrence overflows
    (the message names the first overflowing degree), and when the mass or
    a recurrence coefficient of a Gauss-Jacobi rule is not finite.
    """


class NotConverged(GJFlowError):
    """An iterative solve did not converge: the nodes of a Gauss-Jacobi
    rule, by Halley passes or by the eigenvalue solve."""


class DivergentTransform(GJFlowError):
    """Cauchy transform at a node requires the local exponent to be > 0."""


class LostOrthogonality(GJFlowError):
    """Recurrence construction broke down (norm below roundoff floor)."""


class UnderResolved(GJFlowError):
    """The quadrature has too few points per piece for the requested degree
    (npts < n + 2), so the recurrence coefficients would come out wrong."""


class IndexOutOfRange(GJFlowError):
    """Requested degree/index exceeds what was computed."""


class EndpointCollision(GJFlowError):
    """Two neighbouring endpoints come within the gap floor of
    ``weights.check_span`` on a flow's span; ``t`` is the first time from t0
    at which the pair the message names reaches it."""


class StepCollapse(GJFlowError):
    """Adaptive step size collapsed below the floor (pole candidate).

    Carries ``t``, the last accepted time.
    """


class InitFailure(GJFlowError):
    """State initialization from the direct oracles failed."""


class ConfigError(GJFlowError):
    """Invalid run configuration; message carries the field path."""
