"""Exception hierarchy for gjflow."""


class GJFlowError(Exception):
    """Base class for all gjflow errors."""


class NonDistinctEndpoints(GJFlowError):
    """Weight endpoints are not strictly increasing at the queried time.

    Carries ``t``, the time queried, when there is one.
    """

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class BadExponent(GJFlowError):
    """An endpoint exponent violates the integrability bound (> -1)."""


class BadConstant(GJFlowError):
    """A piece constant is not strictly positive."""


class NonFinite(GJFlowError):
    """A computed value is not a finite float.

    Raised when a leading coefficient gamma_n of the recurrence overflows;
    the message names the first overflowing degree.
    """


class DivergentTransform(GJFlowError):
    """Cauchy transform at a node requires the local exponent to be > 0."""


class LostOrthogonality(GJFlowError):
    """Recurrence construction broke down (norm below roundoff floor)."""


class UnderResolved(GJFlowError):
    """The quadrature has too few points per piece for the requested degree
    (npts < n + 2), so the recurrence coefficients would come out wrong."""


class IndexOutOfRange(GJFlowError):
    """Requested degree/index exceeds what was computed."""


class ZeroCoefficient(GJFlowError):
    """A recurrence coefficient that must be nonzero vanished."""


class EndpointCollision(GJFlowError):
    """Endpoint ordering failed during time integration.

    Carries ``t``, the last time at which the configuration was still valid.
    """

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class StepCollapse(GJFlowError):
    """Adaptive step size collapsed below the floor (pole candidate).

    Carries ``t``, the last accepted time.
    """

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class InitFailure(GJFlowError):
    """State initialization from the direct oracles failed."""


class ConfigError(GJFlowError):
    """Invalid run configuration; message carries the field path."""
