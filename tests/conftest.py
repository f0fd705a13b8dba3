import pytest

from gjflow import EndpointTrajectory, make_weight


@pytest.fixture
def cheb():
    """Chebyshev weight of the second kind: (1-u^2)^(1/2) on [-1, 1]."""
    return make_weight([0.5, 0.5], [1.0], EndpointTrajectory.fixed([-1.0, 1.0]))


@pytest.fixture
def ref3():
    """m=3 reference configuration with fixed nodes (-1, 0.2, 1)."""
    return make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                       EndpointTrajectory.fixed([-1.0, 0.2, 1.0]))


@pytest.fixture
def moving3():
    """m=3 reference with the middle endpoint moving: x(t) = (-1, t, 1)."""
    return make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                       EndpointTrajectory(((-1.0,), (0.0, 1.0), (1.0,))))
