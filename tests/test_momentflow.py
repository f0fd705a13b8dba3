import numpy as np
import pytest

from gjflow import (
    EndpointCollision,
    EndpointTrajectory,
    NonDistinctEndpoints,
    evolve_moments,
    hankel_det,
    make_weight,
    moment_rhs,
    moments,
    node_data,
    nu_by_quadrature,
)
from gjflow.momentflow import beta_exponents


@pytest.fixture
def stretching2():
    """m=2 weight with the right endpoint moving: x(t) = (-1, 1+t)."""
    return make_weight([0.5, 0.5], [1.0],
                       EndpointTrajectory(((-1.0,), (1.0, 1.0))))


class TestMomentRhs:
    def test_fixed_endpoints_zero(self, ref3):
        nd = node_data(ref3, 0.0)
        nu = nu_by_quadrature(ref3, 2, 0.0)
        d = moment_rhs(nu, nd, ref3.alpha, beta_exponents(2, ref3.m))
        assert np.max(np.abs(d)) == 0.0

    def test_translation_zero(self):
        w = make_weight([0.5, 0.5], [1.0],
                        EndpointTrajectory.affine([-1.0, 1.0], [1.0, 1.0]))
        nd = node_data(w, 0.0)
        nu = nu_by_quadrature(w, 3, 0.0)
        d = moment_rhs(nu, nd, w.alpha, beta_exponents(3, w.m))
        assert np.max(np.abs(d)) == 0.0

    def test_matches_finite_difference(self, stretching2):
        n, t, h = 2, 0.1, 1e-5
        nd = node_data(stretching2, t)
        nu = nu_by_quadrature(stretching2, n, t)
        d = moment_rhs(nu, nd, stretching2.alpha, beta_exponents(n, 2))
        fd = (nu_by_quadrature(stretching2, n, t + h)
              - nu_by_quadrature(stretching2, n, t - h)) / (2 * h)
        assert d == pytest.approx(fd, rel=1e-6)


class TestEvolveMoments:
    def test_fixed_endpoints_constant(self, ref3):
        states, _ = evolve_moments(ref3, 3, (0.0, 1.0), sample_count=5)
        for s in states[1:]:
            assert s.nu == pytest.approx(states[0].nu, rel=1e-12)

    def test_m2_against_quadrature(self, stretching2):
        states, stats = evolve_moments(stretching2, 2, (0.0, 0.5))
        direct = nu_by_quadrature(stretching2, 2, 0.5)
        assert np.max(np.abs(states[-1].nu - direct)
                      / np.maximum(np.abs(direct), 1.0)) < 1e-8
        assert stats.accepted + stats.rejected < 10 ** 5

    @pytest.mark.parametrize("n", range(7))
    def test_m3_against_quadrature(self, n):
        w = make_weight([0.5, 0.3, 0.7], [1.0, 2.0],
                        EndpointTrajectory(((-1.0,), (0.0, 1.0), (1.0,))))
        states, _ = evolve_moments(w, n, (0.0, 0.3))
        direct = nu_by_quadrature(w, n, 0.3)
        assert np.max(np.abs(states[-1].nu - direct)
                      / np.maximum(np.abs(direct), 1.0)) < 1e-8

    def test_linearity(self, stretching2):
        nu_a = np.array([1.0, -0.5])
        nu_b = np.array([0.3, 2.0])
        c1, c2 = 0.7, -1.3
        sa, _ = evolve_moments(stretching2, 2, (0.0, 0.4), nu0=nu_a)
        sb, _ = evolve_moments(stretching2, 2, (0.0, 0.4), nu0=nu_b)
        sc, _ = evolve_moments(stretching2, 2, (0.0, 0.4),
                               nu0=c1 * nu_a + c2 * nu_b)
        combo = c1 * sa[-1].nu + c2 * sb[-1].nu
        assert sc[-1].nu == pytest.approx(combo, rel=1e-10, abs=1e-10)


def test_collision_during_integration():
    # the moments stay smooth through the crossing at t = 0.2, so a stage
    # lands past it and node_data's ordering failure is the collision
    w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                    EndpointTrajectory(((-1.0,), (0.2, 4.0), (1.0,))))
    with pytest.raises(EndpointCollision) as info:
        evolve_moments(w, 2, (0.0, 0.5), sample_count=4)
    exc = info.value
    assert isinstance(exc.__cause__, NonDistinctEndpoints)
    assert str(exc) == str(exc.__cause__)
    assert str(exc).startswith(f"endpoints not strictly increasing at t={exc.t}: ")
    assert abs(exc.t - 0.2) < 1e-3


class TestMuIdentity:
    """The mu_n and gap columns of the ``moments`` command: mu_n from
    ``moments``, nu_{n,1} from ``nu_by_quadrature``."""

    def test_chebyshev_mu0(self, cheb):
        mu0 = moments(cheb, 0.0, 0)[0]
        assert mu0 == pytest.approx(np.pi / 2, rel=1e-13)

    def test_gap_is_reported_not_zero(self, cheb):
        # with m = 2 the literal definitions differ: nu_{n,1} carries the
        # extra factor (u - x_2), so the gap is nonzero by definition
        mu0 = moments(cheb, 0.0, 0)[0]
        nu1 = nu_by_quadrature(cheb, 0, 0.0)[0]
        gap = abs(mu0 - nu1) / max(abs(mu0), abs(nu1), 1e-300)
        assert np.isfinite(gap)
        assert gap > 0.1
        assert nu1 == pytest.approx(-np.pi / 2, rel=1e-12)

    def test_parity_sign(self, cheb):
        # symmetric weight: nu_{0,1} = int w (u - 1) du < 0
        nu = nu_by_quadrature(cheb, 0, 0.0)
        assert nu[0] < 0.0
        assert nu[1] > 0.0


class TestRegularity:
    def test_hankel_positive_along_trajectory(self, stretching2):
        mins = []
        for t in np.linspace(0.0, 0.5, 6):
            mu = moments(stretching2, t, 12)
            dets = [hankel_det(mu, n) for n in range(1, 7)]
            assert all(d > 0.0 for d in dets)
            mins.append(min(dets))
        assert min(mins) > 0.0
