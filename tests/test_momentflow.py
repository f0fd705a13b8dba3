import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gjflow.evolution
import gjflow.momentflow
import quad_ref
from hankel_ref import hankel_det
from gjflow import (
    EndpointCollision,
    EndpointTrajectory,
    evolution_rhs,
    evolve_moments,
    make_weight,
    node_data,
)
from gjflow.momentflow import _moment_buffer, direct_moments
from test_rule_table import configs


@pytest.fixture
def stretching2():
    """m=2 weight with the right endpoint moving: x(t) = (-1, 1+t)."""
    return make_weight([0.5, 0.5], [1.0],
                       EndpointTrajectory(((-1.0,), (1.0, 1.0))))


def moment_table_rhs(w, n):
    """The moment system as ``evolve_moments`` evaluates it: rhs(basis,
    nu, out=None) fills the row ab * nu of its buffer and calls
    ``evolution_rhs`` with the moment table."""
    buf = _moment_buffer(w, n)
    ab_nu, ab = buf[2]

    def rhs(basis, nu, out=None):
        np.multiply(ab, nu, ab_nu)
        return evolution_rhs(nu, basis, buf, out)

    return rhs


def closed_form_terms(w, n, nu, basis):
    """The two sums of nu_dot_j = sum_{k != j} K[j,k] ab_k (nu_j - nu_k),
    nu_j (K ab)_j and (K (ab nu))_j, with ab = alpha + beta, beta_1 = n + 1
    and beta_k = 1 otherwise: the system written out."""
    K = basis[:, 2:]
    beta = np.ones(w.m)
    beta[0] = n + 1.0
    ab = w.alpha + beta
    return nu * (K @ ab), K @ (ab * nu)


class TestMomentRhs:
    def test_fixed_endpoints_zero(self, ref3):
        nd = node_data(ref3, 0.0)
        nu = direct_moments(ref3, 2, (0.0,))[1][0]
        d = moment_table_rhs(ref3, 2)(nd.basis, nu)
        assert np.max(np.abs(d)) == 0.0

    def test_translation_zero(self):
        w = make_weight([0.5, 0.5], [1.0],
                        EndpointTrajectory(((-1.0, 1.0), (1.0, 1.0))))
        nd = node_data(w, 0.0)
        nu = direct_moments(w, 3, (0.0,))[1][0]
        d = moment_table_rhs(w, 3)(nd.basis, nu)
        assert np.max(np.abs(d)) == 0.0

    def test_matches_finite_difference(self, stretching2):
        n, t, h = 2, 0.1, 1e-5
        nd = node_data(stretching2, t)
        nu = direct_moments(stretching2, n, (t,))[1][0]
        d = moment_table_rhs(stretching2, n)(nd.basis, nu)
        plus, minus = direct_moments(stretching2, n, (t + h, t - h))[1]
        fd = (plus - minus) / (2 * h)
        assert d == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_the_closed_form(self, m):
        # the table sums K ab and K (ab nu) in another order than K @ v,
        # so the two agree to rounding on the scale of the two sums
        rng = np.random.default_rng(m)
        x0 = np.linspace(-2.0, 2.0, m)
        traj = EndpointTrajectory(tuple(
            (float(p), float(v), float(q))
            for p, v, q in zip(x0, rng.uniform(-1, 1, m), rng.uniform(-0.3, 0.3, m))))
        w = make_weight(rng.uniform(-0.5, 1.5, m), np.ones(m - 1), traj)
        nd = node_data(w, 0.05)
        assert len(set(np.round(nd.xdot, 12))) == m   # non-uniform velocities
        for n in range(5):
            rhs = moment_table_rhs(w, n)
            nu = rng.standard_normal(m)
            given = nu.copy()
            first, second = closed_form_terms(w, n, nu, nd.basis)
            got = rhs(nd.basis, nu)
            scale = np.abs(first) + np.abs(second)
            assert np.all(np.abs(got - (first - second)) <= 1e-14 * scale)
            assert np.array_equal(nu, given)      # nu is not written


def evolve_moments_uniform(w, n, span, samples=20):
    """``evolve_moments`` at ``samples`` uniform times of ``span``, from
    the quadrature moments at the first."""
    times = np.linspace(*span, samples)
    return evolve_moments(w, n, times, direct_moments(w, n, times[:1])[1][0])


class TestEvolveMoments:
    def test_fixed_endpoints_constant(self, ref3):
        nus, _ = evolve_moments_uniform(ref3, 3, (0.0, 1.0), 5)
        for nu in nus[1:]:
            assert nu == pytest.approx(nus[0], rel=1e-12)

    def test_m2_against_quadrature(self, stretching2):
        nus, stats = evolve_moments_uniform(stretching2, 2, (0.0, 0.5))
        direct = direct_moments(stretching2, 2, (0.5,))[1][0]
        assert np.max(np.abs(nus[-1] - direct)
                      / np.maximum(np.abs(direct), 1.0)) < 1e-8
        assert stats.accepted + stats.rejected < 10 ** 5

    @pytest.mark.parametrize("n", range(7))
    def test_m3_against_quadrature(self, n):
        w = make_weight([0.5, 0.3, 0.7], [1.0, 2.0],
                        EndpointTrajectory(((-1.0,), (0.0, 1.0), (1.0,))))
        nus, _ = evolve_moments_uniform(w, n, (0.0, 0.3))
        direct = direct_moments(w, n, (0.3,))[1][0]
        assert np.max(np.abs(nus[-1] - direct)
                      / np.maximum(np.abs(direct), 1.0)) < 1e-8

    def test_linearity(self, stretching2):
        nu_a = np.array([1.0, -0.5])
        nu_b = np.array([0.3, 2.0])
        c1, c2 = 0.7, -1.3
        times = np.linspace(0.0, 0.4, 20)
        sa, _ = evolve_moments(stretching2, 2, times, nu_a)
        sb, _ = evolve_moments(stretching2, 2, times, nu_b)
        sc, _ = evolve_moments(stretching2, 2, times, c1 * nu_a + c2 * nu_b)
        combo = c1 * sa[-1] + c2 * sb[-1]
        assert sc[-1] == pytest.approx(combo, rel=1e-10, abs=1e-10)


def test_collision_during_integration(monkeypatch):
    # x_2 = 0.2 + 4t crosses x_3 = 1 at t = 0.2; the gap 0.8 - 4t reaches
    # the floor 2e-8 at 0.2 - 5e-9, found before the start or any step
    def no_work(*args, **kwargs):
        raise AssertionError("the flow started")

    monkeypatch.setattr(gjflow.momentflow, "direct_moments", no_work)
    monkeypatch.setattr(gjflow.evolution, "integrate_rk45", no_work)
    w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                    EndpointTrajectory(((-1.0,), (0.2, 4.0), (1.0,))))
    with pytest.raises(EndpointCollision, match=r"^endpoints x_2 and x_3 ") as info:
        evolve_moments(w, 2, np.linspace(0.0, 0.5, 4), np.zeros(3))
    assert info.value.__cause__ is None
    assert info.value.t == pytest.approx(0.2 - 5e-9, rel=1e-12)


# Moment weights may have exponents <= 0. Positive ones start at 0.05, as
# in ``configs``: below it the lowered rules of the measure lose relative
# precision as about 2e-16 / alpha (``test_rule_table``'s
# ``test_tiny_exponent_measure``), whatever the integrand.
MOMENT_EXPONENTS = st.floats(-0.95, 0.0, exclude_min=True) | st.floats(0.05, 2.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(configs(exponents=MOMENT_EXPONENTS, degrees=st.integers(0, 15)),
       st.lists(st.floats(-0.01, 0.01), min_size=1, max_size=4))
def test_direct_moments_property(cfg, offsets):
    # each row against the literal per-j products, and bit for bit the
    # call at its time alone
    w, n, t = cfg
    ts = t + np.array(offsets)
    mu, nu = direct_moments(w, n, ts)
    assert mu.shape == (len(ts),) and nu.shape == (len(ts), w.m)
    for ti, mu_i, nu_i in zip(ts, mu, nu):
        ref_mu, ref_nu = quad_ref.direct_moments(w, n, ti)
        assert abs(mu_i - ref_mu) <= 1e-13 * abs(ref_mu)
        assert np.max(np.abs(nu_i - ref_nu)) <= 1e-13 * np.max(np.abs(ref_nu))
        one_mu, one_nu = direct_moments(w, n, (ti,))
        assert one_mu[0] == mu_i and np.array_equal(one_nu[0], nu_i)


class TestMuIdentity:
    """The mu_n and gap columns of the ``moments`` command: mu_n and
    nu_{n,1} from ``direct_moments``; ``quad_ref.moments`` gives all the
    powers in extended precision."""

    def test_mu_n_is_a_moment(self, stretching2):
        mu, _ = direct_moments(stretching2, 7, (0.0, 0.3))
        for t, mu_n in zip((0.0, 0.3), mu):
            ref = quad_ref.moments(stretching2, t, 7)[7]
            assert mu_n == pytest.approx(ref, rel=1e-14)

    def test_chebyshev_mu0(self, cheb):
        mu0 = quad_ref.moments(cheb, 0.0, 0)[0]
        assert mu0 == pytest.approx(np.pi / 2, rel=1e-13)

    def test_gap_is_reported_not_zero(self, cheb):
        # with m = 2 the literal definitions differ: nu_{n,1} carries the
        # extra factor (u - x_2), so the gap is nonzero by definition
        mu0 = quad_ref.moments(cheb, 0.0, 0)[0]
        nu1 = direct_moments(cheb, 0, (0.0,))[1][0][0]
        gap = abs(mu0 - nu1) / max(abs(mu0), abs(nu1), 1e-300)
        assert np.isfinite(gap)
        assert gap > 0.1
        assert nu1 == pytest.approx(-np.pi / 2, rel=1e-12)

    def test_parity_sign(self, cheb):
        # symmetric weight: nu_{0,1} = int w (u - 1) du < 0
        nu = direct_moments(cheb, 0, (0.0,))[1][0]
        assert nu[0] < 0.0
        assert nu[1] > 0.0


class TestRegularity:
    def test_hankel_positive_along_trajectory(self, stretching2):
        mins = []
        for t in np.linspace(0.0, 0.5, 6):
            mu = quad_ref.moments(stretching2, t, 12)
            dets = [hankel_det(mu, n) for n in range(1, 7)]
            assert all(d > 0.0 for d in dets)
            mins.append(min(dets))
        assert min(mins) > 0.0
