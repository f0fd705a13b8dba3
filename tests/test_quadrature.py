import numpy as np
import pytest

import mp_rules
from gjflow import (
    BadExponent,
    DivergentTransform,
    EndpointTrajectory,
    discretized_measure,
    gauss_jacobi_rule,
    make_weight,
)
from gjflow.quadrature import cauchy_node_matrices

NPTS = 64  # the points per piece of the helpers below


def q_at_node(w, f, j: int, t: float, npts: int = NPTS) -> float:
    """The Cauchy transform q(x_j) = int w(u) f(u) / (x_j - u) du at endpoint
    j: the row of ``cauchy_node_matrices`` for node j at the one time t."""
    points, _, _, Q = cauchy_node_matrices(w, (t,), npts)
    return float(Q[0, j] @ f(points[0]))


def integral(w, f, t: float, npts: int = NPTS) -> float:
    """int w(u, t) f(u) du by the composite absorbed rule at time t."""
    xs, ws = discretized_measure(w, t, npts)
    return float(ws @ f(xs))


def reference_moments(a: float, b: float, dmax: int) -> np.ndarray:
    """Moments M_d = int s^d (1-s)^a (1+s)^b ds on (-1,1) by the recursion
    (d + a + b + 2) M_{d+1} = d M_{d-1} + (b - a) M_d, an oracle independent
    of the rule construction."""
    import math
    M = np.empty(dmax + 1)
    M[0] = 2.0 ** (a + b + 1.0) * math.exp(
        math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
    )
    if dmax >= 1:
        M[1] = (b - a) * M[0] / (a + b + 2.0)
    for d in range(1, dmax):
        M[d + 1] = (d * M[d - 1] + (b - a) * M[d]) / (d + a + b + 2.0)
    return M


class TestGaussJacobiRule:
    def test_one_point_legendre(self):
        nodes, weights = gauss_jacobi_rule(1, 0.0, 0.0)
        assert nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert weights[0] == pytest.approx(2.0)

    def test_two_point_legendre(self):
        nodes, weights = gauss_jacobi_rule(2, 0.0, 0.0)
        assert nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)])
        assert weights == pytest.approx([1.0, 1.0])

    def test_chebyshev2_mass(self):
        _, weights = gauss_jacobi_rule(16, 0.5, 0.5)
        assert np.sum(weights) == pytest.approx(np.pi / 2, rel=1e-12)

    def test_bad_exponent(self):
        with pytest.raises(BadExponent):
            gauss_jacobi_rule(4, -1.0, 0.0)
        with pytest.raises(BadExponent):
            gauss_jacobi_rule(4, 0.0, -1.5)

    def test_no_points(self):
        with pytest.raises(ValueError, match="^npts must be >= 1, got 0$"):
            gauss_jacobi_rule(0, 0.5, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_exponent(self, bad):
        # both used to pass the > -1 check and fail later with a bare
        # ValueError, +inf after RuntimeWarnings (errors in this suite)
        for pair in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(BadExponent, match="finite and > -1"):
                gauss_jacobi_rule(4, *pair)

    def test_positive_weights_increasing_nodes(self):
        nodes, weights = gauss_jacobi_rule(24, -0.5, 1.5)
        assert np.all(weights > 0)
        assert np.all(np.diff(nodes) > 0)
        assert np.all(np.abs(nodes) < 1.0)

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.5, 0.5), (-0.5, 0.3),
                                     (1.5, 0.5)])
    @pytest.mark.parametrize("npts", [4, 9])
    def test_monomial_exactness(self, a, b, npts):
        nodes, weights = gauss_jacobi_rule(npts, beta_left=b, beta_right=a)
        M = reference_moments(a, b, 2 * npts - 1)
        for d in range(2 * npts):
            q = np.dot(weights, nodes ** d)
            assert abs(q - M[d]) <= 1e-13 * max(1.0, abs(M[d])) * M[0]


# (beta_left, beta_right): both skews, both exponents down to -0.9,
# Legendre, and one exponent above the asymptotic start's bound, so that
# its rule starts from the eigenvalues
MP_EXPONENTS = [(-0.8, 1.5), (1.5, -0.8), (-0.9, -0.9), (0.0, 0.0), (0.3, 1.2),
                (8.0, 0.3)]
# Against 40 digits the rules read at most 2.2e-16 on the nodes and 5.5e-14
# on the weights over this grid at npts 1, 2, 9 and 64; at npts 130,
# 2.2e-16 and 4.7e-13 (from the eigenvalue start for every pair, the
# weights read the same, at npts 64 and at 130). The plain float pass
# that the complex-step one replaced read 2.2e-16 and 3.4e-14 (3.6e-13 at
# 128), eigenvector weights 4.4e-16 and 2.5e-13, and nodes without the
# Newton step 1.0e-15 and 1.5e-12, at npts 64.
MP_NODE_TOL = 2.5e-16
MP_WEIGHT_TOL = 1e-13
# the weights' rounding grows with npts: at npts 130 three of these six pairs
# miss MP_WEIGHT_TOL, five from the eigenvalue start
MP_WEIGHT_TOL_130 = 5e-13


class TestAgainstMpmath:
    @pytest.mark.parametrize("npts,bl,br", [
        *((npts, bl, br) for npts in (1, 2, 9, 64) for bl, br in MP_EXPONENTS),
        *((130, bl, br) for bl, br in MP_EXPONENTS)])
    def test_rule(self, npts, bl, br):
        nodes, weights = mp_rules.reference_rule(npts, bl, br)
        got_nodes, got_weights = gauss_jacobi_rule(npts, bl, br)
        assert np.max(np.abs(got_nodes - nodes)) <= MP_NODE_TOL
        tol = MP_WEIGHT_TOL if npts <= 64 else MP_WEIGHT_TOL_130
        assert np.max(np.abs(got_weights / weights - 1.0)) <= tol

    @pytest.mark.parametrize("bl,br", MP_EXPONENTS)
    def test_the_two_references_agree(self, bl, br):
        # eigsy and the Newton-polished Christoffel rule, both in 40 digits
        eig = mp_rules.eig_rule(9, bl, br)
        newton = mp_rules.newton_rule(9, bl, br)
        assert np.max(np.abs(eig[0] - newton[0])) <= 1e-30
        assert np.max(np.abs(eig[1] / newton[1] - 1.0)) <= 1e-30


class TestIntegrateAgainstWeight:
    def test_chebyshev_mass(self, cheb):
        val = integral(cheb, lambda u: np.ones_like(u), 0.0)
        assert val == pytest.approx(np.pi / 2, rel=1e-13)

    def test_zero_integrand(self, ref3):
        assert integral(ref3, lambda u: 0.0 * u, 0.0) == 0.0

    def test_odd_integrand_symmetric_weight(self):
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                        EndpointTrajectory.fixed([-1.0, 0.0, 1.0]))
        val = integral(w, lambda u: u, 0.0)
        assert abs(val) < 1e-14

    def test_npts_doubling_converged(self, ref3):
        f = lambda u: u ** 10 - 3.0 * u ** 4 + u
        v16 = integral(ref3, f, 0.0, npts=16)
        v32 = integral(ref3, f, 0.0, npts=32)
        assert abs(v16 - v32) <= 1e-12 * abs(v32)

    def test_positivity(self, ref3):
        val = integral(ref3, lambda u: 1.0 + np.sin(u) ** 2, 0.0)
        assert val > 0.0


class TestStieltjesAtNode:
    def test_chebyshev_q0_at_right_endpoint(self, cheb):
        # q_0(1) = sqrt(2/pi) * int sqrt((1+u)/(1-u)) du = sqrt(2 pi)
        p0 = np.sqrt(2.0 / np.pi)
        q = q_at_node(cheb, lambda u: np.full_like(u, p0), 1, 0.0)
        assert q == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-12)

    def test_parity(self, cheb):
        p0 = np.sqrt(2.0 / np.pi)
        qr = q_at_node(cheb, lambda u: np.full_like(u, p0), 1, 0.0)
        ql = q_at_node(cheb, lambda u: np.full_like(u, p0), 0, 0.0)
        assert ql == pytest.approx(-qr, rel=1e-12)

    def test_zero_exponent_diverges(self):
        w = make_weight([0.0, 0.5], [1.0], EndpointTrajectory.fixed([-1.0, 1.0]))
        with pytest.raises(DivergentTransform):
            q_at_node(w, lambda u: np.ones_like(u), 0, 0.0)

    def test_npts_doubling_converged(self, ref3):
        f = lambda u: u ** 3 - u + 0.5
        for j in range(3):
            v32 = q_at_node(ref3, f, j, 0.0, npts=32)
            v64 = q_at_node(ref3, f, j, 0.0, npts=64)
            assert v32 == pytest.approx(v64, rel=1e-12)
