import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from gjflow import (
    BadConstant,
    BadExponent,
    EndpointTrajectory,
    NonDistinctEndpoints,
    barycentric_interpolate,
    make_weight,
    node_data,
    stage_node_data,
)


class TestMakeWeight:
    def test_chebyshev_valid(self, cheb):
        assert cheb.m == 2
        assert cheb.sum_alpha == pytest.approx(1.0)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(NonDistinctEndpoints):
            make_weight([0.5, 0.5], [1.0], EndpointTrajectory.fixed([1.0, 1.0]))

    def test_integrability_bound(self):
        with pytest.raises(BadExponent):
            make_weight([-1.5, 0.5], [1.0], EndpointTrajectory.fixed([-1.0, 1.0]))

    def test_nonpositive_piece_constant(self):
        with pytest.raises(BadConstant):
            make_weight([0.5, 0.5], [-1.0], EndpointTrajectory.fixed([-1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_exponent(self, bad):
        with pytest.raises(BadExponent, match="finite"):
            make_weight([bad, 0.5], [1.0], EndpointTrajectory.fixed([-1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_piece_constant(self, bad):
        with pytest.raises(BadConstant, match="finite"):
            make_weight([0.5, 0.5, 0.5], [1.0, bad],
                        EndpointTrajectory.fixed([-1.0, 0.0, 1.0]))

    def test_length_mismatch(self):
        with pytest.raises(BadConstant):
            make_weight([0.5, 0.5, 0.5], [1.0, 1.0, 1.0],
                        EndpointTrajectory.fixed([-1.0, 0.0, 1.0]))

    def test_one_endpoint(self):
        with pytest.raises(BadExponent, match="at least two endpoints"):
            make_weight([0.5], [], EndpointTrajectory.fixed([0.0]))

    def test_trajectory_length_mismatch(self):
        with pytest.raises(NonDistinctEndpoints):
            make_weight([0.5, 0.5], [1.0],
                        EndpointTrajectory.fixed([-1.0, 0.0, 1.0]))


class TestEndpointTrajectory:
    def test_empty_coefficient_row(self):
        with pytest.raises(ValueError, match="at least a constant term"):
            EndpointTrajectory(((-1.0,), (), (1.0,)))

    def test_matches_polyval_on_ragged_rows(self):
        coeffs = ((-2.0,), (0.2, 4.0), (0.5, -1.5, 0.75, 2.0),
                  (3.0, 0.0, -0.25), (7.5,))
        traj = EndpointTrajectory(coeffs)
        for t in (-1.3, -0.2, 0.0, 0.45, 2.0):
            pos_ref = [npoly.polyval(t, c) for c in coeffs]
            vel_ref = [npoly.polyval(t, npoly.polyder(c)) for c in coeffs]
            np.testing.assert_allclose(traj.positions(t), pos_ref,
                                       rtol=1e-15, atol=1e-15)
            np.testing.assert_allclose(traj.velocities(t), vel_ref,
                                       rtol=1e-15, atol=1e-15)
            # constant-only rows do not move
            assert traj.velocities(t)[0] == 0.0
            assert traj.velocities(t)[4] == 0.0


class TestNodeData:
    def test_wprime_m2(self, cheb):
        nd = node_data(cheb, 0.0)
        assert nd.wprime[1] == pytest.approx(2.0)
        assert nd.wprime[0] == pytest.approx(-2.0)

    def test_wprime_m3_middle(self):
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                        EndpointTrajectory.fixed([-1.0, 0.0, 1.0]))
        nd = node_data(w, 0.0)
        assert nd.wprime[1] == pytest.approx(-1.0)

    def test_alternating_signs(self, ref3):
        nd = node_data(ref3, 0.0)
        signs = np.sign(nd.wprime)
        assert list(signs) == [1.0, -1.0, 1.0]

    def test_fixed_trajectory_zero_velocity(self, ref3):
        nd = node_data(ref3, 0.7)
        assert np.all(nd.xdot == 0.0)

    @pytest.mark.parametrize("kernel_first", [False, True])
    def test_lazy_wprime_is_node_polynomial_derivative(self, kernel_first):
        w = make_weight([0.3, 1.2, 0.7, 0.45, 1.4, 0.9], np.ones(5),
                        EndpointTrajectory(((-2.0,), (-1.1, 0.4), (-0.3, -0.2, 0.1),
                                            (0.4, 0.3), (1.2, -0.5), (2.0,))))
        nd = node_data(w, 0.3)
        assert "wprime" not in vars(nd)               # not computed yet
        if kernel_first:
            K = nd.basis[:, 2:]
            assert np.all(np.diag(K) == 0.0)
            assert np.array_equal(K, K.T)
        ref = [np.prod([nd.x[j] - nd.x[k] for k in range(6) if k != j])
               for j in range(6)]
        np.testing.assert_allclose(nd.wprime, ref, rtol=1e-15, atol=0)
        assert nd.wprime is nd.wprime                # computed once

    def test_collision_at_query_time(self):
        w = make_weight([0.5, 0.5], [1.0],
                        EndpointTrajectory.affine([-1.0, 1.0], [2.0, 0.0]))
        with pytest.raises(NonDistinctEndpoints) as info:
            node_data(w, 1.0)
        assert info.value.t == 1.0
        assert str(info.value) == "endpoints not strictly increasing at t=1.0: [1.0, 1.0]"


def _kernel_mp(coeffs, t):
    """The velocity kernel at t, in 40-digit arithmetic from the exact
    float coefficients (constant term first): an m x m list of mpf."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        x = [mpmath.fsum(mpmath.mpf(c) * t ** i for i, c in enumerate(row))
             for row in coeffs]
        xd = [mpmath.fsum(i * mpmath.mpf(c) * t ** (i - 1)
                          for i, c in enumerate(row) if i)
              for row in coeffs]
        return [[(xd[j] - xd[k]) / (x[j] - x[k]) if k != j else mpmath.mpf(0)
                 for k in range(len(x))] for j in range(len(x))]


class TestStageNodeData:
    @pytest.mark.parametrize("m", range(2, 9))
    @pytest.mark.parametrize("degree", range(4))
    def test_matches_per_time_reference_bit_for_bit(self, m, degree):
        rng = np.random.default_rng(10 * m + degree)
        # ragged rows, row k of degree k mod (degree + 1); they stay well
        # separated for |t| <= 0.8
        coeffs = tuple(
            (float(p),) + tuple(rng.uniform(-0.05, 0.05, k % (degree + 1)))
            for k, p in enumerate(np.linspace(-2.0, 2.0, m)))
        w = make_weight(np.full(m, 0.5), np.ones(m - 1), EndpointTrajectory(coeffs))
        ts = np.array([-0.8, -0.3, -1e-3, 0.0, 0.25, 0.6])
        frames = stage_node_data(w, ts)
        assert np.array_equal(frames.t, ts)
        assert frames.basis.shape == (len(ts), m, m + 2)
        assert "wprime" not in vars(frames)           # not computed yet
        eps = np.finfo(float).eps
        for i, t in enumerate(ts):
            x = np.array([npoly.polyval(t, c) for c in coeffs])
            xd = np.array([npoly.polyval(t, npoly.polyder(c)) for c in coeffs])
            gaps = x[:, None] - x
            np.fill_diagonal(gaps, 1.0)
            assert np.array_equal(frames.x[i], x)
            assert np.array_equal(frames.xdot[i], xd)
            assert np.array_equal(frames.basis[i, :, 0], xd)
            assert np.array_equal(frames.basis[i, :, 1], x * xd)
            assert np.array_equal(frames.wprime[i], np.prod(gaps, axis=1))
            # K, from the gap polynomials, against the exact kernel of the
            # same coefficients; exactly symmetric with a zero diagonal
            K = frames.basis[i, :, 2:]
            ref = _kernel_mp(coeffs, t)
            for j in range(m):
                for k in range(m):
                    err = abs(mpmath.mpf(K[j, k]) - ref[j][k])
                    assert err <= 16 * eps * abs(ref[j][k]), (j, k)
            assert np.array_equal(K, K.T)
            assert np.all(np.diag(K) == 0.0)
            # the one-time view equals the row, field by field
            one = node_data(w, t)
            assert one.t == t and isinstance(one.t, float)
            for name in ("x", "xdot", "basis", "wprime"):
                assert np.array_equal(getattr(one, name), getattr(frames, name)[i])
            row = frames.row(i)
            assert row.t == t and np.array_equal(row.basis, frames.basis[i])
        assert frames.wprime is frames.wprime         # computed once
        for arr in (frames.t, frames.x, frames.xdot, frames.basis, frames.wprime):
            assert not arr.flags.writeable
        assert not np.shares_memory(frames.t, ts)     # the caller's times stay writable
        assert ts.flags.writeable

    def test_first_bad_time_is_reported(self):
        # x_2 = 0.2 + 4t meets x_3 = 1 at t = 0.2
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                        EndpointTrajectory(((-1.0,), (0.2, 4.0), (1.0,))))
        with pytest.raises(NonDistinctEndpoints) as info:
            stage_node_data(w, [0.1, 0.15, 0.2, 0.25, 0.3])
        assert info.value.t == 0.2
        assert str(info.value) == (
            "endpoints not strictly increasing at t=0.2: [-1.0, 1.0, 1.0]")


def _log_weight(w, x, t):
    """log w(x, t) at a point strictly inside a piece, from the definition."""
    pos = w.trajectory.positions(t)
    j = int(np.searchsorted(pos, x)) - 1
    return float(np.log(w.pieces[j]) + np.sum(w.alpha * np.log(np.abs(x - pos))))


def _V(w, nd, x):
    """V, the degree <= m-1 interpolant of alpha_k W'(x_k) / 2."""
    return barycentric_interpolate(nd, 0.5 * w.alpha * nd.wprime, x)


class TestV:
    def test_chebyshev_V_is_half_x(self, cheb):
        # V(x) = x/2 for (1-x^2)^(1/2)
        nd = node_data(cheb, 0.0)
        assert _V(cheb, nd, 0.0) == pytest.approx(0.0, abs=1e-14)
        assert _V(cheb, nd, 0.3) == pytest.approx(0.15)

    def test_interpolation_condition(self, ref3):
        nd = node_data(ref3, 0.0)
        for k in range(ref3.m):
            expected = ref3.alpha[k] * nd.wprime[k] / 2.0
            assert _V(ref3, nd, nd.x[k]) == pytest.approx(expected)

    def test_identity_2V_over_W(self, ref3):
        # 2 V(x) / W(x) == d/dx log w = sum_k alpha_k / (x - x_k) at 20
        # random points
        nd = node_data(ref3, 0.0)
        rng = np.random.default_rng(3)
        for x in rng.uniform(-0.9, 0.9, size=20):
            if np.min(np.abs(x - nd.x)) < 0.05:
                continue
            W = np.prod(x - nd.x)
            assert 2.0 * _V(ref3, nd, x) / W == pytest.approx(
                np.sum(ref3.alpha / (x - nd.x)), rel=1e-10)

    def test_degree_at_most_m_minus_1(self, ref3):
        # fitting degree m leaves a negligible leading coefficient
        m = ref3.m
        xs = np.linspace(-2.0, 2.0, m + 1)
        ys = _V(ref3, node_data(ref3, 0.0), xs)
        coeffs = np.polynomial.polynomial.polyfit(xs, ys, m)
        assert abs(coeffs[m]) <= 1e-12 * np.max(np.abs(coeffs))


class TestLogDerivatives:
    @pytest.fixture
    def moving(self):
        return make_weight([0.6, 0.4, 1.1], [1.0, 2.0],
                           EndpointTrajectory.affine([-1.0, 0.1, 1.2],
                                                     [0.3, -0.2, 0.5]))

    def test_dlogw_dx_finite_difference(self, moving):
        # 2 V / W against a central difference of log w in x
        rng = np.random.default_rng(7)
        t = 0.2
        nd = node_data(moving, t)
        h = 1e-6 * (nd.x[-1] - nd.x[0])
        for x in rng.uniform(nd.x[0] + 0.1, nd.x[-1] - 0.1, size=10):
            if np.min(np.abs(x - nd.x)) < 0.05:
                continue
            dlx = 2.0 * _V(moving, nd, x) / np.prod(x - nd.x)
            fd = (_log_weight(moving, x + h, t)
                  - _log_weight(moving, x - h, t)) / (2 * h)
            assert dlx == pytest.approx(fd, rel=1e-6)

    def test_dlogw_dt_finite_difference(self, moving):
        # the node velocities move log w by -sum_k alpha_k xdot_k / (x - x_k)
        rng = np.random.default_rng(11)
        t = 0.2
        nd = node_data(moving, t)
        h = 1e-6
        for x in rng.uniform(nd.x[0] + 0.1, nd.x[-1] - 0.1, size=10):
            if np.min(np.abs(x - nd.x)) < 0.05:
                continue
            dlt = -np.sum(moving.alpha * nd.xdot / (x - nd.x))
            fd = (_log_weight(moving, x, t + h)
                  - _log_weight(moving, x, t - h)) / (2 * h)
            assert dlt == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_fixed_endpoints_no_t_dependence(self, ref3):
        assert np.array_equal(node_data(ref3, 0.0).xdot, np.zeros(ref3.m))
        assert _log_weight(ref3, 0.4, 1.0) == _log_weight(ref3, 0.4, 0.0)


class TestBarycentric:
    def test_reproduces_polynomial(self, ref3):
        nd = node_data(ref3, 0.0)
        poly = lambda x: 2.0 * x ** 2 - x + 0.3
        vals = poly(nd.x)
        for x in (-0.7, 0.0, 0.55, 0.2):
            assert barycentric_interpolate(nd, vals, x) == pytest.approx(poly(x))

    def test_exact_at_nodes(self, ref3):
        nd = node_data(ref3, 0.0)
        vals = np.array([3.0, -1.0, 2.0])
        for j in range(3):
            assert barycentric_interpolate(nd, vals, nd.x[j]) == vals[j]
