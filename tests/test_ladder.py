import numpy as np
import pytest

import gjflow.ladder
from gjflow import (
    EndpointTrajectory,
    IndexOutOfRange,
    ZeroCoefficient,
    eval_polynomial,
    ladder_checks,
    ladder_from_table,
    ladder_init,
    ladder_step,
    make_weight,
    node_data,
    residue_sums,
    stieltjes_at_node,
    stieltjes_procedure,
)
from gjflow.quadrature import cauchy_node_matrix


@pytest.fixture
def moving6():
    """m=6 with non-uniform exponents and piece constants, inner nodes moving."""
    return make_weight(
        [0.3, 1.2, 0.7, 0.45, 1.4, 0.9], [1.0, 0.7, 1.5, 1.1, 0.8],
        EndpointTrajectory(((-2.0,), (-1.1, 0.4), (-0.3, -0.2, 0.1),
                            (0.4, 0.3), (1.2, -0.5), (2.0,))))


class TestLadderInit:
    def test_chebyshev_theta0(self, cheb):
        # Theta_0 is the constant 2n+1+sum(alpha) = 2 for m = 2
        lv = ladder_init(cheb, 0.0, 0)
        assert lv.theta == pytest.approx([2.0, 2.0], rel=1e-12)
        assert lv.theta_prev is None

    def test_omega0_equals_V(self, ref3):
        # p_0 constant and p_{-1} = 0 force Omega_0 = V
        lv = ladder_init(ref3, 0.0, 0)
        nd = node_data(ref3, 0.0)
        assert lv.omega == pytest.approx(0.5 * ref3.alpha * nd.wprime, rel=1e-12)

    def test_symmetric_parity(self):
        # symmetric weight, symmetric nodes +-c: p_n q_n is odd and W' is
        # even, so Theta_n(-c) = -Theta_n(c) (consistent with the exact
        # degree m-2 = 1 and nonzero leading coefficient)
        w = make_weight([0.5, 0.3, 0.5], [1.0, 1.0],
                        EndpointTrajectory.fixed([-1.0, 0.0, 1.0]))
        for n in (0, 2, 4, 6):
            lv = ladder_init(w, 0.0, n)
            assert lv.theta[0] == pytest.approx(-lv.theta[2], rel=1e-9)

    def test_residue_sums(self, ref3):
        nd = node_data(ref3, 0.0)
        sa = ref3.sum_alpha
        for n in range(11):
            lv = ladder_init(ref3, 0.0, n)
            s0, s1, s2 = residue_sums(lv, nd)
            assert abs(s0) < 1e-8 * max(1.0, np.max(np.abs(lv.theta)))
            assert s1 == pytest.approx(2 * n + 1 + sa, rel=1e-8)
            assert s2 == pytest.approx(n + sa / 2.0, rel=1e-8)


    def test_m6_high_degree_matches_per_node_reference(self, moving6):
        t, n = 0.1, 30
        table = stieltjes_procedure(moving6, t, n + 1)
        lv = ladder_init(moving6, t, n)
        nd = node_data(moving6, t)
        a_n = table.a[n]
        for j in range(moving6.m):
            pn, _, pnm1 = eval_polynomial(table, n, nd.x[j])
            qn = stieltjes_at_node(
                moving6, lambda u: eval_polynomial(table, n, u)[0], j, t)
            qm = stieltjes_at_node(
                moving6, lambda u: eval_polynomial(table, n - 1, u)[0], j, t)
            aw = moving6.alpha[j] * nd.wprime[j]
            ref = np.array([aw * pn * qn, 0.5 * aw + a_n * aw * qn * pnm1,
                            aw * pnm1 * qm])
            got = np.array([lv.theta[j], lv.omega[j], lv.theta_prev[j]])
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)
        rep = ladder_checks(moving6, table, lv, t)
        assert rep.wronskian_residual < 1e-8

    def test_one_recurrence_evaluation_for_all_nodes(self, ref3, moving6,
                                                     monkeypatch):
        # the coefficients and the transforms at every node share one pass
        # of the recurrence, which carries p_n itself: no second evaluation
        calls = {"eval_polynomial": 0, "stieltjes_recurrence": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(gjflow.ladder, name,
                                counting(name, getattr(gjflow.ladder, name)))
        counts = []
        for w in (ref3, moving6):
            calls.update(dict.fromkeys(calls, 0))
            ladder_init(w, 0.0, 8)
            counts.append(dict(calls))
        assert counts == [{"eval_polynomial": 0, "stieltjes_recurrence": 1}] * 2

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_the_two_pass_formula(self, m):
        # one pass for table, p_n and the transforms gives, bit for bit, the
        # node formula on stieltjes_procedure's table with p_n, p_{n-1}
        # evaluated a second time over the points of cauchy_node_matrix
        rng = np.random.default_rng(m)
        x0 = np.cumsum(rng.uniform(0.1, 1.0, size=m))
        w = make_weight(rng.uniform(0.2, 1.8, size=m),
                        rng.uniform(0.5, 2.0, size=m - 1),
                        EndpointTrajectory.affine(x0, rng.uniform(-0.2, 0.2, m)))
        t = 0.05
        for n in (0, 1, 5, 20):
            table = stieltjes_procedure(w, t, n + 1)
            points, _, nd, Q = cauchy_node_matrix(w, t)
            k = len(points)
            p, _, pp = eval_polynomial(table, n, np.concatenate((points, nd.x)))
            qn, qm = (Q @ np.stack((p[:k], pp[:k]), axis=-1)).T
            aw = w.alpha * nd.wprime
            a_n = table.a[n] if n >= 1 else 0.0
            lv = ladder_init(w, t, n)
            assert np.array_equal(lv.theta, aw * p[k:] * qn)
            assert np.array_equal(lv.omega, 0.5 * aw + a_n * aw * qn * pp[k:])
            if n >= 1:
                assert np.array_equal(lv.theta_prev, aw * pp[k:] * qm)


class TestLadderStep:
    def test_matches_init_up_to_ten(self, ref3):
        table = stieltjes_procedure(ref3, 0.0, 11)
        for n in range(11):
            direct = ladder_init(ref3, 0.0, n)
            stepped = ladder_from_table(ref3, table, 0.0, n)
            assert stepped.theta == pytest.approx(direct.theta, rel=1e-6)
            assert stepped.omega == pytest.approx(direct.omega, rel=1e-6)
            if n >= 1:
                assert stepped.theta_prev == pytest.approx(
                    direct.theta_prev, rel=1e-6)

    def test_leading_coefficient_advances(self, ref3):
        table = stieltjes_procedure(ref3, 0.0, 6)
        nd = node_data(ref3, 0.0)
        sa = ref3.sum_alpha
        lv = ladder_init(ref3, 0.0, 4)
        nxt = ladder_step(lv, nd.x, table.a[4], table.a[5], table.b[4])
        s0, s1, s2 = residue_sums(nxt, nd)
        assert abs(s0) < 1e-8 * np.max(np.abs(nxt.theta))
        assert s1 == pytest.approx(2 * 5 + 1 + sa, rel=1e-8)
        assert s2 == pytest.approx(5 + sa / 2.0, rel=1e-8)

    def test_degree_above_the_table_rejected(self, ref3):
        table = stieltjes_procedure(ref3, 0.0, 3)
        assert ladder_from_table(ref3, table, 0.0, 3).n == 3
        for n in (4, -1):
            with pytest.raises(IndexOutOfRange, match=f"degree {n} outside"):
                ladder_from_table(ref3, table, 0.0, n)

    def test_zero_coefficient_rejected(self, ref3):
        table = stieltjes_procedure(ref3, 0.0, 3)
        nd = node_data(ref3, 0.0)
        lv = ladder_init(ref3, 0.0, 1)
        with pytest.raises(ZeroCoefficient):
            ladder_step(lv, nd.x, table.a[1], 0.0, table.b[1])


class TestLadderChecks:
    def test_chebyshev_all_residuals(self, cheb):
        table = stieltjes_procedure(cheb, 0.0, 11)
        for n in range(11):
            lv = ladder_init(cheb, 0.0, n)
            rep = ladder_checks(cheb, table, lv, 0.0)
            assert rep.residue_theta < 1e-9
            assert rep.diffrel_residual < 1e-7
            assert rep.wronskian_residual < 1e-8

    def test_m3_wronskian(self, ref3):
        table = stieltjes_procedure(ref3, 0.0, 9)
        for n in (1, 4, 8):
            lv = ladder_init(ref3, 0.0, n)
            rep = ladder_checks(ref3, table, lv, 0.0)
            assert rep.wronskian_residual < 1e-8
            assert rep.residue_x_theta < 1e-8
            assert rep.residue_omega < 1e-8


def _diffrel_per_point(w, table, values, t, nsamples=20, seed=0):
    """The differential-relation residual of ladder_checks, one point at a
    time, with W(x) = prod_k (x - x_k) and
    V(x) = W(x) (1/2) sum_k alpha_k / (x - x_k) written out per point."""
    from gjflow import barycentric_interpolate
    nd = node_data(w, t)
    n = values.n
    a_n = float(table.a[n]) if n >= 1 else 0.0
    xs = np.random.default_rng(seed).uniform(nd.x[0] + 0.05, nd.x[-1] - 0.05,
                                             size=nsamples)
    resid = denom = 0.0
    for x in xs:
        pn, dpn, pnm1 = eval_polynomial(table, n, float(x))
        diffs = x - nd.x
        Wx = float(np.prod(diffs))
        Vx = float(Wx * 0.5 * np.sum(w.alpha / diffs))
        Th = barycentric_interpolate(nd, values.theta, float(x))
        Om = barycentric_interpolate(nd, values.omega, float(x))
        resid = max(resid, abs(Wx * dpn - (Om - Vx) * pn + a_n * Th * pnm1))
        denom = max(denom, abs(Wx * dpn), abs((Om - Vx) * pn), abs(Wx * pn))
    return resid / max(denom, 1e-300)


@pytest.mark.parametrize("which", ["ref3", "moving6"])
def test_diffrel_matches_per_point_reference(which, request):
    w = request.getfixturevalue(which)
    t = 0.2
    table = stieltjes_procedure(w, t, 21)
    for n in (0, 1, 7, 20):
        lv = ladder_init(w, t, n)
        rep = ladder_checks(w, table, lv, t, seed=n)
        ref = _diffrel_per_point(w, table, lv, t, seed=n)
        assert abs(rep.diffrel_residual - ref) < 1e-12
        assert rep.diffrel_residual < 1e-7

