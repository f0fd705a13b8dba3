import json

import numpy as np
import pytest

import gjflow.evolution
import gjflow.ladder
import gjflow.momentflow
import gjflow.orthopoly
import gjflow.quadrature
import gjflow.weights
from gjflow import (
    EndpointTrajectory,
    IndexOutOfRange,
    eval_polynomial,
    init_states,
    ladder_checks,
    make_weight,
    node_data,
    pn_time_derivative_check,
    residue_sums,
    stieltjes_procedure,
)
from gjflow.cli import main, parse_config
from gjflow.quadrature import cauchy_node_matrices
from gjflow.weights import _wprime
from ladder_ref import NodeValues, ladder_climb, ladder_step
from test_cli import read_csv
from test_golden import CASES
from test_quadrature import q_at_node


@pytest.fixture
def moving6():
    """m=6 with non-uniform exponents and piece constants, inner nodes moving."""
    return make_weight(
        [0.3, 1.2, 0.7, 0.45, 1.4, 0.9], [1.0, 0.7, 1.5, 1.1, 0.8],
        EndpointTrajectory(((-2.0,), (-1.1, 0.4), (-0.3, -0.2, 0.1),
                            (0.4, 0.3), (1.2, -0.5), (2.0,))))


def state(w, t, n):
    """The packed state of degree n at t, n = 0 included, from the oracle's
    one pass."""
    return gjflow.ladder._ladder_nodes(w, (t,), n, None)[-1][0]


def oracle_node_values(w, n, t):
    """Row 0 of ``init_states`` at t as node values: its ratios theta,
    theta_prev and omega, as rows, times W'(x_j)."""
    x = node_data(w, t).x
    return init_states(w, n, (t,))[0, 3:].reshape(3, -1) * _wprime(x)


class TestLadderInit:
    def test_chebyshev_theta0(self, cheb):
        # Theta_0 is the constant 2n+1+sum(alpha) = 2 for m = 2
        theta, theta_prev, _ = ladder_checks(cheb, 0.0, 0).values
        assert theta == pytest.approx([2.0, 2.0], rel=1e-12)
        # Theta_{-1} = 0, with no sign bit: ladder prints 0.0, not -0.0
        assert np.array_equal(theta_prev, [0.0, 0.0])
        assert not np.signbit(theta_prev).any()

    def test_omega0_equals_V(self, ref3):
        # p_0 constant and p_{-1} = 0 force Omega_0 = V, whose ratio is
        # alpha_j/2 exactly
        omega = ladder_checks(ref3, 0.0, 0).values[2]
        nd = node_data(ref3, 0.0)
        assert omega == pytest.approx(0.5 * ref3.alpha * _wprime(nd.x), rel=1e-12)
        assert np.array_equal(state(ref3, 0.0, 0)[3 + 2 * ref3.m:], 0.5 * ref3.alpha)

    def test_symmetric_parity(self):
        # symmetric weight, symmetric nodes +-c: p_n q_n is odd and W' is
        # even, so Theta_n(-c) = -Theta_n(c) (consistent with the exact
        # degree m-2 = 1 and nonzero leading coefficient)
        w = make_weight([0.5, 0.3, 0.5], [1.0, 1.0],
                        EndpointTrajectory.fixed([-1.0, 0.0, 1.0]))
        for n in (0, 2, 4, 6):
            theta = ladder_checks(w, 0.0, n).values[0]
            assert theta[0] == pytest.approx(-theta[2], rel=1e-9)

    def test_residue_sums(self, ref3):
        x = node_data(ref3, 0.0).x
        sa = ref3.sum_alpha
        for n in range(11):
            y = state(ref3, 0.0, n)
            theta, theta_prev, _ = y[3:].reshape(3, -1) * _wprime(x)
            s0, s0_prev, s1, s1_prev, s2 = residue_sums(y, x)
            assert abs(s0) < 1e-8 * max(1.0, np.max(np.abs(theta)))
            assert s1 == pytest.approx(2 * n + 1 + sa, rel=1e-8)
            assert s2 == pytest.approx(n + sa / 2.0, rel=1e-8)
            if n >= 1:  # the sums of theta_prev are those one degree down
                assert abs(s0_prev) < 1e-8 * max(1.0, np.max(np.abs(theta_prev)))
                assert s1_prev == pytest.approx(2 * n - 1 + sa, rel=1e-8)


    def test_m6_high_degree_matches_per_node_reference(self, moving6):
        t, n = 0.1, 30
        table = stieltjes_procedure(moving6, t, n + 1)
        rep = ladder_checks(moving6, t, n)
        theta, theta_prev, omega = rep.values
        nd = node_data(moving6, t)
        a_n = table.a[n]
        for j in range(moving6.m):
            pn, _, pnm1 = eval_polynomial(table, n, nd.x[j])
            qn = q_at_node(
                moving6, lambda u: eval_polynomial(table, n, u)[0], j, t)
            qm = q_at_node(
                moving6, lambda u: eval_polynomial(table, n - 1, u)[0], j, t)
            aw = moving6.alpha[j] * _wprime(nd.x)[j]
            ref = np.array([aw * pn * qn, 0.5 * aw + a_n * aw * qn * pnm1,
                            aw * pnm1 * qm])
            got = np.array([theta[j], omega[j], theta_prev[j]])
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)
        assert rep.wronskian_residual < 1e-8
        # the report carries the values it checked, the oracle's ratios
        # times W'(x_j)
        assert np.array_equal(rep.values, oracle_node_values(moving6, n, t))
        # and the node positions, those of node_data
        assert np.array_equal(rep.x, node_data(moving6, t).x)

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
            init_states(w, 8, (0.0,))
            counts.append(dict(calls))
        assert counts == [{"eval_polynomial": 0, "stieltjes_recurrence": 1}] * 2

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_the_two_pass_formula(self, m):
        # one pass for table, p_n and the transforms gives, bit for bit, the
        # node formula on stieltjes_procedure's table with p_n, p_{n-1}
        # evaluated a second time over the points of cauchy_node_matrices
        rng = np.random.default_rng(m)
        x0 = np.cumsum(rng.uniform(0.1, 1.0, size=m))
        w = make_weight(rng.uniform(0.2, 1.8, size=m),
                        rng.uniform(0.5, 2.0, size=m - 1),
                        EndpointTrajectory(tuple(
                            zip(x0, rng.uniform(-0.2, 0.2, m)))))
        t = 0.05
        for n in (0, 1, 5, 20):
            table = stieltjes_procedure(w, t, n + 1)
            points, _, _, Q = cauchy_node_matrices(w, (t,), 64)
            points, nd, Q = points[0], node_data(w, t), Q[0]
            k = len(points)
            p, _, pp = eval_polynomial(table, n, np.concatenate((points, nd.x)))
            qn, qm = (Q @ np.stack((p[:k], pp[:k]), axis=-1)).T
            alpha = w.alpha
            a_n = table.a[n] if n >= 1 else 0.0
            theta, theta_prev, omega = state(w, t, n)[3:].reshape(3, -1)
            assert np.array_equal(theta, alpha * p[k:] * qn)
            assert np.array_equal(omega, 0.5 * alpha + a_n * alpha * qn * pp[k:])
            if n >= 1:
                assert np.array_equal(theta_prev, alpha * pp[k:] * qm)


class TestLadderStep:
    """The node values of ``ladder_checks`` against the degree-raising
    recursion of ``ladder_ref``."""

    def test_matches_init_up_to_ten(self, ref3):
        self.assert_climb_matches_init(ref3, 0.0)

    def test_moving_weight_away_from_zero(self, moving3):
        # the start and the coefficients of the climb are both taken at t;
        # a table from t = 0 climbed here gave theta_3 = (-17.04, -0.54,
        # -0.04) against (-13.16, -0.41, 3.84)
        self.assert_climb_matches_init(moving3, 0.5)

    @staticmethod
    def assert_climb_matches_init(w, t):
        for n in range(11):
            direct = NodeValues(n, *ladder_checks(w, t, n).values)
            stepped = ladder_climb(w, t, n)
            assert stepped.n == n
            assert stepped.theta == pytest.approx(direct.theta, rel=1e-6)
            assert stepped.omega == pytest.approx(direct.omega, rel=1e-6)
            if n >= 1:
                assert stepped.theta_prev == pytest.approx(
                    direct.theta_prev, rel=1e-6)

    def test_leading_coefficient_advances(self, ref3):
        table = stieltjes_procedure(ref3, 0.0, 6)
        nd = node_data(ref3, 0.0)
        sa = ref3.sum_alpha
        lv = NodeValues(4, *ladder_checks(ref3, 0.0, 4).values)
        nxt = ladder_step(lv, nd.x, table.a[4], table.a[5], table.b[4])
        ratios = [v / _wprime(nd.x) for v in (nxt.theta, nxt.theta_prev, nxt.omega)]
        s0, _, s1, _, s2 = residue_sums(np.concatenate([[0.0] * 3, *ratios]), nd.x)
        assert abs(s0) < 1e-8 * np.max(np.abs(nxt.theta))
        assert s1 == pytest.approx(2 * 5 + 1 + sa, rel=1e-8)
        assert s2 == pytest.approx(5 + sa / 2.0, rel=1e-8)

    def test_degree_above_the_table_rejected(self, ref3):
        # the oracle builds its own table to degree n + 1, so only a
        # negative degree is left to reject
        with pytest.raises(IndexOutOfRange, match="degree must be >= 0, got -1"):
            ladder_checks(ref3, 0.0, -1)

    def test_zero_coefficient_rejected(self, ref3):
        table = stieltjes_procedure(ref3, 0.0, 3)
        nd = node_data(ref3, 0.0)
        lv = NodeValues(1, *ladder_checks(ref3, 0.0, 1).values)
        with pytest.raises(ValueError, match="a_2 = 0 in ladder step"):
            ladder_step(lv, nd.x, table.a[1], 0.0, table.b[1])


class TestLadderChecks:
    def test_chebyshev_all_residuals(self, cheb):
        for n in range(11):
            rep = ladder_checks(cheb, 0.0, n)
            assert rep.residue_theta < 1e-9
            assert rep.diffrel_residual < 1e-7
            assert rep.wronskian_residual < 1e-8

    def test_m3_wronskian(self, ref3):
        for n in (1, 4, 8):
            rep = ladder_checks(ref3, 0.0, n)
            assert rep.wronskian_residual < 1e-8
            assert rep.residue_x_theta < 1e-8
            assert rep.residue_omega < 1e-8

    def test_nodes_are_node_data_bit_for_bit(self, ref3, moving6):
        # ladder_checks reads x from its _ladder_nodes pass and takes
        # W'(x_j) on it; x is node_data's view, so are the node values and
        # the residuals taken on them
        for w, t in ((ref3, 0.0), (moving6, 0.1)):
            x = gjflow.ladder._ladder_nodes(w, (t,), 4, None)[1]
            nd = node_data(w, t)
            assert np.array_equal(x[0], nd.x)
            rep = ladder_checks(w, t, 4)
            assert np.array_equal(rep.values, oracle_node_values(w, 4, t))


@pytest.mark.parametrize("case", CASES)
def test_ladder_prints_the_oracle_row_times_wprime(case, tmp_path, capsys):
    # one representation: the ladder CSV's node values are row 0 of the
    # flow's oracle at t0, whose ratios W'(x_j) multiplies, bit for bit
    doc, flags = CASES[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["ladder", "--config", str(path), *flags]) == 0
    rows = np.array(read_csv(capsys.readouterr().out)[2])
    cfg = parse_config(json.dumps(doc))
    w = cfg.weight()
    assert np.array_equal(rows[:, 1], node_data(w, cfg.t0).x)
    assert np.array_equal(rows[:, 2:].T, oracle_node_values(w, cfg.n, cfg.t0))


def _diffrel_per_point(w, table, n, ratios, t):
    """The differential-relation residual of ladder_checks, one point at a
    time, at the same 20 points, with W(x) = prod_k (x - x_k) and
    V(x) = W(x) (1/2) sum_k alpha_k / (x - x_k) written out per point, and
    Theta_n and Omega_n interpolated from their ratios, the rows 0 and 2
    of ``ratios``."""
    from gjflow import barycentric_interpolate
    nd = node_data(w, t)
    a_n = float(table.a[n]) if n >= 1 else 0.0
    xs = np.random.default_rng(0).uniform(nd.x[0] + 0.05, nd.x[-1] - 0.05,
                                          size=20)
    resid = denom = 0.0
    for x in xs:
        pn, dpn, pnm1 = eval_polynomial(table, n, float(x))
        diffs = x - nd.x
        Wx = float(np.prod(diffs))
        Vx = float(Wx * 0.5 * np.sum(w.alpha / diffs))
        Th = barycentric_interpolate(nd.x, ratios[0], float(x))
        Om = barycentric_interpolate(nd.x, ratios[2], float(x))
        resid = max(resid, abs(Wx * dpn - (Om - Vx) * pn + a_n * Th * pnm1))
        denom = max(denom, abs(Wx * dpn), abs((Om - Vx) * pn), abs(Wx * pn))
    return resid / max(denom, 1e-300)


@pytest.mark.parametrize("which", ["ref3", "moving6"])
def test_diffrel_matches_per_point_reference(which, request):
    w = request.getfixturevalue(which)
    t = 0.2
    table = stieltjes_procedure(w, t, 21)
    for n in (0, 1, 7, 20):
        ratios = state(w, t, n)[3:].reshape(3, -1)
        rep = ladder_checks(w, t, n)
        ref = _diffrel_per_point(w, table, n, ratios, t)
        assert abs(rep.diffrel_residual - ref) < 1e-12
        assert rep.diffrel_residual < 1e-7


def _count_passes(monkeypatch,
                  names=("stieltjes_recurrence", "cauchy_node_matrices")):
    """Count the calls of the library functions ``names``, wherever they
    are called from: by default the Stieltjes passes and the Cauchy matrix
    builds."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counting

    for mod in (gjflow.ladder, gjflow.orthopoly, gjflow.quadrature,
                gjflow.weights, gjflow.evolution, gjflow.momentflow):
        for name in calls:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    return calls


# one measure for all of a command's times, and no node data of one time
# beside it
ONE_MEASURE = {"_stacked_points": 1, "node_data": 0}


@pytest.mark.parametrize("cmd, passes", [
    ("ladder", {"stieltjes_recurrence": 1, "cauchy_node_matrices": 1}),
    # the Chebyshev coefficient check, the ladder checks, the frozen flow
    ("selftest", {"stieltjes_recurrence": 3, "cauchy_node_matrices": 2}),
    *((cmd, ONE_MEASURE)
      for cmd in ("coeffs", "ladder", "evolve", "verify", "moments")),
])
def test_cli_ladder_queries_build_once(moving6, tmp_path, capsys, monkeypatch,
                                       cmd, passes):
    path = tmp_path / "moving6.json"
    path.write_text(json.dumps({
        "weight": {"alpha": moving6.alpha.tolist(),
                   "pieces": moving6.pieces.tolist(),
                   "trajectory": [list(c) for c in moving6.trajectory.coeffs]},
        "n": 30, "evolve": {"t0": 0.1, "t1": 0.4}}))
    calls = _count_passes(monkeypatch, passes)
    assert main([cmd, "--config", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert calls == passes


def test_time_derivative_check_builds_once(moving6, monkeypatch):
    calls = _count_passes(monkeypatch)
    pn_time_derivative_check(moving6, 30, 0.55, 0.1, 1e-4)
    assert calls == {"stieltjes_recurrence": 1, "cauchy_node_matrices": 1}
