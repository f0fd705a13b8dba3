import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import gjflow.evolution
import gjflow.momentflow
from gjflow import (
    BadConstant,
    BadExponent,
    EndpointCollision,
    EndpointTrajectory,
    GeneralizedJacobiWeight,
    NonDistinctEndpoints,
    barycentric_interpolate,
    check_span,
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

    def test_nan_reference_time(self, cheb):
        with pytest.raises(NonDistinctEndpoints) as info:
            make_weight(cheb.alpha, cheb.pieces, cheb.trajectory, t_ref=np.nan)
        assert np.isnan(info.value.t)

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

    def test_coefficients_near_the_float_limit_build_quietly(self):
        # 2e308 overflows the velocity row and inf - inf fills the gap
        # table with nan; the suite turns a numpy warning into an error
        traj = EndpointTrajectory(((-1.0,), (0.0, 0.0, 1e308), (1.0,)))
        np.testing.assert_array_equal(traj.positions(0.0), [-1.0, 0.0, 1.0])
        assert traj.velocities(1.0)[1] == np.inf


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
                        EndpointTrajectory(((-1.0, 2.0), (1.0, 0.0))))
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

    def test_a_nan_time_is_not_ordered(self, moving3):
        with pytest.raises(NonDistinctEndpoints) as info:
            stage_node_data(moving3, [0.1, np.nan, 0.3])
        assert np.isnan(info.value.t) and info.value.row == 1
        assert str(info.value) == (
            "endpoints not strictly increasing at t=nan: [nan, nan, nan]")
        with pytest.raises(NonDistinctEndpoints, match="at t=nan: "):
            node_data(moving3, np.nan)


@st.composite
def spans(draw):
    """(coefficient rows, t0, t1): m 2-6 endpoint paths of degree <= 4,
    each neighbour gap drawn free (positive at t = 0), as a touch
    a (t - tau)^2 (1 + b (t - tau)^2) or as a crossing k (tau - t), with
    tau inside the span and the gap positive at t0."""
    m, degree = draw(st.integers(2, 6)), draw(st.integers(0, 4))
    t0 = draw(st.floats(-1.0, 1.0))
    t1 = t0 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 1.5))
    coef = st.floats(-1.0, 1.0)
    rows = [[draw(coef) for _ in range(degree + 1)]]
    for _ in range(m - 1):
        kind = draw(st.sampled_from(["free", "touch", "crossing"]))
        tau = t0 + draw(st.floats(0.1, 0.9)) * (t1 - t0)
        if kind == "touch":
            a, b = draw(st.floats(0.1, 4.0)), draw(st.floats(0.0, 2.0))
            gap = npoly.polymul(npoly.polypow([-tau, 1.0], 2),
                                [a + a * b * tau * tau, -2 * a * b * tau, a * b])
        elif kind == "crossing":
            k = draw(st.floats(0.1, 4.0)) * np.sign(t1 - t0)
            gap = [k * tau, -k]
        else:
            gap = [draw(st.floats(0.05, 2.0))] + [draw(coef) for _ in range(degree)]
        rows.append(npoly.polyadd(rows[-1], gap).tolist())
    return rows, t0, t1


def _real_roots_mp(p, lo, hi):
    """The real roots in [lo, hi] of the polynomial p (mpf coefficients,
    highest degree first), ascending: p is monotone between the real roots
    of its derivative, found the same way, so each piece holds at most one
    root, which bisection finds."""
    while len(p) > 1 and p[0] == 0:
        p = p[1:]
    if len(p) < 2:
        return []
    slope = [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
    cuts = [lo, *_real_roots_mp(slope, lo, hi), hi]
    roots = []
    for a, b in zip(cuts, cuts[1:]):
        fa = mpmath.polyval(p, a)
        if fa == 0:
            roots.append(a)
        elif fa * mpmath.polyval(p, b) < 0:
            for _ in range(70):
                mid = (a + b) / 2
                a, b = (mid, b) if mpmath.polyval(p, mid) * fa > 0 else (a, mid)
            roots.append(b)
    return roots + [hi] * (mpmath.polyval(p, hi) == 0)


def _first_at_floor_mp(rows, t0, t1):
    """Per neighbour pair, the first time from t0 toward t1 at which the
    exact gap of the float rows (constant term first) is at or below the
    floor 1e-8 * max(width at t0, 1), or None: in 30-digit arithmetic, t0
    itself or the real root of gap - floor in the span nearest t0."""
    with mpmath.workdps(30):
        size = max(map(len, rows))
        exact = [[mpmath.mpf(c) for c in row] + [mpmath.mpf(0)] * (size - len(row))
                 for row in rows]
        gaps = [[b - a for a, b in zip(lo, hi)][::-1]            # highest first
                for lo, hi in zip(exact, exact[1:])]
        floor = mpmath.mpf(1e-8) * max(
            mpmath.fsum(mpmath.polyval(g, t0) for g in gaps), 1)
        first = []
        for g in gaps:
            h = g[:-1] + [g[-1] - floor]
            roots = [t0] if mpmath.polyval(h, t0) <= 0 else \
                _real_roots_mp(h, min(t0, t1), max(t0, t1))
            first.append(float(min(roots, key=lambda r: abs(r - t0)))
                         if roots else None)
        return first


class TestCheckSpan:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spans())
    # a touch at t = -0.5 whose slope has leading terms near 1e-305: left
    # in, they put the companion solve's small root at 0, and the touch passed
    @example(([[0.0, 0.0, 0.33012014860005956],
               [0.75, 3.0, 3.3301201486000593, 2.781495565218076e-305,
                1.390747782609038e-305]], 0.0, -1.0))
    def test_matches_an_mpmath_min_gap_reference(self, span):
        rows, t0, t1 = span
        m = len(rows)
        w = GeneralizedJacobiWeight(np.full(m, 0.5), np.ones(m - 1),
                                    EndpointTrajectory(tuple(map(tuple, rows))))
        first = _first_at_floor_mp(rows, t0, t1)
        hits = [t for t in first if t is not None]
        if not hits:
            check_span(w, t0, t1)
            return
        with pytest.raises(EndpointCollision) as info:
            check_span(w, t0, t1)
        t = min(hits, key=lambda t: abs(t - t0))
        assert info.value.t == pytest.approx(t, abs=1e-8)
        j = int(re.match(r"endpoints x_(\d+) and ", str(info.value)).group(1))
        assert first[j - 1] == pytest.approx(t, abs=1e-8)   # the pair named

    @pytest.mark.parametrize("slope, t", [(1e308, 0.797), (np.inf, 0.0)])
    def test_a_gap_that_is_not_finite_refuses(self, slope, t):
        # x_2 - x_1 = 1e308 + slope * t: it overflows the float range near
        # t = 0.797, or its slope is not finite and it refuses at t0
        traj = EndpointTrajectory(((0.0,), (1e308, slope)))
        w = GeneralizedJacobiWeight(np.full(2, 0.5), np.ones(1), traj)
        with pytest.raises(EndpointCollision, match="^endpoints x_1 and x_2 ") as info:
            check_span(w, 0.0, 1.0)
        assert info.value.t == pytest.approx(t, abs=1e-3)

    def test_a_failing_span_raises_again_on_every_call(self):
        # x_2 = 0.2 + 4t crosses x_3 = 1 at t = 0.2: only passes are kept
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                        EndpointTrajectory(((-1.0,), (0.2, 4.0), (1.0,))))
        raised = []
        for _ in range(3):
            with pytest.raises(EndpointCollision) as info:
                check_span(w, 0.0, 0.5)
            raised.append((str(info.value), info.value.t))
        assert raised[0][1] == pytest.approx(0.2 - 5e-9, rel=1e-12)
        assert raised == raised[:1] * 3

    @pytest.mark.parametrize("t0, t1", [(0.0, np.nan), (np.nan, 0.3),
                                        (0.0, np.inf), (-np.inf, 0.3),
                                        (np.inf, 0.0), (0.0, -np.inf)])
    @pytest.mark.parametrize("entry", ["check_span", "evolve", "evolve_moments"])
    def test_a_non_finite_end_time_is_refused(self, moving3, monkeypatch,
                                              entry, t0, t1):
        # a NaN end time never ends the collision bisection; the cap on its
        # gap evaluations turns such a loop into a failure
        calls = []

        def capped(*args):
            calls.append(None)
            assert len(calls) < 1000, "the span check ran on"
            return horner(*args)

        horner = gjflow.weights._horner
        monkeypatch.setattr(gjflow.weights, "_horner", capped)
        run = {"check_span": lambda span: check_span(moving3, *span),
               "evolve": lambda span: gjflow.evolution.evolve(moving3, 3, span),
               "evolve_moments": lambda span: gjflow.momentflow.evolve_moments(
                   moving3, 3, span)}[entry]
        with pytest.raises(ValueError, match="^t0 and t1 must be finite, got "):
            run((t0, t1))

    @pytest.mark.parametrize("flow", ["evolve", "evolve_moments"])
    def test_library_flows_refuse_an_unchecked_crossing(self, flow,
                                                        monkeypatch):
        # the span up to 0.1 passes and is remembered; the crossing at 0.2
        # of the span up to 0.5, never checked, is refused before any step
        def no_work(*args, **kwargs):
            raise AssertionError("the flow started")

        for module, name in ((gjflow.evolution, "init_states"),
                             (gjflow.evolution, "integrate_rk45"),
                             (gjflow.momentflow, "direct_moments"),
                             (gjflow.momentflow, "integrate_rk45")):
            monkeypatch.setattr(module, name, no_work)
        run = {"evolve": gjflow.evolution.evolve,
               "evolve_moments": gjflow.momentflow.evolve_moments}[flow]
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                        EndpointTrajectory(((-1.0,), (0.2, 4.0), (1.0,))))
        check_span(w, 0.0, 0.1)
        with pytest.raises(EndpointCollision, match=r"^endpoints x_2 and x_3 ") as info:
            run(w, 3, (0.0, 0.5), sample_count=4)
        assert info.value.t == pytest.approx(0.2 - 5e-9, rel=1e-12)


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
                           EndpointTrajectory(((-1.0, 0.3), (0.1, -0.2),
                                               (1.2, 0.5))))

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
