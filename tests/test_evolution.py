import numpy as np
import pytest

import gjflow.evolution
import gjflow.ladder
import gjflow.quadrature
import gjflow.weights
from gjflow import (
    EndpointCollision,
    EndpointTrajectory,
    EvolutionState,
    InitFailure,
    NonDistinctEndpoints,
    evolution_rhs,
    evolve,
    init_state,
    init_states,
    make_weight,
    node_data,
    pn_time_derivative_check,
    verify_against_direct,
)


class TestEvolutionRhs:
    def test_fixed_endpoints_zero_rhs(self, ref3):
        s = init_state(ref3, 4, 0.0)
        d = evolution_rhs(s.pack(), node_data(ref3, 0.0))
        assert np.max(np.abs(d)) < 1e-12

    def test_translation(self):
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                        EndpointTrajectory.affine([-1.0, 0.2, 1.0],
                                                  [1.0, 1.0, 1.0]))
        s = init_state(w, 4, 0.0)
        d = evolution_rhs(s.pack(), node_data(w, 0.0))
        assert abs(d[0]) < 1e-10          # a_dot
        assert d[1] == pytest.approx(1.0, abs=1e-10)   # b_dot
        assert np.max(np.abs(d[3:])) < 1e-10           # node ratios frozen

    def test_dilation(self):
        pts = [-1.0, 0.2, 1.0]
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                        EndpointTrajectory.affine(pts, pts))
        s = init_state(w, 4, 0.0)
        d = evolution_rhs(s.pack(), node_data(w, 0.0))
        assert d[0] / s.a == pytest.approx(1.0, abs=1e-10)
        assert d[1] == pytest.approx(s.b, abs=1e-10)


def _rhs_reference(s, nd):
    """The right-hand side written out per component, kernel products
    through the antisymmetric cross(u, v)."""
    th, tp, om = s.theta, s.theta_prev, s.omega
    x, xd = nd.x, nd.xdot
    m = len(x)
    K = np.zeros((m, m))
    for j in range(m):
        for k in range(m):
            if k != j:
                K[j, k] = (xd[j] - xd[k]) / (x[j] - x[k])

    def cross(u, v):
        return v * (K @ u) - u * (K @ v)

    adot_over_a = 0.5 * float(np.dot(th - tp, xd))
    gdot_over_g = -0.5 * float(np.dot(xd, th))
    gdot_prev_over_g = adot_over_a + gdot_over_g
    return np.concatenate((
        [s.a * adot_over_a,
         float(np.dot((x - s.b) * th - 2.0 * om, xd)),
         s.gamma * gdot_over_g],
        2.0 * gdot_over_g * th - 2.0 * cross(th, om),
        -2.0 * gdot_prev_over_g * tp + 2.0 * cross(tp, om),
        s.a ** 2 * cross(tp, th),
    ))


class TestPackedRhs:
    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_per_component_reference(self, m):
        rng = np.random.default_rng(m)
        x0 = np.linspace(-2.0, 2.0, m)
        traj = EndpointTrajectory(tuple(
            (float(p), float(v), float(q))
            for p, v, q in zip(x0, rng.uniform(-1, 1, m), rng.uniform(-0.3, 0.3, m))))
        w = make_weight(rng.uniform(0.2, 1.5, m), np.ones(m - 1), traj)
        nd = node_data(w, 0.05)
        assert len(set(np.round(nd.xdot, 12))) == m   # non-uniform velocities
        for _ in range(5):
            y = rng.standard_normal(3 + 3 * m)
            s = EvolutionState.unpack(0.05, 4, m, y)
            ref = _rhs_reference(s, nd)
            got = evolution_rhs(y, nd)
            assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-14
            assert np.array_equal(y, s.pack())      # y is not written


def test_unpack_only_at_samples(moving3, monkeypatch):
    calls = []
    unpack = EvolutionState.unpack

    def counting(*args):
        calls.append(args[0])
        return unpack(*args)

    monkeypatch.setattr(gjflow.evolution.EvolutionState, "unpack",
                        staticmethod(counting))
    rep = evolve(moving3, 5, (0.0, 0.3), sample_count=7)
    assert rep.stats.fevals > 7
    assert calls == list(rep.times)


def test_drifts_match_per_sample_node_data(moving3):
    rep = evolve(moving3, 5, (0.0, 0.3), sample_count=7)
    sums0 = init_state(moving3, 5, 0.0).conserved_sums(node_data(moving3, 0.0).x)
    ref = np.array([s.conserved_sums(node_data(moving3, s.t).x) - sums0
                    for s in rep.states])
    assert np.array_equal(rep.drifts, ref)
    assert np.all(rep.drifts[0] == 0.0) and np.any(rep.drifts[-1] != 0.0)


class TestEvolve:
    def test_fixed_endpoints_constant(self, ref3):
        rep = evolve(ref3, 3, (0.0, 2.0), sample_count=6)
        first = rep.states[0].pack()
        for s in rep.states[1:]:
            assert np.max(np.abs(s.pack() - first)) < 1e-12

    def test_m2_translation_covariance(self):
        w = make_weight([0.5, 0.5], [1.0],
                        EndpointTrajectory.affine([-1.0, 1.0], [1.0, 1.0]))
        rep = evolve(w, 4, (0.0, 1.0))
        s0, s1 = rep.states[0], rep.states[-1]
        assert s1.b == pytest.approx(s0.b + 1.0, abs=1e-8)
        assert s1.a == pytest.approx(s0.a, abs=1e-8)

    def test_m3_against_direct(self, moving3):
        rep = evolve(moving3, 5, (0.0, 0.3), tol=(1e-9, 1e-12), sample_count=8)
        vt = verify_against_direct(moving3, 5, rep)
        assert vt.max_deviation < 1e-6
        assert np.max(np.abs(rep.drifts)) < 1e-8
        # shared initialization at t0
        assert np.max(vt.deviations[0]) < 1e-12

    def test_positivity_along_flow(self, moving3):
        rep = evolve(moving3, 5, (0.0, 0.3), sample_count=10)
        for s in rep.states:
            assert s.a > 0.0
            assert s.gamma > 0.0

    def test_tolerance_sweep_monotone(self, moving3):
        devs = []
        for rtol in (1e-10, 1e-8, 1e-6):
            rep = evolve(moving3, 5, (0.0, 0.3), tol=(rtol, 1e-12),
                         sample_count=4)
            devs.append(verify_against_direct(moving3, 5, rep).max_deviation)
        assert devs[0] <= devs[2]
        assert devs[1] <= devs[2]

    def test_endpoint_collision(self):
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                        EndpointTrajectory(((-1.0,), (0.2, 4.0), (1.0,))))
        with pytest.raises(EndpointCollision):
            evolve(w, 3, (0.0, 0.5), sample_count=4)

    def test_collision_inside_a_step_names_first_bad_stage(self, monkeypatch):
        # x_2 = 0.2 + 0.8 (t / 0.3)^40 stays far from x_3 = 1 until just
        # before t = 0.3, so at a loose tolerance one step straddles the
        # crossing and several of its stages lie past it
        import gjflow.weights

        calls = []
        build = gjflow.weights.stage_node_data

        def recording(w, ts):
            calls.append(np.array(ts, dtype=float))
            return build(w, ts)

        monkeypatch.setattr(gjflow.weights, "stage_node_data", recording)
        traj = EndpointTrajectory(
            ((-1.0,), (0.2,) + (0.0,) * 39 + (0.8 / 0.3 ** 40,), (1.0,)))
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0], traj)
        with pytest.raises(EndpointCollision) as info:
            evolve(w, 3, (0.0, 0.5), tol=(1e-3, 1e-6), sample_count=3)
        exc = info.value
        assert isinstance(exc.__cause__, NonDistinctEndpoints)
        assert str(exc) == str(exc.__cause__)
        assert str(exc).startswith(f"endpoints not strictly increasing at t={exc.t}: ")
        ts = calls[-1]
        bad = [bool(np.any(np.diff(traj.positions(t)) <= 0.0)) for t in ts]
        first = bad.index(True)
        assert exc.t == ts[first]
        assert not any(bad[:first]) and sum(bad) > 1     # a later stage is bad too

    def test_init_requires_positive_exponents(self):
        w = make_weight([-0.5, 0.5], [1.0],
                        EndpointTrajectory.fixed([-1.0, 1.0]))
        with pytest.raises(InitFailure):
            init_state(w, 3, 0.0)

    def test_init_requires_n_at_least_one(self, ref3):
        with pytest.raises(InitFailure):
            init_state(ref3, 0, 0.0)


    def test_init_runs_one_recurrence(self, ref3, monkeypatch):
        # p_n and p_{n-1} on the rule points and the nodes come from the
        # Stieltjes pass itself, not from a second polynomial evaluation
        import gjflow.orthopoly

        calls = []
        original = gjflow.orthopoly.eval_polynomial

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        for mod in (gjflow.evolution, gjflow.ladder, gjflow.orthopoly):
            monkeypatch.setattr(mod, "eval_polynomial", counting)
        w6 = make_weight([0.3, 1.2, 0.7, 0.45, 1.4, 0.9],
                         [1.0, 0.7, 1.5, 1.1, 0.8],
                         EndpointTrajectory.fixed([-2.0, -1.1, -0.3, 0.4, 1.2, 2.0]))
        for w in (ref3, w6):
            init_state(w, 8, 0.0)
        assert calls == []

class TestInitStates:
    # x_1 = -1 + t/2 and x_2 = 1 - t: the support narrows from width 2 and
    # the endpoints cross at t = 4/3. gamma_700 ~ (4 / width)^700 leaves the
    # float range once the width is below 4 * 2^(-1024/700), about 1.45
    NARROWING = make_weight([0.5, 0.5], [1.0],
                            EndpointTrajectory(((-1.0, 0.5), (1.0, -1.0))))

    def failure(self, n, ts, npts):
        with pytest.raises(InitFailure) as info:
            init_states(self.NARROWING, n, ts, npts)
        return str(info.value)

    def test_names_the_first_bad_time(self):
        msg = self.failure(700, [0.0, 0.5, 1.0], 710)
        assert msg.startswith("state initialization failed at t=0.5: gamma_")
        with pytest.raises(InitFailure) as alone:
            init_state(self.NARROWING, 700, 0.5, 710)
        assert str(alone.value) == msg
        init_state(self.NARROWING, 700, 0.0, 710)          # t = 0 is fine

    def test_an_earlier_time_failing_a_later_step_comes_first(self):
        # t = 1.6 fails the ordering check, before any recurrence runs;
        # t = 0.5 would only fail in the recurrence, and comes first
        msg = self.failure(700, [0.0, 0.5, 1.6], 710)
        assert msg.startswith("state initialization failed at t=0.5: gamma_")

    def test_crossed_endpoints(self):
        msg = self.failure(5, [0.0, 1.6, 1.8], 64)
        assert msg.startswith("state initialization failed at t=1.6: "
                              "endpoints not strictly increasing at t=1.6: ")

    @pytest.mark.parametrize("samples", [2, 7, 21])
    def test_verify_builds_the_oracle_in_one_pass(self, moving3, monkeypatch,
                                                  samples):
        calls = {"stieltjes_recurrence": 0, "stage_node_data": 0}

        def counted(name, fn):
            def counting(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counting

        for mod in (gjflow.ladder, gjflow.quadrature, gjflow.weights):
            for name in calls:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name,
                                        counted(name, getattr(mod, name)))
        rep = evolve(moving3, 5, (0.0, 0.3), sample_count=samples)
        calls.update(dict.fromkeys(calls, 0))
        vt = verify_against_direct(moving3, 5, rep)
        assert calls == {"stieltjes_recurrence": 1, "stage_node_data": 1}
        assert vt.deviations.shape == (samples, 3 + 3 * moving3.m)
        ref = np.array([init_state(moving3, 5, t).pack() for t in rep.times])
        assert np.array_equal(init_states(moving3, 5, rep.times), ref)


class TestRhsFiniteDifference:
    def test_observed_order(self, moving3):
        s = init_state(moving3, 5, 0.1)
        rhs = evolution_rhs(s.pack(), node_data(moving3, 0.1))
        errs = []
        for h in (1e-3, 5e-4):
            sp = init_state(moving3, 5, 0.1 + h).pack()
            sm = init_state(moving3, 5, 0.1 - h).pack()
            fd = (sp - sm) / (2 * h)
            errs.append(np.max(np.abs(fd - rhs) / np.maximum(np.abs(rhs), 1.0)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9


class TestTimeDerivativeFormulas:
    def test_residuals_small(self, moving3):
        chk = pn_time_derivative_check(moving3, 3, 0.55, 0.1, 1e-4)
        assert chk.residual_offnode <= 1e-5
        assert chk.residual_node <= 1e-5

    def test_h_squared_scaling(self, moving3):
        r1 = pn_time_derivative_check(moving3, 3, 0.55, 0.1, 1e-3)
        r2 = pn_time_derivative_check(moving3, 3, 0.55, 0.1, 5e-4)
        e1 = abs(r1.fd_offnode - r1.formula_offnode)
        e2 = abs(r2.fd_offnode - r2.formula_offnode)
        assert np.log2(e1 / e2) >= 1.9

    def test_fixed_endpoints_trivial(self, ref3):
        chk = pn_time_derivative_check(ref3, 3, 0.55, 0.0, 1e-4)
        assert abs(chk.fd_offnode) < 1e-9
        assert abs(chk.formula_offnode) < 1e-12
