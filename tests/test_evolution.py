import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gjflow.cli
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
    StepCollapse,
    evolution_rhs,
    evolve,
    init_state,
    init_states,
    make_weight,
    node_data,
    pn_time_derivative_check,
    verify_against_direct,
)
from gjflow.cli import cmd_verify, parse_config
from gjflow.momentflow import direct_moments, evolve_moments
from gjflow.rk45 import integrate_rk45
from test_cli import (M4_CONFIG, M6_CONFIG, MOVING3, README_CONFIG, drifts_of,
                      read_csv)
from test_momentflow import moment_table_rhs
from test_rk45 import accepted_of, attempts_of


def evolve_uniform(w, n, span, samples=20, tol=(1e-9, 1e-12)):
    """(times, samples, stats): ``evolve`` at ``samples`` uniform times of
    ``span``, from the oracle state of degree n at the first."""
    times = np.linspace(*span, samples)
    return (times, *evolve(w, times, init_states(w, n, times[:1])[0], tol))


class TestEvolutionRhs:
    def test_fixed_endpoints_zero_rhs(self, ref3):
        s = init_state(ref3, 4, 0.0)
        d = evolution_rhs(s.pack(), node_data(ref3, 0.0).basis)
        assert np.max(np.abs(d)) < 1e-12

    def test_translation(self):
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                        EndpointTrajectory(((-1.0, 1.0), (0.2, 1.0),
                                            (1.0, 1.0))))
        s = init_state(w, 4, 0.0)
        d = evolution_rhs(s.pack(), node_data(w, 0.0).basis)
        assert abs(d[0]) < 1e-10          # a_dot
        assert d[1] == pytest.approx(1.0, abs=1e-10)   # b_dot
        assert np.max(np.abs(d[3:])) < 1e-10           # node ratios frozen

    def test_dilation(self):
        pts = [-1.0, 0.2, 1.0]
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                        EndpointTrajectory(tuple(zip(pts, pts))))
        s = init_state(w, 4, 0.0)
        d = evolution_rhs(s.pack(), node_data(w, 0.0).basis)
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
            s = EvolutionState(0.05, 4, *y[:3].tolist(),
                               *y[3:].reshape(3, m).copy())
            ref = _rhs_reference(s, nd)
            got = evolution_rhs(y, nd.basis)
            assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-14
            assert np.array_equal(y, s.pack())      # y is not written


def test_rhs_runs_once_per_feval(moving3, monkeypatch):
    # the benchmark's evolution_rhs span counts fevals through this binding
    calls = []
    original = gjflow.evolution.evolution_rhs

    def counting(*args):
        calls.append(args[1].shape)
        return original(*args)

    monkeypatch.setattr(gjflow.evolution, "evolution_rhs", counting)
    _, _, stats = evolve_uniform(moving3, 5, (0.0, 0.3), 7)
    assert len(calls) == stats.fevals > 7
    assert set(calls) == {(3, 5)}           # one (m, m + 2) frame per call


def _per_stage_frames(w):
    """A flow's frames, each from its own ``node_data`` call."""
    return lambda ts: [node_data(w, t).basis for t in ts]


@pytest.mark.parametrize("doc", [README_CONFIG, M4_CONFIG, M6_CONFIG],
                         ids=["readme", "m4", "m6"])
class TestFramesBundle:
    """The flows read their frames from one bundle per attempt and reuse
    one RHS buffer; both must give what per-stage node data gives."""

    @staticmethod
    def _load(doc):
        cfg = parse_config(json.dumps(doc))
        opts = dict(rtol=cfg.rtol, atol=cfg.atol)
        return cfg, cfg.weight(), (cfg.t0, cfg.t1), opts

    def test_evolve_bit_for_bit(self, doc):
        cfg, w, span, opts = self._load(doc)
        times, samples, stats = evolve_uniform(w, cfg.n, span, cfg.samples,
                                               tol=(cfg.rtol, cfg.atol))
        ys, ref_stats = integrate_rk45(
            lambda basis, y, out: evolution_rhs(y, basis, out=out),
            _per_stage_frames(w), times, init_state(w, cfg.n, cfg.t0).pack(),
            **opts)
        assert stats == ref_stats
        assert np.array_equal(samples, ys)

    def test_evolve_moments_bit_for_bit(self, doc):
        cfg, w, span, opts = self._load(doc)
        times = np.linspace(*span, cfg.samples)
        nu0 = direct_moments(w, cfg.n, times[:1])[1][0]
        nus, stats = evolve_moments(w, cfg.n, times, nu0, tol=(cfg.rtol, cfg.atol))
        ys, ref_stats = integrate_rk45(
            moment_table_rhs(w, cfg.n), _per_stage_frames(w), times, nu0, **opts)
        assert stats == ref_stats
        assert np.array_equal(nus, ys)


def _evolve_command(doc):
    """The data rows of ``gjflow evolve`` on the config doc, as one array."""
    out = io.StringIO()
    gjflow.cli.cmd_evolve(parse_config(json.dumps(doc)), out)
    return np.array(read_csv(out.getvalue())[2])


def test_drifts_match_per_sample_node_data(moving3):
    # MOVING3 is the moving3 weight at n = 5
    rows = _evolve_command(dict(MOVING3, evolve={"t0": 0.0, "t1": 0.3,
                                                 "samples": 7}))
    times, ys, drifts = rows[:, 0], rows[:, 1:-5], rows[:, -5:]
    sums = gjflow.ladder.residue_sums
    sums0 = sums(init_state(moving3, 5, 0.0).pack(), node_data(moving3, 0.0).x)
    ref = np.array([sums(y, node_data(moving3, t).x) - sums0
                    for t, y in zip(times, ys)])
    assert np.array_equal(drifts, ref)
    assert np.array_equal(drifts_of(moving3, times, ys), ref)
    assert np.all(drifts[0] == 0.0) and np.any(drifts[-1] != 0.0)


def test_drifts_are_computed_only_by_the_evolve_command(moving3, monkeypatch):
    calls = []
    sums = gjflow.ladder.residue_sums
    for mod in (gjflow.ladder, gjflow.cli):
        monkeypatch.setattr(mod, "residue_sums",
                            lambda *args: calls.append(1) or sums(*args))
    times, ys, _ = evolve_uniform(moving3, 5, (0.0, 0.3), 7)
    verify_against_direct(ys, init_states(moving3, 5, times))
    assert calls == []
    _evolve_command(MOVING3)
    assert calls == [1]


def _ladder_comments(doc):
    """The ``# key: value`` lines of ``gjflow ladder`` on the config doc."""
    out = io.StringIO()
    gjflow.cli.cmd_ladder(parse_config(json.dumps(doc)), out)
    return dict(line[2:].split(": ", 1)
                for line in read_csv(out.getvalue())[0] if ": " in line)


def test_residue_sums_is_the_one_source_of_the_sum_lines(monkeypatch):
    # one residue_sums call gives evolve's drift columns and one gives
    # ladder's three residue lines: doubling its result doubles the drifts
    # and residue_theta, and throws the two leading-coefficient lines off
    plain_drifts = _evolve_command(MOVING3)[:, -5:]
    plain = _ladder_comments(MOVING3)
    calls = []
    sums = gjflow.ladder.residue_sums
    for mod in (gjflow.ladder, gjflow.cli):
        monkeypatch.setattr(mod, "residue_sums",
                            lambda *args: calls.append(1) or 2 * sums(*args))
    assert np.array_equal(_evolve_command(MOVING3)[:, -5:], 2 * plain_drifts)
    assert calls == [1]
    doubled = _ladder_comments(MOVING3)
    assert calls == [1, 1]
    assert float(doubled["residue_theta"]) == 2 * float(plain["residue_theta"])
    for key in ("residue_x_theta", "residue_omega"):
        assert float(plain[key]) < 1e-8 and float(doubled[key]) > 0.5
    for key in ("diffrel_residual", "wronskian_residual"):
        assert doubled[key] == plain[key]


def test_verify_against_direct_floors_the_reference_at_one():
    # per component: |reference| < 1 is judged on absolute error, and
    # |reference| >= 1 on relative error
    reference = np.array([[0.5, -0.25, 4.0, -2.0],
                          [0.0, 1.0, -8.0, 1024.0]])
    samples = np.array([[0.625, -0.75, 5.0, -1.0],
                        [2.0 ** -10, 1.5, -6.0, 1023.0]])
    expected = [[0.125, 0.5, 0.25, 0.5], [2.0 ** -10, 0.5, 0.25, 2.0 ** -10]]
    assert np.array_equal(verify_against_direct(samples, reference), expected)


@st.composite
def flow_weights(draw):
    """(w, n, t1): m in {3, 4} endpoints, the outer two fixed at -2 and 2;
    each inner one keeps to its own lane of (-2, 2), 0.05 inside it, on an
    affine or quadratic path, so that neighbours stay at least 0.05 apart
    over [0, t1]."""
    m = draw(st.sampled_from([3, 4]))
    t1 = draw(st.floats(0.3, 0.6))
    bounds = np.linspace(-2.0, 2.0, m - 1)
    rows = [(-2.0,)]
    for lo, hi in zip(bounds[:-1] + 0.05, bounds[1:] - 0.05):
        p = draw(st.floats(lo, hi))
        v = draw(st.floats(-1.0, 1.0))
        q = draw(st.sampled_from([0.0]) | st.floats(-1.0, 1.0))
        reach = abs(v) * t1 + abs(q) * t1 * t1
        room = min(p - lo, hi - p)
        if reach > room:
            v, q = v * room / reach, q * room / reach
        rows.append((p, v, q))
    rows.append((2.0,))
    alpha = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5]),
                          min_size=m, max_size=m))
    pieces = draw(st.lists(st.floats(0.5, 2.0), min_size=m - 1,
                           max_size=m - 1))
    w = make_weight(alpha, pieces, EndpointTrajectory(tuple(rows)))
    return w, draw(st.integers(1, 8)), t1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(flow_weights())
def test_flow_conserves_the_five_sums(flow):
    # the five Lagrange leading-coefficient sums are invariants of the
    # exact flow, so their drift is the integrator's error alone
    w, n, t1 = flow
    times, ys, _ = evolve_uniform(w, n, (0.0, t1), 10)
    assert np.max(np.abs(drifts_of(w, times, ys))) <= 1e-10


class TestEvolve:
    def test_fixed_endpoints_constant(self, ref3):
        _, ys, _ = evolve_uniform(ref3, 3, (0.0, 2.0), 6)
        first = ys[0]
        for y in ys[1:]:
            assert np.max(np.abs(y - first)) < 1e-12

    def test_m2_translation_covariance(self):
        w = make_weight([0.5, 0.5], [1.0],
                        EndpointTrajectory(((-1.0, 1.0), (1.0, 1.0))))
        _, ys, _ = evolve_uniform(w, 4, (0.0, 1.0))
        (a0, b0), (a1, b1) = ys[0, :2], ys[-1, :2]
        assert b1 == pytest.approx(b0 + 1.0, abs=1e-8)
        assert a1 == pytest.approx(a0, abs=1e-8)

    def test_m3_against_direct(self, moving3):
        times, ys, _ = evolve_uniform(moving3, 5, (0.0, 0.3), 8,
                                      tol=(1e-9, 1e-12))
        devs = verify_against_direct(ys, init_states(moving3, 5, times))
        assert devs.max() < 1e-6
        assert np.max(np.abs(drifts_of(moving3, times, ys))) < 1e-8
        # shared initialization at t0
        assert np.max(devs[0]) < 1e-12

    def test_positivity_along_flow(self, moving3):
        _, ys, _ = evolve_uniform(moving3, 5, (0.0, 0.3), 10)
        for y in ys:
            assert y[0] > 0.0       # a
            assert y[2] > 0.0       # gamma

    def test_tolerance_sweep_monotone(self, moving3):
        devs = []
        direct = init_states(moving3, 5, np.linspace(0.0, 0.3, 4))
        for rtol in (1e-10, 1e-8, 1e-6):
            _, ys, _ = evolve_uniform(moving3, 5, (0.0, 0.3), 4,
                                      tol=(rtol, 1e-12))
            devs.append(verify_against_direct(ys, direct).max())
        assert devs[0] <= devs[2]
        assert devs[1] <= devs[2]

    def test_endpoint_collision(self):
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                        EndpointTrajectory(((-1.0,), (0.2, 4.0), (1.0,))))
        with pytest.raises(EndpointCollision):
            evolve_uniform(w, 3, (0.0, 0.5), 4)

    def test_tangential_touch_is_a_collision(self, monkeypatch):
        # x_2 = 4t - 4t^2 touches x_3 = 1 at t = 0.5 without crossing it:
        # the gap (2t - 1)^2 reaches the floor 2e-8 at 0.5 - sqrt(2e-8)/2,
        # which evolve reports before its start or any step
        def no_work(*args, **kwargs):
            raise AssertionError("the flow started")

        monkeypatch.setattr(gjflow.evolution, "init_states", no_work)
        monkeypatch.setattr(gjflow.evolution, "integrate_rk45", no_work)
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                        EndpointTrajectory(((-1.0,), (0.0, 4.0, -4.0), (1.0,))))
        with pytest.raises(EndpointCollision, match=r"^endpoints x_2 and x_3 ") as info:
            evolve(w, [0.0, 1.0], np.zeros(12))
        assert info.value.__cause__ is None
        assert info.value.t == pytest.approx(0.5 - np.sqrt(2e-8) / 2, rel=1e-12)

    def test_step_collapse_away_from_a_collision(self, moving3, monkeypatch):
        # at t = 0.1 the endpoints (-1, 0.1, 1) are far apart: the collapse
        # is not a collision and is raised as it is
        def collapse(*args, **kwargs):
            raise StepCollapse("step size below floor", t=0.1)

        monkeypatch.setattr(gjflow.evolution, "integrate_rk45", collapse)
        with pytest.raises(StepCollapse, match="^step size below floor$") as info:
            evolve_uniform(moving3, 3, (0.0, 0.3), 4)
        assert type(info.value) is StepCollapse and info.value.t == 0.1

    def test_collision_late_in_the_span_is_found_before_any_stage(
            self, monkeypatch):
        # x_2 = 0.2 + 0.8 (t / 0.3)^40 stays far from x_3 = 1 until just
        # before t = 0.3, where a step at a loose tolerance would straddle
        # the crossing; the gap 0.8 (1 - (t / 0.3)^40) reaches the floor
        # 2e-8 at 0.3 (1 - 2.5e-8)^(1/40), before any node data is built
        calls = []

        def recording(build):
            def record(w, ts):
                calls.append((build.__name__, ts))
                return build(w, ts)
            return record

        traj = EndpointTrajectory(
            ((-1.0,), (0.2,) + (0.0,) * 39 + (0.8 / 0.3 ** 40,), (1.0,)))
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0], traj)
        for name in ("stage_frames", "node_positions"):
            build = getattr(gjflow.weights, name)
            for mod in (gjflow.weights, gjflow.quadrature, gjflow.evolution):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, recording(build))
        with pytest.raises(EndpointCollision, match=r"^endpoints x_2 and x_3 ") as info:
            evolve(w, np.linspace(0.0, 0.5, 3), np.zeros(12),
                   tol=(1e-3, 1e-6))
        assert calls == []
        assert info.value.t == pytest.approx(0.3 * (1 - 2.5e-8) ** (1 / 40),
                                             rel=1e-12)

    def test_positions_that_round_together_are_refused_at_the_first_stage(
            self, monkeypatch):
        # x_k = k + 1e307 t^2: every gap polynomial is the constant 1, so the
        # span passes check_span, but the positions round together (all
        # about 1e295 at t = 1e-6); the frames of the first stage after t0
        # refuse them instead of feeding the flow a kernel of 1/0
        calls = []
        build = gjflow.evolution.stage_frames

        def recording(w, ts):
            calls.append(np.array(ts))
            return build(w, ts)

        monkeypatch.setattr(gjflow.evolution, "stage_frames", recording)
        traj = EndpointTrajectory(tuple((float(k), 0.0, 1e307) for k in range(3)))
        w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0], traj)
        with pytest.raises(NonDistinctEndpoints,
                           match="^endpoints not strictly increasing") as info:
            evolve_uniform(w, 3, (0.0, 5.0))
        assert [c.tolist() for c in calls[:1]] == [[0.0]]
        assert len(calls) == 2 and info.value.t == calls[1][info.value.row] > 0.0

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

    def test_a_nan_time_is_not_ordered(self):
        # NaN positions compare False both ways: the order check refuses
        # them before the recurrence, which would blame the overflow of gamma_0
        msg = self.failure(5, [0.0, np.nan, 0.5], 64)
        assert msg.startswith("state initialization failed at t=nan: "
                              "endpoints not strictly increasing at t=nan: ")

    @pytest.mark.parametrize("t", [np.inf, -np.inf])
    def test_an_infinite_time_is_refused(self, t):
        # x = (-1 - t, 1 + t) is ordered at t = inf in floating point; the
        # time is refused before the trajectory is evaluated, with no warning
        w = make_weight([0.5, 0.5], [1.0],
                        EndpointTrajectory(((-1.0, -1.0), (1.0, 1.0))))
        with pytest.raises(InitFailure) as info:
            init_states(w, 2, [0.0, t])
        assert str(info.value).startswith(
            f"state initialization failed at t={t}: "
            f"endpoints not strictly increasing at t={t}: ")
        with pytest.raises(NonDistinctEndpoints, match=f"at t={t}: "):
            direct_moments(w, 2, [t])

    def test_no_times_give_no_rows(self, moving3):
        # as the batched builders, one row per time
        assert init_states(moving3, 5, []).shape == (0, 3 + 3 * moving3.m)

    @pytest.mark.parametrize("samples", [2, 7, 21])
    def test_verify_builds_the_oracle_in_one_pass(self, moving3, monkeypatch,
                                                  samples):
        calls = {"stieltjes_recurrence": 0, "node_positions": 0}

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
        times, ys, _ = evolve_uniform(moving3, 5, (0.0, 0.3), samples)
        calls.update(dict.fromkeys(calls, 0))
        devs = verify_against_direct(ys, init_states(moving3, 5, times))
        assert calls == {"stieltjes_recurrence": 1, "node_positions": 1}
        assert devs.shape == (samples, 3 + 3 * moving3.m)
        ref = np.array([init_state(moving3, 5, t).pack() for t in times])
        assert np.array_equal(init_states(moving3, 5, times), ref)


class TestVerifyFlow:
    """``verify`` checks its span before its ``init_states`` oracle or the
    flow run, so a collision the flow would meet is the failure reported."""

    def test_flow_failure_before_a_later_oracle_failure(self, monkeypatch):
        # moving3: the middle endpoint meets the right one at t = 1; the
        # oracle would fail at the sample t = 1, the flow just before it
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(gjflow.cli, "init_states", no_oracle)
        doc = {"weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1, 1],
                          "trajectory": [[-1], [0, 1], [1]]},
               "n": 5, "evolve": {"t0": 0, "t1": 1.5, "samples": 4}}
        with pytest.raises(EndpointCollision) as info:
            cmd_verify(parse_config(json.dumps(doc)), io.StringIO())
        assert info.value.t == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("doc", [M4_CONFIG, M6_CONFIG], ids=["m4", "m6"])
def test_first_attempt_is_sized(doc):
    # the start step is sized from the slopes at t0, so the first attempt
    # runs within 10x of the median accepted step instead of ramping up
    # from a fixed fraction of the span (parent code: about 1e-3 of it)
    cfg = parse_config(json.dumps(doc))
    w = cfg.weight()
    calls = []

    def frames(ts):
        calls.append(np.array(ts))
        return gjflow.weights.stage_frames(w, ts)

    integrate_rk45(lambda basis, y, out: evolution_rhs(y, basis, out=out),
                   frames, np.linspace(cfg.t0, cfg.t1, cfg.samples),
                   init_state(w, cfg.n, cfg.t0).pack(),
                   rtol=cfg.rtol, atol=cfg.atol)
    steps = attempts_of(calls)
    kept = [h for (_, h), ok in zip(steps, accepted_of(steps, cfg.t1)) if ok]
    assert np.median(kept) / steps[0][1] < 10.0


def test_frozen_flow_steps():
    # the frozen trajectory of ``selftest``: a zero right-hand side, which
    # takes the fixed start and no more steps than it always did
    w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                    EndpointTrajectory.fixed([-1.0, 0.0, 1.0]))
    _, ys, stats = evolve_uniform(w, 5, (0.0, 1.0), 5)
    assert (stats.accepted, stats.rejected) == (4, 0)
    assert np.array_equal(ys[-1], ys[0])


class TestRhsFiniteDifference:
    def test_observed_order(self, moving3):
        s = init_state(moving3, 5, 0.1)
        rhs = evolution_rhs(s.pack(), node_data(moving3, 0.1).basis)
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
