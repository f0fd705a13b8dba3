import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjflow import StepCollapse
from gjflow import rk45
from gjflow.rk45 import integrate_rk45

C = rk45._C


def time_frames(ts):
    """Frames that are the stage times themselves."""
    return list(ts)


def writes(f):
    """The integrator's rhs for y' = f(t, y): it writes y' into its row."""
    def rhs(t, y, out):
        out[:] = f(t, y)
    return rhs


class Recorder:
    """Counts rhs calls and keeps every frames argument."""

    def __init__(self, f):
        self.f = f
        self.rhs_calls = 0
        self.frame_calls = []

    def rhs(self, t, y, out):
        self.rhs_calls += 1
        out[:] = self.f(t, y)

    def frames(self, ts):
        self.frame_calls.append(np.array(ts))
        return time_frames(ts)


def bump(t, y):
    return np.array([1.0 / (1e-3 + (t - 0.5) ** 2), np.cos(t) * y[1]])


def attempts_of(frame_calls):
    """(t, h) of every attempted step, from its 11 stage times
    t + c_1 h, ..., t + c_11 h, with c_11 = 1, which lead its frames call
    (the 3 dense-output times may follow them)."""
    out = []
    for ts in frame_calls:
        if len(ts) in (11, 14):
            h = (ts[10] - ts[0]) / (C[11] - C[1])
            out.append((ts[10] - h, h))
    return out


def accepted_of(steps, t1):
    """Whether each attempt in steps was accepted: the next one, or the
    end at t1, starts at its end."""
    starts = [t for t, _ in steps[1:]] + [t1]
    return [nxt == pytest.approx(t + h, abs=1e-14)
            for (t, h), nxt in zip(steps, starts)]


def test_lands_on_every_sample_time():
    # y' = 3 t^2 is integrated exactly up to roundoff by the 8th-order step
    # and by its 7th-order interpolant, so a sample taken away from its
    # time would show as an error of about 3 t^2 times the miss
    times = np.array([0.0, 0.0, 0.25, 0.25, 0.25, 0.6, 1.3, 2.0])
    out, _ = integrate_rk45(writes(lambda t, y: np.array([3.0 * t * t])),
                            time_frames, 0.0, 2.0, [0.0], sample_times=times)
    np.testing.assert_allclose(out[:, 0], times ** 3, rtol=1e-14, atol=1e-15)
    assert out[0, 0] == 0.0 and out[1, 0] == 0.0       # t0 rows are y0
    assert np.array_equal(out[2], out[3]) and np.array_equal(out[3], out[4])


def test_default_sample_is_t1_and_y0_untouched():
    y0 = np.array([1.0])
    out, _ = integrate_rk45(writes(lambda t, y: np.cos(t) * y), time_frames,
                            0.0, 1.0, y0, rtol=1e-9, atol=1e-12)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(np.exp(np.sin(1.0)), rel=1e-8)
    assert y0[0] == 1.0


def test_fevals_and_frames_per_attempt():
    rec = Recorder(bump)
    samples = np.linspace(0.0, 1.0, 5)
    _, stats = integrate_rk45(rec.rhs, rec.frames, 0.0, 1.0, [0.0, 1.0],
                              rtol=1e-8, atol=1e-10, sample_times=samples)
    attempts = stats.accepted + stats.rejected
    calls = rec.frame_calls
    # one call at t0, one at the probe that sizes the first step, and one
    # per attempt
    assert len(calls) == 2 + attempts
    assert np.array_equal(calls[0], [0.0])
    assert len(calls[1]) == 1 and 0.0 < calls[1][0] < 1.0
    steps = attempts_of(calls)
    assert len(steps) == attempts
    for ts, (t, h) in zip(calls[2:], steps):
        # 11 distinct stage times in stage order, which is not sorted
        np.testing.assert_allclose(ts[:11], t + C[1:12] * h, rtol=0.0,
                                   atol=1e-14)
        assert len(np.unique(ts[:11])) == 11 and ts[5] < ts[4]
    accepted = accepted_of(steps, 1.0)
    dense = sum(ok and len(ts) == 14 for ok, ts in zip(accepted, calls[2:]))
    assert stats.rejected > 0 and dense
    assert stats.fevals == (2 + 12 * stats.accepted + 11 * stats.rejected
                            + 3 * dense) == rec.rhs_calls


def test_dense_times_ride_on_the_attempt_call():
    # exactly the attempts, accepted or rejected, that hold a sample
    # strictly inside carry the three dense-output times after their own
    # 11 stage times; an attempt ending on a sample carries none
    rec = Recorder(bump)
    samples = np.linspace(0.0, 1.0, 41)
    integrate_rk45(rec.rhs, rec.frames, 0.0, 1.0, [0.0, 1.0],
                   rtol=1e-8, atol=1e-10, sample_times=samples)
    calls = rec.frame_calls[2:]
    steps = attempts_of(calls)
    accepted = accepted_of(steps, 1.0)
    holding = [bool(np.any((samples > t + 1e-12) & (samples < t + h - 1e-12)))
               for t, h in steps]
    assert any(holding) and not all(holding)
    assert any(h and not ok for h, ok in zip(holding, accepted))
    for ts, (t, h), holds in zip(calls, steps, holding):
        assert len(ts) == (14 if holds else 11)
        if holds:
            np.testing.assert_allclose(ts[11:],
                                       t + np.array([0.1, 0.2, 7.0 / 9.0]) * h,
                                       rtol=0.0, atol=1e-14)


def test_no_rhs_call_at_a_rejected_new_state():
    # after its 11 stages, an attempt evaluates y' at its new state (the
    # FSAL stage, at t + h like stage 11) only when it is accepted
    groups = []   # per frames call: its times and the rhs times that follow

    def rhs(t, y, out):
        groups[-1][1].append(t)
        out[:] = bump(t, y)

    def frames(ts):
        groups.append((np.array(ts), []))
        return time_frames(ts)

    _, stats = integrate_rk45(rhs, frames, 0.0, 1.0, [0.0, 1.0],
                              rtol=1e-8, atol=1e-10)
    attempts = [(ts, called) for ts, called in groups if len(ts) == 11]
    steps = attempts_of([ts for ts, _ in attempts])
    accepted = accepted_of(steps, 1.0)
    assert stats.rejected == accepted.count(False) > 0
    assert stats.accepted == accepted.count(True)
    for (ts, called), ok in zip(attempts, accepted):
        assert called == list(ts) + ([ts[-1]] if ok else [])


def test_state_at_rest_starts_from_the_fixed_step():
    # y' = 0 gives no slope to size the start from; the fixed start
    # 1e-3 * span grows tenfold per accepted attempt, so the run takes
    # 1e-3, 1e-2, 1e-1 and the clipped rest of the span
    rec = Recorder(lambda t, y: np.zeros_like(y))
    out, stats = integrate_rk45(rec.rhs, rec.frames, 0.0, 1.0, [1.0, -2.0],
                                sample_times=np.linspace(0.0, 1.0, 5))
    assert (stats.accepted, stats.rejected) == (4, 0)
    # the last step alone holds the inner samples
    assert stats.fevals == 2 + 12 * 4 + 3 == rec.rhs_calls
    np.testing.assert_allclose([h for _, h in attempts_of(rec.frame_calls)],
                               [1e-3, 1e-2, 1e-1, 1.0 - 0.111], rtol=1e-12)
    assert np.all(out == [1.0, -2.0])


def test_step_sequence_does_not_depend_on_samples():
    # samples come from the interpolant, so no step is clipped to one: the
    # attempts with 17 samples are those with only t1, bit for bit
    runs = []
    for samples in (None, np.linspace(0.0, 1.0, 17)):
        rec = Recorder(bump)
        out, stats = integrate_rk45(rec.rhs, rec.frames, 0.0, 1.0, [0.0, 1.0],
                                    rtol=1e-8, atol=1e-10, sample_times=samples)
        runs.append(([ts[:11] for ts in rec.frame_calls[1:]], stats, out[-1]))
    (plain, s1, end1), (sampled, s17, end17) = runs
    assert s1.rejected > 0
    assert (s17.accepted, s17.rejected) == (s1.accepted, s1.rejected)
    assert len(plain) == len(sampled)
    assert all(np.array_equal(a, b) for a, b in zip(plain, sampled))
    assert np.array_equal(end1, end17)
    assert s17.fevals > s1.fevals     # the dense-output stages


@pytest.mark.parametrize("t0, t1", [(0.0, 6.0), (6.0, 0.0)],
                         ids=["forward", "backward"])
def test_dense_output_matches_closed_form(t0, t1):
    # y' = cos(t) y, y = exp(sin t), sampled at 61 times: far more samples
    # than steps, so most of them fall between step ends
    rec = Recorder(lambda t, y: np.cos(t) * y)
    times = np.linspace(t0, t1, 61)
    out, stats = integrate_rk45(rec.rhs, rec.frames, t0, t1,
                                [np.exp(np.sin(t0))], rtol=1e-9, atol=1e-12,
                                sample_times=times)
    assert stats.accepted < 40
    assert sum(len(ts) == 14 for ts in rec.frame_calls) > 20
    np.testing.assert_allclose(out[:, 0], np.exp(np.sin(times)), rtol=1e-8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(-10.0, 10.0),
       st.floats(1e-9, 1.0).flatmap(lambda h: st.sampled_from([h, -h])),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_dense_weights_are_the_running_product(t, h, xs):
    # the scalar products equal, bit for bit and in the same memory layout,
    # the np.cumprod form they replace, which the dense output dots
    ts = [t + x * h for x in xs]
    x = (np.array(ts) - t) / h
    ref = np.cumprod([x, 1.0 - x, x, 1.0 - x, x, 1.0 - x, x], axis=0).T
    got = rk45._dense_weights(ts, t, h)
    assert got.shape == ref.shape and got.strides == ref.strides
    assert got.tobytes() == ref.tobytes()


def unfused_dop853(f, t0, t1, y0, rtol, atol, sample_times):
    """A plain DOP853 run of y' = f(t, y) with the integrator's start,
    controller and dense output, each stage state formed as
    y + h sum_j a_ij k_j from ``_A``, the error from ``_E5`` and the
    samples from ``_DENSE``. Returns (samples, stats)."""
    A, E5, DENSE = rk45._A, rk45._E5, rk45._DENSE
    rtol, atol = rtol * rk45.TOL_SCALE, atol * rk45.TOL_SCALE
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)

    def norm(v, scale):
        return np.sqrt(np.mean((v / scale) ** 2))

    def state(y, h, row, ks):
        return y + h * sum(a * k for a, k in zip(row, ks))

    y = np.array(y0, dtype=float)
    k0 = f(t0, y)
    scale = atol + rtol * np.abs(y)
    d0, d1 = norm(y, scale), norm(k0, scale)
    h0 = min(0.01 * d0 / d1 if min(d0, d1) >= 1e-5 else 1e-6, span)
    d2 = norm(f(t0 + direction * h0, y + direction * h0 * k0) - k0, scale) / h0
    h = direction * (min(span * 1e-3, 1e-2) if max(d1, d2) <= 1e-15 else
                     min(100.0 * h0, (0.01 / max(d1, d2)) ** (1.0 / 6.0), span))
    stats = rk45.IntegrationStats(fevals=2)
    samples = list(sample_times)
    out = [y for s in samples if s == t0]
    t, i = t0, len(out)
    while i < len(samples):
        last = direction * (t + h) >= direction * t1
        h_try = t1 - t if last else h
        t_new = t1 if last else t + h_try
        ks = [k0]
        for s in range(1, 12):
            ks.append(f(t + C[s] * h_try, state(y, h_try, A[s], ks)))
        stats.fevals += 11
        y_new = state(y, h_try, A[12], ks)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = abs(h_try) * norm(sum(e * k for e, k in zip(E5, ks)), scale)
        if err <= 1.0:
            stats.accepted += 1
            ks.append(f(t + C[12] * h_try, y_new))
            stats.fevals += 1
            inside = [s for s in samples[i:] if direction * (s - t_new) < 0]
            if inside:
                for s in range(13, 16):
                    ks.append(f(t + C[s] * h_try, state(y, h_try, A[s], ks)))
                stats.fevals += 3
            for ts in inside:
                x = (ts - t) / h_try
                p = np.cumprod([x, 1.0 - x, x, 1.0 - x, x, 1.0 - x, x])
                out.append(state(y, h_try, p @ DENSE, ks))
            i += len(inside)
            while i < len(samples) and samples[i] == t_new:
                out.append(y_new)
                i += 1
            t, y, k0 = t_new, y_new, ks[12]
            if not last:
                factor = rk45._MAX_FACTOR if err == 0.0 else min(
                    rk45._MAX_FACTOR, rk45._SAFETY * err ** rk45._EXPONENT)
                h = direction * abs(h_try) * factor
        else:
            stats.rejected += 1
            factor = max(rk45._MIN_FACTOR, rk45._SAFETY * err ** rk45._EXPONENT)
            h = direction * abs(h_try) * factor
    return np.array(out), stats


@pytest.mark.parametrize("samples", [1, 41], ids=["t1", "interior"])
@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize("f, y0, span", [
    # y = exp(sin t)
    (lambda t, y: np.cos(t) * y, [1.0], (0.0, 6.0)),
    # y = (exp(sin t), 1 / (1 - t))
    (lambda t, y: np.array([np.cos(t) * y[0], y[1] * y[1]]), [1.0, 1.0],
     (0.0, 0.9)),
], ids=["exp_sin", "exp_sin_and_pole"])
def test_matches_the_unfused_loop(f, y0, span, backward, samples):
    # the stage products, the reused buffers and the rhs writing into
    # its row change roundoff only: the same steps, the same samples
    t0, t1 = span[::-1] if backward else span
    if backward:
        y0 = [np.exp(np.sin(t0)), 1.0 / (1.0 - t0)][:len(y0)]
    times = np.linspace(t0, t1, samples + 1)[1:] if samples == 1 else \
        np.linspace(t0, t1, samples)
    ref, ref_stats = unfused_dop853(f, t0, t1, y0, 1e-9, 1e-12, times)
    out, stats = integrate_rk45(writes(f), time_frames, t0, t1, y0,
                                rtol=1e-9, atol=1e-12, sample_times=times)
    assert stats == ref_stats and stats.rejected + stats.accepted > 5
    np.testing.assert_allclose(out, ref, rtol=1e-13, atol=0.0)


def test_tableau_matches_published_coefficients():
    # the literal tableau against the copy that ships with scipy, entry
    # for entry (row 12 of A is b; no error weight falls on stage 12)
    from scipy.integrate._ivp import dop853_coefficients as ref
    assert np.array_equal(rk45._C, ref.C)
    a = np.zeros_like(ref.A)
    for i, row in enumerate(rk45._A):
        assert len(row) == i
        a[i, :i] = row
    assert np.array_equal(a, ref.A)
    assert np.array_equal(rk45._B, ref.B)
    assert np.array_equal(rk45._E5, ref.E5[:12]) and ref.E5[12] == 0.0
    assert np.array_equal(rk45._D, ref.D)


def test_backward_integration():
    times = np.linspace(1.0, -1.0, 6)
    out, _ = integrate_rk45(writes(lambda t, y: np.cos(t) * y), time_frames,
                            1.0, -1.0, [np.exp(np.sin(1.0))],
                            rtol=1e-9, atol=1e-12, sample_times=times)
    np.testing.assert_allclose(out[:, 0], np.exp(np.sin(times)), rtol=1e-8)


def test_matches_closed_form():
    times = np.linspace(0.0, 6.0, 13)
    out, stats = integrate_rk45(writes(lambda t, y: np.cos(t) * y), time_frames,
                                0.0, 6.0, [1.0], rtol=1e-9, atol=1e-12,
                                sample_times=times)
    assert np.max(np.abs(out[:, 0] - np.exp(np.sin(times)))) < 1e-8
    assert stats.accepted > 0


def test_step_collapse_carries_t():
    # y = 1/(1 - t) blows up at t = 1
    with pytest.raises(StepCollapse) as info:
        integrate_rk45(writes(lambda t, y: np.array([1.0 / (1.0 - t) ** 2])),
                       time_frames, 0.0, 2.0, [1.0], min_step_frac=1e-6)
    assert 0.99 < info.value.t < 1.0
    assert f"at t = {info.value.t}" in str(info.value)


def test_no_attempt_below_the_floor():
    # on the way to the blow-up at t = 1 the controller shrinks its step
    # every attempt; the only sample is t1, so no attempt is clipped and
    # each must run at a step of at least the floor
    rec = Recorder(lambda t, y: np.array([1.0 / (1.0 - t) ** 2]))
    with pytest.raises(StepCollapse) as info:
        integrate_rk45(rec.rhs, rec.frames, 0.0, 2.0, [1.0],
                       min_step_frac=1e-6)
    floor = 1e-6 * 2.0
    steps = np.array([h for _, h in attempts_of(rec.frame_calls)])
    assert len(steps) > 50
    assert np.min(steps) >= floor * (1.0 - 1e-6)
    assert 0.99 < info.value.t < 1.0


def test_rejects_empty_span_and_unordered_samples():
    with pytest.raises(ValueError, match="t1 must differ"):
        integrate_rk45(writes(lambda t, y: y), time_frames, 0.5, 0.5, [1.0])
    with pytest.raises(ValueError, match="ordered"):
        integrate_rk45(writes(lambda t, y: y), time_frames, 0.0, 1.0, [1.0],
                       sample_times=np.array([0.0, 0.6, 0.4, 1.0]))
    with pytest.raises(ValueError, match="ordered"):
        integrate_rk45(writes(lambda t, y: y), time_frames, 1.0, 0.0, [1.0],
                       sample_times=np.array([1.0, 0.2, 0.6]))
    for outside in ([-0.1, 0.5], [0.5, 1.2]):
        with pytest.raises(ValueError, match="between t0 and t1"):
            integrate_rk45(writes(lambda t, y: y), time_frames, 0.0, 1.0, [1.0],
                           sample_times=np.array(outside))


@pytest.mark.parametrize("t0, t1", [(0.0, np.inf), (0.0, -np.inf), (0.0, np.nan),
                                    (np.nan, 1.0), (-np.inf, 1.0)])
def test_rejects_non_finite_span(t0, t1):
    # an infinite t1 made the step floor infinite and every attempt a NaN
    # rejection, without end; the capped rhs turns such a loop into a failure
    calls = []

    def capped(t, y, out):
        calls.append(t)
        assert len(calls) < 1000, "the integrator ran on"
        out[:] = -y

    with pytest.raises(ValueError, match="^t0 and t1 must be finite, got "):
        integrate_rk45(capped, time_frames, t0, t1, [1.0])
    assert calls == []


@pytest.mark.parametrize("samples", [[np.nan], [0.2, np.nan, 0.8], [np.inf],
                                     [-np.inf, 0.5]])
def test_rejects_non_finite_sample_times(samples):
    # a NaN sample time passes the order and range checks, and no step
    # covers it; the capped rhs turns such a loop into a failure
    calls = []

    def capped(t, y, out):
        calls.append(t)
        assert len(calls) < 5000, "the integrator ran on"
        out[:] = -y

    with pytest.raises(ValueError, match="^sample times must be finite, got "):
        integrate_rk45(capped, time_frames, 0.0, 1.0, [1.0],
                       sample_times=np.array(samples))
    assert calls == []


def test_non_finite_slope_takes_the_fixed_start():
    # y' = 1/y from y0 = 0: the slope at the start is infinite, so the
    # first attempt has the fixed size 1e-3 (no probe evaluation); every
    # attempt fails, none is accepted, and the step collapses at t0
    rec = Recorder(lambda t, y: 1.0 / y)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(StepCollapse) as info:
        integrate_rk45(rec.rhs, rec.frames, 0.0, 1.0, np.array([0.0]))
    assert info.value.t == 0.0
    assert [len(ts) for ts in rec.frame_calls] == [1] + [11] * 13
    steps = attempts_of(rec.frame_calls)
    assert steps[0][1] == pytest.approx(1e-3, rel=1e-12)
    assert all(t == pytest.approx(0.0, abs=1e-15) for t, _ in steps)
