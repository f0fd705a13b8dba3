import numpy as np
import pytest

from gjflow import StepCollapse
from gjflow.rk45 import integrate_rk45


def time_frames(ts):
    """Frames that are the stage times themselves."""
    return list(ts)


class Recorder:
    """Counts rhs calls and keeps every frames argument."""

    def __init__(self, f):
        self.f = f
        self.rhs_calls = 0
        self.frame_calls = []

    def rhs(self, t, y):
        self.rhs_calls += 1
        return self.f(t, y)

    def frames(self, ts):
        self.frame_calls.append(np.array(ts))
        return time_frames(ts)


def bump(t, y):
    return np.array([1.0 / (1e-3 + (t - 0.5) ** 2), np.cos(t) * y[1]])


def test_lands_on_every_sample_time():
    # y' = 3 t^2 is integrated exactly up to roundoff by a 5th-order
    # method, so a sample taken away from its time would show as an error
    # of about 3 t^2 times the miss
    times = np.array([0.0, 0.0, 0.25, 0.25, 0.25, 0.6, 1.3, 2.0])
    out, _ = integrate_rk45(lambda t, y: np.array([3.0 * t * t]), time_frames,
                            0.0, 2.0, [0.0], sample_times=times)
    np.testing.assert_allclose(out[:, 0], times ** 3, rtol=1e-14, atol=1e-15)
    assert out[0, 0] == 0.0 and out[1, 0] == 0.0       # t0 rows are y0
    assert np.array_equal(out[2], out[3]) and np.array_equal(out[3], out[4])


def test_default_sample_is_t1_and_y0_untouched():
    y0 = np.array([1.0])
    out, _ = integrate_rk45(lambda t, y: np.cos(t) * y, time_frames,
                            0.0, 1.0, y0, rtol=1e-9, atol=1e-12)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(np.exp(np.sin(1.0)), rel=1e-8)
    assert y0[0] == 1.0


def test_fevals_and_frames_per_attempt():
    rec = Recorder(bump)
    _, stats = integrate_rk45(rec.rhs, rec.frames, 0.0, 1.0, [0.0, 1.0],
                              rtol=1e-8, atol=1e-10,
                              sample_times=np.linspace(0.0, 1.0, 5))
    attempts = stats.accepted + stats.rejected
    assert stats.rejected > 0
    assert stats.fevals == 1 + 6 * attempts == rec.rhs_calls
    assert len(rec.frame_calls) == 1 + attempts
    assert np.array_equal(rec.frame_calls[0], [0.0])
    for ts in rec.frame_calls[1:]:
        assert ts.shape == (5,)
        assert np.all(np.diff(ts) > 0.0)                 # 5 distinct times


def test_backward_integration():
    times = np.linspace(1.0, -1.0, 6)
    out, _ = integrate_rk45(lambda t, y: np.cos(t) * y, time_frames,
                            1.0, -1.0, [np.exp(np.sin(1.0))],
                            rtol=1e-9, atol=1e-12, sample_times=times)
    np.testing.assert_allclose(out[:, 0], np.exp(np.sin(times)), rtol=1e-8)


def test_matches_closed_form():
    times = np.linspace(0.0, 6.0, 13)
    out, stats = integrate_rk45(lambda t, y: np.cos(t) * y, time_frames,
                                0.0, 6.0, [1.0], rtol=1e-9, atol=1e-12,
                                sample_times=times)
    assert np.max(np.abs(out[:, 0] - np.exp(np.sin(times)))) < 1e-8
    assert stats.accepted > 0


def test_step_collapse_carries_t():
    # y = 1/(1 - t) blows up at t = 1
    with pytest.raises(StepCollapse) as info:
        integrate_rk45(lambda t, y: np.array([1.0 / (1.0 - t) ** 2]),
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
    # stage times run from t + h/5 to t + h
    steps = np.array([(ts[-1] - ts[0]) / 0.8 for ts in rec.frame_calls[1:]])
    assert len(steps) > 50
    assert np.min(steps) >= floor * (1.0 - 1e-6)
    assert 0.99 < info.value.t < 1.0


def test_rejects_empty_span_and_unordered_samples():
    with pytest.raises(ValueError, match="t1 must differ"):
        integrate_rk45(lambda t, y: y, time_frames, 0.5, 0.5, [1.0])
    with pytest.raises(ValueError, match="ordered"):
        integrate_rk45(lambda t, y: y, time_frames, 0.0, 1.0, [1.0],
                       sample_times=np.array([0.0, 0.6, 0.4, 1.0]))
    with pytest.raises(ValueError, match="ordered"):
        integrate_rk45(lambda t, y: y, time_frames, 1.0, 0.0, [1.0],
                       sample_times=np.array([1.0, 0.2, 0.6]))
