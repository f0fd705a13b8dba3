"""Embedded Dormand-Prince 5(4) integrator with PI step control.

Small and explicit on purpose: the deformation systems are low-dimensional
and non-stiff, and the caller needs rejection counts and a hard step-size
floor (pole-candidate diagnostic).

The right-hand side comes in two parts, so that what depends on t alone is
built once per step instead of once per stage:

- ``frames(ts)`` takes a 1-D array of times and returns a sequence of one
  frame per time, indexed by stage: whatever the state part needs at that
  time. For the gjflow flows it is the ``basis`` stack of a ``NodeFrames``,
  so a frame is one m x (m + 2) row ``[xdot | x * xdot | K]``. It is
  called once with ``[t0]`` and then once per attempted step, accepted or
  rejected, with the 5 distinct stage times ``t + c_i h`` of the tableau
  in stage order; the last two stages both sit at ``t + h`` and share one
  frame. An exception it raises propagates unchanged, so a frame builder
  may reject a time.
- ``rhs(frame, y)`` returns y' at the frame's time. It is called once per
  function evaluation: 1 + 6 per attempted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .errors import StepCollapse

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4
# stage times of one step after the first (FSAL) stage, and the frame each
# stage 1..6 reads from them
_C_STAGES = _C[1:6]
_STAGE_FRAME = (0, 1, 2, 3, 4, 4)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER = 5.0


@dataclass
class IntegrationStats:
    accepted: int = 0
    rejected: int = 0
    fevals: int = 0


def integrate_rk45(rhs: Callable[[Any, np.ndarray], np.ndarray],
                   frames: Callable[[np.ndarray], Sequence[Any]],
                   t0: float, t1: float, y0: np.ndarray,
                   rtol: float = 1e-9, atol: float = 1e-12,
                   sample_times: Optional[np.ndarray] = None,
                   min_step_frac: float = 1e-12):
    """Integrate y' = rhs(frame(t), y) from t0 to t1, landing exactly on
    sample_times (see the module docstring for ``frames`` and ``rhs``).

    Returns (samples, stats) where samples[i] is the state at sample_times[i].
    Raises StepCollapse as soon as the controller's step falls below the
    floor min_step_frac * |t1 - t0|, so no attempt runs below it; only a
    step clipped to land on a sample time, which may sit arbitrarily close,
    is exempt.
    """
    y = np.asarray(y0, dtype=float).copy()
    if sample_times is None:
        sample_times = np.array([t1])
    sample_times = np.asarray(sample_times, dtype=float)
    span = t1 - t0
    if span == 0.0:
        raise ValueError("t1 must differ from t0")
    direction = 1.0 if span > 0 else -1.0
    if np.any(direction * np.diff(sample_times) < 0):
        raise ValueError("sample times must be ordered toward t1")
    h_floor = min_step_frac * abs(span)
    sample_times = sample_times.tolist()  # read one at a time as floats

    stats = IntegrationStats()
    out = np.empty((len(sample_times), len(y)))
    t = t0
    ks = np.empty((7, len(y)))
    # stage i reads rows 0..i-1; these views follow ks as it is written
    heads = [(_A[i], ks[:i], f) for i, f in enumerate(_STAGE_FRAME, start=1)]
    ks[0] = rhs(frames(np.array([t0]))[0], y)  # FSAL: row 0 is y' at t
    abs_y = np.abs(y)
    stats.fevals += 1
    # conservative initial step; the controller adapts within a few steps
    h = direction * max(min(abs(span) * 1e-3, 1e-2), h_floor)
    err_prev = 1.0
    isample = 0
    while isample < len(sample_times) and sample_times[isample] == t0:
        out[isample] = y
        isample += 1

    while isample < len(sample_times):
        target = sample_times[isample]
        # clip the trial step to land on the next sample; the controller's
        # natural step h is only updated from unclipped attempts
        hit = direction * (t + h) >= direction * target
        h_try = target - t if hit else h
        stage_frames = frames(t + _C_STAGES * h_try)
        # each combination is y + h * (a @ k), scaled and added in place
        for i, (a, k, f) in enumerate(heads, start=1):
            yi = np.dot(a, k)
            yi *= h_try
            yi += y
            ks[i] = rhs(stage_frames[f], yi)
        stats.fevals += 6
        y_new = np.dot(_B5, ks)  # FSAL: stage 7 was evaluated at y_new
        y_new *= h_try
        y_new += y
        scaled = np.dot(_E, ks)
        scaled *= h_try
        abs_new = np.abs(y_new)
        tol = np.maximum(abs_y, abs_new)
        tol *= rtol
        tol += atol
        scaled /= tol
        err = math.sqrt(float(np.dot(scaled, scaled)) / len(scaled))
        if err <= 1.0:
            t_new = target if hit else t + h_try
            stats.accepted += 1
            t, y, abs_y = t_new, y_new, abs_new
            ks[0] = ks[6]
            if hit:
                while isample < len(sample_times) and sample_times[isample] == t:
                    out[isample] = y
                    isample += 1
            else:
                if err == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * err ** (-0.7 / _ORDER) \
                        * err_prev ** (0.4 / _ORDER)
                    factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                err_prev = max(err, 1e-4)
                h = direction * abs(h_try) * factor
        else:
            stats.rejected += 1
            factor = max(_MIN_FACTOR, _SAFETY * err ** (-1.0 / _ORDER))
            h = direction * abs(h_try) * min(1.0, factor)
        if abs(h) < h_floor:
            raise StepCollapse(
                f"step size {abs(h):.3e} below floor {h_floor:.3e} at t = {t}",
                t=t,
            )
    return out, stats
