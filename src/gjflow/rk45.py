"""Dormand-Prince 8(5,3) integrator with 7th-order dense output.

Small and explicit on purpose: the deformation systems are low-dimensional
and non-stiff, and the caller needs rejection counts and a hard step-size
floor (pole-candidate diagnostic).

The method is DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., section II.10): an 8th-order step of
12 stages, whose first is y' at the start, evaluated by the step before
at its new state (FSAL), so that an attempt evaluates stages 1..11 and
only an accepted one y' at its new state (the error estimate puts no
weight on it); an embedded 5th-order error estimate; and 3 further
stages that make a continuous 7th-order extension of an accepted step.
Sample times are read off that extension, so the step sizes are the
controller's alone: only the step that would pass t1 is clipped, to end
on it. The extension at t + x h is y + h (p(x) @ _DENSE) @ k over the
step's 16 stages k, with the 7 weights p(x) = x, x (1 - x), x^2 (1 - x),
..., x^4 (1 - x)^3. Per sample they are scalar float products, each the
one before it times x or 1 - x, in the order of a running product (the
bits of ``np.cumprod`` over the same factors); one matrix product of the
samples' weights with ``_DENSE @ k`` then gives all the samples of a
step.

The right-hand side comes in two parts, so that what depends on t alone is
built once per step instead of once per stage:

- ``frames(ts)`` takes a 1-D array of times and returns a sequence of one
  frame per time, indexed by stage: whatever the state part needs at that
  time. For the gjflow flows it is the ``basis`` stack of a ``NodeFrames``,
  so a frame is one m x (m + 2) row ``[xdot | x * xdot | K]``. It is
  called once with ``[t0]``; once with the probe time of the start step
  (below); then once per attempted step, accepted or rejected, with the 11
  distinct stage times ``t + c_i h`` (i = 1..11) of the tableau in stage
  order, which is not sorted (c_6 < c_5), the FSAL stage sharing the frame
  of stage 11 at ``t + h``. When a sample time lies strictly inside the
  attempt, the 3 dense-output stage times ``t + (1/10, 1/5, 7/9) h``
  follow in the same call, so one call serves the attempt and its dense
  output. An exception it raises propagates unchanged, so a frame builder
  may reject a time.
- ``rhs(frame, y, out)`` writes y' at the frame's time into ``out``, a
  row of the integrator's stage array; its return value is ignored. ``y``
  is a buffer that the integrator reuses, so the rhs must neither write
  nor keep it. It is called once per function evaluation: 1 at t0, 1 at
  the probe, 11 per attempted step, 1 more per accepted step and 3 per
  accepted step with dense output.

The stages of a step live in one array whose row 0 is y and whose row
1 + i is stage i. Each attempt scales the tableau, extended by a leading
column of ones, once to ``[1 | h A]``, so that the state of each stage,
the 3 dense-output stages included, ``y + h sum_j a_ij k_j``, is one
product of a row of it with the rows before the stage, written into one
reused buffer.

The first step is sized from the start (Hairer, Norsett & Wanner, section
II.4): from the norms d0 of y0 and d1 of y'(t0), a probe step
h0 = 0.01 d0 / d1 gives d2, the norm of the change of slope over it per
unit time, and the start is ``min(100 h0, (0.01 / max(d1, d2))^(1/6))``,
at most the span and at least the step floor; the exponent is that of the
5th-order error estimate. Where the slopes are zero (a state at rest),
the start is the fixed ``min(1e-3 span, 1e-2)``. A sized start spares the
two or three attempts the controller would spend growing a fixed one to
the steps that it keeps.

Error control: the controller keeps the 5th-order estimate of each step
within ``TOL_SCALE`` times ``atol + rtol * |y|`` (root mean square over
the components), with plain (not PI) step-size control. DOP853 as
published divides that estimate by a blend with its 3rd-order one. That
lets the steps grow until the interpolant, whose error neither estimate
bounds, is the least accurate part of a flow: with the blend and a scale
of 0.01, the worst sample of 550 ``verify`` configs of
``perfbench/workloads.py`` read 8.5 digits against 9.1 for the
Dormand-Prince 5(4) pair this integrator replaced. The 5th-order
estimate alone over-states the 8th-order step's error, and at a scale of
3 the flows come out more accurate than with that pair at the same rtol,
on average and at worst (measured against the quadrature oracles; see
``docs/formats.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .errors import StepCollapse

#: factor on the caller's rtol and atol (see the module docstring)
TOL_SCALE = 3.0

# DOP853 tableau: nodes c_0..c_15 (c_12 = 1 is the FSAL stage, c_13..c_15
# the dense-output stages) and row i of A for stages 1..15; row 12 is the
# 8th-order weights b
_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])
_A = [np.array(row) for row in (
    [],
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1],
    [5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2],
    [5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3],
    [3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1],
    [-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
     0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138],
)]
_B = _A[12]
# weights of the 5th-order error estimate h * E5 @ k over stages 0..11
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
])
# dense output: rows 3..6 of the interpolant's coefficients are h * D @ k
# over all 16 stages (rows 0..2 come from y, y_new and the end slopes)
_D = np.array([
    [-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3],
])
# the interpolant of a step from (t, y) with stages k_0..k_15 is
# y + h * (p(x) @ _DENSE) @ k at t + x h, p(x) the 7 products
# x, x(1-x), x^2(1-x), ..., x^4(1-x)^3: rows 0..2 are the Hermite part,
# from y_new - y = h * b @ k and the end slopes k_0 and k_12, rows 3..6 D
_DENSE = np.zeros((7, 16))
_DENSE[0, :12] = _B
_DENSE[1, :12] = -_B
_DENSE[2, :12] = 2.0 * _B
_DENSE[1, 0] += 1.0
_DENSE[2, [0, 12]] -= 1.0
_DENSE[3:] = _D
# stage times of one step after the first (FSAL) stage, i.e. of stages
# 1..11 (stage 12, at t + h, shares the frame of stage 11), alone and
# followed by the 3 dense-output stage times
_C_STAGES = _C[1:12]
_C_WITH_DENSE = np.concatenate((_C_STAGES, _C[13:]))
# rows 0..15 of A, zero-padded to 15 columns; one product per attempt
# scales it by h into the extended tableau [1 | h A]
_A_STAGES = np.array([np.pad(row, (0, 15 - len(row))) for row in _A])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXPONENT = -1.0 / 8.0


@dataclass
class IntegrationStats:
    accepted: int = 0
    rejected: int = 0
    fevals: int = 0


def _dense_weights(ts, t: float, h: float) -> np.ndarray:
    """The 7 products p(x) of the interpolant at x = (s - t) / h for each
    time s of ``ts``, one row per time: scalar float products, each the
    one before it times x or 1 - x, in the order of a running product."""
    rows = []
    for s in ts:
        x = (s - t) / h
        y = 1.0 - x
        p1 = x * y
        p2 = p1 * x
        p3 = p2 * y
        p4 = p3 * x
        p5 = p4 * y
        rows.append((x, p1, p2, p3, p4, p5, p5 * x))
    return np.array(rows, order="F")


def _dense(rhs, dense_frames, heads, yi, stages, t: float, h: float,
           ts) -> np.ndarray:
    """States at the times ts inside the accepted step of size h from
    (t, y), from the 7th-order continuous extension. ``stages`` holds y
    and then the step's stages 0..12 (stage 12 is y' at the new state);
    stages 13..15 are evaluated into it here, at the frames of the 3
    dense-output times, through their ``heads`` of ``integrate_rk45`` and
    its state buffer ``yi``."""
    for (a, k, ki), frame in zip(heads, dense_frames):
        a.dot(k, yi)
        rhs(frame, yi, ki)
    out = np.dot(_dense_weights(ts, t, h), np.dot(_DENSE, stages[1:]))
    out *= h
    out += stages[0]
    return out


def _start_step(rhs, frames, t0: float, y0, f0, direction: float,
                span: float, tol, stats: IntegrationStats) -> float:
    """Size of the first step (see the module docstring), from y0, its
    slope f0 and one probe evaluation, counted in ``stats``; a norm is the
    controller's, the root mean square of a vector over ``tol``. A slope
    that is not finite gives the fixed start too, with no probe."""
    def norm(v):
        v = v / tol
        return math.sqrt(float(np.dot(v, v)) / len(v))

    fixed = min(span * 1e-3, 1e-2)
    d0, d1 = norm(y0), norm(f0)
    if not math.isfinite(d0 + d1):
        return fixed
    h0 = min(0.01 * d0 / d1 if min(d0, d1) >= 1e-5 else 1e-6, span)
    f1 = np.empty_like(f0)
    rhs(frames(np.array([t0 + direction * h0]))[0],
        y0 + (direction * h0) * f0, f1)
    stats.fevals += 1
    d2 = norm(f1 - f0) / h0
    if max(d1, d2) <= 1e-15:
        return fixed
    # the controller's estimate is of 5th order: a step's error goes as h^6
    return min(100.0 * h0, (0.01 / max(d1, d2)) ** (1.0 / 6.0), span)


def integrate_rk45(rhs: Callable[[Any, np.ndarray, np.ndarray], Any],
                   frames: Callable[[np.ndarray], Sequence[Any]],
                   t0: float, t1: float, y0: np.ndarray,
                   rtol: float = 1e-9, atol: float = 1e-12,
                   sample_times: Optional[np.ndarray] = None,
                   min_step_frac: float = 1e-12):
    """Integrate y' = rhs(frame(t), y) from t0 toward t1 and return the
    states at sample_times (see the module docstring for ``frames`` and
    ``rhs``).

    Returns (samples, stats) where samples[i] is the state at sample_times[i],
    which must lie between t0 and t1, ordered toward t1; the integration
    stops at the step that covers the last of them. Raises StepCollapse as
    soon as the controller's step falls below the floor
    min_step_frac * |t1 - t0|, so no attempt runs below it; only the step
    clipped to end on t1, which may sit arbitrarily close, is exempt.
    Raises ValueError unless t0, t1 and the sample times are finite and t0
    and t1 differ.
    """
    y = np.asarray(y0, dtype=float)
    if sample_times is None:
        sample_times = np.array([t1])
    sample_times = np.asarray(sample_times, dtype=float)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got {t0} and {t1}")
    span = t1 - t0
    if span == 0.0:
        raise ValueError("t1 must differ from t0")
    direction = 1.0 if span > 0 else -1.0
    samples = sample_times.tolist()  # read one at a time as floats
    nsamples = len(samples)
    if not all(map(math.isfinite, samples)):
        raise ValueError(f"sample times must be finite, got {samples}")
    if any(direction * (b - a) < 0 for a, b in zip(samples, samples[1:])):
        raise ValueError("sample times must be ordered toward t1")
    if nsamples and (direction * (samples[0] - t0) < 0
                     or direction * (samples[-1] - t1) > 0):
        raise ValueError("sample times must lie between t0 and t1")
    h_floor = min_step_frac * abs(span)
    rtol, atol = rtol * TOL_SCALE, atol * TOL_SCALE

    stats = IntegrationStats()
    out = np.empty((nsamples, len(y)))
    t = t0
    # row 0 is y, row 1 + i stage i; the state of stage i is row i of
    # [1 | h A] times rows 0..i, one product into the reused buffer yi,
    # and the rhs writes the stage into its own row
    stages = np.empty((17, len(y)))
    stages[0] = y
    y, ks = stages[0], stages[1:]
    a_h = np.empty((16, 16))  # [1 | _A_STAGES * h] of the attempt
    a_h[:, 0] = 1.0
    h_a = a_h[:, 1:]  # its h A part
    # the stage state; the new state, its and y's magnitudes (swapped on
    # acceptance), the error scale and the scaled error estimate: reused
    # by every attempt
    yi, y_new, abs_new, tol, scaled = np.empty((5, len(y)))
    heads = [(a_h[i, :i + 1], stages[:i + 1], ks[i]) for i in range(1, 16)]
    # the new state is the combination of stage 12, whose y' is taken
    # only on acceptance
    b_h, new_terms = heads[11][:2]
    rhs(frames(np.array([t0]))[0], y, ks[0])  # FSAL: ks[0] is y' at t
    abs_y = np.abs(y)
    stats.fevals += 1
    h = direction * max(_start_step(rhs, frames, t0, y, ks[0], direction,
                                    abs(span), atol + rtol * abs_y, stats),
                        h_floor)
    isample = 0
    while isample < nsamples and samples[isample] == t0:
        out[isample] = y
        isample += 1

    while isample < nsamples:
        # only a step that would pass t1 is clipped, to end on it; the
        # controller's natural step h is only updated from unclipped attempts
        last = direction * (t + h) >= direction * t1
        h_try = t1 - t if last else h
        t_new = t1 if last else t + h_try
        # the dense-output times ride on the attempt's own frames call
        # when a sample lies strictly inside it
        dense = direction * (samples[isample] - t_new) < 0
        stage_frames = frames(
            t + (_C_WITH_DENSE if dense else _C_STAGES) * h_try)
        np.multiply(_A_STAGES, h_try, out=h_a)
        for (a, k, ki), frame in zip(heads, stage_frames[:11]):
            a.dot(k, yi)
            rhs(frame, yi, ki)
        stats.fevals += 11
        b_h.dot(new_terms, y_new)
        np.abs(y_new, abs_new)
        np.maximum(abs_y, abs_new, out=tol)
        tol *= rtol
        tol += atol
        _E5.dot(ks[:12], scaled)
        scaled /= tol
        err = abs(h_try) * math.sqrt(float(scaled.dot(scaled)) / len(y))
        if err <= 1.0:
            rhs(stage_frames[10], y_new, ks[12])  # FSAL: y' at t_new
            stats.fevals += 1
            stats.accepted += 1
            if dense:
                inside = isample + 1
                while (inside < nsamples
                       and direction * (samples[inside] - t_new) < 0):
                    inside += 1
                out[isample:inside] = _dense(rhs, stage_frames[11:],
                                             heads[12:], yi, stages, t, h_try,
                                             samples[isample:inside])
                stats.fevals += 3
                isample = inside
            while isample < nsamples and samples[isample] == t_new:
                out[isample] = y_new
                isample += 1
            t, abs_y, abs_new = t_new, abs_new, abs_y
            y[:] = y_new
            ks[0] = ks[12]
            if not last:
                factor = _MAX_FACTOR if err == 0.0 else \
                    min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT)
                h = direction * abs(h_try) * factor
        else:
            stats.rejected += 1
            factor = max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            h = direction * abs(h_try) * factor
        if abs(h) < h_floor:
            raise StepCollapse(
                f"step size {abs(h):.3e} below floor {h_floor:.3e} at t = {t}",
                t=t,
            )
    return out, stats
