"""Deformation flow of the recurrence coefficients as the endpoints move.

The state for a fixed degree n is (a_n, b_n, gamma_n) together with the
node ratios theta_j = Theta_n(x_j)/W'(x_j),
theta_prev_j = Theta_{n-1}(x_j)/W'(x_j), omega_j = Omega_n(x_j)/W'(x_j).
The flow carries it packed, as the vector
(a, b, gamma, theta, theta_prev, omega) of length 3 + 3m, and ``evolve``
reports the sampled states as the rows of one array. The closed system of
ODEs in t is integrated with the Dormand-Prince 8(5,3) pair of ``rk45``,
sampled through its dense output, and cross-validated against full
recomputation from quadrature: ``init_states`` builds the states at any
number of times from the stacked absorbed rules with one Stieltjes
recurrence over all of them, which yields the coefficients and p_n,
p_{n-1} at the rule points and nodes alike. ``evolve`` starts from its
row 0 at t0; ``init_state`` is the named view (``EvolutionState``) of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List

import numpy as np

from .errors import InitFailure
from .ladder import LadderValues, _ladder_nodes
from .orthopoly import eval_polynomial
from .rk45 import IntegrationStats, integrate_rk45
from .weights import (GeneralizedJacobiWeight, NodeFrames, check_span,
                      node_data, stage_node_data)


@dataclass(frozen=True)
class EvolutionState:
    """Flow state at one time for a fixed degree n."""

    t: float
    n: int
    a: float
    b: float
    gamma: float
    theta: np.ndarray
    theta_prev: np.ndarray
    omega: np.ndarray

    def pack(self) -> np.ndarray:
        return np.concatenate(
            ([self.a, self.b, self.gamma], self.theta, self.theta_prev, self.omega)
        )


def _conserved_sums(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The five Lagrange leading-coefficient sums conserved by the flow, of
    packed states y at node positions x: the sums of theta, theta_prev,
    x * theta, x * theta_prev and omega, along the last axis (rows of y
    and x are times)."""
    m = x.shape[-1]
    theta, theta_prev, omega = (y[..., 3 + i * m:3 + (i + 1) * m]
                                for i in range(3))
    return np.stack([np.sum(theta, axis=-1), np.sum(theta_prev, axis=-1),
                     np.sum(x * theta, axis=-1), np.sum(x * theta_prev, axis=-1),
                     np.sum(omega, axis=-1)], axis=-1)


@dataclass
class EvolutionReport:
    """Sampled flow states of the weight ``w`` with integrator stats and,
    computed on first read, the conservation drifts."""

    w: GeneralizedJacobiWeight
    n: int
    times: np.ndarray
    ys: np.ndarray              # samples x (3 + 3m), packed states
    stats: IntegrationStats

    @cached_property
    def drifts(self) -> np.ndarray:
        """samples x 5: the conserved sums at each sample minus those at
        t0 (times[0] is t0, so row 0 holds the sums at t0)."""
        sums = _conserved_sums(self.ys,
                               self.w.trajectory.positions(self.times[:, None]))
        return sums - sums[0]


@lru_cache(maxsize=8)
def _term_table(m: int):
    """The deformation system at m endpoints as a table of monomials.

    Each right-hand side component is a sum of terms coef * z[f1] * z[f2]
    * z[f3] over the factor vector z = [y, U @ B, 1, a^2], where U holds
    the node ratio rows theta, theta_prev, omega of the packed state y and
    B = [xdot | x * xdot | K] is one row of ``NodeFrames.basis``; so
    (U @ B)[i] holds U_i . xdot, U_i . (x * xdot) and K U_i (K is
    symmetric). Returns the 3 x terms array of factor indices and the
    (3 + 3m) x terms coefficient matrix.
    """
    j = np.arange(m)
    th, tp, om = 3 + j, 3 + m + j, 3 + 2 * m + j
    ub = 3 + 3 * m
    s_th, s_tp, s_om = ub, ub + m + 2, ub + 2 * (m + 2)
    k_th, k_tp, k_om = s_th + 2 + j, s_tp + 2 + j, s_om + 2 + j
    one = ub + 3 * (m + 2)
    a, b, gamma, asq = 0, 1, 2, one + 1
    # the derivative has the layout of y, so theta_j's row is th[j], etc.
    # gamma_dot/gamma = -s_th/2; gamma_{n-1} = a_n gamma_n gives
    # gamma_dot_{n-1}/gamma_{n-1} = a_dot/a + gamma_dot/gamma = -s_tp/2.
    # The kernel sums enter through cross(u, v) = v (K u) - u (K v).
    terms = [  # (output, coefficient, factor, factor, factor)
        (a, 0.5, a, s_th, one), (a, -0.5, a, s_tp, one),
        (b, 1.0, s_th + 1, one, one), (b, -1.0, b, s_th, one),
        (b, -2.0, s_om, one, one),
        (gamma, -0.5, gamma, s_th, one),
        (th, -1.0, s_th, th, one), (th, -2.0, om, k_th, one),
        (th, 2.0, th, k_om, one),
        (tp, 1.0, s_tp, tp, one), (tp, 2.0, om, k_tp, one),
        (tp, -2.0, tp, k_om, one),
        (om, 1.0, asq, th, k_tp), (om, -1.0, asq, tp, k_th),
    ]
    rows = [np.broadcast_arrays(*term) for term in terms]
    out, coef, f1, f2, f3 = (np.concatenate([r[col].ravel() for r in rows])
                             for col in range(5))
    coefs = np.zeros((3 + 3 * m, len(coef)))
    coefs[out, np.arange(len(coef))] = coef
    factors = np.stack((f1, f2, f3)).astype(np.intp)
    for arr in (factors, coefs):
        arr.setflags(write=False)
    return factors, coefs


def _rhs_buffer(m: int):
    """Everything ``evolution_rhs`` reads and writes at m endpoints, built
    once per flow: the factor vector z of ``_term_table(m)`` with its fixed
    1.0 in place; its views, the packed state y, the node-ratio rows U
    (3 x m) and U @ basis (3 x (m + 2)); the table; and the product of
    the three factors of each term."""
    k = 3 + 3 * m
    z = np.empty(k + 3 * (m + 2) + 2)
    z[-2] = 1.0
    factors, coefs = _term_table(m)
    return (z, z[:k], z[3:k].reshape(3, m), z[k:-2].reshape(3, m + 2),
            factors, coefs, np.empty(factors.shape[1]))


def evolution_rhs(y: np.ndarray, basis: np.ndarray, buf=None,
                  out=None) -> np.ndarray:
    """Time derivative of the packed state y at the frame ``basis``,
    written into ``out`` (a new array without it) and returned.

    ``y`` is ``EvolutionState.pack()``: (a, b, gamma), then theta,
    theta_prev and omega as the rows of ``U = y[3:].reshape(3, m)``;
    ``basis`` is the m x (m + 2) matrix ``[xdot | x * xdot | K]``, one
    frame of ``NodeFrames.basis``. The system is a
    polynomial of degree at most 3 in y whose coefficients depend on t only
    through ``basis``: one ``U @ basis`` gives every dot and kernel
    product, and the terms of ``_term_table`` turn them into the
    derivative with one gather, one running product over the three
    gathered factors of each term and one matmul.

    ``buf`` is the ``_rhs_buffer(m)`` that one flow builds once and
    reuses for all its calls: the term table is read from it, and the
    factor vector and the products of the terms are written into it;
    without it a fresh one is made. ``y`` is only read, so ``out`` may be
    a row of the integrator's stage array.
    """
    z, y_part, u, ub, factors, coefs, prod = \
        _rhs_buffer(len(basis)) if buf is None else buf
    y_part[...] = y
    u.dot(basis, ub)
    a = y_part.item(0)
    z[-1] = a * a
    # (z[f1] * z[f2]) * z[f3] for each term, in one reduction
    np.multiply.reduce(z[factors], 0, None, prod)
    return coefs.dot(prod, out)


def init_states(w: GeneralizedJacobiWeight, n: int, ts,
                npts: int | None = None) -> np.ndarray:
    """Build the packed flow states at the times ts from the direct
    quadrature oracles: one row of ``EvolutionState.pack()`` per time.

    ``ladder._ladder_nodes`` gives a_n, b_n, gamma_n and the ladder node
    values at all times from one pass; dividing by W'(x_j) gives the node
    ratios. Each time is checked on its own; InitFailure names the first
    time whose state cannot be built, with the underlying message.
    """
    if n < 1:
        raise InitFailure("flow state needs n >= 1 (carries Theta_{n-1})")
    if np.any(w.alpha <= 0.0):
        raise InitFailure("evolution requires all exponents alpha_k > 0")
    ts = np.asarray(ts, dtype=float)
    try:
        table, frames, _, lv = _ladder_nodes(w, ts, n, npts)
    except Exception as exc:  # noqa: BLE001 - surfaced as one condition
        # the first failing time of the step that failed (ordering check or
        # recurrence); the times before it passed that step, not all steps
        i = getattr(exc, "row", 0)
        if i:
            init_states(w, n, ts[:i], npts)
        raise InitFailure(
            f"state initialization failed at t={ts[i]}: {exc}") from exc
    wprime = frames.wprime
    return np.column_stack((table.a[:, n], table.b[:, n], table.gamma[:, n],
                            lv.theta / wprime, lv.theta_prev / wprime,
                            lv.omega / wprime))


def init_state(w: GeneralizedJacobiWeight, n: int, t: float,
               npts: int | None = None) -> EvolutionState:
    """The flow state at time t: ``init_states`` at one time."""
    y = init_states(w, n, (t,), npts)[0]
    return EvolutionState(float(t), n, *y[:3].tolist(), *y[3:].reshape(3, -1))


def evolve(w: GeneralizedJacobiWeight, n: int, t_span, tol=(1e-9, 1e-12),
           sample_count: int = 20, npts: int | None = None,
           y0=None) -> EvolutionReport:
    """Integrate the deformation system over t_span, sampling uniformly.

    The flow starts from the packed state y0 at t_span[0]; without it,
    from row 0 of ``init_states`` there, once ``check_span`` passes.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    check_span(w, t0, t1)
    rtol, atol = tol
    if y0 is None:
        y0 = init_states(w, n, (t0,), npts)[0]
    times = np.linspace(t0, t1, sample_count)
    buf = _rhs_buffer(w.m)

    def rhs(basis, y, out):
        evolution_rhs(y, basis, buf, out)

    ys, stats = integrate_rk45(rhs, lambda ts: stage_node_data(w, ts).basis, t0,
                               t1, y0, rtol=rtol, atol=atol, sample_times=times)
    return EvolutionReport(w=w, n=n, times=times, ys=ys, stats=stats)


def _state_labels(m: int) -> List[str]:
    """The names of the 3 + 3m components of a packed state."""
    return ["a", "b", "gamma", *(f"{name}_{j + 1}" for name in
                                 ("theta", "theta_prev", "omega") for j in range(m))]


@dataclass
class VerificationTable:
    """Per-sample relative deviations between the flow and the direct oracle."""

    times: np.ndarray
    labels: List[str]
    deviations: np.ndarray  # samples x components

    @property
    def max_deviation(self) -> float:
        return float(np.max(self.deviations))


def _relative(dev: np.ndarray, ref: np.ndarray) -> np.ndarray:
    # relative with an absolute floor of 1 so near-zero components (e.g. b_n
    # of a symmetric weight) are judged on absolute error
    return np.abs(dev) / np.maximum(np.abs(ref), 1.0)


def verify_against_direct(report: EvolutionReport,
                          direct: np.ndarray) -> VerificationTable:
    """Tabulate the deviations of the sampled states of ``report`` from the
    oracle states ``direct`` at its times, such as ``init_states`` over
    ``report.times``."""
    return VerificationTable(times=report.times.copy(),
                             labels=_state_labels(report.w.m),
                             deviations=_relative(report.ys - direct, direct))


@dataclass(frozen=True)
class TimeDerivativeCheck:
    """Residuals of the explicit d/dt formulas against finite differences."""

    residual_offnode: float   # dp_n/dt at fixed x vs the expansion formula
    residual_node: float      # d/dt p_n(x_j(t), t) vs the node formula
    fd_offnode: float
    formula_offnode: float
    fd_node: float
    formula_node: float


def _dp_dt_formula(w, table, lv: LadderValues, nd: NodeFrames, n: int, x: float,
                   frame_velocity: float = 0.0):
    """Right side of the dp_n/dt expansion at x, seen from a frame moving at
    frame_velocity.

    With frame_velocity 0 this is dp_n/dt at a fixed off-node x. At x = x_j
    with frame_velocity xdot_j it is d/dt p_n(x_j(t), t): each xdot_k
    becomes xdot_k - xdot_j, and the k = j term, 0 * L_j(x_j)/0 with
    L_j(x_j) = W p_n'(x_j) = 0, is dropped. Terms whose velocity vanishes
    are dropped in general; they contribute 0 wherever they are finite.
    """
    gdot_over_g = -0.5 * float(np.sum(nd.xdot * lv.theta / nd.wprime))
    pn, _, pnm1 = eval_polynomial(table, n, x)
    a_n = float(table.a[n])
    V_nodes = 0.5 * w.alpha * nd.wprime
    v = nd.xdot - frame_velocity
    k = v != 0.0
    terms = v[k] * ((lv.omega[k] - V_nodes[k]) * pn - a_n * lv.theta[k] * pnm1) \
        / (nd.wprime[k] * (x - nd.x[k]))
    return gdot_over_g * pn - float(np.sum(terms))


def pn_time_derivative_check(w: GeneralizedJacobiWeight, n: int, x: float,
                             t: float, h: float, j: int = 0,
                             npts: int | None = None) -> TimeDerivativeCheck:
    """Compare the explicit time-derivative formulas for p_n with centered
    finite differences of tables recomputed at t +/- h.

    The off-node check holds x fixed; the node check follows the moving
    endpoint x_j(t). One ``_ladder_nodes`` pass at t, t + h and t - h gives
    the three tables, the node positions at t +/- h and the node values at t.
    """
    tables, frames, _, lv = _ladder_nodes(w, (t, t + h, t - h), n, npts)
    table, lv, nd = tables.row(0), lv.row(0), node_data(w, t)
    # fixed x off node, then along the node trajectory x_j(t)
    formula = _dp_dt_formula(w, table, lv, nd, n, x)
    formula_j = _dp_dt_formula(w, table, lv, nd, n, nd.x[j], nd.xdot[j])
    p_plus, p_minus = (eval_polynomial(tables.row(i), n, [x, frames.x[i, j]])[0]
                       for i in (1, 2))
    fd, fd_j = ((p_plus - p_minus) / (2.0 * h)).tolist()
    res_off = abs(fd - formula) / max(abs(fd), abs(formula), 1.0)
    res_node = abs(fd_j - formula_j) / max(abs(fd_j), abs(formula_j), 1.0)

    return TimeDerivativeCheck(
        residual_offnode=res_off, residual_node=res_node,
        fd_offnode=fd, formula_offnode=formula,
        fd_node=fd_j, formula_node=formula_j,
    )
