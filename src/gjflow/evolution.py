"""Deformation flow of the recurrence coefficients as the endpoints move.

The state for a fixed degree n is (a_n, b_n, gamma_n) together with the
node ratios theta_j = Theta_n(x_j)/W'(x_j),
theta_prev_j = Theta_{n-1}(x_j)/W'(x_j), omega_j = Omega_n(x_j)/W'(x_j).
The integrator carries it packed, as the vector
(a, b, gamma, theta, theta_prev, omega) of length 3 + 3m that
``EvolutionState.pack`` returns; ``EvolutionState`` itself is built only at
the sample times. The closed system of ODEs in t is integrated with an
embedded RK 4(5) pair and cross-validated against full recomputation from
quadrature: ``init_states`` rebuilds the states at any number of times
from the stacked absorbed rules with one Stieltjes recurrence over all of
them, which yields the coefficients and p_n, p_{n-1} at the rule points
and nodes alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List

import numpy as np

from .errors import (EndpointCollision, InitFailure, NonDistinctEndpoints,
                     StepCollapse)
from .ladder import LadderValues, _ladder_nodes, ladder_init
from .orthopoly import eval_polynomial, stieltjes_procedure
from .quadrature import DEFAULT_NPTS
from .rk45 import IntegrationStats, integrate_rk45
from .weights import (GeneralizedJacobiWeight, NodeData, _flow_frames,
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

    @staticmethod
    def unpack(t: float, n: int, m: int, y: np.ndarray) -> "EvolutionState":
        return EvolutionState(
            t=float(t), n=n,
            a=float(y[0]), b=float(y[1]), gamma=float(y[2]),
            theta=y[3:3 + m].copy(),
            theta_prev=y[3 + m:3 + 2 * m].copy(),
            omega=y[3 + 2 * m:3 + 3 * m].copy(),
        )

    def conserved_sums(self, x: np.ndarray) -> np.ndarray:
        """The five Lagrange leading-coefficient sums conserved by the flow."""
        return np.array([
            np.sum(self.theta),
            np.sum(self.theta_prev),
            np.sum(x * self.theta),
            np.sum(x * self.theta_prev),
            np.sum(self.omega),
        ])


@dataclass
class EvolutionReport:
    """Sampled flow states with conservation drifts and integrator stats."""

    n: int
    times: np.ndarray
    states: List[EvolutionState]
    drifts: np.ndarray          # samples x 5, vs the sums at t0
    stats: IntegrationStats


@lru_cache(maxsize=8)
def _term_table(m: int):
    """The deformation system at m endpoints as a table of monomials.

    Each right-hand side component is a sum of terms coef * z[f1] * z[f2]
    * z[f3] over the factor vector z = [y, U @ B, 1, a^2], where U holds
    the node ratio rows theta, theta_prev, omega of the packed state y and
    B = [xdot | x * xdot | K] is ``NodeData.basis``; so (U @ B)[i] holds
    U_i . xdot, U_i . (x * xdot) and K U_i (K is symmetric). Returns the
    three factor index arrays and the (3 + 3m) x terms coefficient matrix.
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
    table = tuple(f.astype(np.intp) for f in (f1, f2, f3)) + (coefs,)
    for arr in table:
        arr.setflags(write=False)
    return table


def evolution_rhs(y: np.ndarray, nd: NodeData) -> np.ndarray:
    """Time derivative of the packed state y at the given node data.

    ``y`` is ``EvolutionState.pack()``: (a, b, gamma), then theta,
    theta_prev and omega as the rows of ``U = y[3:].reshape(3, m)``. The
    system is a polynomial of degree at most 3 in y whose coefficients
    depend on t only through ``nd.basis``: one ``U @ basis`` gives every
    dot and kernel product, and the terms of ``_term_table`` turn them into
    the derivative with three gathers, one product and one matmul.
    """
    m = len(nd.x)
    f1, f2, f3, coefs = _term_table(m)
    ub = y[3:].reshape(3, m) @ nd.basis
    z = np.concatenate((y, ub.ravel(), (1.0, y[0] * y[0])))
    return coefs @ (z[f1] * z[f2] * z[f3])


def init_states(w: GeneralizedJacobiWeight, n: int, ts,
                npts: int = DEFAULT_NPTS) -> np.ndarray:
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
        table, wprime, _, lv = _ladder_nodes(w, ts, n, npts)
    except Exception as exc:  # noqa: BLE001 - surfaced as one condition
        # the first failing time of the step that failed (ordering check or
        # recurrence); the times before it passed that step, not all steps
        i = (int(np.argmax(ts == exc.t)) if isinstance(exc, NonDistinctEndpoints)
             else getattr(exc, "row", 0))
        if i:
            init_states(w, n, ts[:i], npts)
        raise InitFailure(
            f"state initialization failed at t={ts[i]}: {exc}") from exc
    return np.column_stack((table.a[:, n], table.b[:, n], table.gamma[:, n],
                            lv.theta / wprime, lv.theta_prev / wprime,
                            lv.omega / wprime))


def init_state(w: GeneralizedJacobiWeight, n: int, t: float,
               npts: int = DEFAULT_NPTS) -> EvolutionState:
    """The flow state at time t: ``init_states`` at one time."""
    y = init_states(w, n, (t,), npts)[0]
    return EvolutionState(float(t), n, *y[:3].tolist(), *y[3:].reshape(3, -1))


def evolve(w: GeneralizedJacobiWeight, n: int, t_span, tol=(1e-9, 1e-12),
           sample_count: int = 20, npts: int = DEFAULT_NPTS) -> EvolutionReport:
    """Integrate the deformation system over t_span, sampling uniformly."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    rtol, atol = tol
    state0 = init_state(w, n, t0, npts)
    m = w.m
    times = np.linspace(t0, t1, sample_count)

    def rhs(nd, y):
        return evolution_rhs(y, nd)

    try:
        ys, stats = integrate_rk45(rhs, _flow_frames(w), t0, t1, state0.pack(),
                                   rtol=rtol, atol=atol, sample_times=times)
    except StepCollapse as exc:
        # a vanishing step right before two endpoints meet is the collision
        # announcing itself; report it as such when the gap has degenerated
        pos = np.sort(w.trajectory.positions(exc.t))
        span = max(pos[-1] - pos[0], 1.0)
        if np.min(np.diff(pos)) < 1e-8 * span:
            raise EndpointCollision(
                f"endpoints nearly coincide at t = {exc.t}", t=exc.t) from exc
        raise
    states = [EvolutionState.unpack(t, n, m, y) for t, y in zip(times, ys)]
    # times[0] is t0 and states[0] is state0, so row 0 holds the sums at t0
    sums = np.array([s.conserved_sums(nd.x)
                     for s, nd in zip(states, stage_node_data(w, times))])
    drifts = sums - sums[0]
    return EvolutionReport(n=n, times=times, states=states, drifts=drifts,
                           stats=stats)


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


def verify_against_direct(w: GeneralizedJacobiWeight, n: int,
                          report: EvolutionReport,
                          npts: int = DEFAULT_NPTS) -> VerificationTable:
    """Recompute the sampled states from scratch, all in one
    ``init_states``, and tabulate the deviations."""
    m = w.m
    labels = ["a", "b", "gamma"]
    labels += [f"theta_{j + 1}" for j in range(m)]
    labels += [f"theta_prev_{j + 1}" for j in range(m)]
    labels += [f"omega_{j + 1}" for j in range(m)]
    direct = init_states(w, n, report.times, npts)
    flow = np.array([s.pack() for s in report.states])
    return VerificationTable(times=report.times.copy(), labels=labels,
                             deviations=_relative(flow - direct, direct))


@dataclass(frozen=True)
class TimeDerivativeCheck:
    """Residuals of the explicit d/dt formulas against finite differences."""

    residual_offnode: float   # dp_n/dt at fixed x vs the expansion formula
    residual_node: float      # d/dt p_n(x_j(t), t) vs the node formula
    fd_offnode: float
    formula_offnode: float
    fd_node: float
    formula_node: float


def _dp_dt_formula(w, table, lv: LadderValues, nd: NodeData, n: int, x: float,
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
    a_n = float(table.a[n]) if n >= 1 else 0.0
    V_nodes = 0.5 * w.alpha * nd.wprime
    v = nd.xdot - frame_velocity
    k = v != 0.0
    terms = v[k] * ((lv.omega[k] - V_nodes[k]) * pn - a_n * lv.theta[k] * pnm1) \
        / (nd.wprime[k] * (x - nd.x[k]))
    return gdot_over_g * pn - float(np.sum(terms))


def pn_time_derivative_check(w: GeneralizedJacobiWeight, n: int, x: float,
                             t: float, h: float, j: int = 0,
                             npts: int = DEFAULT_NPTS) -> TimeDerivativeCheck:
    """Compare the explicit time-derivative formulas for p_n with centered
    finite differences of tables recomputed at t +/- h.

    The off-node check holds x fixed; the node check follows the moving
    endpoint x_j(t).
    """
    table = stieltjes_procedure(w, t, n + 1, npts)
    lv = ladder_init(w, t, n, npts)
    nd = node_data(w, t)

    table_p = stieltjes_procedure(w, t + h, n + 1, npts)
    table_m = stieltjes_procedure(w, t - h, n + 1, npts)

    # fixed x, off node
    formula = _dp_dt_formula(w, table, lv, nd, n, x)
    fd = (eval_polynomial(table_p, n, x)[0]
          - eval_polynomial(table_m, n, x)[0]) / (2.0 * h)
    scale = max(abs(fd), abs(formula), 1.0)
    res_off = abs(fd - formula) / scale

    # along the node trajectory x_j(t)
    formula_j = _dp_dt_formula(w, table, lv, nd, n, nd.x[j], nd.xdot[j])
    xp = w.trajectory.positions(t + h)[j]
    xm = w.trajectory.positions(t - h)[j]
    fd_j = (eval_polynomial(table_p, n, xp)[0]
            - eval_polynomial(table_m, n, xm)[0]) / (2.0 * h)
    scale_j = max(abs(fd_j), abs(formula_j), 1.0)
    res_node = abs(fd_j - formula_j) / scale_j

    return TimeDerivativeCheck(
        residual_offnode=res_off, residual_node=res_node,
        fd_offnode=fd, formula_offnode=formula,
        fd_node=fd_j, formula_node=formula_j,
    )
