"""Deformation flow of the recurrence coefficients as the endpoints move.

The state for a fixed degree n is (a_n, b_n, gamma_n) together with the
node ratios theta_j = Theta_n(x_j)/W'(x_j),
theta_prev_j = Theta_{n-1}(x_j)/W'(x_j), omega_j = Omega_n(x_j)/W'(x_j),
the residues of Theta_n/W, Theta_{n-1}/W and Omega_n/W at x_j.
The flow carries it packed, as the vector
(a, b, gamma, theta, theta_prev, omega) of length 3 + 3m, and ``evolve``
returns (samples, stats): the sampled states as rows, and the step
counts. The closed system of ODEs in t is integrated with the Dormand-Prince 8(5,3) pair of ``rk45``,
sampled through its dense output, and cross-validated against full
recomputation from quadrature: ``init_states`` takes the states at any
number of times from ``ladder._ladder_nodes``, whose one Stieltjes
recurrence over the stacked absorbed rules yields the coefficients and
p_n, p_{n-1} at the rule points and nodes alike, and whose Cauchy
transforms give the ratios directly; ``init_state`` is one row as an
``EvolutionState``. ``_flow`` drives ``evolve`` and the moment flow;
``verify_against_direct`` judges either against its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List

import numpy as np

from .errors import InitFailure
from .ladder import _ladder_nodes
from .orthopoly import eval_polynomial
from .quadrature import npts_for
from .rk45 import DEFAULT_TOL, integrate_rk45
from .weights import (GeneralizedJacobiWeight, NodeFrames, check_span,
                      node_data, stage_frames)


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


@lru_cache(maxsize=8)
def _term_table(m: int):
    """The deformation system at m endpoints as a table of monomials over
    the factor vector z = [y, U @ B, 1, a^2] of ``evolution_rhs``, where U
    holds the node ratio rows theta, theta_prev, omega of y; so (U @ B)[i]
    holds U_i . xdot, U_i . (x * xdot) and K U_i (K is symmetric)."""
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
    return _assemble(3 + 3 * m, terms)


def _assemble(k: int, terms):
    """The table of a system of k components from its terms (output,
    coefficient, factor, factor, factor), whose entries broadcast: the
    3 x terms factor indices and the k x terms coefficients, read-only."""
    cols = np.concatenate([np.stack(np.broadcast_arrays(*term)).reshape(5, -1)
                           for term in terms], axis=1)
    coefs = np.zeros((k, cols.shape[1]))
    coefs[cols[0].astype(np.intp), np.arange(cols.shape[1])] = cols[1]
    factors = cols[2:].astype(np.intp)
    for arr in (factors, coefs):
        arr.setflags(write=False)
    return factors, coefs


def _rhs_buffer(k: int, table, u=None):
    """Everything ``evolution_rhs`` reads and writes, built once per flow
    from its state length k, its rows U and its term table (factors,
    coefs): the factor vector z = [y, U @ basis, 1, y_0^2] with its fixed
    1.0 in place; its views y and U @ basis; U; the table; and the product
    of the three factors of each term. U is the (rows, m) array ``u`` that
    the flow fills, or else the node ratio rows theta, theta_prev, omega
    of y."""
    rows, m = (3, (k - 3) // 3) if u is None else u.shape
    z = np.empty(k + rows * (m + 2) + 2)
    z[-2] = 1.0
    u = z[3:k].reshape(3, m) if u is None else u
    return (z, z[:k], u, z[k:-2].reshape(rows, m + 2), *table,
            np.empty(table[0].shape[1]))


def evolution_rhs(y: np.ndarray, basis: np.ndarray, buf=None,
                  out=None) -> np.ndarray:
    """Time derivative of the packed state y at the frame ``basis``,
    written into ``out`` (a new array without it) and returned.

    ``y`` is ``EvolutionState.pack()``: (a, b, gamma), then theta,
    theta_prev and omega as the rows of ``U = y[3:].reshape(3, m)``;
    ``basis`` is the m x (m + 2) matrix ``[xdot | x * xdot | K]``, one
    frame of ``stage_frames``. The system is a polynomial of degree at
    most 3 in y whose coefficients depend on t only through ``basis``: a
    sum of terms coef * z[f1] * z[f2] * z[f3] over z = [y, U @ basis, 1,
    a^2]. One ``U @ basis`` gives every dot and kernel product, and the
    term table turns z into the derivative with one gather, one running
    product over the three gathered factors of each term and one matmul.

    ``buf`` is the ``_rhs_buffer`` that one flow builds once and reuses
    for all its calls (a fresh one over ``_term_table`` without it), such
    as the moment flow's from ``momentflow._moment_buffer``, whose y is
    nu, with rows U and a table of its own. The table is read from it, and z
    and the products of the terms are written into it. ``y`` is only
    read, so ``out`` may be a row of the integrator's stage array.
    """
    z, y_part, u, ub, factors, coefs, prod = \
        _rhs_buffer(len(y), _term_table(len(basis))) if buf is None else buf
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
    quadrature oracles: one row of ``EvolutionState.pack()`` per time, as
    ``ladder._ladder_nodes`` gives them from one pass. Each time is checked
    on its own; InitFailure names the first time whose state cannot be
    built, with the underlying message.
    """
    if n < 1:
        raise InitFailure("flow state needs n >= 1 (carries Theta_{n-1})")
    npts = npts_for(n, npts)  # refused as UnderResolved, not as an InitFailure
    ts = np.asarray(ts, dtype=float)
    try:
        return _ladder_nodes(w, ts, n, npts)[-1]
    except Exception as exc:  # noqa: BLE001 - surfaced as one condition
        # the first failing time of the step that failed (ordering check or
        # recurrence); the times before it passed that step, not all steps
        i = getattr(exc, "row", 0)
        if i:
            init_states(w, n, ts[:i], npts)
        raise InitFailure(
            f"state initialization failed at t={ts[i]}: {exc}") from exc


def init_state(w: GeneralizedJacobiWeight, n: int, t: float) -> EvolutionState:
    """The flow state at time t: ``init_states`` at one time."""
    y = init_states(w, n, (t,))[0]
    return EvolutionState(float(t), n, *y[:3].tolist(), *y[3:].reshape(3, -1))


def _flow(w: GeneralizedJacobiWeight, times, rhs, y0, tol):
    """The one ``integrate_rk45`` call of both flows, through this module's
    binding: ``rhs`` over the frames of ``stage_frames`` from the state y0
    at times[0], sampled at the times, once ``check_span`` passes from the
    first time to the last. Returns (samples, stats)."""
    check_span(w, float(times[0]), float(times[-1]))
    return integrate_rk45(rhs, lambda ts: stage_frames(w, ts), times, y0, *tol)


def evolve(w: GeneralizedJacobiWeight, times, y0, tol=DEFAULT_TOL):
    """Integrate the deformation system from the packed state y0 at
    times[0], such as row 0 of ``init_states`` there, and sample it at
    the times (``_flow``); returns (samples, stats), row i of samples
    being the packed state at times[i]."""
    buf = _rhs_buffer(3 + 3 * w.m, _term_table(w.m))

    def rhs(basis, y, out):
        evolution_rhs(y, basis, buf, out)

    return _flow(w, times, rhs, y0, tol)


def _state_labels(m: int) -> List[str]:
    """The names of the 3 + 3m components of a packed state."""
    return ["a", "b", "gamma", *(f"{name}_{j + 1}" for name in
                                 ("theta", "theta_prev", "omega") for j in range(m))]


def verify_against_direct(samples: np.ndarray,
                          reference: np.ndarray) -> np.ndarray:
    """|samples - reference| / max(|reference|, 1), component by component:
    relative with an absolute floor of 1, so that near-zero components
    (b_n of a symmetric weight) are judged on absolute error. It judges
    both flows against their oracles, and ``--selfcheck`` two resolutions."""
    return np.abs(samples - reference) / np.maximum(np.abs(reference), 1.0)


@dataclass(frozen=True)
class TimeDerivativeCheck:
    """Residuals of the explicit d/dt formulas against finite differences."""

    residual_offnode: float   # dp_n/dt at fixed x vs the expansion formula
    residual_node: float      # d/dt p_n(x_j(t), t) vs the node formula
    fd_offnode: float
    formula_offnode: float
    fd_node: float
    formula_node: float


def _dp_dt_formula(w, table, y: np.ndarray, nd: NodeFrames, n: int, x: float,
                   frame_velocity: float = 0.0):
    """Right side of the dp_n/dt expansion at x, seen from a frame moving at
    frame_velocity, from the packed state y at the node data nd.

    With frame_velocity 0 this is dp_n/dt at a fixed off-node x. At x = x_j
    with frame_velocity xdot_j it is d/dt p_n(x_j(t), t): each xdot_k
    becomes xdot_k - xdot_j, and the k = j term, 0 * L_j(x_j)/0 with
    L_j(x_j) = W p_n'(x_j) = 0, is dropped. Terms whose velocity vanishes
    are dropped in general; they contribute 0 wherever they are finite.
    The ratios (Omega_n - V)/W' and Theta_n/W' at x_k are omega_k - alpha_k/2
    and theta_k.
    """
    theta, _, omega = y[3:].reshape(3, -1)
    gdot_over_g = -0.5 * float(np.sum(nd.xdot * theta))
    pn, _, pnm1 = eval_polynomial(table, n, x)
    a_n = float(table.a[n])
    v = nd.xdot - frame_velocity
    k = v != 0.0
    terms = v[k] * ((omega[k] - 0.5 * w.alpha[k]) * pn - a_n * theta[k] * pnm1) \
        / (x - nd.x[k])
    return gdot_over_g * pn - float(np.sum(terms))


def pn_time_derivative_check(w: GeneralizedJacobiWeight, n: int, x: float,
                             t: float, h: float) -> TimeDerivativeCheck:
    """Compare the explicit time-derivative formulas for p_n with centered
    finite differences of tables recomputed at t +/- h.

    The off-node check holds x fixed; the node check follows the first
    endpoint x_1(t). One ``_ladder_nodes`` pass at t, t + h and t - h gives
    the three tables, the node positions at t +/- h and the state at t.
    """
    tables, x_h, _, y = _ladder_nodes(w, (t, t + h, t - h), n, None)
    table, y, nd = tables.row(0), y[0], node_data(w, t)
    # fixed x off node, then along the node trajectory x_1(t)
    formula = _dp_dt_formula(w, table, y, nd, n, x)
    formula_j = _dp_dt_formula(w, table, y, nd, n, nd.x[0], nd.xdot[0])
    p_plus, p_minus = (eval_polynomial(tables.row(i), n, [x, x_h[i, 0]])[0]
                       for i in (1, 2))
    fd, fd_j = ((p_plus - p_minus) / (2.0 * h)).tolist()
    res_off = abs(fd - formula) / max(abs(fd), abs(formula), 1.0)
    res_node = abs(fd_j - formula_j) / max(abs(fd_j), abs(formula_j), 1.0)

    return TimeDerivativeCheck(
        residual_offnode=res_off, residual_node=res_node,
        fd_offnode=fd, formula_offnode=formula,
        fd_node=fd_j, formula_node=formula_j,
    )
