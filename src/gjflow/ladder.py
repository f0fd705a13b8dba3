"""Ladder polynomials Omega_n, Theta_n in node-value representation.

These are the polynomial coefficients of the first-order differential
relation ``W p_n' = (Omega_n - V) p_n - a_n Theta_n p_{n-1}`` for weights
with rational logarithmic derivative 2V/W. With m endpoints, deg Omega_n
<= m-1 and deg Theta_n <= m-2, so everything is carried as the m node
values Theta_n(x_j), Omega_n(x_j).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ZeroCoefficient
from .orthopoly import RecurrenceTable, eval_polynomial
from .quadrature import DEFAULT_NPTS, cauchy_node_matrix
from .weights import (
    GeneralizedJacobiWeight,
    NodeData,
    barycentric_interpolate,
    node_data,
)


@dataclass(frozen=True)
class LadderValues:
    """Node values of the ladder polynomials at one degree.

    theta[j] = Theta_n(x_j), omega[j] = Omega_n(x_j);
    theta_prev[j] = Theta_{n-1}(x_j) (None at n = 0).
    """

    n: int
    theta: np.ndarray
    omega: np.ndarray
    theta_prev: Optional[np.ndarray] = None


@dataclass(frozen=True)
class LadderReport:
    """Residuals of the structural identities, all relative."""

    residue_theta: float        # sum Theta_n(x_j)/W'(x_j)  (should be 0)
    residue_x_theta: float      # sum x_j Theta_n(x_j)/W'(x_j) vs 2n+1+sum(alpha)
    residue_omega: float        # sum Omega_n(x_j)/W'(x_j) vs n+sum(alpha)/2
    diffrel_residual: float     # W p_n' - (Omega_n - V) p_n + a_n Theta_n p_{n-1}
    wronskian_residual: float   # a_n (p_n q_{n-1} - p_{n-1} q_n) - 1 at nodes


def _a_at(table: RecurrenceTable, n: int):
    # a_0 = 0 by convention (p_{-1} = 0); makes the step recurrence exact at n = 0
    return table.a[..., n] if n >= 1 else 0.0


def _recurrence_on_rules(w: GeneralizedJacobiWeight, table: RecurrenceTable,
                         t: float, n: int, npts: int):
    """The ``cauchy_node_matrix`` at t and p_n, p_{n-1} from one forward
    recurrence over its points followed by the nodes: (nd, Q, p, p_prev)."""
    points, _, nd, Q = cauchy_node_matrix(w, t, npts)
    p, _, p_prev = eval_polynomial(table, n, np.concatenate((points, nd.x)))
    return nd, Q, p, p_prev


def _node_transforms(Q: np.ndarray, p: np.ndarray, p_prev: np.ndarray):
    """p_n, p_{n-1} and their Cauchy transforms q_n, q_{n-1} at every node,
    from p_n, p_{n-1} on the points of Q followed by the nodes. Q, p and
    p_prev may carry one leading batch axis."""
    k = Q.shape[-1]
    q = Q @ np.stack((p[..., :k], p_prev[..., :k]), axis=-1)
    return p[..., k:], p_prev[..., k:], q[..., 0], q[..., 1]


def _ladder_values(w: GeneralizedJacobiWeight, wprime: np.ndarray,
                   table: RecurrenceTable, n: int, Q: np.ndarray,
                   p: np.ndarray, p_prev: np.ndarray) -> LadderValues:
    """The node formula of ``ladder_init`` (also used by
    ``evolution.init_states``), from p_n, p_{n-1} on the points of Q
    followed by the nodes, and W'(x_j). With a leading batch axis on every
    input (and on the table's arrays), each value gains it too."""
    pn, pnm1, qn, qm = _node_transforms(Q, p, p_prev)
    aw = w.alpha * wprime
    a_n = np.asarray(_a_at(table, n))[..., None]
    theta = aw * pn * qn
    omega = 0.5 * aw + a_n * aw * qn * pnm1  # V(x_j) = alpha_j W'(x_j)/2
    theta_prev = aw * pnm1 * qm if n >= 1 else None
    return LadderValues(n=n, theta=theta, omega=omega, theta_prev=theta_prev)


def ladder_init(w: GeneralizedJacobiWeight, table: RecurrenceTable, t: float,
                n: int, npts: int = DEFAULT_NPTS) -> LadderValues:
    """Node values from the Cauchy-transform representation.

    Theta_n(x_j) = alpha_j W'(x_j) p_n(x_j) q_n(x_j),
    Omega_n(x_j) = V(x_j) + a_n alpha_j W'(x_j) q_n(x_j) p_{n-1}(x_j),
    with q_n the Cauchy transform of w p_n; requires all alpha_k > 0.
    The transforms at all nodes, of p_n and p_{n-1} alike, come from one
    ``cauchy_node_matrix`` applied to one evaluation of the recurrence.
    """
    nd, Q, p, p_prev = _recurrence_on_rules(w, table, t, n, npts)
    return _ladder_values(w, nd.wprime, table, n, Q, p, p_prev)


def ladder_step(values: LadderValues, x_nodes, a_n: float, a_next: float,
                b_n: float) -> LadderValues:
    """Advance the node values from degree n to n+1.

    Omega_{n+1}(x_j) = (x_j - b_n) Theta_n(x_j) - Omega_n(x_j);
    Theta_{n+1}(x_j) = [(x_j - b_n)(Omega_{n+1}(x_j) - Omega_n(x_j))
                        + a_n^2 Theta_{n-1}(x_j)] / a_{n+1}^2
    (the node polynomial term vanishes since W(x_j) = 0). The second line
    carries Theta_{n-1}, matching the classical ladder compatibility
    condition; this is confirmed against the Cauchy-transform
    initialization to roundoff.
    """
    if a_next == 0.0:
        raise ZeroCoefficient(f"a_{values.n + 1} = 0 in ladder step")
    x = np.asarray(x_nodes, dtype=float)
    xb = x - b_n
    omega_new = xb * values.theta - values.omega
    prev = values.theta_prev if values.theta_prev is not None \
        else np.zeros_like(values.theta)  # n = 0: a_0 = 0 kills the term
    theta_new = (xb * (omega_new - values.omega) + a_n * a_n * prev) \
        / (a_next * a_next)
    return LadderValues(n=values.n + 1, theta=theta_new, omega=omega_new,
                        theta_prev=values.theta.copy())


def ladder_from_table(w: GeneralizedJacobiWeight, table: RecurrenceTable,
                      t: float, n: int, npts: int = DEFAULT_NPTS) -> LadderValues:
    """Climb from the degree-0 initialization to n via ladder_step alone."""
    nd = node_data(w, t)
    values = ladder_init(w, table, t, 0, npts)
    for k in range(n):
        values = ladder_step(values, nd.x, _a_at(table, k),
                             float(table.a[k + 1]), float(table.b[k]))
    return values


def residue_sums(values: LadderValues, nd: NodeData):
    """The three Lagrange leading-coefficient sums of the node values."""
    s0 = float(np.sum(values.theta / nd.wprime))
    s1 = float(np.sum(nd.x * values.theta / nd.wprime))
    s2 = float(np.sum(values.omega / nd.wprime))
    return s0, s1, s2


def ladder_checks(w: GeneralizedJacobiWeight, table: RecurrenceTable,
                  values: LadderValues, t: float, npts: int = DEFAULT_NPTS,
                  nsamples: int = 20, seed: int = 0) -> LadderReport:
    """Residuals of the residue sums, the differential relation, and the
    Wronskian-type identity a_n (p_n q_{n-1} - p_{n-1} q_n) = 1 at the nodes."""
    nd = node_data(w, t)
    n = values.n
    sa = w.sum_alpha
    s0, s1, s2 = residue_sums(values, nd)
    scale = max(np.max(np.abs(values.theta)), 1.0)
    r_theta = abs(s0) / scale
    lead = 2 * n + 1 + sa
    r_x_theta = abs(s1 - lead) / abs(lead)
    lead_o = n + sa / 2.0
    r_omega = abs(s2 - lead_o) / max(abs(lead_o), 1.0)

    # differential relation at interior sample points, ladder polynomials
    # and V reconstructed from their node values (V(x_j) = alpha_j W'(x_j)/2)
    # by barycentric interpolation
    rng = np.random.default_rng(seed)
    xs = rng.uniform(nd.x[0] + 0.05, nd.x[-1] - 0.05, size=nsamples)
    a_n = _a_at(table, n)
    pn, dpn, pnm1 = eval_polynomial(table, n, xs)
    Wx = np.prod(xs[:, None] - nd.x, axis=1)
    Th, Om, Vx = barycentric_interpolate(
        nd, [values.theta, values.omega, 0.5 * w.alpha * nd.wprime], xs)
    resid = np.max(np.abs(Wx * dpn - (Om - Vx) * pn + a_n * Th * pnm1),
                   initial=0.0)
    # |W p_n| joins the scale so the degree-0 case (0 = 0) stays clean
    denom = np.max(np.abs([Wx * dpn, (Om - Vx) * pn, Wx * pn]), initial=0.0)
    diffrel = float(resid / max(denom, 1e-300))

    wron = 0.0
    if n >= 1:
        _, Q, p, p_prev = _recurrence_on_rules(w, table, t, n, npts)
        pn, pnm1, qn, qm = _node_transforms(Q, p, p_prev)
        wron = float(np.max(np.abs(a_n * (pn * qm - pnm1 * qn) - 1.0)))
    return LadderReport(residue_theta=r_theta, residue_x_theta=r_x_theta,
                        residue_omega=r_omega, diffrel_residual=diffrel,
                        wronskian_residual=wron)
