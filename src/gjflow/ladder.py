"""Ladder polynomials Omega_n, Theta_n, carried by their residues at the nodes.

These are the polynomial coefficients of the first-order differential
relation ``W p_n' = (Omega_n - V) p_n - a_n Theta_n p_{n-1}`` for weights
with rational logarithmic derivative 2V/W. With m endpoints, deg Omega_n
<= m-1 and deg Theta_n <= m-2, so each is fixed by its m residues over W
at the nodes: the ratios theta_j = Theta_n(x_j)/W'(x_j),
theta_prev_j = Theta_{n-1}(x_j)/W'(x_j) and omega_j = Omega_n(x_j)/W'(x_j),
the Lagrange form in which the flow of ``evolution`` carries them.

``_ladder_nodes`` takes the ratios of one degree from the Cauchy
transforms of p_n and p_{n-1} at the nodes, packed with a_n, b_n and
gamma_n as the flow state, in one pass at any degree and any number of
times; ``residue_sums`` gives their five Lagrange leading-coefficient
sums; ``ladder_checks`` measures the identities they satisfy and gives
the node values Theta_n(x_j) = theta_j W'(x_j) that ``ladder`` prints.
The paper's degree-raising recursion from n to n + 1 is not used by any
command: it lives in ``tests/ladder_ref.py``, a reference these node
values are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange
from .orthopoly import eval_polynomial, stieltjes_recurrence
from .quadrature import cauchy_node_matrices, npts_for
from .weights import GeneralizedJacobiWeight, _wprime, barycentric_interpolate


@dataclass(frozen=True)
class LadderReport:
    """Residuals of the structural identities, all relative, and the node
    positions and node values they were taken on."""

    residue_theta: float        # sum theta_j (should be 0) over max |Theta_n(x_j)|
    residue_x_theta: float      # sum x_j theta_j vs 2n+1+sum(alpha)
    residue_omega: float        # sum omega_j vs n+sum(alpha)/2
    diffrel_residual: float     # W p_n' - (Omega_n - V) p_n + a_n Theta_n p_{n-1}
    wronskian_residual: float   # a_n (p_n q_{n-1} - p_{n-1} q_n) - 1 at nodes
    x: np.ndarray               # node positions x_j at t
    values: np.ndarray          # rows Theta_n, Theta_{n-1}, Omega_n at the x_j


def _ladder_nodes(w: GeneralizedJacobiWeight, ts, n: int, npts: int | None):
    """The packed flow states of degree n at the times ts, from one pass.

    One ``cauchy_node_matrices`` gives the discretized measure, the node
    positions and the Cauchy matrix Q at every time. One
    ``stieltjes_recurrence`` to degree n + 1 over the measure's points
    and the nodes, all times at once, gives the table and p_n, p_{n-1}
    everywhere; Q turns them into q_n, q_{n-1} at the nodes, the Cauchy
    transforms of w p_n and w p_{n-1}. Then, with alpha_j > 0,
    theta_j = alpha_j p_n q_n, theta_prev_j = alpha_j p_{n-1} q_{n-1} and
    omega_j = alpha_j/2 + a_n alpha_j q_n p_{n-1} at x_j. Returns (table,
    x, (p_n, p_{n-1}, q_n, q_{n-1}) at the nodes, states), each with one
    row per time; a row of states is (a_n, b_n, gamma_n, theta,
    theta_prev, omega), as ``EvolutionState.pack()`` lays it out.
    """
    if n < 0:
        raise IndexOutOfRange(f"degree must be >= 0, got {n}")
    points, ws, x, Q = cauchy_node_matrices(w, ts, npts_for(n, npts))
    table, p, p_prev = stieltjes_recurrence(
        np.concatenate((points, x), axis=1), ws, n + 1)
    k = Q.shape[-1]
    q = Q @ np.stack((p[:, :k], p_prev[:, :k]), axis=-1)
    pn, pnm1, qn, qm = p[:, k:], p_prev[:, k:], q[..., 0], q[..., 1]
    alpha, a_n = w.alpha, table.a[:, n, None]
    states = np.column_stack((
        table.a[:, n], table.b[:, n], table.gamma[:, n], alpha * pn * qn,
        alpha * pnm1 * qm, 0.5 * alpha + a_n * alpha * qn * pnm1))
    return table, x, (pn, pnm1, qn, qm), states


def residue_sums(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The five Lagrange leading-coefficient sums of packed states y at the
    node positions x: the sums of theta, theta_prev, x * theta,
    x * theta_prev and omega, along the last axis (rows of y and x are
    times). Their exact values are 0, 0, 2n + 1 + sum(alpha),
    2n - 1 + sum(alpha) and n + sum(alpha)/2, which the flow conserves."""
    m = x.shape[-1]
    theta, theta_prev, omega = (y[..., 3 + i * m:3 + (i + 1) * m]
                                for i in range(3))
    return np.stack([np.sum(theta, axis=-1), np.sum(theta_prev, axis=-1),
                     np.sum(x * theta, axis=-1), np.sum(x * theta_prev, axis=-1),
                     np.sum(omega, axis=-1)], axis=-1)


def ladder_checks(w: GeneralizedJacobiWeight, t: float, n: int,
                  npts: int | None = None, nsamples: int = 20,
                  seed: int = 0) -> LadderReport:
    """Node values of degree n at t with the residuals of the residue sums,
    the differential relation, and the Wronskian-type identity
    a_n (p_n q_{n-1} - p_{n-1} q_n) = 1 at the nodes, all from one
    ``_ladder_nodes`` pass: the state, the node positions, the table that
    p_n is evaluated from at the sample points, and p_n, p_{n-1}, q_n,
    q_{n-1} at the nodes. W'(x_j) turns the ratios into the node values.
    """
    table, x, (pn_j, pnm1_j, qn_j, qm_j), y = _ladder_nodes(w, (t,), n, npts)
    table, x, y = table.row(0), x[0], y[0]
    ratios = y[3:].reshape(3, -1)
    # + 0.0: Theta_{-1} = 0 reads 0.0, not -0.0, where W' < 0
    values = ratios * _wprime(x) + 0.0
    sa = w.sum_alpha
    s0, _, s1, _, s2 = residue_sums(y, x).tolist()
    scale = max(float(np.max(np.abs(values[0]))), 1.0)
    r_theta = abs(s0) / scale
    lead = 2 * n + 1 + sa
    r_x_theta = abs(s1 - lead) / abs(lead)
    lead_o = n + sa / 2.0
    r_omega = abs(s2 - lead_o) / max(abs(lead_o), 1.0)

    # differential relation at interior sample points, ladder polynomials
    # and V interpolated from their ratios (V's is alpha_j/2); the margin
    # shrinks on narrow supports
    rng = np.random.default_rng(seed)
    margin = min(0.05, (x[-1] - x[0]) / 4)
    xs = rng.uniform(x[0] + margin, x[-1] - margin, size=nsamples)
    a_n = table.a[n]
    pn, dpn, pnm1 = eval_polynomial(table, n, xs)
    Wx = np.prod(xs[:, None] - x, axis=1)
    Th, Om, Vx = barycentric_interpolate(
        x, [ratios[0], ratios[2], 0.5 * w.alpha], xs)
    resid = np.max(np.abs(Wx * dpn - (Om - Vx) * pn + a_n * Th * pnm1),
                   initial=0.0)
    # |W p_n| joins the scale so the degree-0 case (0 = 0) stays clean
    denom = np.max(np.abs([Wx * dpn, (Om - Vx) * pn, Wx * pn]), initial=0.0)
    diffrel = float(resid / max(denom, 1e-300))

    wron = 0.0
    if n >= 1:
        wron = float(np.max(np.abs(a_n * (pn_j * qm_j - pnm1_j * qn_j) - 1.0)))
    return LadderReport(residue_theta=r_theta, residue_x_theta=r_x_theta,
                        residue_omega=r_omega, diffrel_residual=diffrel,
                        wronskian_residual=wron, x=x, values=values)
