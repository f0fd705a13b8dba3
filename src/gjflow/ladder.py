"""Ladder polynomials Omega_n, Theta_n in node-value representation.

These are the polynomial coefficients of the first-order differential
relation ``W p_n' = (Omega_n - V) p_n - a_n Theta_n p_{n-1}`` for weights
with rational logarithmic derivative 2V/W. With m endpoints, deg Omega_n
<= m-1 and deg Theta_n <= m-2, so everything is carried as the m node
values Theta_n(x_j), Omega_n(x_j).

``ladder_init`` takes the node values of one degree from the Cauchy
transforms of p_n and p_{n-1} at the nodes, in one pass at any degree;
``ladder_checks`` measures the identities they satisfy. The paper's
degree-raising recursion from n to n + 1 is not used by any command: it
lives in ``tests/ladder_ref.py``, a reference ``ladder_init`` is compared
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange
from .orthopoly import eval_polynomial, stieltjes_recurrence
from .quadrature import cauchy_node_matrices, default_npts
from .weights import GeneralizedJacobiWeight, NodeFrames, barycentric_interpolate


@dataclass(frozen=True)
class LadderValues:
    """Node values of the ladder polynomials at one degree.

    theta[j] = Theta_n(x_j), omega[j] = Omega_n(x_j);
    theta_prev[j] = Theta_{n-1}(x_j) (0 at n = 0).
    """

    n: int
    theta: np.ndarray
    omega: np.ndarray
    theta_prev: np.ndarray

    def row(self, i: int) -> "LadderValues":
        """The values at time i of the batched values of several times."""
        return LadderValues(n=self.n, theta=self.theta[i], omega=self.omega[i],
                            theta_prev=self.theta_prev[i])


@dataclass(frozen=True)
class LadderReport:
    """Residuals of the structural identities, all relative, and the node
    positions and values they were taken on."""

    residue_theta: float        # sum Theta_n(x_j)/W'(x_j)  (should be 0)
    residue_x_theta: float      # sum x_j Theta_n(x_j)/W'(x_j) vs 2n+1+sum(alpha)
    residue_omega: float        # sum Omega_n(x_j)/W'(x_j) vs n+sum(alpha)/2
    diffrel_residual: float     # W p_n' - (Omega_n - V) p_n + a_n Theta_n p_{n-1}
    wronskian_residual: float   # a_n (p_n q_{n-1} - p_{n-1} q_n) - 1 at nodes
    values: LadderValues
    x: np.ndarray               # node positions x_j at t


def _ladder_nodes(w: GeneralizedJacobiWeight, ts, n: int, npts: int | None):
    """The ladder node values at the times ts, from one pass.

    One ``cauchy_node_matrices`` gives the discretized measure, the node
    frames and the Cauchy matrix Q at every time. One
    ``stieltjes_recurrence`` to degree n + 1 over the measure's points
    and the nodes, all times at once, gives the table and p_n, p_{n-1}
    everywhere; Q turns them into q_n, q_{n-1} at the nodes. Returns
    (table, NodeFrames, (p_n, p_{n-1}, q_n, q_{n-1}) at the nodes,
    LadderValues), each with one row per time; the node formula is that
    of ``ladder_init``. ``npts`` None is ``default_npts(n)``.
    """
    if n < 0:
        raise IndexOutOfRange(f"degree must be >= 0, got {n}")
    points, ws, frames, Q = cauchy_node_matrices(
        w, ts, default_npts(n) if npts is None else npts)
    table, p, p_prev = stieltjes_recurrence(
        np.concatenate((points, frames.x), axis=1), ws, n + 1)
    k = Q.shape[-1]
    q = Q @ np.stack((p[:, :k], p_prev[:, :k]), axis=-1)
    pn, pnm1, qn, qm = p[:, k:], p_prev[:, k:], q[..., 0], q[..., 1]
    aw = w.alpha * frames.wprime
    a_n = table.a[:, n, None]
    theta = aw * pn * qn
    omega = 0.5 * aw + a_n * aw * qn * pnm1  # V(x_j) = alpha_j W'(x_j)/2
    # Theta_{-1} = 0: zeros, not the -0.0 that p_{-1} = 0 gives at W' < 0
    theta_prev = aw * pnm1 * qm if n >= 1 else np.zeros_like(theta)
    return table, frames, (pn, pnm1, qn, qm), LadderValues(
        n=n, theta=theta, omega=omega, theta_prev=theta_prev)


def ladder_init(w: GeneralizedJacobiWeight, t: float, n: int,
                npts: int | None = None) -> LadderValues:
    """Node values from the Cauchy-transform representation.

    Theta_n(x_j) = alpha_j W'(x_j) p_n(x_j) q_n(x_j),
    Omega_n(x_j) = V(x_j) + a_n alpha_j W'(x_j) q_n(x_j) p_{n-1}(x_j),
    with q_n the Cauchy transform of w p_n; requires all alpha_k > 0.
    The recurrence and the transforms at all nodes, of p_n and p_{n-1}
    alike, come from ``_ladder_nodes`` at the one time t.
    """
    return _ladder_nodes(w, (t,), n, npts)[-1].row(0)


def residue_sums(values: LadderValues, nd: NodeFrames):
    """The three Lagrange leading-coefficient sums of the node values."""
    s0 = float(np.sum(values.theta / nd.wprime))
    s1 = float(np.sum(nd.x * values.theta / nd.wprime))
    s2 = float(np.sum(values.omega / nd.wprime))
    return s0, s1, s2


def ladder_checks(w: GeneralizedJacobiWeight, t: float, n: int,
                  npts: int | None = None, nsamples: int = 20,
                  seed: int = 0) -> LadderReport:
    """Node values of degree n at t with the residuals of the residue sums,
    the differential relation, and the Wronskian-type identity
    a_n (p_n q_{n-1} - p_{n-1} q_n) = 1 at the nodes, all from one
    ``_ladder_nodes`` pass: the values, the node positions, the table that
    p_n is evaluated from at the sample points, and p_n, p_{n-1}, q_n,
    q_{n-1} at the nodes.
    """
    table, frames, (pn_j, pnm1_j, qn_j, qm_j), lv = _ladder_nodes(
        w, (t,), n, npts)
    table, nd, values = table.row(0), frames.row(0), lv.row(0)
    sa = w.sum_alpha
    s0, s1, s2 = residue_sums(values, nd)
    scale = max(float(np.max(np.abs(values.theta))), 1.0)
    r_theta = abs(s0) / scale
    lead = 2 * n + 1 + sa
    r_x_theta = abs(s1 - lead) / abs(lead)
    lead_o = n + sa / 2.0
    r_omega = abs(s2 - lead_o) / max(abs(lead_o), 1.0)

    # differential relation at interior sample points, ladder polynomials
    # and V reconstructed from their node values (V(x_j) = alpha_j W'(x_j)/2)
    # by barycentric interpolation; the margin shrinks on narrow supports
    rng = np.random.default_rng(seed)
    margin = min(0.05, (nd.x[-1] - nd.x[0]) / 4)
    xs = rng.uniform(nd.x[0] + margin, nd.x[-1] - margin, size=nsamples)
    a_n = table.a[n]
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
        wron = float(np.max(np.abs(a_n * (pn_j * qm_j - pnm1_j * qn_j) - 1.0)))
    return LadderReport(residue_theta=r_theta, residue_x_theta=r_x_theta,
                        residue_omega=r_omega, diffrel_residual=diffrel,
                        wronskian_residual=wron, values=values, x=nd.x)
