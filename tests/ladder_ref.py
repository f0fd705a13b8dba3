"""The paper's degree-raising recursion of the ladder node values, a
reference for the node values of ``gjflow.ladder.ladder_checks``.

The library takes the node ratios of degree n straight from the Cauchy
transforms of p_n and p_{n-1}. Here the node values are reached from
degree 0 by the step n -> n + 1 alone, on the recurrence coefficients of
the same measure, so that a comparison checks the step formulas and the
Cauchy-transform representation against each other.
"""

from dataclasses import dataclass

import numpy as np

from gjflow.orthopoly import stieltjes_recurrence
from gjflow.quadrature import cauchy_node_matrices, npts_for
from gjflow.weights import _wprime


@dataclass(frozen=True)
class NodeValues:
    """Theta_n(x_j), Theta_{n-1}(x_j) (0 at n = 0) and Omega_n(x_j) at one
    degree n, in the row order of ``LadderReport.values``."""

    n: int
    theta: np.ndarray
    theta_prev: np.ndarray
    omega: np.ndarray


def ladder_step(values, x_nodes, a_n, a_next, b_n):
    """Advance the node values from degree n to n + 1.

    Omega_{n+1}(x_j) = (x_j - b_n) Theta_n(x_j) - Omega_n(x_j);
    Theta_{n+1}(x_j) = [(x_j - b_n)(Omega_{n+1}(x_j) - Omega_n(x_j))
                        + a_n^2 Theta_{n-1}(x_j)] / a_{n+1}^2
    (the node polynomial term vanishes since W(x_j) = 0). The second line
    carries Theta_{n-1}, the classical ladder compatibility condition.
    Raises ValueError when a_{n+1} = 0.
    """
    if a_next == 0.0:
        raise ValueError(f"a_{values.n + 1} = 0 in ladder step")
    xb = np.asarray(x_nodes, dtype=float) - b_n
    omega_new = xb * values.theta - values.omega
    theta_new = (xb * (omega_new - values.omega)
                 + a_n * a_n * values.theta_prev) / (a_next * a_next)
    return NodeValues(n=values.n + 1, theta=theta_new,
                      theta_prev=values.theta.copy(), omega=omega_new)


def ladder_climb(w, t, n, npts=None):
    """Climb from the degree-0 node values at t to degree n by
    ``ladder_step`` alone, on the recurrence coefficients to degree n + 1
    of the measure of ``cauchy_node_matrices`` at t.

    p_0 = gamma_0 is constant, so the start is
    Theta_0(x_j) = alpha_j W'(x_j) gamma_0^2 (Q @ 1)_j and
    Omega_0(x_j) = V(x_j) = alpha_j W'(x_j)/2, with Q the Cauchy matrix of
    the same call, on ``npts_for(n, npts)`` points, as in the library.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    points, ws, x, Q = cauchy_node_matrices(w, (t,), npts_for(n, npts))
    table = stieltjes_recurrence(points, ws, n + 1)[0].row(0)
    x = x[0]
    aw = w.alpha * _wprime(x)
    gamma0 = table.gamma[0]
    values = NodeValues(n=0, theta=aw * gamma0 * gamma0 * Q[0].sum(axis=-1),
                        theta_prev=np.zeros_like(aw), omega=0.5 * aw)
    for k in range(n):
        values = ladder_step(values, x, table.a[k],
                             float(table.a[k + 1]), float(table.b[k]))
    return values
