"""The paper's degree-raising recursion of the ladder node values, a
reference for ``gjflow.ladder.ladder_init``.

``ladder_init`` takes the node values of degree n straight from the Cauchy
transforms of p_n and p_{n-1}. Here they are reached from degree 0 by the
step n -> n + 1 alone, on the recurrence coefficients of the same measure,
so that a comparison checks the step formulas and the Cauchy-transform
representation against each other.
"""

import numpy as np

from gjflow import LadderValues
from gjflow.orthopoly import stieltjes_recurrence
from gjflow.quadrature import cauchy_node_matrices, default_npts


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
    return LadderValues(n=values.n + 1, theta=theta_new, omega=omega_new,
                        theta_prev=values.theta.copy())


def ladder_climb(w, t, n, npts=None):
    """Climb from the degree-0 node values at t to degree n by
    ``ladder_step`` alone, on the recurrence coefficients to degree n + 1
    of the measure of ``cauchy_node_matrices`` at t.

    p_0 = gamma_0 is constant, so the start is
    Theta_0(x_j) = alpha_j W'(x_j) gamma_0^2 (Q @ 1)_j and
    Omega_0(x_j) = V(x_j) = alpha_j W'(x_j)/2, with Q the Cauchy matrix of
    the same call. ``npts`` None is ``default_npts(n)``, as in ``ladder_init``.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    points, ws, frames, Q = cauchy_node_matrices(
        w, (t,), default_npts(n) if npts is None else npts)
    table = stieltjes_recurrence(points, ws, n + 1)[0].row(0)
    x = frames.x[0]
    aw = w.alpha * frames.wprime[0]
    gamma0 = table.gamma[0]
    values = LadderValues(n=0, theta=aw * gamma0 * gamma0 * Q[0].sum(axis=-1),
                          omega=0.5 * aw, theta_prev=np.zeros_like(aw))
    for k in range(n):
        values = ladder_step(values, x, table.a[k],
                             float(table.a[k + 1]), float(table.b[k]))
    return values
