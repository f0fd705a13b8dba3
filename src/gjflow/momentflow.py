"""Linear flow of the modified moments nu_{n,j} as the endpoints move.

nu_{n,j} = int w(u) prod_k (u - x_k)^{beta_k} / (u - x_j) du with
beta_1 = n + 1 and beta_k = 1 otherwise. Dividing out (u - x_j) always
leaves a polynomial, so initial values and all verification values come
from plain absorbed quadrature with no Cauchy singularity, independently
of the alpha_k > 0 restriction.
"""

from __future__ import annotations

import numpy as np

from .quadrature import DEFAULT_NPTS, discretized_measure
from .rk45 import integrate_rk45
from .weights import GeneralizedJacobiWeight, NodeData, _flow_frames, node_data


def beta_exponents(n: int, m: int) -> np.ndarray:
    """beta_1 = n + 1, beta_2 = ... = beta_m = 1."""
    beta = np.ones(m)
    beta[0] = n + 1.0
    return beta


def _nu_integrand(nd: NodeData, beta: np.ndarray, j: int):
    """Polynomial factor prod_k (u - x_k)^{beta_k} / (u - x_j)."""
    exps = beta.copy()
    exps[j] -= 1.0

    def f(u):
        u = np.asarray(u, dtype=float)
        out = np.ones_like(u)
        for k, e in enumerate(exps):
            out = out * (u - nd.x[k]) ** int(round(e))
        return out

    return f


def nu_by_quadrature(w: GeneralizedJacobiWeight, n: int, t: float,
                     npts: int = DEFAULT_NPTS) -> np.ndarray:
    """All m modified moments from the defining integral."""
    nd = node_data(w, t)
    beta = beta_exponents(n, w.m)
    xs, ws = discretized_measure(w, t, npts)
    nu = np.empty(w.m)
    for j in range(w.m):
        nu[j] = np.dot(ws, _nu_integrand(nd, beta, j)(xs))
    return nu


def moment_rhs(nu: np.ndarray, basis: np.ndarray, alpha: np.ndarray,
               beta: np.ndarray, out=None) -> np.ndarray:
    """nu_dot_j = sum_{k != j} (xd_j - xd_k)(alpha_k + beta_k)(nu_j - nu_k)/(x_j - x_k),
    with the kernel K = (xd_j - xd_k)/(x_j - x_k) read from the frame
    ``basis = [xdot | x * xdot | K]`` (``NodeData.basis``); written into
    ``out`` (a new array without it) and returned."""
    K = basis[:, 2:]
    ab = alpha + beta
    # sum_k K[j,k] ab_k (nu_j - nu_k)
    return np.subtract(nu * (K @ ab), K @ (ab * nu), out=out)


def evolve_moments(w: GeneralizedJacobiWeight, n: int, t_span,
                   tol=(1e-9, 1e-12), sample_count: int = 20,
                   npts: int = DEFAULT_NPTS, nu0=None):
    """Integrate the linear moment system; returns (nus, stats), row i of
    nus being the m moments at the i-th of ``sample_count`` uniform times.

    Initial values default to quadrature of the defining integral at t0;
    an explicit nu0 supports linearity experiments.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    rtol, atol = tol
    beta = beta_exponents(n, w.m)
    if nu0 is None:
        nu0 = nu_by_quadrature(w, n, t0, npts)
    nu0 = np.asarray(nu0, dtype=float)
    times = np.linspace(t0, t1, sample_count)

    def rhs(basis, y, out):
        moment_rhs(y, basis, w.alpha, beta, out)

    return integrate_rk45(rhs, _flow_frames(w), t0, t1, nu0, rtol=rtol,
                          atol=atol, sample_times=times)

