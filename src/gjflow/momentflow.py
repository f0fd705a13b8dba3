"""Linear flow of the modified moments nu_{n,j} as the endpoints move.

nu_{n,j} = int w(u) prod_k (u - x_k)^{beta_k} / (u - x_j) du with
beta_1 = n + 1 and beta_k = 1 otherwise. Dividing out (u - x_j) always
leaves a polynomial, so initial values and all verification values come
from plain absorbed quadrature with no Cauchy singularity, independently
of the alpha_k > 0 restriction: ``direct_moments``, at all times at once.
``evolve_moments`` integrates through ``evolution._flow``, as ``evolve`` does.
"""

from __future__ import annotations

import numpy as np

from .evolution import _flow
from .quadrature import _stacked_points, npts_for
from .rk45 import DEFAULT_TOL
from .weights import GeneralizedJacobiWeight


def beta_exponents(n: int, m: int) -> np.ndarray:
    """beta_1 = n + 1, beta_2 = ... = beta_m = 1."""
    beta = np.ones(m)
    beta[0] = n + 1.0
    return beta


def direct_moments(w: GeneralizedJacobiWeight, n: int, ts,
                   npts: int | None = None):
    """mu_n = int w(u) (u - x_1)^n du and the m moments nu_{n,j} at the
    times ts from one stacked measure: arrays (s,) and (s, m).

    The integrand of nu_{n,j} is (u - x_1)^n prod_{k != j} (u - x_k): one
    weighted power gives mu_n and serves every j, with the other factors
    multiplied from the left and from the right. Each sum runs along the
    last axis of its row, so row i is bit for bit the call at ts[i] alone.
    """
    x, xs, ws = _stacked_points(w, ts, npts_for(n, npts))[:3]
    d = xs[:, None, :] - x[:, :, None]  # u - x_k: (s, m, points)
    power = ws * d[:, 0] ** n
    # prod_{k<j} (u - x_k) times prod_{k>j} (u - x_k)
    left, right = np.ones_like(d), np.ones_like(d)
    np.cumprod(d[:, :-1], axis=1, out=left[:, 1:])
    np.cumprod(d[:, :0:-1], axis=1, out=right[:, -2::-1])
    return power.sum(axis=-1), (left * right * power[:, None]).sum(axis=-1)


def moment_rhs(nu: np.ndarray, basis: np.ndarray, alpha: np.ndarray,
               beta: np.ndarray, out=None) -> np.ndarray:
    """nu_dot_j = sum_{k != j} (xd_j - xd_k)(alpha_k + beta_k)(nu_j - nu_k)/(x_j - x_k),
    with the kernel K = (xd_j - xd_k)/(x_j - x_k) read from the frame
    ``basis = [xdot | x * xdot | K]`` (a frame of ``stage_frames``);
    written into ``out`` (a new array without it) and returned."""
    K = basis[:, 2:]
    ab = alpha + beta
    # sum_k K[j,k] ab_k (nu_j - nu_k)
    return np.subtract(nu * (K @ ab), K @ (ab * nu), out=out)


def evolve_moments(w: GeneralizedJacobiWeight, n: int, times, nu0,
                   tol=DEFAULT_TOL):
    """Integrate the linear moment system from the m moments nu0 at
    times[0] (``evolution._flow``); returns (samples, stats) as ``evolve``
    does, row i of samples being the moments at times[i]. A caller that
    checks the flow passes row 0 of its ``direct_moments`` at the times as
    nu0; other start values serve linearity experiments."""
    beta = beta_exponents(n, w.m)

    def rhs(basis, y, out):
        moment_rhs(y, basis, w.alpha, beta, out)

    return _flow(w, times, rhs, nu0, tol)
