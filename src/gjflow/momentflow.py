"""Linear flow of the modified moments nu_{n,j} as the endpoints move.

nu_{n,j} = int w(u) prod_k (u - x_k)^{beta_k} / (u - x_j) du with
beta_1 = n + 1 and beta_k = 1 otherwise. Dividing out (u - x_j) always
leaves a polynomial, so initial values and all verification values come
from plain absorbed quadrature with no Cauchy singularity, independently
of the alpha_k > 0 restriction: ``direct_moments``, at all times at once.
``evolve_moments`` runs on ``evolution._flow`` and ``evolution_rhs`` too.
"""

from __future__ import annotations

import numpy as np

from .evolution import _assemble, _flow, evolution_rhs
from .quadrature import _stacked_points, npts_for
from .rk45 import DEFAULT_TOL
from .weights import GeneralizedJacobiWeight


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


def _moment_buffer(w: GeneralizedJacobiWeight, n: int):
    """The ``evolution_rhs`` buffer and term table of the moment system.
    With ab = alpha + beta, nu_dot_j = sum_k K[j,k] ab_k (nu_j - nu_k) =
    nu_j (K ab)_j - (K (ab nu))_j over z = [nu, U @ B, 1, nu_1^2], where
    the rows U = [ab * nu ; ab] are filled here (ab) and by the flow."""
    m = w.m
    j = np.arange(m)
    k_ab_nu, k_ab, one = m + 2 + j, 2 * m + 4 + j, 3 * m + 4
    z = np.empty(one + 2)
    z[one] = 1.0
    u = np.empty((2, m))
    u[1] = w.alpha + np.r_[n + 1.0, np.ones(m - 1)]
    table = _assemble(m, [(j, 1.0, j, k_ab, one), (j, -1.0, k_ab_nu, one, one)])
    return z, z[:m], u, z[m:one].reshape(2, m + 2), *table, np.empty(2 * m)


def evolve_moments(w: GeneralizedJacobiWeight, n: int, times, nu0,
                   tol=DEFAULT_TOL):
    """Integrate the linear moment system from the m moments nu0 at
    times[0] (``evolution._flow``); returns (samples, stats) as ``evolve``
    does, row i of samples being the moments at times[i]. A caller that
    checks the flow passes row 0 of its ``direct_moments`` at the times as
    nu0; other start values serve linearity experiments."""
    buf = _moment_buffer(w, n)
    ab_nu, ab = buf[2]

    def rhs(basis, y, out):
        np.multiply(ab, y, ab_nu)
        evolution_rhs(y, basis, buf, out)

    return _flow(w, times, rhs, nu0, tol)
