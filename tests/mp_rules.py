"""Gauss-Jacobi rules in 40-digit arithmetic: an oracle for
``gjflow.quadrature`` that shares none of its code.

The monic recurrence of (1-s)^a (1+s)^b is written out again in mpmath.
Two constructions follow from it:

- ``eig_rule`` (npts <= 16): Golub-Welsch, the eigenvalues and first
  eigenvector components of the Jacobi matrix from ``mpmath.eigsy``;
- ``newton_rule`` (any npts): float64 eigenvalues of the same matrix from
  ``numpy.linalg.eigvalsh``, polished by a Newton step on p_npts in 40-digit
  arithmetic, with the Christoffel weights beta_0 / sum_k p_k(x)^2 of the
  normalized recurrence at the polished nodes.

Both return float64 (nodes, weights) rounded from 40 digits, and are
cached, since the higher-degree ones take a fraction of a second each.
"""

from functools import lru_cache

import mpmath
import numpy as np

DPS = 40


def _recurrence(npts, a, b):
    """Monic (diag, beta) of (1-s)^a (1+s)^b, ``npts + 1`` of each, with
    beta[0] the total mass."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    ab = a + b
    diag = [(b - a) / (ab + 2)]
    beta = [2 ** (ab + 1) * mpmath.gamma(a + 1) * mpmath.gamma(b + 1)
            / mpmath.gamma(ab + 2)]
    for k in range(1, npts + 1):
        s = 2 * k + ab
        diag.append((b * b - a * a) / (s * (s + 2)))
        if k == 1:
            beta.append(4 * (a + 1) * (b + 1) / ((ab + 2) ** 2 * (ab + 3)))
        else:
            beta.append(4 * k * (k + a) * (k + b) * (k + ab)
                        / (s * s * (s + 1) * (s - 1)))
    return diag, beta


def _floats(nodes, weights):
    return (np.array([float(x) for x in nodes]),
            np.array([float(v) for v in weights]))


@lru_cache(maxsize=None)
def eig_rule(npts, beta_left, beta_right):
    """Rule for (1-s)^beta_right (1+s)^beta_left from ``mpmath.eigsy``."""
    if npts > 16:
        raise ValueError("eig_rule is for npts <= 16; use newton_rule")
    with mpmath.workdps(DPS):
        diag, beta = _recurrence(npts, beta_right, beta_left)
        J = mpmath.zeros(npts, npts)
        for k in range(npts):
            J[k, k] = diag[k]
            if k + 1 < npts:
                J[k, k + 1] = J[k + 1, k] = mpmath.sqrt(beta[k + 1])
        E, Q = mpmath.eigsy(J)
        order = sorted(range(npts), key=lambda j: E[j])
        return _floats([E[j] for j in order],
                       [beta[0] * Q[0, j] ** 2 for j in order])


def _normalized(x, npts, diag, root):
    """p~_0..p~_npts(x) = sqrt(beta_0) p_k(x) and p~_npts'(x)."""
    p_prev, p = mpmath.mpf(0), mpmath.mpf(1)
    dp_prev, dp = mpmath.mpf(0), mpmath.mpf(0)
    values = [p]
    for k in range(npts):
        p_prev, p = p, ((x - diag[k]) * p - root[k] * p_prev) / root[k + 1]
        dp_prev, dp = dp, (p_prev + (x - diag[k]) * dp - root[k] * dp_prev) \
            / root[k + 1]
        values.append(p)
    return values, dp


@lru_cache(maxsize=None)
def newton_rule(npts, beta_left, beta_right):
    """Rule for (1-s)^beta_right (1+s)^beta_left from Newton-polished
    nodes and Christoffel weights. One step squares the float64 start's
    1e-16 error to about 1e-32, far below the rounding to float64."""
    with mpmath.workdps(DPS):
        diag, beta = _recurrence(npts, beta_right, beta_left)
        root = [mpmath.mpf(0)] + [mpmath.sqrt(v) for v in beta[1:]]
        J = np.diag([float(v) for v in diag[:npts]])
        off = [float(v) for v in root[1:npts]]
        J += np.diag(off, 1) + np.diag(off, -1)
        nodes, weights = [], []
        for x0 in np.linalg.eigvalsh(J):
            x = mpmath.mpf(float(x0))
            values, dp = _normalized(x, npts, diag, root)
            x -= values[npts] / dp
            values, _ = _normalized(x, npts, diag, root)
            nodes.append(x)
            weights.append(beta[0] / mpmath.fsum(v * v for v in values[:npts]))
        return _floats(nodes, weights)


def reference_rule(npts, beta_left, beta_right):
    """The eigsy rule where it is affordable, else the Newton rule."""
    if npts <= 16:
        return eig_rule(npts, beta_left, beta_right)
    return newton_rule(npts, beta_left, beta_right)
