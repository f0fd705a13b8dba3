"""Jacobi references for the tests: closed-form recurrence coefficients, and
Gauss-Jacobi rules from a real-arithmetic Newton/Christoffel pass.

A plain module rather than a conftest fixture so that test files can import
it by name whichever other test directories pytest collects.
"""

import numpy as np

from gjflow.quadrature import _monic_jacobi_recurrence


def jacobi_orthonormal_coeffs(a: float, b: float, N: int):
    """Closed-form recurrence coefficients for the weight (1-x)^a (1+x)^b.

    Returns (a_1..a_N, b_0..b_{N-1}) for the orthonormal three-term
    recurrence; independent oracle for the quadrature-based construction.
    """
    ab = a + b
    bs = np.empty(N)
    bs[0] = (b - a) / (ab + 2.0)
    for n in range(1, N):
        bs[n] = (b * b - a * a) / ((2 * n + ab) * (2 * n + ab + 2.0))
    asq = np.empty(N)
    asq[0] = 4.0 * (a + 1.0) * (b + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
    for n in range(2, N + 1):
        s = 2.0 * n + ab
        asq[n - 1] = 4.0 * n * (n + a) * (n + b) * (n + ab) / (s * s * (s * s - 1.0))
    return np.sqrt(asq), bs


def real_arithmetic_rules(npts: int, pairs):
    """The rules of ``gjflow.quadrature._build_rules(npts, pairs)`` from the
    same recurrence, started from one batched eigenvalue solve whatever the
    exponents, with the Newton step and the Christoffel weights taken by
    the plain float recurrence:
    p_k and p_k' carried side by side (p_0 = 1), no rescaling, no complex
    step. A list of (nodes, weights), one per pair.
    """
    left, right = np.array(pairs, dtype=float).T
    diag, beta = _monic_jacobi_recurrence(npts + 1, right, left)
    root = np.sqrt(beta)
    jac = np.zeros((len(pairs), npts, npts))
    i = np.arange(npts)
    jac[:, i, i] = diag[:npts].T
    jac[:, i[1:], i[:-1]] = root[1:npts].T
    x = np.linalg.eigvalsh(jac, UPLO="L").T
    # sqrt(beta_{k+1}) p_{k+1} = (x - diag_k) p_k - sqrt(beta_k) p_{k-1} and
    # its derivative; p_{-1} = 0
    prev, cur = np.zeros((2, 2) + x.shape)
    cur[0] = 1.0
    acc, dacc = np.zeros((2,) + x.shape)  # sum_{k<n} of p_k^2 and of p_k p_k'
    for d, r0, r1 in zip(diag[:npts], root[:npts], root[1:]):
        p, dp = cur
        acc += p * p
        dacc += p * dp
        nxt = (x - d) * cur - r0 * prev
        nxt[1] += p
        prev, cur = cur, nxt / r1
    step = cur[0] / cur[1]
    nodes = (x - step).T
    weights = (beta[0] / (acc - 2.0 * dacc * step)).T
    return list(zip(nodes, weights))
