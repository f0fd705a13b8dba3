"""Closed-form Jacobi recurrence coefficients, an oracle for the tests.

A plain module rather than a conftest fixture so that test files can import
it by name whichever other test directories pytest collects.
"""

import numpy as np


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
