"""Hankel determinants of a moment sequence, a reference for the tests.

A plain module rather than a conftest fixture so that test files can import
it by name whichever other test directories pytest collects.
"""

import numpy as np

from gjflow import IndexOutOfRange


def hankel_det(mu, n: int) -> float:
    """Determinant of the n x n moment matrix [mu_{i+j}], via pivoted LU."""
    mu = np.asarray(mu, dtype=float)
    if n < 0:
        raise IndexOutOfRange(f"n must be >= 0, got {n}")
    if n == 0:
        return 1.0
    if len(mu) < 2 * n - 1:
        raise IndexOutOfRange(
            f"need moments up to 2n-2 = {2 * n - 2}, have {len(mu) - 1}"
        )
    idx = np.arange(n)
    return float(np.linalg.det(mu[idx[:, None] + idx[None, :]]))
