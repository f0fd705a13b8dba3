"""Orthonormal polynomial recurrence coefficients.

The three-term recurrence is
``a_{n+1} p_{n+1}(x) = (x - b_n) p_n(x) - a_n p_{n-1}(x)`` with
``p_n(x) = gamma_n x^n + ...`` orthonormal against the weight. The
coefficients come from the discretized Stieltjes procedure on the
quadrature measure (``stieltjes_recurrence`` can carry p_n over points
beyond the measure's); ``momentflow.direct_moments`` gives the moments
mu_n that the ``moments`` command reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, LostOrthogonality, NonFinite
from .quadrature import discretized_measure, npts_for
from .weights import GeneralizedJacobiWeight


@dataclass(frozen=True)
class RecurrenceTable:
    """Recurrence coefficients up to degree N.

    a[0] = 0, so the recurrence holds at n = 0 with p_{-1} = 0; a[1..N],
    b[0..N-1], gamma[0..N] are meaningful. gamma_{n-1} = a_n gamma_n by
    construction. A batched ``stieltjes_recurrence`` gives the arrays a
    leading axis, one row per measure, and the degree is the last axis.
    """

    a: np.ndarray
    b: np.ndarray
    gamma: np.ndarray

    @property
    def N(self) -> int:
        return self.gamma.shape[-1] - 1

    def row(self, i: int) -> "RecurrenceTable":
        """The table of measure i of a batched table."""
        return RecurrenceTable(a=self.a[i], b=self.b[i], gamma=self.gamma[i])


def stieltjes_procedure(w: GeneralizedJacobiWeight, t: float, N: int,
                        npts: int | None = None) -> RecurrenceTable:
    """Build a_1..a_N, b_0..b_{N-1}, gamma_0..gamma_N by discretized Stieltjes
    on ``discretized_measure`` of ``npts_for(N, npts)`` points, which
    integrate the p_N^2 of a_N and gamma_N exactly."""
    if N < 0:
        raise IndexOutOfRange(f"N must be >= 0, got {N}")
    xs, ws = discretized_measure(w, t, npts_for(N, npts))
    return stieltjes_recurrence(xs, ws, N)[0].row(0)


def stieltjes_recurrence(xs: np.ndarray, ws: np.ndarray, N: int):
    """Discretized Stieltjes procedure that also carries p over extra points.

    The measure is sum_i ws[i] delta(x - xs[i]) over the first len(ws)
    points; the rest of ``xs`` only rides along. b_n = int w x p_n^2;
    a_{n+1} is the norm of (x - b_n) p_n - a_n p_{n-1};
    gamma_0 = mu_0^{-1/2}, gamma_{n+1} = gamma_n / a_{n+1}.

    Returns (table, p, p_prev) with p = p_{N-1} and p_prev = p_{N-2} (0 when
    N = 1) at every entry of ``xs``: the arithmetic of ``eval_polynomial``
    at degree N-1, so a caller that needs b_n and p_n, p_{n-1} on more
    points than the measure's runs one recurrence with N = n + 1.

    ``xs`` and ``ws`` hold one measure per row (1-D arrays are one row),
    and every output has that leading axis (the table's arrays too); each
    row has the arithmetic of a call on it alone, dot products included.
    Raises LostOrthogonality on nonpositive mass or when a norm falls below
    the roundoff floor of its row, and NonFinite when some gamma_n
    overflows; with several rows, the error is that of the first row that
    fails, and it carries that row as ``row``.
    """
    xs, ws = np.atleast_2d(xs, ws)
    k = ws.shape[1]
    x = xs[:, :k]
    width = np.maximum.reduce(x, axis=1) - np.minimum.reduce(x, axis=1)
    floor = 1e-14 * width * width
    mu0 = np.add.reduce(ws, axis=1)
    # rows that fail go on with meaningless values and are reported below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # scalar pow: numpy's vectorized pow can differ from it in the
        # last bit
        gamma0 = np.array([mu ** -0.5 if mu > 0.0 else np.inf
                           for mu in mu0.tolist()])[:, None]
        # four buffers rotate in place; every product runs on the whole
        # rows (a strided column view costs more per product), and the dot
        # products read the measure's columns of ``sq``
        p_prev, p, ptil, scratch = np.empty((4,) + xs.shape)
        p_prev[:] = 0.0
        p[:] = gamma0
        sq = np.empty_like(xs)
        sq_k = sq[:, :k]
        # a, b and the norms^2 by degree, one (rows, 1) column per degree
        coef = np.zeros((3, N + 1) + gamma0.shape)
        a, b, s2 = coef
        for n, (an, bn, s2n, a_next) in enumerate(zip(a, b, s2, a[1:])):
            np.multiply(xs, p, sq)
            sq *= p
            np.vecdot(ws, sq_k, out=bn, keepdims=True)
            np.subtract(xs, bn, ptil)
            ptil *= p
            np.multiply(p_prev, an, scratch)
            ptil -= scratch
            np.multiply(ptil, ptil, sq)
            np.vecdot(ws, sq_k, out=s2n, keepdims=True)
            np.sqrt(s2n, out=a_next)
            if n + 1 < N:
                np.divide(ptil, a_next, scratch)
                p_prev, p, scratch = p, scratch, p_prev
        a, b, s2 = a[..., 0].T, b[:N, :, 0].T, s2[:N, :, 0].T
        gamma = np.concatenate((gamma0, a[:, 1:]), axis=1)
        np.divide.accumulate(gamma, axis=1, out=gamma)
    # a row without mass has gamma_0 = inf, so it fails the last test too
    if not ((s2 > floor[:, None]).all() and np.isfinite(gamma[:, -1]).all()):
        failed = (s2 <= floor[:, None]).any(axis=1) | ~np.isfinite(gamma[:, -1])
        raise _first_failure(int(np.argmax(failed)), mu0, s2, floor, gamma)
    return RecurrenceTable(a=a, b=b, gamma=gamma), p, p_prev


def _first_failure(row: int, mu0, s2, floor, gamma) -> Exception:
    """The error of ``stieltjes_recurrence`` for one failing row, with the
    checks in the order of a loop over the degree: the mass, each norm,
    then the overflow of gamma."""
    if mu0[row] <= 0.0:
        exc = LostOrthogonality(f"nonpositive total mass {mu0[row]}")
    elif np.any(s2[row] <= floor[row]):
        n = int(np.argmax(s2[row] <= floor[row]))
        exc = LostOrthogonality(
            f"norm^2 = {s2[row, n]} at degree {n + 1} below floor {floor[row]}"
        )
    else:
        bad = int(np.argmin(np.isfinite(gamma[row])))
        exc = NonFinite(f"gamma_{bad} overflows the float range at degree {bad}")
    exc.row = row
    return exc


def eval_polynomial(table: RecurrenceTable, n: int, x):
    """Evaluate (p_n(x), p_n'(x), p_{n-1}(x)) by the forward recurrence."""
    if n < 0 or n > table.N:
        raise IndexOutOfRange(f"degree {n} outside table range 0..{table.N}")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    xv = np.atleast_1d(x_arr)
    p_prev = np.zeros_like(xv)
    d_prev = np.zeros_like(xv)
    p = np.full_like(xv, table.gamma[0])
    d = np.zeros_like(xv)
    for k in range(n):
        an1 = table.a[k + 1]
        xb = xv - table.b[k]
        p_new = (xb * p - table.a[k] * p_prev) / an1
        d_new = (p + xb * d - table.a[k] * d_prev) / an1
        p_prev, p = p, p_new
        d_prev, d = d, d_new
    if scalar:
        return float(p[0]), float(d[0]), float(p_prev[0])
    return p, d, p_prev
