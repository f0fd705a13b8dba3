"""Singularity-absorbing quadrature against generalized Jacobi weights.

Every integral over a piece [x_p, x_{p+1}], mapped to s in (-1, 1),
absorbs the endpoint factors (1+s)^alpha_p (1-s)^alpha_{p+1} into one
Gauss-Jacobi rule, so the remaining factor is smooth on the closed piece
and the composite rule converges spectrally. The rule lowers each exponent
alpha > 0 by one: its weight (1+s)^(alpha_p - 1) (1-s)^(alpha_{p+1} - 1)
integrates the measure with the polynomial factor (1+s)(1-s), and the
Cauchy kernels 1/(x_p - u) and 1/(x_{p+1} - u), whose poles cancel one of
the two, with -(1-s) and (1+s). So one rule per piece serves the measure
and the transforms at both of its ends (polynomial modification of a
weight; Gautschi, Orthogonal Polynomials: Computation and Approximation,
2004). On its piece it integrates (1+s)^alpha_p (1-s)^alpha_{p+1} times
a polynomial of degree 2 npts - 3 exactly. An exponent alpha <= 0,
allowed for moment weights, stays as it is; the transform at its endpoint
diverges.

The rules of one weight do not depend on t: for given exponents and npts
they are stacked once into a small cached table of m - 1 rules, with the
per-point factors of the measure and of the two adjacent Cauchy kernels,
and ``discretized_measure`` and ``cauchy_node_matrices`` both map that
one table to the endpoints at one or several times with array
operations. A table takes its rules from a bounded per-rule cache and
builds the ones it misses, each once, in one batched pass over all of them
(``_build_rules``: one ``np.linalg.eigvalsh`` over the stacked recurrence
matrices for the nodes); ``gauss_jacobi_rule`` is the one-rule case.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError

from .errors import BadExponent, DivergentTransform, IndexOutOfRange
from .weights import GeneralizedJacobiWeight, stage_node_data

DEFAULT_NPTS = 64

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule on (-1, 1) for the weight (1-s)^beta_right (1+s)^beta_left."""

    nodes: np.ndarray
    weights: np.ndarray
    beta_left: float
    beta_right: float


def _monic_jacobi_recurrence(n: int, a, b):
    """Monic recurrence coefficients for the weights (1-s)^a (1+s)^b, one
    column per exponent pair of the equal-length arrays ``a`` and ``b``.

    Returns (diag, beta), each of shape (n, len(a)), where beta[0] is the
    total mass and pi_{k+1} = (s - diag[k]) pi_k - beta[k] pi_{k-1}. Each
    column is the arithmetic of the scalar formulas for its pair.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = a + b
    diag = np.empty((n, len(ab)))
    beta = np.empty((n, len(ab)))
    diag[0] = (b - a) / (ab + 2.0)
    beta[0] = [
        2.0 ** (x + 1.0) * math.exp(
            math.lgamma(ai + 1.0) + math.lgamma(bi + 1.0) - math.lgamma(x + 2.0))
        for ai, bi, x in zip(a.tolist(), b.tolist(), ab.tolist())
    ]
    if n > 1:
        diag[1] = (b * b - a * a) / ((2.0 + ab) * (4.0 + ab))
        beta[1] = 4.0 * (a + 1.0) * (b + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
    if n > 2:
        k = np.arange(2, n, dtype=float)[:, None]
        s = 2.0 * k + ab
        diag[2:] = (b * b - a * a) / (s * (s + 2.0))
        beta[2:] = 4.0 * k * (k + a) * (k + b) * (k + ab) / (s * s * (s + 1.0) * (s - 1.0))
    return diag, beta


def _build_rules(npts: int, pairs):
    """Gauss rules of ``npts`` points for every (beta_left, beta_right) of
    ``pairs``, built together: a list of read-only (nodes, weights).

    Golub-Welsch for the nodes, Christoffel for the weights. The nodes are
    the eigenvalues of the rules' symmetric tridiagonal recurrence matrices,
    stacked and solved in one batched ``np.linalg.eigvalsh`` (no
    eigenvectors; LAPACK keeps a tridiagonal matrix as it is and ends in
    ``dsterf``). One forward pass of the recurrence, normalized so that
    p_0 = 1, then carries p_k and p_k' at all nodes of all rules, looping
    over the degree only. From it every node takes one Newton step
    x -= p_n / p_n', and its weight is beta_0 / sum_{k<n} p_k(x)^2,
    corrected to first order for that step. Raises ValueError if a
    recurrence coefficient is not finite (a NaN or infinite exponent, or a
    mass beyond float range) and LinAlgError if the eigenvalue solve does
    not converge.
    """
    left, right = np.array(pairs, dtype=float).T
    diag, beta = _monic_jacobi_recurrence(npts + 1, right, left)  # a: (1-s)
    # the solve returns wrong or NaN eigenvalues without an error for some
    # non-finite inputs
    if not (np.isfinite(diag).all() and np.isfinite(beta).all()):
        raise ValueError(
            f"recurrence coefficients of the exponents {pairs} are not finite")
    root = np.sqrt(beta)
    # one (npts, npts) Jacobi matrix per rule, only its lower band filled
    jac = np.zeros((len(pairs), npts, npts))
    i = np.arange(npts)
    jac[:, i, i] = diag[:npts].T
    jac[:, i[1:], i[:-1]] = root[1:npts].T
    try:
        x = np.linalg.eigvalsh(jac, UPLO="L").T.copy()
    except LinAlgError as exc:
        raise LinAlgError(
            f"eigenvalues of the npts={npts} rules for exponents {pairs} "
            f"did not converge") from exc
    # sqrt(beta_{k+1}) p_{k+1} = (x - diag_k) p_k - sqrt(beta_k) p_{k-1} and
    # its derivative, with (p, p') of three consecutive degrees in buffers
    # that rotate; p_{-1} = 0
    prev, cur, nxt = np.zeros((3, 2) + x.shape)
    cur[0] = 1.0
    sums = np.zeros((2,) + x.shape)  # sum_{k<n} of p_k^2 and of p_k p_k'
    u, tmp = np.empty_like(x), np.empty_like(sums)
    for d, r0, r1 in zip(diag[:npts], root[:npts], root[1:]):
        p = cur[0]
        np.multiply(p, cur, out=tmp)
        sums += tmp
        np.subtract(x, d, out=u)
        np.multiply(u, cur, out=nxt)
        dp = nxt[1]
        dp += p
        np.multiply(r0, prev, out=tmp)
        nxt -= tmp
        nxt /= r1
        prev, cur, nxt = cur, nxt, prev
    p, dp = cur
    step = p / dp
    acc, dacc = sums
    nodes = (x - step).T.copy()
    weights = (beta[0] / (acc - 2.0 * dacc * step)).T.copy()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return list(zip(nodes, weights))


class _RuleCache:
    """Gauss-Jacobi rules by (npts, beta_left, beta_right), at most
    ``maxsize`` of them, the least recently used dropped first.

    ``rules`` looks up the rules of one npts for a list of exponent pairs
    and builds the missing ones, each once, in one ``_build_rules`` pass.
    ``cache_info`` counts lookups as ``functools.lru_cache`` does: a lookup
    is a miss when it builds its rule, a hit otherwise.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.hits = self.misses = 0
        self._rules = OrderedDict()

    def rules(self, npts: int, pairs):
        keys = [(npts,) + tuple(pair) for pair in pairs]
        distinct = list(dict.fromkeys(keys))
        found = {}
        for key in distinct:
            if key in self._rules:
                self._rules.move_to_end(key)
                found[key] = self._rules[key]
        fresh = [key for key in distinct if key not in found]
        self.hits += len(keys) - len(fresh)
        self.misses += len(fresh)
        if fresh:
            built = _build_rules(npts, [key[1:] for key in fresh])
            for key, rule in zip(fresh, built):
                found[key] = self._rules[key] = rule
            while len(self._rules) > self.maxsize:
                self._rules.popitem(last=False)
        return [found[key] for key in keys]

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self._rules))


_rule_cached = _RuleCache(maxsize=512)


def gauss_jacobi_rule(npts: int, beta_left: float, beta_right: float) -> QuadratureRule:
    """Gauss rule for (1-s)^beta_right (1+s)^beta_left ds on (-1, 1).

    The one-rule case of ``_build_rules``, which builds all the fresh rules
    of a rule table in one pass: Golub-Welsch nodes (the eigenvalues of the
    symmetric tridiagonal recurrence matrices, one batched
    ``np.linalg.eigvalsh`` for all rules) polished by one Newton step,
    and Christoffel weights from the normalized recurrence at the nodes.
    Exact for degree <= 2*npts-1. Against 40-digit rules, for npts <= 64
    and exponents down to -0.9, the nodes agree to 2.3e-16 and the weights
    to 3.5e-14 relative. Rules are cached per (npts, beta_left, beta_right).
    Raises BadExponent unless both exponents are finite and > -1.
    """
    if npts < 1:
        raise ValueError(f"npts must be >= 1, got {npts}")
    beta_left = float(beta_left)
    beta_right = float(beta_right)
    # written so that NaN fails too
    if not (-1.0 < beta_left < math.inf and -1.0 < beta_right < math.inf):
        raise BadExponent(f"rule exponents must be finite and > -1, got "
                          f"({beta_left}, {beta_right})")
    [(nodes, wts)] = _rule_cached.rules(int(npts), [(beta_left, beta_right)])
    return QuadratureRule(nodes=nodes, weights=wts,
                          beta_left=beta_left, beta_right=beta_right)


def _eval_on(f, xs: np.ndarray) -> np.ndarray:
    try:
        fv = np.asarray(f(xs), dtype=float)
        if fv.shape == xs.shape:
            return fv
    except (TypeError, ValueError):
        pass
    return np.array([float(f(x)) for x in xs])


@dataclass(frozen=True)
class _RuleTable:
    """The absorbed rules of one (alpha, npts), one per piece, stacked point
    by point. Nothing here depends on t.

    The rule on piece p is the Gauss rule for (1+s)^lo (1-s)^hi, with
    lo = alpha_p - 1 where alpha_p > 0 and lo = alpha_p otherwise, and hi
    likewise from alpha_{p+1}. The powers it lowered are per-point factors:
    ``measure`` = (1+s)^(alpha_p - lo) (1-s)^(alpha_{p+1} - hi) turns the
    rule into the measure on p; ``left`` = -(1-s)^(alpha_{p+1} - hi) and
    ``right`` = (1+s)^(alpha_p - lo) turn it into the Cauchy kernels
    1/(x_p - u) and 1/(x_{p+1} - u) times the measure, up to the half-width
    of p (for an endpoint with alpha > 0). ``scale`` is alpha_p +
    alpha_{p+1}, the power of the half-width in those kernel weights, and
    ``free[k]`` marks the points whose piece does not end at endpoint k.
    """

    s: np.ndarray
    wts: np.ndarray
    piece: np.ndarray
    scale: np.ndarray
    free: np.ndarray
    measure: np.ndarray
    left: np.ndarray
    right: np.ndarray


@lru_cache(maxsize=4)
def _rule_table(alpha: tuple, npts: int) -> _RuleTable:
    m = len(alpha)
    # what the rules beside each endpoint take off its exponent: one where
    # the Cauchy transform at that endpoint converges (alpha > 0)
    drop = [float(a > 0.0) for a in alpha]
    built = _rule_cached.rules(
        npts, [(alpha[p] - drop[p], alpha[p + 1] - drop[p + 1]) for p in range(m - 1)])
    s = np.concatenate([nodes for nodes, _ in built])
    piece = np.repeat(np.arange(m - 1), npts)
    to_left = (1.0 + s) ** np.take(drop, piece)   # (1+s)^(alpha_p - lo)
    to_right = (1.0 - s) ** np.take(drop, piece + 1)
    k = np.arange(m)[:, None]
    arrays = (
        s,
        np.concatenate([wts for _, wts in built]),
        piece,
        np.take(alpha, piece) + np.take(alpha, piece + 1),
        (k != piece) & (k != piece + 1),
        to_left * to_right,
        -to_right,
        to_left,
    )
    for arr in arrays:
        arr.setflags(write=False)
    return _RuleTable(*arrays)


def _table(w: GeneralizedJacobiWeight, npts: int) -> _RuleTable:
    return _rule_table(tuple(w.alpha.tolist()), int(npts))


def _stacked_points(w: GeneralizedJacobiWeight, X: np.ndarray, table: _RuleTable):
    """Mapped points, measure weights and adjacent-kernel weights of the
    table at each row of endpoint positions ``X`` (one row per time): three
    (len(X), points) arrays.

    The kernel weight of a point is C_p times the rule weight times
    half^scale of its piece, times |u - x_k|^alpha_k for every endpoint k
    its piece does not end at, multiplied in that order of k, one factor
    array at a time; the power is taken only where its factor is used. The
    measure weight is that times half times the table's ``measure``.
    """
    piece = table.piece
    # take keeps the rows contiguous (X[:, piece] would be column-major)
    xl, xr = np.take(X, piece, axis=1), np.take(X, piece + 1, axis=1)
    half = 0.5 * (xr - xl)
    xs = 0.5 * (xr + xl) + half * table.s
    eff = w.pieces[piece] * table.wts * half ** table.scale
    fk = np.empty_like(xs)
    for k in range(w.m):
        np.subtract(xs, X[:, k, None], out=fk)
        np.abs(fk, out=fk)
        free = table.free[k]
        np.power(fk, w.alpha[k], out=fk, where=free)
        np.multiply(eff, fk, out=eff, where=free)
    half *= table.measure
    return xs, eff * half, eff


def discretized_measure(w: GeneralizedJacobiWeight, t: float, npts: int = DEFAULT_NPTS):
    """Composite absorbed rule: (points, weights) with sum w_i f(x_i) ~ int w f.

    The stacked rule table mapped to the endpoints at t, with the measure
    factor of each point in its weight; any exponents > -1 are allowed.
    """
    xs, ws, _ = _stacked_points(w, stage_node_data(w, (t,)).x, _table(w, npts))
    return xs[0], ws[0]


def integrate_against_weight(w: GeneralizedJacobiWeight, f, t: float,
                             npts: int = DEFAULT_NPTS) -> float:
    """Integral of w(u, t) f(u) over the support, piecewise absorbed."""
    xs, ws = discretized_measure(w, t, npts)
    return float(np.dot(ws, _eval_on(f, xs)))


def cauchy_node_matrices(w: GeneralizedJacobiWeight, ts,
                         npts: int = DEFAULT_NPTS, nodes=None):
    """Cauchy transforms at endpoints as one linear map per time.

    Returns (points, weights, frames, Q) for the times ``ts``: the points
    and weights of ``discretized_measure``, one row per time; the
    ``NodeFrames`` of ``stage_node_data``; and Q, of shape (times,
    requested nodes, points), with one row per requested node (all m
    endpoints when ``nodes`` is None) such that, at time ts[s] and with
    j = nodes[i], q(x_j) = int w(u) f(u) / (x_j - u) du = Q[s, i] @ f(points[s]).

    The one rule table serves the measure and every transform. On a piece
    away from x_j the measure carries the smooth factor 1/(x_j - u). On
    the one or two pieces ending at x_j the factor combines with the
    endpoint singularity into |u - x_j|^(alpha_j - 1), which the piece's
    rule absorbs when alpha_j > 0; what remains of the measure there is the
    table's ``left`` (x_j the left end) or ``right`` factor, a polynomial
    of degree at most 1. So (m-1) rules serve all. Points, weights and Q
    come from a fixed number of array operations on the table for all
    times at once, with no loop over times, pieces or nodes. Raises
    IndexOutOfRange for a node index outside 0..m-1 and DivergentTransform
    for a node with alpha_j <= 0.
    """
    a = w.alpha
    for j in range(w.m) if nodes is None else nodes:
        if not 0 <= j < w.m:
            raise IndexOutOfRange(f"node index {j} outside 0..{w.m - 1}")
        if a[j] <= 0.0:
            raise DivergentTransform(
                f"q(x_{j + 1}) diverges: alpha_{j + 1} = {a[j]} <= 0"
            )
    frames = stage_node_data(w, ts)
    X = frames.x
    table = _table(w, npts)
    points, ws, eff = _stacked_points(w, X, table)
    Q = np.empty((len(X), w.m, points.shape[1]))
    np.divide(ws[:, None, :], X[:, :, None] - points[:, None, :],
              out=Q, where=table.free)
    # the pieces ending at a node: its kernel times the measure, from the
    # rule that absorbs both (the row of a node with alpha <= 0 is dropped)
    cols = np.arange(points.shape[1])
    Q[:, table.piece, cols] = eff * table.left
    Q[:, table.piece + 1, cols] = eff * table.right
    if nodes is not None:
        Q = Q[:, np.asarray(nodes, dtype=int)]
    return points, ws, frames, Q
