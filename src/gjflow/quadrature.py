"""Singularity-absorbing quadrature against generalized Jacobi weights.

Every integral over a piece [x_j, x_{j+1}] absorbs the two adjacent
endpoint factors |x - x_j|^a |x - x_{j+1}|^b into a Gauss-Jacobi rule, so
the remaining factor is smooth on the closed piece and the composite rule
converges spectrally.

The rules of one weight do not depend on t: for given exponents and npts
they are stacked once into a small cached table (the plain piece rules,
then, where Cauchy transforms are wanted, the singular rules beside the
nodes), and ``discretized_measure`` and ``cauchy_node_matrices`` both map
that one table to the endpoints at one or several times with array
operations. A table takes its rules from a bounded per-rule cache and
builds the ones it misses, each once, in one batched pass over all of them
(``_build_rules``); ``gauss_jacobi_rule`` is the one-rule case.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dsterf

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
    the eigenvalues of each rule's symmetric tridiagonal recurrence matrix
    (``dsterf``, no eigenvectors; the one loop over rules). One forward pass
    of the recurrence, normalized so that p_0 = 1, then carries p_k and
    p_k' at all nodes of all rules, looping over the degree only. From it
    every node takes one Newton step x -= p_n / p_n', and its weight is
    beta_0 / sum_{k<n} p_k(x)^2, corrected to first order for that step.
    Raises ValueError if a recurrence coefficient is not finite (a NaN or
    infinite exponent, or a mass beyond float range) and LinAlgError if an
    eigenvalue solve does not converge.
    """
    left, right = np.array(pairs, dtype=float).T
    diag, beta = _monic_jacobi_recurrence(npts + 1, right, left)  # a: (1-s)
    # dsterf returns wrong or NaN eigenvalues with info 0 for some
    # non-finite inputs
    if not (np.isfinite(diag).all() and np.isfinite(beta).all()):
        raise ValueError(
            f"recurrence coefficients of the exponents {pairs} are not finite")
    root = np.sqrt(beta)
    x = np.empty((npts, len(pairs)))
    for j in range(len(pairs)):
        # f2py wants a non-empty e; LAPACK reads npts - 1 entries of it
        x[:, j], info = dsterf(diag[:npts, j], root[1:max(npts, 2), j])
        if info != 0:
            raise LinAlgError(
                f"dsterf: {info} eigenvalues of the npts={npts} rule for "
                f"exponents {pairs[j]} did not converge")
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
    symmetric tridiagonal recurrence matrix) polished by one Newton step,
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
    """The absorbed rules of one (alpha, npts), stacked point by point.

    The m-1 plain piece rules come first (``nplain`` points, the discretized
    measure). A table built with ``singular`` then holds the singular rules
    beside each node x_j with alpha_j > 0: the rule left of x_j, then the
    one right of it. Every rule on piece p
    absorbs the two endpoint factors of p; ``scale`` is its Jacobian
    exponent 1 + beta_left + beta_right, and ``free[k]`` marks the points
    whose rule does not absorb endpoint k. ``node`` and ``sign`` hold, for
    the singular points only, the node whose Cauchy factor the rule absorbs
    and the sign of x_node - u. Nothing here depends on t.
    """

    s: np.ndarray
    wts: np.ndarray
    piece: np.ndarray
    scale: np.ndarray
    free: np.ndarray
    node: np.ndarray
    sign: np.ndarray
    nplain: int


@lru_cache(maxsize=4)
def _rule_table(alpha: tuple, npts: int, singular: bool) -> _RuleTable:
    m = len(alpha)
    rules = [(p, alpha[p], alpha[p + 1]) for p in range(m - 1)]
    node, sign = [], []
    for j in range(m) if singular else ():
        if alpha[j] <= 0.0:  # q(x_j) diverges; cauchy_node_matrices refuses it
            continue
        if j > 0:  # node at the right end of piece j-1: x_j - u > 0
            rules.append((j - 1, alpha[j - 1], alpha[j] - 1.0))
            node.append(j)
            sign.append(1.0)
        if j < m - 1:  # node at the left end of piece j: x_j - u < 0
            rules.append((j, alpha[j] - 1.0, alpha[j + 1]))
            node.append(j)
            sign.append(-1.0)
    built = _rule_cached.rules(npts, [(bl, br) for _, bl, br in rules])
    piece = np.repeat([p for p, _, _ in rules], npts)
    k = np.arange(m)[:, None]
    arrays = (
        np.concatenate([nodes for nodes, _ in built]),
        np.concatenate([wts for _, wts in built]),
        piece,
        np.repeat([1.0 + bl + br for _, bl, br in rules], npts),
        (k != piece) & (k != piece + 1),
        np.repeat(np.array(node, dtype=int), npts),
        np.repeat(sign, npts),
    )
    for arr in arrays:
        arr.setflags(write=False)
    return _RuleTable(*arrays, nplain=(m - 1) * npts)


def _table(w: GeneralizedJacobiWeight, npts: int, singular: bool) -> _RuleTable:
    # callers of the measure alone do not pay for the 2(m-1) singular rules
    return _rule_table(tuple(w.alpha.tolist()), int(npts), singular)


def _stacked_points(w: GeneralizedJacobiWeight, X: np.ndarray,
                    table: _RuleTable, stop: int):
    """Mapped points and effective weights of the first ``stop`` table points
    at each row of endpoint positions ``X`` (one row per time): two
    (len(X), stop) arrays.

    Each weight is C_p times the rule weight times half^scale of its piece,
    times |u - x_k|^alpha_k for every endpoint k its rule does not absorb,
    multiplied in that order of k, one (len(X), stop) factor at a time; the
    power is taken only where its factor is used.
    """
    piece = table.piece[:stop]
    # take keeps the rows contiguous (X[:, piece] would be column-major)
    xl, xr = np.take(X, piece, axis=1), np.take(X, piece + 1, axis=1)
    half = 0.5 * (xr - xl)
    xs = 0.5 * (xr + xl) + half * table.s[:stop]
    eff = w.pieces[piece] * table.wts[:stop] * half ** table.scale[:stop]
    fk = np.empty_like(xs)
    for k in range(w.m):
        np.subtract(xs, X[:, k, None], out=fk)
        np.abs(fk, out=fk)
        free = table.free[k, :stop]
        np.power(fk, w.alpha[k], out=fk, where=free)
        np.multiply(eff, fk, out=eff, where=free)
    return xs, eff


def discretized_measure(w: GeneralizedJacobiWeight, t: float, npts: int = DEFAULT_NPTS):
    """Composite absorbed rule: (points, weights) with sum w_i f(x_i) ~ int w f.

    The plain piece rules of the stacked rule table, mapped to the endpoints
    at t; any exponents > -1 are allowed.
    """
    table = _table(w, npts, singular=False)
    xs, ws = _stacked_points(w, stage_node_data(w, (t,)).x, table, table.nplain)
    return xs[0], ws[0]


def integrate_against_weight(w: GeneralizedJacobiWeight, f, t: float,
                             npts: int = DEFAULT_NPTS) -> float:
    """Integral of w(u, t) f(u) over the support, piecewise absorbed."""
    xs, ws = discretized_measure(w, t, npts)
    return float(np.dot(ws, _eval_on(f, xs)))


def cauchy_node_matrices(w: GeneralizedJacobiWeight, ts,
                         npts: int = DEFAULT_NPTS, nodes=None):
    """Cauchy transforms at endpoints as one linear map per time.

    Returns (points, weights, frames, Q) for the times ``ts``: the points of
    every rule in the stacked rule table, one row per time; the effective
    weights of its plain slice (the first ``weights.shape[1]`` points and
    these weights are ``discretized_measure``); the ``NodeFrames`` of
    ``stage_node_data``; and Q, of shape (times, requested nodes, points),
    with one row per requested node (all m endpoints when ``nodes`` is
    None) such that, at time ts[s] and with j = nodes[i],
    q(x_j) = int w(u) f(u) / (x_j - u) du = Q[s, i] @ f(points[s]).

    Each piece contributes its plain absorbed rule, which carries the smooth
    factor 1/(x_j - u) for every node off that piece. On the one or two
    pieces adjacent to x_j the Cauchy factor combines with the endpoint
    singularity into |u - x_j|^(alpha_j - 1), still an admissible
    Gauss-Jacobi exponent exactly when alpha_j > 0 (sign: + on the piece
    left of x_j, - on the right). The table holds these singular rules for
    every node with alpha_j > 0, so with all nodes admissible there are
    3(m-1) rules. Points, weights and Q come from a fixed number of array
    operations on the table for all times at once, with no loop over
    times, pieces or nodes. Raises IndexOutOfRange for a node index
    outside 0..m-1 and DivergentTransform for a node with alpha_j <= 0.
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
    table = _table(w, npts, singular=True)
    k = table.nplain
    points, eff = _stacked_points(w, X, table, len(table.s))
    Q = np.zeros((len(X), w.m, points.shape[1]))
    # pieces adjacent to the node are left 0: the singular rules carry them
    np.divide(eff[:, None, :k], X[:, :, None] - points[:, None, :k],
              out=Q[:, :, :k], where=table.free[:, :k])
    Q[:, table.node, np.arange(k, points.shape[1])] = table.sign * eff[:, k:]
    if nodes is not None:
        Q = Q[:, np.asarray(nodes, dtype=int)]
    return points, eff[:, :k], frames, Q

