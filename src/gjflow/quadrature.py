"""Singularity-absorbing quadrature against generalized Jacobi weights.

Every integral over a piece [x_j, x_{j+1}] absorbs the two adjacent
endpoint factors |x - x_j|^a |x - x_{j+1}|^b into a Gauss-Jacobi rule, so
the remaining factor is smooth on the closed piece and the composite rule
converges spectrally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import BadExponent, DivergentTransform
from .weights import GeneralizedJacobiWeight, node_data

DEFAULT_NPTS = 64


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule on (-1, 1) for the weight (1-s)^beta_right (1+s)^beta_left."""

    nodes: np.ndarray
    weights: np.ndarray
    beta_left: float
    beta_right: float


def _monic_jacobi_recurrence(n: int, a: float, b: float):
    """Monic recurrence coefficients for the weight (1-s)^a (1+s)^b.

    Returns (diag, beta) where beta[0] is the total mass and
    pi_{k+1} = (s - diag[k]) pi_k - beta[k] pi_{k-1}.
    """
    ab = a + b
    diag = np.empty(n)
    beta = np.empty(n)
    diag[0] = (b - a) / (ab + 2.0)
    beta[0] = 2.0 ** (ab + 1.0) * math.exp(
        math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(ab + 2.0)
    )
    if n > 1:
        diag[1] = (b * b - a * a) / ((2.0 + ab) * (4.0 + ab))
        beta[1] = 4.0 * (a + 1.0) * (b + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
    if n > 2:
        k = np.arange(2, n, dtype=float)
        s = 2.0 * k + ab
        diag[2:] = (b * b - a * a) / (s * (s + 2.0))
        beta[2:] = 4.0 * k * (k + a) * (k + b) * (k + ab) / (s * s * (s + 1.0) * (s - 1.0))
    return diag, beta


@lru_cache(maxsize=512)
def _rule_cached(npts: int, beta_left: float, beta_right: float):
    a, b = beta_right, beta_left  # (1-s) exponent, (1+s) exponent
    diag, beta = _monic_jacobi_recurrence(npts, a, b)
    if npts == 1:
        nodes = diag.copy()
        wts = beta[:1].copy()
    else:
        nodes, vecs = eigh_tridiagonal(diag, np.sqrt(beta[1:]))
        wts = beta[0] * vecs[0, :] ** 2
    nodes.setflags(write=False)
    wts.setflags(write=False)
    return nodes, wts


def gauss_jacobi_rule(npts: int, beta_left: float, beta_right: float) -> QuadratureRule:
    """Gauss rule for (1-s)^beta_right (1+s)^beta_left ds on (-1, 1).

    Built Golub-Welsch style: eigenvalues of the symmetric tridiagonal
    recurrence matrix give the nodes, squared first eigenvector components
    scaled by the total mass give the weights. Exact for degree <= 2*npts-1.
    """
    if npts < 1:
        raise ValueError(f"npts must be >= 1, got {npts}")
    beta_left = float(beta_left)
    beta_right = float(beta_right)
    if beta_left <= -1.0 or beta_right <= -1.0:
        raise BadExponent(
            f"rule exponents must be > -1, got ({beta_left}, {beta_right})"
        )
    nodes, wts = _rule_cached(int(npts), beta_left, beta_right)
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


def _piece_points(w, nd, j, npts, beta_left, beta_right, skip):
    """Mapped nodes and effective weights for piece j with given absorbed
    exponents; node factors in `skip` are absorbed by the rule already."""
    xl, xr = nd.x[j], nd.x[j + 1]
    half = 0.5 * (xr - xl)
    mid = 0.5 * (xr + xl)
    rule = gauss_jacobi_rule(npts, beta_left, beta_right)
    xs = mid + half * rule.nodes
    eff = w.pieces[j] * rule.weights * half ** (1.0 + beta_left + beta_right)
    for k in range(w.m):
        if k in skip:
            continue
        eff = eff * np.abs(xs - nd.x[k]) ** w.alpha[k]
    return xs, eff


def discretized_measure(w: GeneralizedJacobiWeight, t: float, npts: int = DEFAULT_NPTS):
    """Composite absorbed rule: (points, weights) with sum w_i f(x_i) ~ int w f."""
    nd = node_data(w, t)
    xs_all, ws_all = [], []
    for j in range(w.m - 1):
        xs, eff = _piece_points(
            w, nd, j, npts,
            beta_left=w.alpha[j], beta_right=w.alpha[j + 1],
            skip=(j, j + 1),
        )
        xs_all.append(xs)
        ws_all.append(eff)
    return np.concatenate(xs_all), np.concatenate(ws_all)


def integrate_against_weight(w: GeneralizedJacobiWeight, f, t: float,
                             npts: int = DEFAULT_NPTS) -> float:
    """Integral of w(u, t) f(u) over the support, piecewise absorbed."""
    xs, ws = discretized_measure(w, t, npts)
    return float(np.dot(ws, _eval_on(f, xs)))


def cauchy_node_matrix(w: GeneralizedJacobiWeight, t: float,
                       npts: int = DEFAULT_NPTS, nodes=None):
    """Cauchy transforms at endpoints as one linear map of sample values.

    Returns (points, nd, Q): the stacked points of the absorbed rules, the
    node data at t, and a matrix with one row per requested node (all m
    endpoints when ``nodes`` is None) such that
    q(x_j) = int w(u) f(u) / (x_j - u) du = Q[i] @ f(points), j = nodes[i].

    Each piece contributes its plain absorbed rule, which carries the smooth
    factor 1/(x_j - u) for every requested node off that piece. On the one
    or two pieces adjacent to x_j the Cauchy factor combines with the
    endpoint singularity into |u - x_j|^(alpha_j - 1), still an admissible
    Gauss-Jacobi exponent exactly when alpha_j > 0 (sign: + on the piece
    left of x_j, - on the right). These singular rules are built for the
    requested nodes only, so with all nodes there are 3(m-1) rules.
    """
    nodes = np.arange(w.m) if nodes is None else np.asarray(nodes, dtype=int)
    a = w.alpha
    for j in nodes:
        if a[j] <= 0.0:
            raise DivergentTransform(
                f"q(x_{j + 1}) diverges: alpha_{j + 1} = {a[j]} <= 0"
            )
    nd = node_data(w, t)
    points, blocks = [], []
    for p in range(w.m - 1):
        xs, eff = _piece_points(w, nd, p, npts, a[p], a[p + 1], skip=(p, p + 1))
        block = eff / (nd.x[nodes, None] - xs)
        block[(nodes == p) | (nodes == p + 1)] = 0.0  # singular rules below
        points.append(xs)
        blocks.append(block)
    for i, j in enumerate(nodes):
        singular = []
        if j > 0:  # node at right end of piece j-1: x_j - u > 0
            singular.append((j - 1, 1.0, a[j - 1], a[j] - 1.0))
        if j < w.m - 1:  # node at left end of piece j: x_j - u < 0
            singular.append((j, -1.0, a[j] - 1.0, a[j + 1]))
        for p, sign, beta_left, beta_right in singular:
            xs, eff = _piece_points(w, nd, p, npts, beta_left, beta_right,
                                    skip=(p, p + 1))
            block = np.zeros((len(nodes), len(xs)))
            block[i] = sign * eff
            points.append(xs)
            blocks.append(block)
    return np.concatenate(points), nd, np.hstack(blocks)


def stieltjes_at_node(w: GeneralizedJacobiWeight, pvals, j: int, t: float,
                      npts: int = DEFAULT_NPTS) -> float:
    """Cauchy transform q(x_j) = int w(u) p(u) / (x_j - u) du at endpoint j.

    The row of ``cauchy_node_matrix`` for node j applied to pvals at the
    shared points; only the singular rules next to x_j are built, so other
    endpoints may have any admissible exponent. Raises DivergentTransform
    when alpha_j <= 0.
    """
    points, _, Q = cauchy_node_matrix(w, t, npts, nodes=[j])
    return float(Q[0] @ _eval_on(pvals, points))
