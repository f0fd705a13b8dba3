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
allowed for moment weights, stays as it is, as does one so small that
alpha - 1 rounds to -1; the transform at its endpoint diverges.

The rules of one weight do not depend on t. ``_stacked_points`` stacks
the m - 1 rules of the given exponents and npts, forms the per-point
factors of the measure and of the two adjacent Cauchy kernels, and maps
them to the endpoints at one or several times with array operations;
``discretized_measure`` and ``cauchy_node_matrices`` both read it. It
takes its rules from a bounded per-rule cache and builds the ones that
cache misses, each once, batched over all of them (``_build_rules``:
from an asymptotic start whose nodes next to the ends are polished on the
hypergeometric series, or from one ``np.linalg.eigvalsh`` over the stacked
recurrence matrices where an exponent exceeds the start's bound, one
complex-step pass of the recurrence gives every node a Halley step and
its Christoffel-Darboux weight; a rule whose start was too poor for that
step takes another pass); ``gauss_jacobi_rule`` is the one-rule case,
the cached read-only (nodes, weights).
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple

import numpy as np
from numpy.linalg import LinAlgError

from .errors import (BadExponent, DivergentTransform, NonFinite, NotConverged,
                     UnderResolved)
from .weights import GeneralizedJacobiWeight, node_positions

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def npts_for(n: int, npts: int | None = None) -> int:
    """Quadrature points per piece for degree n: ``npts``, or max(64, n + 2)
    when none are given; UnderResolved for a given npts below n + 2. The
    rule on each piece integrates the measure exactly to degree 2 npts - 3,
    so x p_n^2 needs n + 2, as does the recurrence to degree n + 1."""
    if npts is not None and npts < n + 2:
        raise UnderResolved(f"npts = {npts} is below n + 2 = {n + 2}: the "
                            f"quadrature cannot resolve degree {n}")
    return max(64, n + 2) if npts is None else npts


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


# the imaginary step of the complex-step derivative: far below the
# rounding of any node, far above the float underflow of its products, and
# a power of two, so that dividing by it is exact
_COMPLEX_STEP = 2.0 ** -100
# degrees per block of the recurrence; at 5 rules of 64 points every
# block temporary stays under glibc's 128 KiB mmap threshold (above it,
# every build maps its temporaries afresh and pays their page faults)
_DEGREE_BLOCK = 16
# rules whose lowered exponents are all at most this start from
# ``_start_nodes``, the others from the eigenvalue solve. From that start
# the passes converged on every random draw up to exponent 10 at npts
# 1-130 (at npts 64 in two passes up to 6, two or three up to 10), and from
# about 10 up they run past the pass cap or find a root twice
_ASYMPTOTIC_BOUND = 3.0
# the nodes next to each end that the start polishes, the Newton steps it
# takes on them, and the terms of the series it takes them on
_END_NODES = 4
_END_STEPS = 3
_SERIES_TERMS = 30
# a rule is accepted once the predicted error of every node's Halley step
# is at most this, the spacing of the floats just above 1: next to an end,
# the recurrence's rounding alone makes a step of 2.1e-16 (exponent
# -1 + 1e-13, npts 64)
_ROUNDING = 2.0 ** -52
_MAX_PASSES = 10
_INSIDE = np.nextafter(1.0, 0.0)


def _asymptotic_nodes(npts: int, a, b):
    """The Gatteschi-Pittaluga interior approximation to the Gauss nodes of
    (1-s)^a (1+s)^b, one increasing row per exponent pair of the arrays
    ``a`` and ``b``, clipped strictly inside (-1, 1) (Hale and Townsend,
    SIAM J. Sci. Comput. 35 (2013) A652-A674, with k = npts..1)."""
    a, b = a[:, None], b[:, None]
    rho = npts + 0.5 * (a + b + 1.0)
    phi = (np.arange(npts, 0.0, -1.0) + 0.5 * a - 0.25) * (np.pi / rho)
    tan = np.tan(0.5 * phi)
    x = np.cos(phi + ((0.25 - a * a) / tan - (0.25 - b * b) * tan) / (4.0 * rho * rho))
    return np.clip(x, -_INSIDE, _INSIDE)


def _start_nodes(npts: int, a, b):
    """The start of the rules at or below ``_ASYMPTOTIC_BOUND``, one
    increasing row per exponent pair of the arrays ``a`` and ``b``:
    ``_asymptotic_nodes``, with the min(4, npts // 2) nodes next to each
    end polished by ``_END_STEPS`` Newton steps on the terminating series

        P_npts^(a,b)(s) ~ 2F1(-npts, npts + a + b + 1; a + 1; z),

    z = (1 - s) / 2, and on its mirror image in z = (1 + s) / 2 with b + 1
    in place of a + 1, truncated after ``_SERIES_TERMS`` terms. Newton runs
    on z, which carries a node's distance to its end in relative precision.
    Each series is summed along the last, contiguous axis, so that each
    rule's arithmetic is its own. Clipped strictly inside (-1, 1).
    """
    x = _asymptotic_nodes(npts, a, b)
    e = min(_END_NODES, npts // 2)
    if e:
        # one row per polished node, the e next to the right end of each
        # rule and then the e next to its left end, with z = 0.5 -+ 0.5 s,
        # its end's exponent and n + a + b
        ends = np.arange(-e, e)
        side = np.repeat([-0.5, 0.5], e)
        z = (0.5 + side * x[:, ends]).reshape(-1, 1)
        exponent = np.repeat(np.stack((a, b), axis=1), e, axis=1).reshape(-1, 1)
        k = np.arange(1.0, _SERIES_TERMS + 1.0)
        ratio = ((k - 1.0 - npts) / k * (k + np.repeat(npts + a + b, 2 * e)[:, None])
                 / (k + exponent))
        for _ in range(_END_STEPS):
            # the terms t_k past t_0 = 1: f - 1 is their sum, z f' that of
            # k t_k
            terms = np.multiply.accumulate(ratio * z, axis=1)
            z *= 1.0 - (1.0 + terms.sum(axis=1, keepdims=True)) / (
                k * terms).sum(axis=1, keepdims=True)
        x[:, ends] = (z.reshape(-1, 2 * e) - 0.5) / side
    return np.clip(x, -_INSIDE, _INSIDE)


def _recurrence_pass(x, shift, scale):
    """One complex-step pass of the rescaled recurrence at the nodes ``x``,
    one row per rule: (q_{n-1}, q_n) at x + i h. Each rule's arithmetic is
    its own, whichever rules share the pass."""
    # q of the degrees of one block and the two before it; q_{-1} = 0. The
    # row views are made once: per degree, indexing costs as much as the
    # arithmetic
    q = np.empty((_DEGREE_BLOCK + 2,) + x.shape, dtype=complex)
    q[0] = 0.0
    q[1] = 1.0
    rows = list(q)
    v = np.empty((_DEGREE_BLOCK,) + x.shape, dtype=complex)
    v_rows = list(v)
    multiply, subtract = np.multiply, np.subtract
    npts = len(shift)
    for k0 in range(0, npts, _DEGREE_BLOCK):
        nb = min(_DEGREE_BLOCK, npts - k0)
        vb = v[:nb]
        subtract(x, shift[k0:k0 + nb], vb)
        vb = vb.view(float)
        multiply(vb, scale[k0:k0 + nb], vb)
        for vk, q0, q1, q2 in zip(v_rows[:nb], rows, rows[1:], rows[2:]):
            multiply(vk, q1, q2)
            subtract(q2, q0, q2)
        q[:2] = q[nb:nb + 2]
    return q[0], q[1]


def _halley_pass(x, shift, scale, coef):
    """One recurrence pass at the nodes ``x`` of some rules, one row per
    rule: the Halley step of every node, whether the rule is accepted, and
    the weights at the stepped nodes. ``coef`` holds a + 1, b + 1,
    lam_n = n (n + a + b + 1), lam_n - (a + b + 2),
    lam_{n-1} = (n - 1) (n + a + b) and beta_0 / (r_n sigma_n sigma_{n-1}),
    with n = npts and a and b the exponents of (1-s)^a (1+s)^b, each as a
    column with one row per rule.
    """
    npts = x.shape[1]
    a1, b1, lam, lam_diff, lam_prev, cd = coef
    qm, qn = _recurrence_pass(x, shift, scale)
    q, dq = qn.real, qn.imag / _COMPLEX_STEP
    r, dr = qm.real, qm.imag / _COMPLEX_STEP
    # -q_n'', -q_{n-1}'' and q_n''' from the Jacobi equation
    # (1 - s^2) y'' + A y' + lam y = 0, with A = b - a - (a + b + 2) s
    # written without its cancellation next to the ends
    one_minus, one_plus = 1.0 - x, 1.0 + x
    u = one_minus * one_plus
    A = b1 * one_minus - a1 * one_plus
    m2q = (A * dq + lam * q) / u
    m2r = (A * dr + lam_prev * r) / u
    d3q = ((A - 2.0 * x) * m2q - lam_diff * dq) / u
    # Halley: p / (p' - p p'' / (2 p'))
    step = q / (dq + 0.5 * (q / dq) * m2q)
    # Christoffel-Darboux at the stepped node, where p_n = 0: the sum of
    # p_k^2 over k < n is r_n p_n' p_{n-1}, each factor to second order
    half = 0.5 * step
    weights = cd / ((dq + step * (m2q + half * d3q)) * (r - step * (dr + half * m2r)))
    # Halley leaves about |step|^3 / d^2, d the distance to the nearest
    # other node or end, and a step within rounding of the node leaves it
    # there: each gap bounds the steps of the two nodes beside it
    gaps = np.empty((len(x), npts + 1))
    gaps[:, 0] = one_plus[:, 0]
    gaps[:, -1] = one_minus[:, -1]
    np.subtract(x[:, 1:], x[:, :-1], out=gaps[:, 1:-1])
    gaps *= gaps
    size = np.abs(step)
    # a NaN step is not accepted
    accepted = ((size <= _ROUNDING) | (size * size * size <= _ROUNDING * np.minimum(
        gaps[:, 1:], gaps[:, :-1]))).all(axis=1)
    return step, accepted, weights


def _build_rules(npts: int, pairs):
    """Gauss rules of ``npts`` points for every (beta_left, beta_right) of
    ``pairs``, built together: a list of read-only (nodes, weights).

    Halley steps for the nodes, Christoffel-Darboux for the weights. A rule
    whose lowered exponents are all at most ``_ASYMPTOTIC_BOUND`` starts
    from ``_start_nodes``; the others start from the eigenvalues of their
    symmetric tridiagonal recurrence matrices, stacked and solved in one
    batched ``np.linalg.eigvalsh`` (no eigenvectors; LAPACK keeps a
    tridiagonal matrix as it is and ends in ``dsterf``). Every start is
    clipped strictly inside (-1, 1), so the 1 - s^2 that the Jacobi
    equation divides by is at least 2^-52 wherever a pass runs.

    Every pass of the recurrence runs at the nodes of all its rules at
    once, looping over the degree only, with two array operations per
    degree. It carries q_k = p_k / sigma_k, the normalized p_k (p_0 = 1)
    rescaled so that q_{k+1} = v_k q_k - q_{k-1}, with
    sigma_0 = sigma_1 = 1 and sigma_{k+1} = sigma_{k-1} r_k / r_{k+1}
    (r_k = sqrt(beta_k)). It runs at x + i h (h = ``_COMPLEX_STEP``), so
    that Im q_k / h is q_k' to rounding, and keeps q_{n-1} next to q_n.
    The Jacobi equation gives the higher derivatives, and each node takes
    a Halley step (``_halley_pass``). Its weight is
    beta_0 / (r_n p_n'(x*) p_{n-1}(x*)) at the stepped node x*, the
    Christoffel-Darboux form of beta_0 / sum_{k<n} p_k(x*)^2, with both
    factors Taylor-corrected to second order in the step. A rule is
    accepted after the pass in which every node has a step or a predicted
    error |step|^3 / d^2, d its distance to the nearest other node or end,
    of at most ``_ROUNDING``: the first pass, at npts 37-130 with
    exponents in [-0.999, 1]. Until then it takes its steps, clipped
    strictly inside (-1, 1), and runs the pass again, each rule on its
    own. Every operation is elementwise or along one rule's row, so a rule
    is the same to the bit whichever batch builds it.

    Raises NonFinite if a recurrence coefficient is not finite (a NaN or
    infinite exponent, or a mass beyond float range), and NotConverged if
    the eigenvalue solve fails, if a rule is not accepted after
    ``_MAX_PASSES`` passes, or if its nodes are not strictly increasing
    inside [-1, 1] or, from ``_start_nodes``, not each between the
    midpoints to the starts beside its own.
    """
    left, right = np.array(pairs, dtype=float).T
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            diag, beta = _monic_jacobi_recurrence(npts + 1, right, left)  # a: (1-s)
    except OverflowError:
        raise NonFinite(f"the mass of the rules for the exponents {pairs} "
                        f"overflows the float range") from None
    # the solve returns wrong or NaN eigenvalues without an error for some
    # non-finite inputs
    if not (np.isfinite(diag).all() and np.isfinite(beta).all()):
        raise NonFinite(
            f"recurrence coefficients of the exponents {pairs} are not finite")
    root = np.sqrt(beta)
    x = np.empty((len(pairs), npts))
    solve = np.maximum(left, right) > _ASYMPTOTIC_BOUND
    asymptotic = np.flatnonzero(~solve)
    start = _start_nodes(npts, right[asymptotic], left[asymptotic])
    x[asymptotic] = start
    if solve.any():
        # one (npts, npts) Jacobi matrix per rule, only its lower band filled
        jac = np.zeros((int(solve.sum()), npts, npts))
        i = np.arange(npts)
        jac[:, i, i] = diag[:npts, solve].T
        jac[:, i[1:], i[:-1]] = root[1:npts, solve].T
        try:
            x[solve] = np.clip(np.linalg.eigvalsh(jac, UPLO="L"), -_INSIDE, _INSIDE)
        except LinAlgError:
            raise NotConverged(
                f"eigenvalues of the npts={npts} rules for exponents {pairs} "
                f"did not converge") from None
        del jac  # its memory serves the pass's buffers; the heap need not grow
    # sigma over the degree, one column per rule: a product of r_k / r_{k+1}
    # over every other k
    sigma = np.ones((npts + 1, len(pairs)))
    ratio = root[1:npts] / root[2:]
    np.cumprod(ratio[0::2], axis=0, out=sigma[2::2])
    np.cumprod(ratio[1::2], axis=0, out=sigma[3::2])
    # per degree and rule, broadcast over the nodes: v_k = (x - shift_k)
    # scale_k with shift_k = diag_k - i h
    scale = (sigma[:npts] / (sigma[1:] * root[1:]))[:, :, None]
    shift = diag[:npts, :, None] - 1j * _COMPLEX_STEP
    # the per-rule constants of ``_halley_pass``, broadcast over the nodes
    ab = left + right
    lam = npts * (npts + ab + 1.0)
    cd = beta[0] / (root[npts] * sigma[npts] * sigma[npts - 1])
    per_rule = np.stack((right + 1.0, left + 1.0, lam, lam - (ab + 2.0),
                         (npts - 1.0) * (npts + ab), cd))[:, :, None]
    weights = np.empty_like(x)
    active = np.arange(len(pairs))
    for _ in range(_MAX_PASSES):
        nodes = x[active]
        step, accepted, weights[active] = _halley_pass(
            nodes, shift[:, active], scale[:, active], per_rule[:, active])
        nodes -= step
        if not accepted.all():
            # every root lies inside: a step beyond an end overshot the
            # root next to it
            nodes[~accepted] = np.clip(nodes[~accepted], -_INSIDE, _INSIDE)
        x[active] = nodes
        active = active[~accepted]
        if not active.size:
            break
    # each node from an asymptotic start stays between the midpoints to
    # the starts beside it, so the npts roots are distinct: the rule's nodes
    mid = 0.5 * (start[:, 1:] + start[:, :-1])
    polished = x[asymptotic]
    if active.size or not (
            (polished[:, :-1] < mid).all() and (polished[:, 1:] > mid).all()
            and (x[:, 1:] > x[:, :-1]).all()
            and (x[:, 0] >= -1.0).all() and (x[:, -1] <= 1.0).all()):
        raise NotConverged(
            f"the Halley passes of the npts={npts} rules for exponents "
            f"{pairs} did not converge")
    x.setflags(write=False)
    weights.setflags(write=False)
    return list(zip(x, weights))


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


def gauss_jacobi_rule(npts: int, beta_left: float, beta_right: float):
    """Gauss rule for (1-s)^beta_right (1+s)^beta_left ds on (-1, 1): the
    cached read-only arrays (nodes, weights).

    The one-rule case of ``_build_rules``, which builds all the fresh rules
    of a weight together: nodes by a Halley step from the Gatteschi-Pittaluga
    asymptotic start with its end nodes polished (from the eigenvalues of
    the symmetric tridiagonal recurrence matrix where an exponent exceeds
    ``_ASYMPTOTIC_BOUND``), and Christoffel-Darboux weights from the
    normalized recurrence at the nodes.
    Exact for degree <= 2*npts-1. Against 40-digit rules, for npts 1, 2, 9
    and 64 and exponents from -0.9 to 8, the nodes agree to 2.2e-16 and the
    weights to 5.5e-14 relative; at npts 130 to 2.2e-16 and 4.7e-13.
    Rules are cached per (npts, beta_left, beta_right).
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
    return _rule_cached.rules(int(npts), [(beta_left, beta_right)])[0]


def _absorbs(a: float) -> bool:
    """The exponent rule: the rules beside an endpoint of exponent a lower it
    by one and absorb the Cauchy kernel there, where a - 1 > -1 in floats."""
    return a - 1.0 > -1.0


def _stacked_points(w: GeneralizedJacobiWeight, ts, npts: int):
    """The absorbed rules of ``npts`` points, one per piece, mapped to the
    endpoints at the times ``ts`` from one ``node_positions``: (positions,
    points, weights, kernel weights, piece, free, left, right). The mapped
    points and the measure and kernel weights are (len(ts), P) arrays; the
    per-point rest does not depend on t.

    The rule on piece p, from ``_rule_cached``, is the Gauss rule for
    (1+s)^lo (1-s)^hi, with lo = alpha_p - 1 where alpha_p > 0 and
    lo = alpha_p otherwise, and hi likewise from alpha_{p+1}. ``piece`` is
    the piece of each point, and ``free[k]`` marks the points whose piece
    does not end at endpoint k. The powers the rule lowered are per-point
    factors: (1+s)^(alpha_p - lo) (1-s)^(alpha_{p+1} - hi) turns it into
    the measure on p; ``left`` = -(1-s)^(alpha_{p+1} - hi) and ``right`` =
    (1+s)^(alpha_p - lo) turn it into the Cauchy kernels 1/(x_p - u) and
    1/(x_{p+1} - u) times the measure, up to the half-width of p (for an
    endpoint with alpha > 0).

    The kernel weight of a point is C_p times the rule weight times
    half^(alpha_p + alpha_{p+1}) of its piece, times |u - x_k|^alpha_k for
    every endpoint k its piece does not end at, multiplied in that order of
    k, one factor array at a time; the power is taken only where its factor
    is used. The measure weight is that times half times the measure factor.
    """
    X = node_positions(w, ts)
    alpha, m = w.alpha.tolist(), w.m
    drop = [float(_absorbs(a)) for a in alpha]  # taken off each exponent
    built = _rule_cached.rules(
        npts, [(alpha[p] - drop[p], alpha[p + 1] - drop[p + 1]) for p in range(m - 1)])
    s = np.concatenate([nodes for nodes, _ in built])
    piece = np.repeat(np.arange(m - 1), npts)
    to_left = (1.0 + s) ** np.take(drop, piece)   # (1+s)^(alpha_p - lo)
    to_right = (1.0 - s) ** np.take(drop, piece + 1)
    k = np.arange(m)[:, None]
    free = (k != piece) & (k != piece + 1)
    # take keeps the rows contiguous (X[:, piece] would be column-major)
    xl, xr = np.take(X, piece, axis=1), np.take(X, piece + 1, axis=1)
    half = 0.5 * (xr - xl)
    xs = 0.5 * (xr + xl) + half * s
    eff = (w.pieces[piece] * np.concatenate([wts for _, wts in built])
           * half ** (np.take(alpha, piece) + np.take(alpha, piece + 1)))
    fk = np.empty_like(xs)
    for k in range(m):
        np.subtract(xs, X[:, k, None], out=fk)
        np.abs(fk, out=fk)
        np.power(fk, alpha[k], out=fk, where=free[k])
        np.multiply(eff, fk, out=eff, where=free[k])
    half *= to_left * to_right
    return X, xs, eff * half, eff, piece, free, -to_right, to_left


def discretized_measure(w: GeneralizedJacobiWeight, t: float, npts: int):
    """Composite absorbed rule: (points, weights) with sum w_i f(x_i) ~ int w f.

    The stacked absorbed rules mapped to the endpoints at t, with the measure
    factor of each point in its weight; any exponents > -1 are allowed.
    """
    _, xs, ws = _stacked_points(w, (t,), npts)[:3]
    return xs[0], ws[0]


def cauchy_node_matrices(w: GeneralizedJacobiWeight, ts, npts: int):
    """Cauchy transforms at the endpoints as one linear map per time.

    Returns (points, weights, x, Q) for the times ``ts``: the points and
    weights of ``discretized_measure`` and the endpoint positions x, one
    row per time; and Q, of shape (times, m, points), such that, at time
    ts[s], q(x_j) = int w(u) f(u) / (x_j - u) du = Q[s, j] @ f(points[s])
    for every endpoint j.

    The one rule per piece serves the measure and every transform. On a piece
    away from x_j the measure carries the smooth factor 1/(x_j - u). On
    the one or two pieces ending at x_j the factor combines with the
    endpoint singularity into |u - x_j|^(alpha_j - 1), which the piece's
    rule absorbs when alpha_j > 0; what remains of the measure there is the
    ``left`` (x_j the left end) or ``right`` factor of ``_stacked_points``,
    a polynomial of degree at most 1. So (m-1) rules serve all. Points,
    weights and Q come from a fixed number of array operations for all
    times at once, with no loop over times, pieces or nodes. Raises
    DivergentTransform for an endpoint with alpha_j <= 0 or alpha_j - 1
    rounding to -1.
    """
    for j, a in enumerate(w.alpha.tolist()):
        if not _absorbs(a):
            raise DivergentTransform(
                f"q(x_{j + 1}) diverges: alpha_{j + 1} = {a} "
                + ("<= 0" if a <= 0.0 else "and alpha - 1 rounds to -1"))
    x, points, ws, eff, piece, free, left, right = _stacked_points(w, ts, npts)
    Q = np.empty((len(points), w.m, points.shape[1]))
    np.divide(ws[:, None, :], x[:, :, None] - points[:, None, :],
              out=Q, where=free)
    # the pieces ending at a node: its kernel times the measure, from the
    # rule that absorbs both
    cols = np.arange(points.shape[1])
    Q[:, piece, cols] = eff * left
    Q[:, piece + 1, cols] = eff * right
    return points, ws, x, Q
