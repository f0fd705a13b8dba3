"""Per-piece absorbed quadrature, one Gauss-Jacobi rule at a time: an oracle
for the stacked rule table of ``gjflow.quadrature``, for ``init_state`` and
for the direct moments of ``gjflow.momentflow``.

Every rule is built on its own with ``gauss_jacobi_rule`` and mapped to its
piece in a loop; the Cauchy transform at a node is a sum over pieces, with
the two singular rules beside that node built only for it; the recurrence
and the node ratios are plain loops. None of it reads the stacked table.

From the float64 rules and endpoint positions on, everything is computed
in ``np.longdouble`` (80-bit extended on x86-64 Linux), so a comparison
measures the library's float64 roundoff rather than the sum of two: on a
narrow piece at high degree each float64 evaluation of the same rules is
off by up to about 7e-13 in verify's metric (checked against 50-digit
arithmetic). Where longdouble is plain double the reference is float64.
"""

import numpy as np

from gjflow import gauss_jacobi_rule, node_data

LD = np.longdouble


def _positions(w, t):
    return node_data(w, t).x.astype(LD)


def piece_points(w, x, j, npts, beta_left, beta_right):
    """Mapped nodes and effective weights of one absorbed rule on piece j;
    the rule absorbs the factors of endpoints j and j + 1."""
    xl, xr = x[j], x[j + 1]
    half = 0.5 * (xr - xl)
    mid = 0.5 * (xr + xl)
    nodes, weights = gauss_jacobi_rule(npts, beta_left, beta_right)
    xs = mid + half * nodes.astype(LD)
    eff = LD(w.pieces[j]) * weights.astype(LD) \
        * half ** (1 + LD(beta_left) + LD(beta_right))
    for k in range(w.m):
        if k not in (j, j + 1):
            eff = eff * np.abs(xs - x[k]) ** LD(w.alpha[k])
    return xs, eff


def measure(w, t, npts):
    """(points, weights) of the plain piece rules, piece by piece."""
    x = _positions(w, t)
    parts = [piece_points(w, x, j, npts, w.alpha[j], w.alpha[j + 1])
             for j in range(w.m - 1)]
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]))


def cauchy_transform(w, t, f, j, npts):
    """q(x_j) = int w(u) f(u) / (x_j - u) du for a vectorized f."""
    x = _positions(w, t)
    a = w.alpha
    total = LD(0)
    for p in range(w.m - 1):
        if j in (p, p + 1):
            continue
        xs, eff = piece_points(w, x, p, npts, a[p], a[p + 1])
        total += np.sum(eff * f(xs) / (x[j] - xs))
    if j > 0:  # piece left of x_j: x_j - u > 0
        xs, eff = piece_points(w, x, j - 1, npts, a[j - 1], a[j] - 1.0)
        total += np.sum(eff * f(xs))
    if j < w.m - 1:  # piece right of x_j: x_j - u < 0
        xs, eff = piece_points(w, x, j, npts, a[j] - 1.0, a[j + 1])
        total -= np.sum(eff * f(xs))
    return total


def direct_moments(w, n, t, npts=64):
    """(mu_n, nu) at time t on ``measure``: mu_n = int w (u - x_1)^n du and
    nu_{n,j} = int w prod_k (u - x_k)^{beta_k} / (u - x_j) du with
    beta_1 = n + 1 and beta_k = 1 otherwise, one literal product per j."""
    xs, ws = measure(w, t, npts)
    x = _positions(w, t)
    nu = np.empty(w.m, dtype=LD)
    for j in range(w.m):
        exps = [n + 1] + [1] * (w.m - 1)
        exps[j] -= 1
        f = np.ones_like(xs)
        for k, e in enumerate(exps):
            f = f * (xs - x[k]) ** e
        nu[j] = np.sum(ws * f)
    return np.sum(ws * (xs - x[0]) ** n), nu


def recurrence(w, t, N, npts):
    """(a, b, gamma0) by the discretized Stieltjes procedure on ``measure``."""
    xs, ws = measure(w, t, npts)
    a = np.zeros(N + 1, dtype=LD)
    b = np.zeros(N, dtype=LD)
    gamma0 = np.sum(ws) ** LD(-0.5)
    p_prev, p = np.zeros_like(xs), np.full_like(xs, gamma0)
    for n in range(N):
        b[n] = np.sum(ws * xs * p * p)
        q = (xs - b[n]) * p - a[n] * p_prev
        a[n + 1] = np.sqrt(np.sum(ws * q * q))
        p_prev, p = p, q / a[n + 1]
    return a, b, gamma0


def poly(a, b, gamma0, n, u):
    """p_n(u) by the forward recurrence (p_{-1} = 0)."""
    u = np.asarray(u, dtype=LD)
    p_prev, p = np.zeros_like(u), np.full_like(u, gamma0)
    for k in range(n):
        p_prev, p = p, ((u - b[k]) * p - a[k] * p_prev) / a[k + 1]
    return p


def init_state(w, n, t, npts=64):
    """The packed flow state (a, b, gamma, theta, theta_prev, omega ratios).

    The ratios are alpha_j p_n q_n, alpha_j p_{n-1} q_{n-1} and
    alpha_j / 2 + a_n alpha_j q_n p_{n-1} at each node, with
    Theta/W' = alpha_j p q taken directly rather than through W'.
    """
    a, b, gamma0 = recurrence(w, t, n + 1, npts)
    x = _positions(w, t)
    alpha = w.alpha.astype(LD)
    gamma = gamma0 / np.prod(a[1:n + 1])
    theta, theta_prev, omega = (np.empty(w.m, dtype=LD) for _ in range(3))
    for j in range(w.m):
        pn = poly(a, b, gamma0, n, x[j])
        pm = poly(a, b, gamma0, n - 1, x[j])
        qn = cauchy_transform(w, t, lambda u: poly(a, b, gamma0, n, u), j, npts)
        qm = cauchy_transform(w, t, lambda u: poly(a, b, gamma0, n - 1, u), j, npts)
        theta[j] = alpha[j] * pn * qn
        theta_prev[j] = alpha[j] * pm * qm
        omega[j] = alpha[j] / 2 + a[n] * alpha[j] * qn * pm
    return np.concatenate(([a[n], b[n], gamma], theta, theta_prev, omega))


def relative(x, ref):
    """Largest deviation, relative with an absolute floor of 1 (as ``verify``)."""
    x, ref = np.asarray(x, dtype=LD), np.asarray(ref, dtype=LD)
    return float(np.max(np.abs(x - ref) / np.maximum(np.abs(ref), 1.0)))
