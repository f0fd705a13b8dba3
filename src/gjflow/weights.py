"""Generalized Jacobi weights with moving endpoints.

A weight is zero outside [x_1(t), x_m(t)] and equals
``C_j * prod_k |x - x_k(t)|^alpha_k`` on the piece (x_j(t), x_{j+1}(t)).
The node polynomial is ``W(x, t) = prod_k (x - x_k(t))``; the exponents
and piece constants do not depend on t, only the endpoints move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadConstant,
    BadExponent,
    EndpointCollision,
    NonDistinctEndpoints,
)


def _horner(cols, t) -> np.ndarray:
    """Polynomial values at t from coefficient columns, highest degree first
    (at least two columns); t is a float or an array that broadcasts
    against a column."""
    out = cols[0] * t
    out += cols[1]
    for c in cols[2:]:
        out *= t
        out += c
    return out


@dataclass(frozen=True)
class EndpointTrajectory:
    """Polynomial-in-t endpoint paths x_k(t).

    ``coeffs[k]`` holds the coefficients of x_k(t), constant term first.
    The trajectory also keeps, once, the coefficients of the m + 2m(m + 2)
    polynomials that node data reads, column by column (highest degree
    first): x_1..x_m, then two m x (m + 2) tables, one row per endpoint j,
    whose quotient is the frame ``[xdot | x * xdot | K]`` of
    ``NodeFrames.basis``: the numerators [x'_j, 0, x'_j - x'_1, ...,
    x'_j - x'_m] and the denominators [1, 1, x_j - x_1, ..., x_j - x_m]
    (1 at x_j - x_j). A Horner pass over the first m gives the positions,
    one over column 0 of the numerators the velocities, one over all a
    ``NodeFrames``. It also holds the spans (t0, t1) that passed
    ``check_span``.
    """

    coeffs: tuple
    _cols: tuple = field(init=False, repr=False, compare=False)
    _passed_spans: set = field(default_factory=set, init=False, repr=False,
                               compare=False)

    # coefficients near the float limit overflow the derivative and gap
    # rows to inf or nan; check_span refuses a gap that is not finite
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        norm = tuple(tuple(float(c) for c in row) for row in self.coeffs)
        if any(len(row) == 0 for row in norm):
            raise ValueError("each endpoint needs at least a constant term")
        object.__setattr__(self, "coeffs", norm)
        m = len(norm)
        rows = np.zeros((m + 2 * m * (m + 2), max([2, *map(len, norm)])))
        x = rows[:m]
        for k, row in enumerate(norm):
            x[k, :len(row)] = row
        num, den = rows[m:].reshape(2, m, m + 2, -1)
        xd = num[:, 0]
        xd[:, :-1] = x[:, 1:] * np.arange(1, rows.shape[1])
        np.subtract(xd[:, None], xd, out=num[:, 2:])
        np.subtract(x[:, None], x, out=den[:, 2:])
        den[:, :2, 0] = 1.0
        j = np.arange(m)
        den[j, j + 2, 0] = 1.0  # x_j - x_j
        cols = rows.T[::-1].copy()
        cols.setflags(write=False)
        object.__setattr__(self, "_cols", tuple(cols))

    @property
    def m(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def fixed(points) -> "EndpointTrajectory":
        """Endpoints that do not move."""
        return EndpointTrajectory(tuple((float(p),) for p in points))

    def positions(self, t: float) -> np.ndarray:
        return _horner([c[:self.m] for c in self._cols], t)

    def velocities(self, t: float) -> np.ndarray:
        m = self.m
        return _horner([c[m::m + 2][:m] for c in self._cols], t)


@dataclass(frozen=True)
class NodeFrames:
    """Node data at one time or at s times as one read-only bundle of arrays.

    At s times ``t`` has shape (s,), ``x`` and ``xdot`` (s, m), and
    ``basis`` (s, m, m + 2); at one time, as ``node_data`` and ``row``
    return it, ``t`` is a float and the arrays drop the leading axis. A
    frame of ``basis`` is the matrix ``[xdot | x * xdot | K]`` that a flow
    right-hand side multiplies its node ratios by, K being the symmetric
    velocity kernel K[j, k] = (xd_j - xd_k)/(x_j - x_k), K[j, j] = 0.
    ``wprime``, the values W'(x_j), is computed when first read and then
    kept: a flow integrator never pays for it.
    """

    t: float | np.ndarray
    x: np.ndarray
    xdot: np.ndarray
    basis: np.ndarray = field(repr=False)

    @cached_property
    def wprime(self) -> np.ndarray:
        """W'(x_j) = prod_{k != j}(x_j - x_k) along the last axis of x."""
        x = self.x
        m = x.shape[-1]
        # x_j - x_k, with 1 on the diagonal
        gaps = x[..., :, None] - x[..., None, :]
        gaps.reshape(x.shape[:-1] + (m * m,))[..., ::m + 1] = 1.0
        wprime = np.prod(gaps, axis=-1)
        wprime.setflags(write=False)
        return wprime

    def row(self, i: int) -> "NodeFrames":
        """The node data at time ``t[i]``, as views of row i."""
        return NodeFrames(float(self.t[i]), self.x[i], self.xdot[i], self.basis[i])


@dataclass(frozen=True)
class GeneralizedJacobiWeight:
    """Validated generalized Jacobi weight; immutable after construction."""

    alpha: np.ndarray
    pieces: np.ndarray
    trajectory: EndpointTrajectory

    @property
    def m(self) -> int:
        return len(self.alpha)

    @property
    def sum_alpha(self) -> float:
        return float(np.sum(self.alpha))


def make_weight(alpha, pieces, trajectory, t_ref: float = 0.0) -> GeneralizedJacobiWeight:
    """Build and validate a generalized Jacobi weight.

    Raises BadExponent unless every alpha_k is finite and > -1, BadConstant
    unless every C_j is finite and > 0, NonDistinctEndpoints if the
    trajectory is not strictly ordered at t_ref (a NaN t_ref is not).
    """
    alpha = np.asarray(alpha, dtype=float)
    pieces = np.asarray(pieces, dtype=float)
    m = len(alpha)
    if m < 2:
        raise BadExponent("need at least two endpoints (m >= 2)")
    if len(pieces) != m - 1:
        raise BadConstant(f"expected {m - 1} piece constants, got {len(pieces)}")
    if trajectory.m != m:
        raise NonDistinctEndpoints(
            f"trajectory has {trajectory.m} endpoints, expected {m}"
        )
    if not np.all(np.isfinite(alpha) & (alpha > -1.0)):
        raise BadExponent(
            f"exponents must be finite and > -1, got {alpha.tolist()}")
    if not np.all(np.isfinite(pieces) & (pieces > 0.0)):
        raise BadConstant(
            f"piece constants must be finite and > 0, got {pieces.tolist()}")
    x = trajectory.positions(t_ref)
    if not (x[:-1] < x[1:]).all():
        raise NonDistinctEndpoints(
            f"endpoints not strictly increasing at t={t_ref}: {x.tolist()}",
            t=t_ref)
    return GeneralizedJacobiWeight(alpha=alpha, pieces=pieces, trajectory=trajectory)


def stage_node_data(w: GeneralizedJacobiWeight, ts) -> NodeFrames:
    """Node data at each of the times ``ts``, built together as one
    ``NodeFrames``.

    One Horner pass over all the trajectory's coefficient columns gives,
    at all times, the positions and the numerators and denominators of the
    frames; one comparison checks the order, one divide gives the frames
    (velocities over 1 and the kernels) and one product x * xdot fills
    their second column. Per time, x and xdot are those of a scalar Horner
    pass. K[j, k] is the quotient of the gap polynomials x'_j - x'_k and
    x_j - x_k, which suffer no cancellation; their coefficients only
    change sign under j <-> k, so K is exactly symmetric, with a zero
    diagonal. Every array of the bundle is read-only; ``t`` is a copy of
    ``ts``.

    Raises NonDistinctEndpoints, carrying its ``t`` and its index ``row``
    in ``ts``, at the first time whose positions are not strictly
    increasing, as at a NaN time.
    """
    ts = np.array(ts, dtype=float)
    s, m = len(ts), w.m
    v = _horner(w.trajectory._cols, ts[:, None])
    v.setflags(write=False)
    x = v[:, :m]
    ordered = x[:, :-1] < x[:, 1:]  # False at NaN
    if np.count_nonzero(ordered) < ordered.size:  # cheaper than not .all()
        i = int(np.argmin(ordered.all(axis=1)))
        t = float(ts[i])
        exc = NonDistinctEndpoints(
            f"endpoints not strictly increasing at t={t}: {x[i].tolist()}", t=t)
        exc.row = i
        raise exc
    fraction = v[:, m:].reshape(s, 2, m, m + 2)
    basis = np.divide(fraction[:, 0], fraction[:, 1])
    np.multiply(x, basis[:, :, 0], out=basis[:, :, 1])
    basis.setflags(write=False)
    ts.setflags(write=False)
    return NodeFrames(t=ts, x=x, xdot=basis[:, :, 0], basis=basis)


def node_data(w: GeneralizedJacobiWeight, t: float) -> NodeFrames:
    """Node data at time t: row 0 of ``stage_node_data`` at one time.

    Raises NonDistinctEndpoints unless the positions are strictly
    increasing. ``wprime`` is computed when first read.
    """
    return stage_node_data(w, (t,)).row(0)


def check_span(w: GeneralizedJacobiWeight, t0: float, t1: float) -> None:
    """Raise EndpointCollision if two neighbouring endpoints come within
    1e-8 * max(width at t0, 1) of each other between t0 and t1.

    Each neighbour gap x_{j+1}(t) - x_j(t), a denominator row of the
    trajectory's columns, is smallest at t0, t1 or a real root of its slope
    (tried at each root's real part, as rounding splits a double root); a
    gap that is not finite reaches the floor too. The error names the pair
    that reaches it first, with ``t`` the first time from t0 that it does.

    The answer depends only on the trajectory and the span, so the
    trajectory remembers the spans that passed: a command that checks its
    span before its flow does the work once, and the flow's own check
    finds it done. A span that fails is worked out again on every call.
    Raises ValueError unless t0 and t1 are finite.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got {t0} and {t1}")
    passed = w.trajectory._passed_spans
    if (t0, t1) not in passed:
        _check_gaps(w.trajectory, t0, t1)
        passed.add((t0, t1))


@np.errstate(over="ignore", invalid="ignore")  # a gap that is not finite refuses
def _check_gaps(trajectory: EndpointTrajectory, t0: float, t1: float) -> None:
    """``check_span`` without the memory of passed spans."""
    m, lo, hi, scale = trajectory.m, min(t0, t1), max(t0, t1), max(abs(t0), abs(t1))
    # highest degree first; x_{j+1} - x_j, entry (j + 1, j + 2) of the
    # denominator table, is every (m + 3)-th row from row (m + 2)^2
    gaps = np.array(trajectory._cols)[:, (m + 2) ** 2::m + 3]
    n = len(gaps) - 1
    k = np.arange(n, 0, -1)[:, None]  # the slopes over n: finite where the gaps are
    slopes = gaps[:-1] * (k / n) * scale ** (k - 1)  # in s = t / scale, |s| <= 1
    finite = np.isfinite(slopes).all(axis=0)
    ts = [t0, t1]
    for d in slopes.T[finite].tolist():
        small = 1e-8 * max(map(abs, d))  # leading terms this small spoil the solve
        while d and abs(d[0]) <= small:
            del d[0]
        if len(d) > 1:  # a line's root as polyroots gives it, without its overhead
            roots = [-d[1] / d[0]] if len(d) == 2 else \
                np.polynomial.polynomial.polyroots(d[::-1]).real.tolist()
            ts += [scale * r for r in roots if lo < scale * r < hi]
    ts.sort(key=lambda t: abs(t - t0))
    values = _horner(gaps, np.array(ts)[:, None])  # every gap at every time
    floor = 1e-8 * max(float(values[0].sum()), 1.0)
    ok = (floor < values) & (values < np.inf) & finite
    if ok.all():
        return
    i = int(np.argmin(ok.all(axis=1)))  # every gap is monotone from ts[i - 1] to ts[i]
    a, b, bad = ts[i - 1], ts[i], ~ok[i]
    while i and (mid := 0.5 * (a + b)) not in (a, b):  # bisect to the float
        g = _horner(gaps, mid)
        below = ~((floor < g) & (g < np.inf))
        a, b, bad = (a, mid, below) if below.any() else (mid, b, bad)
    j = int(np.argmax(bad))
    raise EndpointCollision(
        f"endpoints x_{j + 1} and x_{j + 2} come within {floor:.1e} of each "
        f"other at t = {b!r}, between t = {t0!r} and {t1!r}", t=b)


def barycentric_interpolate(nd: NodeFrames, values, x):
    """Degree <= m-1 interpolant through (x_j, values_j), first barycentric form.

    p(x) = W(x) * sum_j values_j / (W'(x_j) (x - x_j)) at a point or a 1-D
    array of points; exact node values are returned where x hits a node.
    ``values`` may stack several value vectors along leading axes (last
    axis m); the result then has those axes in front of the points.
    """
    values = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float)
    diffs = np.atleast_1d(x)[:, None] - nd.x
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.prod(diffs, axis=1) \
            * np.sum(values[..., None, :] / (nd.wprime * diffs), axis=-1)
    at, hit = np.nonzero(diffs == 0.0)
    out[..., at] = values[..., hit]
    if x.ndim == 0:
        out = out[..., 0]
    return float(out) if out.ndim == 0 else out
