"""Generalized Jacobi weights with moving endpoints.

A weight is zero outside [x_1(t), x_m(t)] and equals
``C_j * prod_k |x - x_k(t)|^alpha_k`` on the piece (x_j(t), x_{j+1}(t)).
The node polynomial is ``W(x, t) = prod_k (x - x_k(t))``; the exponents
and piece constants do not depend on t, only the endpoints move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List

import numpy as np

from .errors import (
    BadConstant,
    BadExponent,
    EndpointCollision,
    NodeCollision,
    NonDistinctEndpoints,
    NonFinite,
)


def _horner(cols, t) -> np.ndarray:
    """Polynomial values at t from coefficient columns, highest degree first
    (at least two columns); t is a float or an array that broadcasts
    against a column."""
    out = cols[0] * t + cols[1]
    for c in cols[2:]:
        out = out * t + c
    return out


def _gaps(x: np.ndarray) -> np.ndarray:
    """x_j - x_k, with 1 on the diagonal."""
    gaps = x[:, None] - x
    gaps.flat[::len(x) + 1] = 1.0
    return gaps


@dataclass(frozen=True)
class EndpointTrajectory:
    """Polynomial-in-t endpoint paths x_k(t).

    ``coeffs[k]`` holds the coefficients of x_k(t), constant term first.
    The zero-padded coefficient matrix, with the matrix of t-derivatives
    stacked below it, is also kept column by column (highest degree
    first), so that positions and velocities together are one Horner pass.
    """

    coeffs: tuple
    _cols: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        norm = tuple(tuple(float(c) for c in row) for row in self.coeffs)
        if any(len(row) == 0 for row in norm):
            raise ValueError("each endpoint needs at least a constant term")
        object.__setattr__(self, "coeffs", norm)
        m = len(norm)
        cd = np.zeros((2 * m, max([2, *map(len, norm)])))
        for k, row in enumerate(norm):
            cd[k, :len(row)] = row
        cd[m:, :-1] = cd[:m, 1:] * np.arange(1, cd.shape[1])
        cols = tuple(np.ascontiguousarray(c) for c in cd.T[::-1])
        for c in cols:
            c.setflags(write=False)
        object.__setattr__(self, "_cols", cols)

    @property
    def m(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def fixed(points) -> "EndpointTrajectory":
        """Endpoints that do not move."""
        return EndpointTrajectory(tuple((float(p),) for p in points))

    @staticmethod
    def affine(points, velocities) -> "EndpointTrajectory":
        """x_k(t) = p_k + v_k * t."""
        return EndpointTrajectory(
            tuple((float(p), float(v)) for p, v in zip(points, velocities))
        )

    def positions(self, t: float) -> np.ndarray:
        return self.positions_and_velocities(t)[:self.m]

    def velocities(self, t: float) -> np.ndarray:
        return self.positions_and_velocities(t)[self.m:]

    def positions_and_velocities(self, t: float) -> np.ndarray:
        """x_1..x_m followed by their t-derivatives, one Horner pass."""
        return _horner(self._cols, t)


@dataclass(frozen=True)
class NodeData:
    """Endpoint positions and velocities at one time.

    ``basis`` is the m x (m + 2) matrix ``[xdot | x * xdot | K]`` that a
    flow right-hand side multiplies its node ratios by, K being the
    velocity kernel; it is filled in when the node data is built and is
    read-only. ``wprime``, the values W'(x_j), is computed when first read
    and then kept: a flow right-hand side never pays for it.
    """

    t: float
    x: np.ndarray
    xdot: np.ndarray
    basis: np.ndarray = field(repr=False)

    @cached_property
    def wprime(self) -> np.ndarray:
        """W'(x_j) = prod_{k != j}(x_j - x_k)."""
        return np.prod(_gaps(self.x), axis=1)

    def velocity_kernel(self) -> np.ndarray:
        """Symmetric kernel K[j,k] = (xd_j - xd_k)/(x_j - x_k), K[j,j] = 0,
        as a read-only view of ``basis``."""
        return self.basis[:, 2:]


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

    Raises BadExponent if some alpha_k <= -1, BadConstant if some C_j <= 0,
    NonDistinctEndpoints if the trajectory is not strictly ordered at t_ref.
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
    if np.any(alpha <= -1.0):
        raise BadExponent(f"exponents must be > -1, got {alpha.tolist()}")
    if np.any(pieces <= 0.0):
        raise BadConstant(f"piece constants must be > 0, got {pieces.tolist()}")
    x = trajectory.positions(t_ref)
    if np.any(np.diff(x) <= 0.0):
        raise NonDistinctEndpoints(
            f"endpoints not strictly increasing at t={t_ref}: {x.tolist()}"
        )
    return GeneralizedJacobiWeight(alpha=alpha, pieces=pieces, trajectory=trajectory)


def stage_node_data(w: GeneralizedJacobiWeight, ts) -> List[NodeData]:
    """Node data at each of the times ``ts``, built together.

    One Horner pass over the stacked coefficient columns gives positions
    and velocities at all times, one comparison checks their order, and one
    (s, m, m) gap tensor gives the velocity kernels; each ``NodeData``
    comes with its ``basis`` filled in. Per time, the arithmetic is that of
    a scalar Horner pass and of the scalar kernel formula.

    Raises NonDistinctEndpoints, carrying its ``t``, at the first time
    whose positions are not strictly increasing.
    """
    ts = np.asarray(ts, dtype=float)
    m = w.m
    xv = _horner(w.trajectory._cols, ts[:, None])
    x, xd = xv[:, :m], xv[:, m:]
    bad = x[:, :-1] >= x[:, 1:]
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        t = float(ts[i])
        raise NonDistinctEndpoints(
            f"endpoints not strictly increasing at t={t}: {x[i].tolist()}", t=t)
    basis = np.empty((len(ts), m, m + 2))
    basis[:, :, 0] = xd
    np.multiply(x, xd, out=basis[:, :, 1])
    gaps = x[:, :, None] - x[:, None, :]
    gaps.reshape(len(ts), m * m)[:, ::m + 1] = 1.0
    np.divide(xd[:, :, None] - xd[:, None, :], gaps, out=basis[:, :, 2:])
    basis.setflags(write=False)
    return [NodeData(t=t, x=xi, xdot=xdi, basis=bi)
            for t, xi, xdi, bi in zip(ts.tolist(), x, xd, basis)]


def node_data(w: GeneralizedJacobiWeight, t: float) -> NodeData:
    """Node data at time t: ``stage_node_data`` at one time.

    Raises NonDistinctEndpoints unless the positions are strictly
    increasing. ``NodeData.wprime`` is computed when first read.
    """
    return stage_node_data(w, (t,))[0]


def _flow_frames(w: GeneralizedJacobiWeight):
    """The ``frames`` callable of a flow integrator: ``stage_node_data``,
    where endpoints that lose their order during integration are an
    EndpointCollision at the first such stage time."""
    def frames(ts):
        try:
            return stage_node_data(w, ts)
        except NonDistinctEndpoints as exc:
            raise EndpointCollision(str(exc), t=exc.t) from exc
    return frames


def eval_W(w: GeneralizedJacobiWeight, x, t: float):
    """Node polynomial W(x, t) = prod_k (x - x_k(t))."""
    pos = w.trajectory.positions(t)
    x = np.asarray(x, dtype=float)
    return np.prod(x[..., None] - pos, axis=-1)


def eval_weight(w: GeneralizedJacobiWeight, x: float, t: float) -> float:
    """Weight value at a point; 0 outside the support.

    At an endpoint with positive local exponent the value is 0; with zero
    exponent the one-sided piece value is returned (right piece, except at
    x_m); a negative exponent at its own endpoint raises NonFinite.
    """
    nd = node_data(w, t)
    x = float(x)
    if x < nd.x[0] or x > nd.x[-1]:
        return 0.0
    hits = np.nonzero(nd.x == x)[0]
    if hits.size:
        k = int(hits[0])
        if w.alpha[k] > 0.0:
            return 0.0
        if w.alpha[k] < 0.0:
            raise NonFinite(f"weight diverges at endpoint x_{k + 1} = {x}")
        # alpha_k == 0: one-sided piece value (right piece except at x_m)
        j = k if k < w.m - 1 else k - 1
    else:
        j = int(np.searchsorted(nd.x, x)) - 1
    val = w.pieces[j]
    for k in range(w.m):
        d = abs(x - nd.x[k])
        if d > 0.0 or w.alpha[k] != 0.0:
            val *= d ** w.alpha[k]
    return float(val)


def eval_V(w: GeneralizedJacobiWeight, x: float, t: float) -> float:
    """The degree <= m-1 polynomial with V(x_k) = alpha_k W'(x_k) / 2.

    Evaluated through the node-value representation:
    V(x) = W(x) * (1/2) * sum_k alpha_k / (x - x_k).
    """
    nd = node_data(w, t)
    diffs = np.asarray(x, dtype=float) - nd.x
    hits = np.nonzero(diffs == 0.0)[0]
    if hits.size:
        k = int(hits[0])
        return float(w.alpha[k] * nd.wprime[k] / 2.0)
    return float(np.prod(diffs) * 0.5 * np.sum(w.alpha / diffs))


def eval_V_and_logderivs(w: GeneralizedJacobiWeight, x: float, t: float):
    """Return (V(x), d/dx log w, d/dt log w) at a non-node point.

    d/dx log w = sum_k alpha_k / (x - x_k),
    d/dt log w = -sum_k alpha_k xdot_k / (x - x_k).
    Raises NodeCollision if x coincides with an endpoint (V alone is still
    available through eval_V).
    """
    nd = node_data(w, t)
    diffs = float(x) - nd.x
    if np.any(diffs == 0.0):
        raise NodeCollision(f"x = {x} coincides with an endpoint at t = {t}")
    inv = 1.0 / diffs
    V = float(np.prod(diffs) * 0.5 * np.sum(w.alpha * inv))
    dlogw_dx = float(np.sum(w.alpha * inv))
    dlogw_dt = float(-np.sum(w.alpha * nd.xdot * inv))
    return V, dlogw_dx, dlogw_dt


def barycentric_interpolate(nd: NodeData, values, x):
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
