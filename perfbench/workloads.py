"""Seeded generator of gjflow CLI ops for the three benchmark workloads.

An op is one CLI command (``evolve`` or ``verify``) on one JSON config. Ops come in blocks: each block holds every (m, n) pair of the
workload once, in a shuffled order, and stratifies the two draws that set
most of an op's cost, the span and the speed of the fastest endpoint: with
P ops in a block, each of the P equal slices of either range holds one
op. So every block is a balanced sample and a run's mix does not hinge on
a few lucky draws. The other parameters (exponents, piece constants,
positions, directions) are drawn per op. Block ``b`` of seed ``s`` depends
only on ``(s, b)``.

Trajectories: the outer two endpoints are anchored at -2 and 2; the inner
ones start inside and move with an affine velocity, plus a quadratic term
on about half of them. A draw is repeated, at the same span and speed,
until every gap between neighbouring endpoints stays at least ``MIN_GAP``
over the whole span.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

LO, HI = -2.0, 2.0
MIN_GAP = 0.05
MAX_SPEED = 1.0
MAX_ACCEL = 1.0


@dataclass(frozen=True)
class Workload:
    """How one workload draws its ops."""

    command: str
    ms: Tuple[int, ...]
    ns: Tuple[int, ...]
    draw_alpha: Callable[[np.random.Generator, int], List[float]]
    span: Tuple[float, float]
    samples: int

    def grid(self) -> List[Tuple[int, int]]:
        return [(m, n) for m in self.ms for n in self.ns]


def _alpha_from_set(rng, m):
    return [float(a) for a in rng.choice([0.5, 1.0, 1.5], size=m)]


def _alpha_uniform(lo, hi):
    def draw(rng, m):
        return [float(a) for a in rng.uniform(lo, hi, size=m)]
    return draw


WORKLOADS: Dict[str, Workload] = {
    "flow": Workload("evolve", (3, 4), tuple(range(3, 9)),
                     _alpha_from_set, (0.3, 0.6), samples=10),
    "oracle": Workload("verify", (5, 6), tuple(range(25, 36)),
                       _alpha_uniform(0.2, 1.5), (0.03, 0.08), samples=10),
}


def min_gap(trajectory, t0: float, t1: float) -> float:
    """Exact smallest neighbour gap of polynomial (degree <= 2) endpoint
    paths over [t0, t1]."""
    worst = np.inf
    for left, right in zip(trajectory[:-1], trajectory[1:]):
        d = np.zeros(3)
        d[:len(right)] += right
        d[:len(left)] -= left
        ts = [t0, t1]
        if d[2] != 0.0:
            vertex = -d[1] / (2.0 * d[2])
            if t0 < vertex < t1:
                ts.append(vertex)
        worst = min(worst, min(d[0] + d[1] * t + d[2] * t * t for t in ts))
    return float(worst)


def _draw_trajectory(rng, m: int, span: float, speed: float):
    while True:
        inner = np.sort(rng.uniform(LO + MIN_GAP, HI - MIN_GAP, size=m - 2))
        direction = rng.uniform(-1.0, 1.0, size=m - 2)
        direction /= np.max(np.abs(direction))
        traj = [[LO]]
        for x, d in zip(inner, direction):
            row = [float(x), float(speed * MAX_SPEED * d)]
            if rng.random() < 0.5:
                row.append(float(speed * rng.uniform(-MAX_ACCEL, MAX_ACCEL)))
            traj.append(row)
        traj.append([HI])
        if min_gap(traj, 0.0, span) >= MIN_GAP:
            return traj


def _draw_config(rng, wl: Workload, m: int, n: int, span: float,
                 speed: float) -> dict:
    return {
        "weight": {
            "alpha": wl.draw_alpha(rng, m),
            "pieces": [float(c) for c in rng.uniform(0.5, 2.0, size=m - 1)],
            "trajectory": _draw_trajectory(rng, m, span, speed),
        },
        "n": n,
        "evolve": {"t0": 0.0, "t1": span, "samples": wl.samples},
    }


def _strata(rng, count: int) -> np.ndarray:
    """One uniform draw from each of ``count`` equal slices of [0, 1), shuffled."""
    return (rng.permutation(count) + rng.random(count)) / count


def block(workload: str, seed: int, index: int) -> List[dict]:
    """The configs of block ``index`` of the op stream for ``seed``."""
    wl = WORKLOADS[workload]
    rng = np.random.default_rng([seed, index])
    grid = wl.grid()
    order = rng.permutation(len(grid))
    spans = wl.span[0] + (wl.span[1] - wl.span[0]) * _strata(rng, len(grid))
    speeds = _strata(rng, len(grid))
    return [_draw_config(rng, wl, *grid[i], float(span), float(speed))
            for i, span, speed in zip(order, spans, speeds)]


def config_text(cfg: dict) -> str:
    """The exact bytes written for a config."""
    return json.dumps(cfg, sort_keys=True, indent=1) + "\n"
