"""Per-op correctness checks of the CLI output against independent oracles.

Each check parses the CSV the CLI printed and compares it with values the
benchmark recomputes itself from the op's config (not from the CLI's
parse of it):

- ``evolve``: every sample row against a fresh ``init_state(w, n, t)``,
  with verify's relative metric (absolute floor 1), and the printed
  conserved-sum drifts.
- ``verify``: exit code 0, and the printed ``max_deviation`` equal to the
  largest table entry and within ``verify_rtol``.

The checks run outside the timed region. An op whose output is well formed
but too far from its oracle fails with the deviation it measured attached,
so the run's accuracy figures count it too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

#: largest accepted deviation from an oracle (verify's default verify_rtol)
TOL = 1e-6

_STEPS = re.compile(r"accepted=(\d+) rejected=(\d+) fevals=(\d+)")


@dataclass
class Output:
    """A parsed CLI CSV: ``# key: value`` comments, header and data rows."""

    comments: Dict[str, str]
    header: List[str]
    rows: np.ndarray


@dataclass
class OpCheck:
    """What a check measured."""

    deviation: float
    drift: Optional[float] = None
    rejected: Optional[int] = None
    fevals: Optional[int] = None


class CheckFailed(Exception):
    """An op's output disagrees with its oracle or is malformed.

    ``measured`` is set when the output parsed and only a tolerance failed.
    """

    def __init__(self, message: str, measured: Optional[OpCheck] = None):
        super().__init__(message)
        self.measured = measured


def parse_output(text: str) -> Output:
    comments: Dict[str, str] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, sep, value = lines[i][1:].strip().partition(":")
        if sep:
            comments[key.strip()] = value.strip()
        i += 1
    if i == len(lines):
        raise CheckFailed("no CSV header")
    header = lines[i].split(",")
    try:
        rows = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[i + 1:]], dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"unparsable row: {exc}") from exc
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise CheckFailed(f"rows do not match the {len(header)}-column header")
    if not np.all(np.isfinite(rows)):
        raise CheckFailed("non-finite value in output")
    return Output(comments=comments, header=header, rows=rows)


def weight_of(cfg: dict):
    from gjflow import EndpointTrajectory, make_weight
    wsec = cfg["weight"]
    traj = EndpointTrajectory(tuple(tuple(row) for row in wsec["trajectory"]))
    return make_weight(wsec["alpha"], wsec["pieces"], traj,
                       t_ref=cfg["evolve"]["t0"])


def _times(cfg: dict) -> np.ndarray:
    ev = cfg["evolve"]
    return np.linspace(ev["t0"], ev["t1"], ev["samples"])


def _relative(value, ref) -> float:
    return float(np.max(np.abs(value - ref) / np.maximum(np.abs(ref), 1.0)))


def _expect(out: Output, cfg: dict, header: List[str]):
    if out.header != header:
        raise CheckFailed(f"header {out.header} != {header}")
    if not np.array_equal(out.rows[:, 0], _times(cfg)):
        raise CheckFailed("sample times differ from linspace(t0, t1, samples)")


def _steps(out: Output) -> dict:
    match = _STEPS.fullmatch(out.comments.get("steps", ""))
    if match is None:
        raise CheckFailed("missing '# steps:' line")
    _, rejected, fevals = (int(g) for g in match.groups())
    return dict(rejected=rejected, fevals=fevals)


def _within(measured: OpCheck) -> OpCheck:
    for what, value in (("deviation from the oracle", measured.deviation),
                        ("conserved-sum drift", measured.drift)):
        if value is not None and not value <= TOL:
            raise CheckFailed(f"{what} {value:.3e} exceeds {TOL:.0e}", measured)
    return measured


def check_evolve(cfg: dict, text: str) -> OpCheck:
    from gjflow.evolution import init_state
    w = weight_of(cfg)
    m, n = w.m, cfg["n"]
    out = parse_output(text)
    _expect(out, cfg, ["t", "a", "b", "gamma"]
            + [f"theta_{j}" for j in range(1, m + 1)]
            + [f"theta_prev_{j}" for j in range(1, m + 1)]
            + [f"omega_{j}" for j in range(1, m + 1)]
            + [f"drift_{i}" for i in range(1, 6)])
    state = out.rows[:, 1:4 + 3 * m]
    dev = max(_relative(row, init_state(w, n, t).pack())
              for t, row in zip(out.rows[:, 0], state))
    drift = float(np.max(np.abs(out.rows[:, 4 + 3 * m:])))
    return _within(OpCheck(deviation=dev, drift=drift, **_steps(out)))


def check_verify(cfg: dict, text: str) -> OpCheck:
    w = weight_of(cfg)
    m = w.m
    out = parse_output(text)
    _expect(out, cfg, ["t", "dev_a", "dev_b", "dev_gamma"]
            + [f"dev_theta_{j}" for j in range(1, m + 1)]
            + [f"dev_theta_prev_{j}" for j in range(1, m + 1)]
            + [f"dev_omega_{j}" for j in range(1, m + 1)])
    try:
        dev = float(out.comments["max_deviation"])
    except (KeyError, ValueError) as exc:
        raise CheckFailed("missing '# max_deviation:' line") from exc
    if dev != float(np.max(out.rows[:, 1:])):
        raise CheckFailed("max_deviation is not the largest table entry")
    return _within(OpCheck(deviation=dev))


CHECKS = {"evolve": check_evolve, "verify": check_verify}


def check_op(command: str, cfg: dict, code, text: str) -> OpCheck:
    """Raise CheckFailed unless the op exited 0 and its output is correct."""
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    return CHECKS[command](cfg, text)
