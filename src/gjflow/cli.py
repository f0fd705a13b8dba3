"""Command line front end: JSON config in, CSV out.

Commands: coeffs, ladder, evolve, moments, verify, selftest.
``moments``, ``verify`` and ``--selfcheck`` judge by ``verify_against_direct``.
Exit codes: 0 success, 2 config error, 3 numerical failure
(endpoint collision, step collapse, lost orthogonality, too few quadrature
points for the degree), 4 verification tolerance exceeded (``verify``,
``moments``) / selfcheck failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

import numpy as np

from . import __version__
from .errors import (BadConstant, BadExponent, ConfigError, GJFlowError,
                     NonDistinctEndpoints, StepCollapse)
from .evolution import _state_labels, evolve, init_states, verify_against_direct
from .ladder import ladder_checks, residue_sums
from .momentflow import direct_moments, evolve_moments
from .orthopoly import stieltjes_procedure, stieltjes_recurrence
from .quadrature import _absorbs, discretized_measure, gauss_jacobi_rule, npts_for
from .rk45 import DEFAULT_TOL, MAX_SPAN
from .weights import EndpointTrajectory, check_span, make_weight

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


@dataclass
class RunConfig:
    """Fully resolved run configuration."""

    alpha: List[float]
    pieces: List[float]
    trajectory: List[List[float]]
    n: int = 5
    npts: Optional[int] = None  # parse_config resolves it with npts_for
    t0: float = 0.0
    t1: float = 1.0
    rtol: float = DEFAULT_TOL[0]
    atol: float = DEFAULT_TOL[1]
    samples: int = 20
    verify_rtol: float = 1e-6
    selfcheck: bool = False

    def weight(self):
        traj = EndpointTrajectory(tuple(tuple(c) for c in self.trajectory))
        try:
            return make_weight(self.alpha, self.pieces, traj, t_ref=self.t0)
        except (BadExponent, BadConstant, NonDistinctEndpoints) as exc:
            field = {BadExponent: "alpha", BadConstant: "pieces"}.get(
                type(exc), "trajectory")
            raise ConfigError(f"weight.{field}: {exc}") from exc

    def resolved(self) -> str:
        return json.dumps(vars(self), separators=(",", ":"))


def _require(cond: bool, path: str, reason: str):
    if not cond:
        raise ConfigError(f"{path}: {reason}")


def _is_int(v) -> bool:
    # bool is a subclass of int, but JSON true and false are not numbers
    return isinstance(v, int) and not isinstance(v, bool)


def _finite_list(values, path: str) -> List[float]:
    _require(isinstance(values, list) and len(values) > 0, path,
             "must be a non-empty list of numbers")
    return [_finite_number(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _finite_number(v, path: str) -> float:
    try:
        x = float(v) if _is_int(v) or isinstance(v, float) else math.nan
    except OverflowError:  # a JSON integer beyond float range
        x = math.inf
    _require(math.isfinite(x), path, "must be a finite number")
    return x


def _positive(v, path: str) -> float:
    x = _finite_number(v, path)
    _require(x > 0, path, "must be positive")
    return x


def _integer(least: int, reason: str):
    """The check of an integer field: ``reason`` unless one >= ``least``."""
    def check(v, path: str) -> int:
        _require(_is_int(v) and v >= least, path, reason)
        return v
    return check


#: every optional config field once, in check order, by section ("" for
#: the top level) and key: the ``RunConfig`` attribute it sets and its
#: check. A flag named after the attribute, where there is one, overrides
#: the field.
_FIELDS = {
    "": {"n": ("n", _integer(0, "must be a non-negative integer"))},
    "quad": {"npts": ("npts", _integer(1, "must be a positive integer"))},
    "evolve": {"t0": ("t0", _finite_number), "t1": ("t1", _finite_number),
               "rtol": ("rtol", _positive), "atol": ("atol", _positive),
               "samples": ("samples", _integer(2, "must be an integer >= 2"))},
    "verify": {"rtol": ("verify_rtol", _positive)},
}


def _check_keys(doc: dict, allowed, path: str):
    for key in doc:
        _require(key in allowed, f"{path}{key}", "unknown key")


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict, refusing a key given twice."""
    doc = {}
    for key, value in pairs:
        _require(key not in doc, "config", f"repeated key {json.dumps(key)}")
        doc[key] = value
    return doc


def parse_config(text: str, overrides: Optional[dict] = None) -> RunConfig:
    """Parse and validate a JSON config document.

    ``overrides`` maps ``RunConfig`` attributes to values that replace
    their ``_FIELDS`` entries in the document (None leaves a field alone;
    other keys are not read) before validation, so a flag fails as its
    field would. ``npts``, when neither gives it, is ``npts_for`` of the
    resolved ``n``.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    _require(isinstance(doc, dict), "config", "top level must be an object")
    _check_keys(doc, {"weight", *_FIELDS[""], *filter(None, _FIELDS)}, "")
    overrides = overrides or {}
    for section, fields in _FIELDS.items():
        for key, (attr, _) in fields.items():
            if overrides.get(attr) is not None:
                target = doc.setdefault(section, {}) if section else doc
                if isinstance(target, dict):  # else its section check fails below
                    target[key] = overrides[attr]

    _require("weight" in doc, "weight", "section is required")
    wsec = doc["weight"]
    _require(isinstance(wsec, dict), "weight", "must be an object")
    _check_keys(wsec, {"alpha", "pieces", "trajectory"}, "weight.")
    _require("alpha" in wsec, "weight.alpha", "is required")
    _require("pieces" in wsec, "weight.pieces", "is required")
    _require("trajectory" in wsec, "weight.trajectory", "is required")
    alpha = _finite_list(wsec["alpha"], "weight.alpha")
    m = len(alpha)
    _require(m >= 2, "weight.alpha", "need at least two exponents")
    pieces = _finite_list(wsec["pieces"], "weight.pieces")
    _require(len(pieces) == m - 1, "weight.pieces",
             f"pieces must have length m-1 = {m - 1}")
    traj_doc = wsec["trajectory"]
    _require(isinstance(traj_doc, list) and len(traj_doc) == m,
             "weight.trajectory", f"must list coefficients for all {m} endpoints")
    trajectory = [
        _finite_list(row, f"weight.trajectory[{k}]")
        for k, row in enumerate(traj_doc)
    ]

    cfg = RunConfig(alpha=alpha, pieces=pieces, trajectory=trajectory)
    for section, fields in _FIELDS.items():
        sec = doc.get(section, {}) if section else doc
        if section:
            _require(isinstance(sec, dict), section, "must be an object")
            _check_keys(sec, fields, f"{section}.")
        for key, (attr, check) in fields.items():
            if key in sec:
                path = f"{section}.{key}" if section else key
                setattr(cfg, attr, check(sec[key], path))
    cfg.npts = npts_for(cfg.n) if cfg.npts is None else cfg.npts
    return cfg


def _emit(out, cfg: RunConfig, columns, rows, extra_comments=()):
    out.write(f"# gjflow {__version__}\n")
    out.write(f"# config: {cfg.resolved()}\n")
    for line in extra_comments:
        out.write(f"# {line}\n")
    out.write(",".join(columns) + "\n")
    # rows of Python ints and floats: the list repr writes each as its repr
    for row in rows:
        out.write(repr(row)[1:-1].replace(", ", ",") + "\n")


def _emit_verdict(out, cfg: RunConfig, columns, rows, comments, dev) -> int:
    """``_emit`` with the lines ``max_deviation: dev`` and ``verify_rtol``
    after ``comments``; EXIT_VERIFY, said on stderr, above ``verify_rtol``."""
    _emit(out, cfg, columns, rows, [*comments, f"max_deviation: {dev!r}",
                                    f"verify_rtol: {cfg.verify_rtol!r}"])
    if dev > cfg.verify_rtol:
        print(f"verification failed: max deviation {dev:.3e} "
              f"> {cfg.verify_rtol:.3e}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


class _SelfcheckFailed(Exception):
    """An npts-doubling deviation of ``--selfcheck``: exit 4, no output."""


def _selfchecked(cfg: RunConfig, label: str, compute,
                 key=lambda result: result):
    """``compute(cfg.npts)``; with ``--selfcheck``, also ``compute`` at
    twice the points, the two compared on the array ``key(result)`` by
    ``verify_against_direct``, and _SelfcheckFailed above a deviation of
    1e-9."""
    coarse = compute(cfg.npts)
    if cfg.selfcheck:
        c, f = (np.asarray(key(r), dtype=float)
                for r in (coarse, compute(2 * cfg.npts)))
        dev = float(np.max(verify_against_direct(c, f)))
        if dev > 1e-9:
            raise _SelfcheckFailed(f"selfcheck failed for {label}: "
                                   f"npts-doubling deviation {dev:.3e}")
    return coarse


def _steps_comment(stats) -> str:
    return (f"steps: accepted={stats.accepted} rejected={stats.rejected} "
            f"fevals={stats.fevals}")


def cmd_coeffs(cfg: RunConfig, out) -> int:
    w = cfg.weight()

    # the table to n + 1 gives b_n; its a_{n+1} and gamma_{n+1}, which the
    # n + 2 points of degree n do not resolve, are neither printed nor checked
    def rows(npts):
        t = stieltjes_recurrence(*discretized_measure(w, cfg.t0, npts), cfg.n + 1)[0]
        return np.column_stack([c[0, :cfg.n + 1] for c in (t.a, t.b, t.gamma)]).tolist()

    _emit(out, cfg, ("n", "a_n", "b_n", "gamma_n"),
          [[n, *row] for n, row in enumerate(_selfchecked(cfg, "coeffs", rows))])
    return EXIT_OK


def _require_transforms(cfg: RunConfig, least_n: int):
    """Refuse a degree below least_n (a flow state carries Theta_{n-1}) and
    an exponent whose Cauchy transform diverges (``quadrature._absorbs``)."""
    _require(cfg.n >= least_n, "n", f"must be >= {least_n} for a flow")
    _require(all(map(_absorbs, cfg.alpha)), "weight.alpha", "must be > 0, with "
             f"alpha - 1 above -1, for the Cauchy transforms, got {cfg.alpha}")


def cmd_ladder(cfg: RunConfig, out) -> int:
    w = cfg.weight()
    _require_transforms(cfg, 0)
    report = _selfchecked(
        cfg, "ladder", lambda npts: ladder_checks(w, cfg.t0, cfg.n, npts),
        lambda rep: rep.values[[0, 2]])
    rows = np.column_stack((report.x, *report.values)).tolist()
    rows = [[j, *row] for j, row in enumerate(rows, 1)]
    comments = [
        f"residue_theta: {report.residue_theta!r}",
        f"residue_x_theta: {report.residue_x_theta!r}",
        f"residue_omega: {report.residue_omega!r}",
        f"diffrel_residual: {report.diffrel_residual!r}",
        f"wronskian_residual: {report.wronskian_residual!r}",
    ]
    _emit(out, cfg, ("j", "x_j", "theta", "theta_prev", "omega"), rows, comments)
    return EXIT_OK


def _require_span(cfg: RunConfig):
    """The weight and the one grid of sample times that the oracle and the
    flow of a command share, once its span passes ``check_span``."""
    _require(0.0 < abs(cfg.t1 - cfg.t0) <= MAX_SPAN, "evolve.t1",  # else h a_ij = inf
             f"must differ from evolve.t0, by at most {MAX_SPAN:.4g}")
    w = cfg.weight()
    check_span(w, cfg.t0, cfg.t1)
    return w, np.linspace(cfg.t0, cfg.t1, cfg.samples)


def cmd_evolve(cfg: RunConfig, out) -> int:
    w, times = _require_span(cfg)
    _require_transforms(cfg, 1)
    y0 = _selfchecked(cfg, "evolve",
                      lambda npts: init_states(w, cfg.n, times[:1], npts)[0])
    ys, stats = evolve(w, times, y0, (cfg.rtol, cfg.atol))
    # the conserved sums at each sample minus those at t0
    sums = residue_sums(ys, w.trajectory.positions(times[:, None]))
    columns = ["t", *_state_labels(w.m), *(f"drift_{i + 1}" for i in range(5))]
    rows = np.column_stack((times, ys, sums - sums[0])).tolist()
    _emit(out, cfg, columns, rows, [_steps_comment(stats)])
    return EXIT_OK


def cmd_moments(cfg: RunConfig, out) -> int:
    w, times = _require_span(cfg)
    mu_n, nu = _selfchecked(cfg, "moments",
                            lambda npts: direct_moments(w, cfg.n, times, npts),
                            lambda result: result[1])
    nus, stats = evolve_moments(w, cfg.n, times, nu[0], (cfg.rtol, cfg.atol))
    columns = ["t"] + [f"nu_{j + 1}" for j in range(w.m)] + ["mu_n", "gap"]
    scale = np.maximum(np.abs(mu_n), np.abs(nus[:, 0]))
    gap = np.abs(mu_n - nus[:, 0]) / np.maximum(scale, 1e-300)
    rows = np.column_stack((times, nus, mu_n, gap)).tolist()
    return _emit_verdict(out, cfg, columns, rows, [_steps_comment(stats)],
                         float(np.max(verify_against_direct(nus, nu))))


def cmd_verify(cfg: RunConfig, out) -> int:
    w, times = _require_span(cfg)
    _require_transforms(cfg, 1)
    direct = _selfchecked(cfg, "verify",
                          lambda npts: init_states(w, cfg.n, times, npts))
    ys, _ = evolve(w, times, direct[0], (cfg.rtol, cfg.atol))
    devs = verify_against_direct(ys, direct)
    columns = ["t"] + [f"dev_{lab}" for lab in _state_labels(w.m)]
    rows = np.column_stack((times, devs)).tolist()
    return _emit_verdict(out, cfg, columns, rows, [], float(np.max(devs)))


def cmd_selftest(cfg: RunConfig, out) -> int:
    checks = []

    _, weights = gauss_jacobi_rule(32, 0.5, 0.5)
    checks.append(("gauss_jacobi_mass", abs(np.sum(weights) - np.pi / 2) < 1e-12))

    cheb = make_weight([0.5, 0.5], [1.0], EndpointTrajectory.fixed([-1.0, 1.0]))
    table = stieltjes_procedure(cheb, 0.0, 10, cfg.npts)
    checks.append(("chebyshev_coefficients",
                   np.max(np.abs(table.a[1:] - 0.5)) < 1e-10
                   and np.max(np.abs(table.b)) < 1e-12))
    checks.append(("quadrature_mass",
                   abs(discretized_measure(cheb, 0.0, cfg.npts)[1].sum() - np.pi / 2)
                   < 1e-12))

    w = cfg.weight()
    if all(map(_absorbs, cfg.alpha)) and cfg.n >= 1:
        report = ladder_checks(w, cfg.t0, cfg.n, cfg.npts)
        checks.append(("ladder_residue_sums",
                       max(report.residue_theta, report.residue_x_theta,
                           report.residue_omega) < 1e-8))
        checks.append(("ladder_differential_relation",
                       report.diffrel_residual < 1e-7))
        checks.append(("ladder_wronskian", report.wronskian_residual < 1e-8))

        # one state at every time, run over [0, 1] (t0 + 1 may round to t0)
        frozen = make_weight(
            w.alpha, w.pieces,
            EndpointTrajectory.fixed(w.trajectory.positions(cfg.t0)),
        )
        y0 = init_states(frozen, cfg.n, (0.0,), cfg.npts)[0]
        ys, _ = evolve(frozen, np.linspace(0.0, 1.0, 5), y0,
                       (cfg.rtol, cfg.atol))
        checks.append(("frozen_trajectory_constant",
                       float(np.max(np.abs(ys[-1] - ys[0]))) < 1e-12))

    ok = True
    for name, passed in checks:
        out.write(f"{'PASS' if passed else 'FAIL'} {name}\n")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_VERIFY


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "ladder": cmd_ladder,
    "evolve": cmd_evolve,
    "moments": cmd_moments,
    "verify": cmd_verify,
    "selftest": cmd_selftest,
}

_DEFAULT_SELFTEST_CONFIG = """{
  "weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1.0, 1.0],
             "trajectory": [[-1.0], [0.0, 1.0], [1.0]]},
  "n": 5,
  "evolve": {"t0": 0.0, "t1": 0.3}
}"""


def run_command(cmd: str, cfg: RunConfig, out) -> int:
    """Dispatch one command; returns the process exit code."""
    try:
        npts_for(cfg.n, cfg.npts)
        return _COMMANDS[cmd](cfg, out)
    except ConfigError:
        raise
    except _SelfcheckFailed as exc:
        print(exc, file=sys.stderr)
        return EXIT_VERIFY
    except GJFlowError as exc:
        last = f" (last good t = {exc.t})" if isinstance(exc, StepCollapse) else ""
        print(f"numerical failure: {type(exc).__name__}: {exc}{last}",
              file=sys.stderr)
        return EXIT_NUMERICAL


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs more than a parse."""
    parser = argparse.ArgumentParser(
        prog="gjflow",
        description="Recurrence-coefficient deformation flows for "
                    "generalized Jacobi weights.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to JSON config")
    parser.add_argument("--output", help="output path (default stdout)")
    parser.add_argument("--n", type=int, help="override target degree")
    parser.add_argument("--t0", type=float, help="override start time")
    parser.add_argument("--t1", type=float, help="override end time")
    parser.add_argument("--rtol", type=float, help="override ODE rtol")
    parser.add_argument("--npts", type=int,
                        help="override quadrature points per piece "
                             "(default max(64, n + 2))")
    parser.add_argument("--selfcheck", action="store_true",
                        help="assert npts-doubling convergence")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"config: {exc}") from exc
        elif args.command == "selftest":
            text = _DEFAULT_SELFTEST_CONFIG
        else:
            raise ConfigError("config: --config is required")
        cfg = parse_config(text, vars(args))
        if args.selfcheck:
            cfg.selfcheck = True

        if args.output:
            try:
                out = open(args.output, "w", encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"output: {exc}") from exc
            with out:
                return run_command(args.command, cfg, out)
        return run_command(args.command, cfg, sys.stdout)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
