"""Command line front end: JSON config in, CSV out.

Commands: coeffs, ladder, evolve, moments, verify, selftest.
Exit codes: 0 success, 2 config error, 3 numerical failure
(endpoint collision, step collapse, lost orthogonality, too few quadrature
points for the degree), 4 verification tolerance exceeded / selfcheck
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    EndpointCollision,
    GJFlowError,
    StepCollapse,
    UnderResolved,
)
from .evolution import evolve, verify_against_direct
from .ladder import ladder_checks, ladder_init
from .momentflow import evolve_moments, nu_by_quadrature
from .orthopoly import moments, stieltjes_procedure
from .quadrature import DEFAULT_NPTS, gauss_jacobi_rule, integrate_against_weight
from .weights import EndpointTrajectory, make_weight, node_data

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
    npts: int = 64
    t0: float = 0.0
    t1: float = 1.0
    rtol: float = 1e-9
    atol: float = 1e-12
    samples: int = 20
    verify_rtol: float = 1e-6
    selfcheck: bool = False

    def weight(self):
        traj = EndpointTrajectory(tuple(tuple(c) for c in self.trajectory))
        return make_weight(self.alpha, self.pieces, traj, t_ref=self.t0)

    def resolved(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))


def _require(cond: bool, path: str, reason: str):
    if not cond:
        raise ConfigError(f"{path}: {reason}")


def _finite_list(values, path: str) -> List[float]:
    _require(isinstance(values, list) and len(values) > 0, path,
             "must be a non-empty list of numbers")
    out = []
    for i, v in enumerate(values):
        _require(isinstance(v, (int, float)) and np.isfinite(v),
                 f"{path}[{i}]", "must be a finite number")
        out.append(float(v))
    return out


def _finite_number(v, path: str) -> float:
    _require(isinstance(v, (int, float)) and np.isfinite(v), path,
             "must be a finite number")
    return float(v)


def _check_keys(doc: dict, allowed, path: str, strict: bool):
    for key in doc:
        if key not in allowed:
            if strict:
                raise ConfigError(f"{path}{key}: unknown key")
            print(f"warning: ignoring unknown config key {path}{key}",
                  file=sys.stderr)


def default_npts(n: int) -> int:
    """Quadrature points per piece when none are given: exactness of
    x p_n^2 on each piece needs n + 1, and one more is margin."""
    return max(DEFAULT_NPTS, n + 2)


def parse_config(text: str, strict: bool = False,
                 overrides: Optional[dict] = None) -> RunConfig:
    """Parse and validate a JSON config document.

    ``overrides`` maps RunConfig fields to values that replace the
    document's (None leaves a field alone). ``npts``, when neither gives
    it, is ``default_npts`` of the resolved ``n``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    _require(isinstance(doc, dict), "config", "top level must be an object")
    _check_keys(doc, {"weight", "n", "quad", "evolve", "verify"}, "", strict)

    _require("weight" in doc, "weight", "section is required")
    wsec = doc["weight"]
    _require(isinstance(wsec, dict), "weight", "must be an object")
    _check_keys(wsec, {"alpha", "pieces", "trajectory"}, "weight.", strict)
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
    npts = None
    if "n" in doc:
        _require(isinstance(doc["n"], int) and doc["n"] >= 0, "n",
                 "must be a non-negative integer")
        cfg.n = doc["n"]
    if "quad" in doc:
        qsec = doc["quad"]
        _require(isinstance(qsec, dict), "quad", "must be an object")
        _check_keys(qsec, {"npts"}, "quad.", strict)
        if "npts" in qsec:
            _require(isinstance(qsec["npts"], int) and qsec["npts"] >= 1,
                     "quad.npts", "must be a positive integer")
            npts = qsec["npts"]
    if "evolve" in doc:
        esec = doc["evolve"]
        _require(isinstance(esec, dict), "evolve", "must be an object")
        _check_keys(esec, {"t0", "t1", "rtol", "atol", "samples"}, "evolve.",
                    strict)
        if "t0" in esec:
            cfg.t0 = _finite_number(esec["t0"], "evolve.t0")
        if "t1" in esec:
            cfg.t1 = _finite_number(esec["t1"], "evolve.t1")
        if "rtol" in esec:
            cfg.rtol = _finite_number(esec["rtol"], "evolve.rtol")
            _require(cfg.rtol > 0, "evolve.rtol", "must be positive")
        if "atol" in esec:
            cfg.atol = _finite_number(esec["atol"], "evolve.atol")
            _require(cfg.atol > 0, "evolve.atol", "must be positive")
        if "samples" in esec:
            _require(isinstance(esec["samples"], int) and esec["samples"] >= 2,
                     "evolve.samples", "must be an integer >= 2")
            cfg.samples = esec["samples"]
    if "verify" in doc:
        vsec = doc["verify"]
        _require(isinstance(vsec, dict), "verify", "must be an object")
        _check_keys(vsec, {"rtol"}, "verify.", strict)
        if "rtol" in vsec:
            cfg.verify_rtol = _finite_number(vsec["rtol"], "verify.rtol")
            _require(cfg.verify_rtol > 0, "verify.rtol", "must be positive")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    npts = overrides.pop("npts", npts)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cfg.npts = default_npts(cfg.n) if npts is None else npts
    return cfg


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _emit(out, cfg: RunConfig, columns, rows, extra_comments=()):
    out.write(f"# gjflow {__version__}\n")
    out.write(f"# config: {cfg.resolved()}\n")
    for line in extra_comments:
        out.write(f"# {line}\n")
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _selfchecked(cfg: RunConfig, label: str, compute, fields=None):
    """``compute(cfg.npts)``; with ``--selfcheck``, also ``compute`` at
    twice the points, compared on the named array fields of the result
    (on the result itself when ``fields`` is None). A relative deviation
    above 1e-9 is printed to stderr and returns None."""
    def flat(result):
        if fields is None:
            return np.asarray(result, dtype=float)
        return np.concatenate([getattr(result, name) for name in fields])

    coarse = compute(cfg.npts)
    if cfg.selfcheck:
        c, f = flat(coarse), flat(compute(2 * cfg.npts))
        dev = float(np.max(np.abs(c - f) / np.maximum(np.abs(f), 1.0)))
        if dev > 1e-9:
            print(f"selfcheck failed for {label}: npts-doubling deviation "
                  f"{dev:.3e}", file=sys.stderr)
            return None
    return coarse


def _steps_comment(stats) -> str:
    return (f"steps: accepted={stats.accepted} rejected={stats.rejected} "
            f"fevals={stats.fevals}")


def cmd_coeffs(cfg: RunConfig, out) -> int:
    w = cfg.weight()
    table = _selfchecked(
        cfg, "coeffs",
        lambda npts: stieltjes_procedure(w, cfg.t0, cfg.n + 1, npts),
        ("a", "b", "gamma"))
    if table is None:
        return EXIT_VERIFY
    rows = [
        (n, table.a[n], table.b[n], table.gamma[n]) for n in range(cfg.n + 1)
    ]
    _emit(out, cfg, ("n", "a_n", "b_n", "gamma_n"), rows)
    return EXIT_OK


def cmd_ladder(cfg: RunConfig, out) -> int:
    w = cfg.weight()
    table = stieltjes_procedure(w, cfg.t0, cfg.n + 1, cfg.npts)
    lv = _selfchecked(cfg, "ladder",
                      lambda npts: ladder_init(w, cfg.t0, cfg.n, npts),
                      ("theta", "omega"))
    if lv is None:
        return EXIT_VERIFY
    report = ladder_checks(w, table, lv, cfg.t0, cfg.npts)
    nd = node_data(w, cfg.t0)
    rows = [
        (j + 1, nd.x[j], lv.theta[j],
         lv.theta_prev[j] if lv.theta_prev is not None else 0.0, lv.omega[j])
        for j in range(w.m)
    ]
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
    _require(cfg.t1 != cfg.t0, "evolve.t1", "must differ from evolve.t0")


def cmd_evolve(cfg: RunConfig, out) -> int:
    _require_span(cfg)
    w = cfg.weight()
    report = evolve(w, cfg.n, (cfg.t0, cfg.t1), tol=(cfg.rtol, cfg.atol),
                    sample_count=cfg.samples, npts=cfg.npts)
    m = w.m
    columns = ["t", "a", "b", "gamma"]
    columns += [f"theta_{j + 1}" for j in range(m)]
    columns += [f"theta_prev_{j + 1}" for j in range(m)]
    columns += [f"omega_{j + 1}" for j in range(m)]
    columns += [f"drift_{i + 1}" for i in range(5)]
    rows = [
        tuple(np.concatenate(([s.t], s.pack(), report.drifts[i])))
        for i, s in enumerate(report.states)
    ]
    _emit(out, cfg, columns, rows, [_steps_comment(report.stats)])
    return EXIT_OK


def cmd_moments(cfg: RunConfig, out) -> int:
    _require_span(cfg)
    w = cfg.weight()
    nu0 = _selfchecked(cfg, "moments",
                       lambda npts: nu_by_quadrature(w, cfg.n, cfg.t0, npts))
    if nu0 is None:
        return EXIT_VERIFY
    states, stats = evolve_moments(w, cfg.n, (cfg.t0, cfg.t1),
                                   tol=(cfg.rtol, cfg.atol),
                                   sample_count=cfg.samples, npts=cfg.npts,
                                   nu0=nu0)
    m = w.m
    columns = ["t"] + [f"nu_{j + 1}" for j in range(m)] + ["mu_n", "gap"]
    rows = []
    for s in states:
        mu_n = float(moments(w, s.t, cfg.n, cfg.npts)[cfg.n])
        gap = abs(mu_n - s.nu[0]) / max(abs(mu_n), abs(s.nu[0]), 1e-300)
        rows.append(tuple(np.concatenate(([s.t], s.nu, [mu_n, gap]))))
    _emit(out, cfg, columns, rows, [_steps_comment(stats)])
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out) -> int:
    _require_span(cfg)
    w = cfg.weight()
    report = evolve(w, cfg.n, (cfg.t0, cfg.t1), tol=(cfg.rtol, cfg.atol),
                    sample_count=cfg.samples, npts=cfg.npts)
    vt = verify_against_direct(w, cfg.n, report, cfg.npts)
    columns = ["t"] + [f"dev_{lab}" for lab in vt.labels]
    rows = [
        tuple(np.concatenate(([vt.times[i]], vt.deviations[i])))
        for i in range(len(vt.times))
    ]
    comments = [f"max_deviation: {vt.max_deviation!r}",
                f"verify_rtol: {cfg.verify_rtol!r}"]
    _emit(out, cfg, columns, rows, comments)
    if vt.max_deviation > cfg.verify_rtol:
        print(f"verification failed: max deviation {vt.max_deviation:.3e} "
              f"> {cfg.verify_rtol:.3e}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_selftest(cfg: RunConfig, out) -> int:
    checks = []

    rule = gauss_jacobi_rule(32, 0.5, 0.5)
    checks.append(("gauss_jacobi_mass",
                   abs(np.sum(rule.weights) - np.pi / 2) < 1e-12))

    cheb = make_weight([0.5, 0.5], [1.0], EndpointTrajectory.fixed([-1.0, 1.0]))
    table = stieltjes_procedure(cheb, 0.0, 10, cfg.npts)
    checks.append(("chebyshev_coefficients",
                   np.max(np.abs(table.a[1:] - 0.5)) < 1e-10
                   and np.max(np.abs(table.b)) < 1e-12))
    checks.append(("quadrature_mass",
                   abs(integrate_against_weight(cheb, lambda u: np.ones_like(u),
                                                0.0, cfg.npts) - np.pi / 2)
                   < 1e-12))

    w = cfg.weight()
    if np.all(w.alpha > 0.0) and cfg.n >= 1:
        wt = stieltjes_procedure(w, cfg.t0, cfg.n + 1, cfg.npts)
        lv = ladder_init(w, cfg.t0, cfg.n, cfg.npts)
        report = ladder_checks(w, wt, lv, cfg.t0, cfg.npts)
        checks.append(("ladder_residue_sums",
                       max(report.residue_theta, report.residue_x_theta,
                           report.residue_omega) < 1e-8))
        checks.append(("ladder_differential_relation",
                       report.diffrel_residual < 1e-7))
        checks.append(("ladder_wronskian", report.wronskian_residual < 1e-8))

        frozen = make_weight(
            w.alpha, w.pieces,
            EndpointTrajectory.fixed(w.trajectory.positions(cfg.t0)),
        )
        rep = evolve(frozen, cfg.n, (cfg.t0, cfg.t0 + 1.0),
                     tol=(cfg.rtol, cfg.atol), sample_count=5, npts=cfg.npts)
        first = rep.states[0].pack()
        last = rep.states[-1].pack()
        checks.append(("frozen_trajectory_constant",
                       float(np.max(np.abs(last - first))) < 1e-12))

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
        if cfg.npts < cfg.n + 2:
            raise UnderResolved(
                f"npts = {cfg.npts} is below n + 2 = {cfg.n + 2}: the "
                f"quadrature cannot resolve degree {cfg.n}")
        return _COMMANDS[cmd](cfg, out)
    except ConfigError:
        raise
    except (EndpointCollision, StepCollapse) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc} "
              f"(last good t = {exc.t})", file=sys.stderr)
        return EXIT_NUMERICAL
    except GJFlowError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main(argv=None) -> int:
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
    parser.add_argument("--strict", action="store_true",
                        help="reject unknown config keys")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        elif args.command == "selftest":
            text = _DEFAULT_SELFTEST_CONFIG
        else:
            raise ConfigError("config: --config is required")
        overrides = {key: getattr(args, key)
                     for key in ("n", "t0", "t1", "rtol", "npts")}
        cfg = parse_config(text, strict=args.strict, overrides=overrides)
        if args.selfcheck:
            cfg.selfcheck = True

        if args.output:
            with open(args.output, "w", encoding="utf-8") as out:
                return run_command(args.command, cfg, out)
        return run_command(args.command, cfg, sys.stdout)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
