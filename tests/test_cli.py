import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gjflow.cli
import gjflow.evolution
import gjflow.ladder
import gjflow.momentflow
from gjflow import quadrature
from gjflow.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY,
    _emit,
    _parser,
    main,
    parse_config,
)
from gjflow.errors import ConfigError
from gjflow.evolution import evolve, init_states, verify_against_direct
from gjflow.momentflow import direct_moments, evolve_moments

CHEB = {
    "weight": {"alpha": [0.5, 0.5], "pieces": [1.0],
               "trajectory": [[-1.0], [1.0]]},
    "n": 6,
}

MOVING3 = {
    "weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1.0, 1.0],
               "trajectory": [[-1.0], [0.0, 1.0], [1.0]]},
    "n": 5,
    "evolve": {"t0": 0.0, "t1": 0.3, "samples": 5},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def drifts_of(w, times, ys):
    """The drift columns of ``gjflow evolve``: the conserved sums at each
    sample minus those at times[0]."""
    sums = gjflow.ladder.residue_sums(
        ys, w.trajectory.positions(np.asarray(times)[:, None]))
    return sums - sums[0]


def read_csv(text):
    """Split CLI output into (comment lines, header columns, value rows)."""
    lines = [ln for ln in text.splitlines() if ln]
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in data[1:]]
    return comments, header, rows


def max_deviation(comments):
    [line] = [c for c in comments if c.startswith("# max_deviation: ")]
    return float(line.split(": ")[1])


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(json.dumps(CHEB))
        assert cfg.alpha == [0.5, 0.5]
        assert cfg.pieces == [1.0]
        assert cfg.n == 6
        assert cfg.npts == 64
        assert (cfg.t0, cfg.t1) == (0.0, 1.0)
        assert cfg.rtol == 1e-9
        assert cfg.samples == 20
        assert not cfg.selfcheck

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    def test_missing_weight(self):
        with pytest.raises(ConfigError, match="weight"):
            parse_config("{}")

    def test_pieces_length_mismatch(self):
        doc = {"weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1.0],
                          "trajectory": [[-1.0], [0.0], [1.0]]}}
        with pytest.raises(ConfigError, match="length m-1"):
            parse_config(json.dumps(doc))

    def test_trajectory_shape(self):
        doc = {"weight": {"alpha": [0.5, 0.5], "pieces": [1.0],
                          "trajectory": [[-1.0]]}}
        with pytest.raises(ConfigError, match="trajectory"):
            parse_config(json.dumps(doc))

    def test_nonfinite_rejected(self):
        doc = {"weight": {"alpha": [0.5, None], "pieces": [1.0],
                          "trajectory": [[-1.0], [1.0]]}}
        with pytest.raises(ConfigError, match=r"alpha\[1\]"):
            parse_config(json.dumps(doc))

    def test_unknown_key_warns(self, capsys):
        doc = dict(CHEB, typo=1)
        parse_config(json.dumps(doc))
        assert "unknown config key typo" in capsys.readouterr().err

    def test_unknown_key_strict(self):
        doc = dict(CHEB, typo=1)
        with pytest.raises(ConfigError, match="typo"):
            parse_config(json.dumps(doc), strict=True)

    @pytest.mark.parametrize("key", ["rtol", "atol"])
    def test_negative_rtol(self, key):
        for value in (-1.0, 0.0):
            doc = dict(MOVING3)
            doc["evolve"] = dict(doc["evolve"], **{key: value})
            with pytest.raises(ConfigError, match=rf"^evolve\.{key}: must be positive$"):
                parse_config(json.dumps(doc))


def _with(doc, path, value):
    """A deep copy of doc with the entry at the key/index path set."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[path[-1]] = value
    return doc


# JSON true and false are bools, and bool is a subclass of int in Python:
# every number and integer field must still refuse them
BOOL_CASES = {
    ("weight", "alpha", 0): "weight.alpha[0]: must be a finite number",
    ("weight", "pieces", 0): "weight.pieces[0]: must be a finite number",
    ("weight", "trajectory", 1, 1):
        "weight.trajectory[1][1]: must be a finite number",
    ("evolve", "t0"): "evolve.t0: must be a finite number",
    ("evolve", "t1"): "evolve.t1: must be a finite number",
    ("evolve", "rtol"): "evolve.rtol: must be a finite number",
    ("evolve", "atol"): "evolve.atol: must be a finite number",
    ("verify", "rtol"): "verify.rtol: must be a finite number",
    ("n",): "n: must be a non-negative integer",
    ("quad", "npts"): "quad.npts: must be a positive integer",
    ("evolve", "samples"): "evolve.samples: must be an integer >= 2",
}


# a flag replaces its config field before validation, so it fails that
# field's own check, with the field's path
OVERRIDE_CASES = {
    ("--rtol", "-1"): "evolve.rtol: must be positive",
    ("--rtol", "0"): "evolve.rtol: must be positive",
    ("--n", "-1"): "n: must be a non-negative integer",
    ("--npts", "0"): "quad.npts: must be a positive integer",
    ("--t0", "nan"): "evolve.t0: must be a finite number",
    ("--t0", "inf"): "evolve.t0: must be a finite number",
    ("--t1", "nan"): "evolve.t1: must be a finite number",
}


@pytest.mark.parametrize("flag", OVERRIDE_CASES,
                         ids=["".join(f) for f in OVERRIDE_CASES])
def test_flag_overrides_are_validated(tmp_path, capsys, flag):
    message = OVERRIDE_CASES[flag]
    assert main(["evolve", "--config", write_config(tmp_path, MOVING3),
                 *flag]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message}\n")


@pytest.mark.parametrize("path", BOOL_CASES,
                         ids=[".".join(map(str, p)) for p in BOOL_CASES])
@pytest.mark.parametrize("flag", [True, False])
def test_booleans_are_not_numbers(tmp_path, capsys, path, flag):
    doc = _with(MOVING3, path, flag)
    message = BOOL_CASES[path]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(json.dumps(doc))
    assert main(["evolve", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message}\n")


class TestCoeffs:
    def test_chebyshev_values(self, tmp_path, capsys):
        code = main(["coeffs", "--config", write_config(tmp_path, CHEB)])
        assert code == EXIT_OK
        comments, header, rows = read_csv(capsys.readouterr().out)
        assert header == ["n", "a_n", "b_n", "gamma_n"]
        assert len(rows) == 7
        assert any("config:" in c for c in comments)
        for row in rows[1:]:
            assert row[1] == pytest.approx(0.5, abs=1e-12)
            assert abs(row[2]) < 1e-12

    def test_roundtrip_exact(self, tmp_path, capsys):
        # repr() formatting must survive a float() round trip bit-for-bit
        from gjflow import EndpointTrajectory, make_weight, stieltjes_procedure
        main(["coeffs", "--config", write_config(tmp_path, CHEB)])
        _, _, rows = read_csv(capsys.readouterr().out)
        w = make_weight([0.5, 0.5], [1.0], EndpointTrajectory.fixed([-1.0, 1.0]))
        table = stieltjes_procedure(w, 0.0, 6)
        for row in rows:
            n = int(row[0])
            assert row[3] == table.gamma[n]

    def test_output_file(self, tmp_path):
        out = tmp_path / "result.csv"
        code = main(["coeffs", "--config", write_config(tmp_path, CHEB),
                     "--output", str(out)])
        assert code == EXIT_OK
        _, header, rows = read_csv(out.read_text())
        assert header[0] == "n"
        assert len(rows) == 7

    def test_gamma_overflow_is_numerical_failure(self, tmp_path, capsys):
        # gamma_n ~ 2^n on [-1, 1] leaves the float range at n = 1025
        code = main(["coeffs", "--config", write_config(tmp_path, CHEB),
                     "--n", "1200", "--npts", "1300"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert "NonFinite" in captured.err
        assert "gamma_1025" in captured.err
        assert "inf" not in captured.out

    @pytest.mark.parametrize("failure", ["mass", "float_max", "newton"])
    def test_rule_build_failure_is_numerical_failure(self, tmp_path, capsys,
                                                     monkeypatch, failure):
        # exponents no other test uses, so that the rules are built here; a
        # non-finite recurrence from finite exponents overflows the mass first
        alpha = {"mass": [2000.0, 0.5, 1.0], "float_max": [1e308, 1e308, 0.5],
                 "newton": [15.41, 7.29, 0.57]}[failure]
        if failure == "newton":
            # lowered exponents (14.41, 6.29) from the asymptotic start, far
            # above its bound: the passes find one root twice
            monkeypatch.setattr(quadrature, "_ASYMPTOTIC_BOUND", float("inf"))
        doc = {"weight": {"alpha": alpha, "pieces": [1, 1],
                          "trajectory": [[-1], [0, 0.1], [1]]}}
        code = main(["coeffs", "--config", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert captured.out == ""
        name, what = (("NotConverged", "did not converge") if failure == "newton"
                      else ("NonFinite", "overflows the float range"))
        assert captured.err.startswith(f"numerical failure: {name}: ")
        assert what in captured.err

    def test_n_override(self, tmp_path, capsys):
        code = main(["coeffs", "--config", write_config(tmp_path, CHEB),
                     "--n", "3"])
        assert code == EXIT_OK
        _, _, rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 4

    def test_selfcheck_passes(self, tmp_path, capsys):
        code = main(["coeffs", "--config", write_config(tmp_path, CHEB),
                     "--selfcheck"])
        assert code == EXIT_OK

    def test_selfcheck_compares_the_printed_rows(self, tmp_path, capsys):
        # b_70 takes the table to 71, whose a_71 and gamma_71 the 72 points
        # miss by 0.21 and 29 %; they are not printed, and not compared
        code = main(["coeffs", "--config", write_config(tmp_path, CHEB),
                     "--n", "70", "--selfcheck"])
        captured = capsys.readouterr()
        assert code == EXIT_OK and captured.err == ""
        _, _, rows = read_csv(captured.out)
        assert len(rows) == 71 and abs(rows[70][1] - 0.5) < 1e-14


class TestLadder:
    def test_reports_residuals(self, tmp_path, capsys):
        code = main(["ladder", "--config", write_config(tmp_path, MOVING3)])
        assert code == EXIT_OK
        comments, header, rows = read_csv(capsys.readouterr().out)
        assert header == ["j", "x_j", "theta", "theta_prev", "omega"]
        assert len(rows) == 3
        resid = [c for c in comments if "wronskian_residual" in c]
        assert resid
        assert float(resid[0].split(":")[1]) < 1e-8

    @pytest.mark.parametrize("cmd", ["ladder", "selftest"])
    def test_support_narrower_than_the_sample_margin(self, tmp_path, capsys,
                                                     cmd):
        # width 0.08: a fixed 0.05 margin left no interval to sample from
        doc = dict(MOVING3, weight={"alpha": [0.5, 0.5, 0.5],
                                    "pieces": [1.0, 1.0],
                                    "trajectory": [[0.0], [0.03], [0.08]]})
        code = main([cmd, "--config", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.err == ""
        if cmd == "selftest":
            assert "FAIL" not in captured.out
            assert "PASS ladder_differential_relation" in captured.out
            return
        comments, _, rows = read_csv(captured.out)
        resid = [float(c.split(":")[1]) for c in comments if "resid" in c]
        assert len(resid) == 5
        assert np.all(np.isfinite(resid)) and max(resid) < 1e-8
        assert np.all(np.isfinite(rows))


    def test_residual_comments_are_floats(self, tmp_path, capsys):
        # theta reaches 12.5 here, so the residue_theta scale is max |theta|
        code = main(["ladder", "--config", write_config(tmp_path, MOVING3)])
        assert code == EXIT_OK
        comments, _, _ = read_csv(capsys.readouterr().out)
        values = dict(c[2:].split(": ", 1) for c in comments if ": " in c)
        del values["config"]
        assert len(values) == 5
        for value in values.values():
            float(value)


class TestEvolve:
    def test_fixed_endpoints_rows_identical(self, tmp_path, capsys):
        doc = {"weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1.0, 1.0],
                          "trajectory": [[-1.0], [0.2], [1.0]]},
               "n": 4, "evolve": {"t0": 0.0, "t1": 1.0, "samples": 4}}
        code = main(["evolve", "--config", write_config(tmp_path, doc)])
        assert code == EXIT_OK
        _, header, rows = read_csv(capsys.readouterr().out)
        assert header[0] == "t"
        first = np.array(rows[0][1:])
        for row in rows[1:]:
            assert np.max(np.abs(np.array(row[1:]) - first)) < 1e-11

    def test_moving_drifts_small(self, tmp_path, capsys):
        code = main(["evolve", "--config", write_config(tmp_path, MOVING3)])
        assert code == EXIT_OK
        _, header, rows = read_csv(capsys.readouterr().out)
        drift_cols = [i for i, h in enumerate(header) if h.startswith("drift_")]
        assert len(drift_cols) == 5
        for row in rows:
            assert max(abs(row[i]) for i in drift_cols) < 1e-8

    def test_collision_exit_code(self, tmp_path, capsys):
        doc = {"weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1.0, 1.0],
                          "trajectory": [[-1.0], [0.2, 4.0], [1.0]]},
               "n": 3, "evolve": {"t0": 0.0, "t1": 0.5, "samples": 4}}
        code = main(["evolve", "--config", write_config(tmp_path, doc)])
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


# x_2 meets x_3 = 1 + gap at t = 0.5: x_2 = 2t crosses it, x_2 = 4t - 4t^2
# touches it (gap 0) or comes within the gap of it
def touching(gap):
    return [[-1], [0, 4, -4], [1 + gap]]


COLLISIONS = {"crossing": [[-1], [0, 2], [1]], "touch": touching(0),
              "near_touch": touching(1e-12)}


@pytest.mark.parametrize("trajectory", COLLISIONS.values(), ids=COLLISIONS)
@pytest.mark.parametrize("cmd", ["evolve", "verify", "moments"])
def test_collision_is_refused_before_any_quadrature(tmp_path, capsys,
                                                    monkeypatch, cmd,
                                                    trajectory):
    # every command over the span refuses it before its oracle, its start
    # or any step; at t = 0.5 the oracle would fail too, or be wrong
    def no_work(*args, **kwargs):
        raise AssertionError("quadrature or a step ran")

    for module, name in ((gjflow.cli, "init_states"),
                         (gjflow.cli, "direct_moments"),
                         (gjflow.evolution, "init_states"),
                         (gjflow.evolution, "integrate_rk45"),
                         (gjflow.momentflow, "direct_moments")):
        monkeypatch.setattr(module, name, no_work)
    doc = {"weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1, 1],
                      "trajectory": trajectory},
           "n": 3, "evolve": {"t0": 0, "t1": 1, "samples": 11}}
    code = main([cmd, "--config", write_config(tmp_path, doc)])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    found = re.fullmatch(r"numerical failure: EndpointCollision: endpoints "
                         r"x_2 and x_3 come within 2\.0e-08 of each other at "
                         r"t = (\S+), between t = 0\.0 and 1\.0\n", captured.err)
    assert float(found.group(1)) == pytest.approx(0.5, abs=1e-3)


@pytest.mark.parametrize("cmd", ["evolve", "verify", "moments"])
def test_one_span_check_per_command(tmp_path, capsys, monkeypatch, cmd):
    # x_2 = 0.3 t + 0.1 t^3: the slope of each of the two neighbour gaps is
    # a quadratic, whose roots one span check finds with one polyroots call
    calls = []
    polyroots = np.polynomial.polynomial.polyroots
    monkeypatch.setattr(np.polynomial.polynomial, "polyroots",
                        lambda c: calls.append(1) or polyroots(c))
    doc = {"weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1, 1],
                      "trajectory": [[-1], [0, 0.3, 0, 0.1], [1]]},
           "n": 3, "evolve": {"t0": 0, "t1": 1, "samples": 5}}
    assert main([cmd, "--config", write_config(tmp_path, doc)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert len(calls) == 2


def test_trajectory_near_the_float_limit_fails_quietly(tmp_path, capsys):
    # the trajectory's velocity and gap rows overflow; only the collision
    # that check_span finds is reported
    doc = {"weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1, 1],
                      "trajectory": [[-1], [0, 0, 1e308], [1]]}}
    code = main(["evolve", "--config", write_config(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL and captured.out == ""
    assert re.fullmatch(r"numerical failure: EndpointCollision: [^\n]*\n",
                        captured.err)


@pytest.mark.parametrize("cmd, code", [("evolve", EXIT_OK),
                                       ("verify", EXIT_VERIFY),
                                       ("moments", EXIT_VERIFY)])
def test_near_touch_above_the_floor_runs(tmp_path, capsys, cmd, code):
    # a smallest gap of 1e-6, above the floor 2e-8: the flows run
    doc = {"weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1, 1],
                      "trajectory": touching(1e-6)},
           "n": 3, "evolve": {"t0": 0, "t1": 1}}
    assert main([cmd, "--config", write_config(tmp_path, doc)]) == code
    assert "EndpointCollision" not in capsys.readouterr().err


README_CONFIG = {
    "weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1.0, 1.0],
               "trajectory": [[-1.0], [0.0, 1.0], [1.0]]},
    "n": 5,
    "evolve": {"t0": 0.0, "t1": 0.3, "rtol": 1e-9},
}

M4_CONFIG = {
    "weight": {"alpha": [0.5, 1.0, 1.5, 0.5], "pieces": [1.0, 0.7, 1.3],
               "trajectory": [[-2.0], [-0.6, 0.8, 0.3], [0.5, -0.4], [2.0]]},
    "n": 6,
    "evolve": {"t0": 0.0, "t1": 0.5, "samples": 10},
}

M6_CONFIG = {
    "weight": {"alpha": [0.3, 1.2, 0.7, 0.45, 1.4, 0.9],
               "pieces": [1.0, 0.7, 1.5, 1.1, 0.8],
               "trajectory": [[-2.0], [-1.1, 0.5], [-0.3, -0.4, 0.5],
                              [0.4, 0.6], [1.2, -0.3, -0.2], [2.0]]},
    "n": 10,
    "evolve": {"t0": 0.0, "t1": 0.4, "samples": 10},
}


# The integrator's step history is part of the output: a change that
# alters it must update these lines on purpose.
@pytest.mark.parametrize("doc, steps", [
    (README_CONFIG, "# steps: accepted=18 rejected=0 fevals=263"),
    (M4_CONFIG, "# steps: accepted=18 rejected=1 fevals=253"),
    (M6_CONFIG, "# steps: accepted=16 rejected=1 fevals=229"),
], ids=["readme", "m4", "m6"])
def test_evolve_step_counts_pinned(tmp_path, capsys, doc, steps):
    code = main(["evolve", "--config", write_config(tmp_path, doc)])
    assert code == EXIT_OK
    comments, _, _ = read_csv(capsys.readouterr().out)
    assert steps in comments


@pytest.mark.parametrize("doc", [README_CONFIG, M4_CONFIG, M6_CONFIG],
                         ids=["readme", "m4", "m6"])
class TestRowsAreTheFlowArrays:
    """The data rows print the arrays the flows return, bit for bit."""

    def test_evolve(self, tmp_path, capsys, doc):
        cfg = parse_config(json.dumps(doc))
        w = cfg.weight()
        times = np.linspace(cfg.t0, cfg.t1, cfg.samples)
        ys, _ = evolve(w, times, init_states(w, cfg.n, times[:1], cfg.npts)[0],
                       tol=(cfg.rtol, cfg.atol))
        assert main(["evolve", "--config", write_config(tmp_path, doc)]) == EXIT_OK
        _, _, rows = read_csv(capsys.readouterr().out)
        expected = np.column_stack((times, ys, drifts_of(w, times, ys)))
        assert np.array_equal(np.array(rows), expected)

    def test_moments(self, tmp_path, capsys, doc):
        cfg = parse_config(json.dumps(doc))
        w = cfg.weight()
        times = np.linspace(cfg.t0, cfg.t1, cfg.samples)
        nus, _ = evolve_moments(w, cfg.n, times,
                                direct_moments(w, cfg.n, times[:1], cfg.npts)[1][0],
                                tol=(cfg.rtol, cfg.atol))
        assert main(["moments", "--config", write_config(tmp_path, doc)]) == EXIT_OK
        comments, header, rows = read_csv(capsys.readouterr().out)
        assert comments[-1] == "# verify_rtol: 1e-06"
        assert max_deviation(comments) < 1e-10
        rows = np.array(rows)
        assert header[1:w.m + 1] == [f"nu_{j + 1}" for j in range(w.m)]
        assert np.array_equal(rows[:, 0], times)
        assert np.array_equal(rows[:, 1:w.m + 1], nus)


# The reproducer of perfbench/README.md: the forward flow of the moments
# rides a growing mode and misses the direct moments.
MOMENTS_MISS = {
    "weight": {"alpha": [0.924, 1.379, 1.062, 0.404], "pieces": [1, 1, 1],
               "trajectory": [[-2.0], [-1.8983, 0.6971], [0.2606, -0.6927],
                              [2.0]]},
    "n": 10,
    "evolve": {"t0": 0.0, "t1": 0.5678, "samples": 10},
}


class TestMoments:
    def test_runs_and_reports_gap(self, tmp_path, capsys):
        code = main(["moments", "--config", write_config(tmp_path, MOVING3),
                     "--n", "2"])
        assert code == EXIT_OK
        comments, header, rows = read_csv(capsys.readouterr().out)
        assert max_deviation(comments) < 1e-10
        assert header[-2:] == ["mu_n", "gap"]
        assert len(rows) == 5

    def test_miss_exits_4_with_its_rows(self, tmp_path, capsys):
        code = main(["moments", "--config", write_config(tmp_path, MOMENTS_MISS)])
        assert code == EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.err.startswith("verification failed: max deviation ")
        comments, header, rows = read_csv(captured.out)
        assert 1e-3 < max_deviation(comments) < 1e-1
        assert header[-2:] == ["mu_n", "gap"] and len(rows) == 10

    def test_max_deviation_is_verify_against_direct(self, tmp_path, capsys):
        # the flow's samples against the direct nu at every sample time, in
        # the one deviation function, bit for bit
        cfg = parse_config(json.dumps(M4_CONFIG))
        w = cfg.weight()
        times = np.linspace(cfg.t0, cfg.t1, cfg.samples)
        nu = direct_moments(w, cfg.n, times, cfg.npts)[1]
        nus, _ = evolve_moments(w, cfg.n, times, nu[0], (cfg.rtol, cfg.atol))
        assert main(["moments", "--config", write_config(tmp_path, M4_CONFIG)]) \
            == EXIT_OK
        comments, _, _ = read_csv(capsys.readouterr().out)
        assert max_deviation(comments) == verify_against_direct(nus, nu).max()


class TestVerify:
    def test_passes_at_default_tolerance(self, tmp_path, capsys):
        code = main(["verify", "--config", write_config(tmp_path, MOVING3)])
        assert code == EXIT_OK
        comments, _, _ = read_csv(capsys.readouterr().out)
        maxdev = [c for c in comments if "max_deviation" in c]
        assert float(maxdev[0].split(":")[1]) < 1e-6

    def test_fails_at_impossible_tolerance(self, tmp_path, capsys):
        doc = dict(MOVING3, verify={"rtol": 1e-16})
        code = main(["verify", "--config", write_config(tmp_path, doc)])
        assert code == EXIT_VERIFY
        assert "verification failed" in capsys.readouterr().err

    def test_one_oracle_pass_starts_the_flow(self, tmp_path, capsys,
                                             monkeypatch):
        # one init_states per quadrature size (twice with --selfcheck), and
        # the flow starts from row 0 of the first, without building its own
        oracles, starts = [], []
        init_states = gjflow.cli.init_states
        integrate = gjflow.evolution.integrate_rk45

        def counted(*args, **kwargs):
            oracles.append(init_states(*args, **kwargs))
            return oracles[-1]

        def no_start(*args, **kwargs):
            raise AssertionError("the flow built its own start")

        def spy(rhs, frames, times, y0, *args, **kwargs):
            starts.append(np.array(y0))
            return integrate(rhs, frames, times, y0, *args, **kwargs)

        monkeypatch.setattr(gjflow.cli, "init_states", counted)
        monkeypatch.setattr(gjflow.evolution, "init_states", no_start)
        monkeypatch.setattr(gjflow.evolution, "integrate_rk45", spy)
        path = write_config(tmp_path, MOVING3)
        for flags, passes in (([], 1), (["--selfcheck"], 2)):
            oracles.clear()
            starts.clear()
            assert main(["verify", "--config", path, *flags]) == EXIT_OK
            assert len(oracles) == passes and len(starts) == 1
            assert np.array_equal(starts[0], oracles[0][0])
        capsys.readouterr()

    def test_flow_failure_reported_before_the_oracle(self, tmp_path, capsys,
                                                     monkeypatch):
        # x_2 = 2t meets x_3 = 1 at t = 0.5, a sample time at which the
        # oracle fails too: the collision the flow would meet is reported
        # from the span check, before the oracle runs
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(gjflow.cli, "init_states", no_oracle)
        doc = {"weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1, 1],
                          "trajectory": [[-1], [0, 2], [1]]},
               "n": 5, "evolve": {"t0": 0, "t1": 0.9, "samples": 10}}
        code = main(["verify", "--config", write_config(tmp_path, doc)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: EndpointCollision: ")
        assert "last good" not in err
        at = re.search(r" at t = (\S+), between t = 0\.0 and 0\.9$", err.strip())
        assert float(at.group(1)) == pytest.approx(0.5, abs=1e-3)


def run_fresh(*args, timeout=120):
    """``python *args`` in a fresh interpreter that imports this checkout's
    gjflow."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


def test_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter: the start-up cost of a command is its imports
    script = ("import sys\n"
              "from gjflow.cli import main\n"
              "code = main(['verify', '--config', sys.argv[1]])\n"
              "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
              "sys.exit(f'scipy modules loaded: {loaded}' if loaded else code)\n")
    proc = run_fresh("-c", script, write_config(tmp_path, README_CONFIG))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "max_deviation" in proc.stdout


def test_infinite_end_time_flag_exits_at_once(tmp_path):
    # in a fresh interpreter, under a timeout: a flow toward t1 = inf used to
    # run without end
    proc = run_fresh("-m", "gjflow.cli", "evolve", "--t1", "inf", "--config",
                     write_config(tmp_path, README_CONFIG), timeout=30)
    assert proc.returncode == EXIT_CONFIG
    assert (proc.stdout, proc.stderr) == (
        "", "config error: evolve.t1: must be a finite number\n")


class TestSelfcheck:
    """``--selfcheck`` compares each command's quadrature quantities with
    a run at twice the points (README config at n = 1)."""

    @pytest.mark.parametrize("cmd", ["coeffs", "ladder", "evolve", "moments",
                                     "verify"])
    def test_fails_at_three_points(self, tmp_path, capsys, cmd):
        code = main([cmd, "--config", write_config(tmp_path, README_CONFIG),
                     "--n", "1", "--npts", "3", "--selfcheck"])
        captured = capsys.readouterr()
        assert code == EXIT_VERIFY
        assert captured.err.startswith(f"selfcheck failed for {cmd}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("cmd", ["coeffs", "ladder", "evolve", "moments",
                                     "verify"])
    def test_passes_at_default_npts(self, tmp_path, capsys, cmd):
        code = main([cmd, "--config", write_config(tmp_path, README_CONFIG),
                     "--n", "1", "--selfcheck"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "selfcheck" not in captured.err
        assert captured.out.startswith("# gjflow ")


class TestSelftest:
    def test_default_config(self, capsys):
        code = main(["selftest"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS gauss_jacobi_mass" in out
        assert "FAIL" not in out

    def test_frozen_flow_at_a_start_where_one_unit_rounds_away(self, tmp_path,
                                                               capsys):
        # 1e17 + 1.0 == 1e17: a frozen flow over (t0, t0 + 1) had no span
        doc = {"weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1.0, 1.0],
                          "trajectory": [[-1.0], [0.0], [1.0]]},
               "n": 5, "evolve": {"t0": 1e17, "t1": 2e17}}
        code = main(["selftest", "--config", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_OK, "")
        assert captured.out.splitlines() == [
            f"PASS {name}" for name in (
                "gauss_jacobi_mass", "chebyshev_coefficients",
                "quadrature_mass", "ladder_residue_sums",
                "ladder_differential_relation", "ladder_wronskian",
                "frozen_trajectory_constant")]


def test_parser_reuse_keeps_every_call_identical(tmp_path, capsys):
    # one parser serves every main call of a process; a run of calls must
    # read as if each had built its own, usage errors and --help included
    cheb = write_config(tmp_path, CHEB)
    calls = [["coeffs", "--config", cheb], ["--help"], ["nosuchcommand"],
             ["coeffs", "--config", cheb, "--n", "3"], ["coeffs"],
             ["ladder", "--config", cheb, "--npts", "bad"],
             ["coeffs", "--config", cheb]]

    def run(fresh):
        seen = []
        for argv in calls + calls:
            if fresh:
                _parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            seen.append((code, *capsys.readouterr()))
        return seen

    fresh, reused = run(True), run(False)
    assert reused == fresh
    assert [c for c, _, _ in fresh[:len(calls)]] == [
        EXIT_OK, ("exit", 0), ("exit", 2), EXIT_OK, EXIT_CONFIG, ("exit", 2),
        EXIT_OK]
    assert fresh[1][1].startswith("usage: gjflow ")
    assert "invalid choice: 'nosuchcommand'" in fresh[2][2]


def test_array_rows_print_as_fmt():
    # rows are written from one list repr per row; the bytes must be the
    # repr of every value, the integer index in front as its str
    values = [0.0, -0.0, 1.0, -1.5, 1e-300, -1e-300, 5e-324, 1.2345e-310,
              2.2250738585072014e-308, 1.7976931348623157e308, -3.4e300,
              1e16, 1e-5, 1e22, 123456789.12345678, 0.1, 1 / 3,
              np.nan, np.inf, -np.inf]
    rows = np.array(values).reshape(4, 5).tolist()
    cfg = parse_config(json.dumps(CHEB))
    out = io.StringIO()
    _emit(out, cfg, list("iabcde"), [[i, *row] for i, row in enumerate(rows)])
    data = out.getvalue().splitlines()[-4:]
    assert data == [",".join([str(i), *(repr(float(v)) for v in row)])
                    for i, row in enumerate(rows)]


class TestErrorPaths:
    def test_missing_config(self, capsys):
        code = main(["coeffs"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code = main(["coeffs", "--config", str(path)])
        assert code == EXIT_CONFIG

    def test_strict_flag(self, tmp_path, capsys):
        code = main(["coeffs", "--strict",
                     "--config", write_config(tmp_path, dict(CHEB, typo=1))])
        assert code == EXIT_CONFIG

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        doc = {"weight": {"alpha": [0.5, 10 ** 400], "pieces": [1.0],
                          "trajectory": [[-1.0], [1.0]]}}
        code = main(["coeffs", "--config", write_config(tmp_path, doc)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: weight.alpha[1]: must be a finite number\n")

    def test_equal_span_rejected(self, tmp_path, capsys):
        code = main(["evolve", "--config", write_config(tmp_path, MOVING3),
                     "--t1", "0.0", "--t0", "0.0"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("cmd, t0, t1, flags", [
        ("evolve", -1e308, 1e308, []), ("verify", -1e308, 1e308, []),
        ("moments", -1e308, 1e308, []), ("evolve", -1e308, 0.5, ["--t1", "1e308"]),
        *((cmd, 0, t1, []) for cmd in ("evolve", "verify", "moments")
          for t1 in (1e308, 5e306)),
        ("moments", 0, 0.5, ["--t1", "5e306"]),
    ], ids=["evolve", "verify", "moments", "t1-flag",
            *(f"{cmd}-{t1}" for cmd in ("evolve", "verify", "moments")
              for t1 in ("1e308", "5e306")), "moments-t1-flag-5e306"])
    def test_span_whose_length_overflows(self, tmp_path, capsys, cmd, t0, t1,
                                         flags):
        # both ends finite, t1 - t0 = inf: the grid would hold nan and inf;
        # or a finite span past rk45.MAX_SPAN (about 4.13e306), where a step
        # h can overflow h * a_ij of the tableau. Refused before any pass
        # warns, which this suite turns into an error
        doc = {"weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1.0, 1.0],
                          "trajectory": [[-1], [0], [1]]},
               "evolve": {"t0": t0, "t1": t1}}
        code = main([cmd, "--config", write_config(tmp_path, doc), *flags])
        assert code == EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: evolve.t1: must differ "
                                           "from evolve.t0, by at most "
                                           "4.134e+306\n")

    @pytest.mark.parametrize("cmd, digest", [
        ("evolve", "18a79cd36f2f2a7b497749d7938124fc696a68baed067bc0164bc2ec2f0aee03"),
        ("verify", "7394440cffe642cac16ba32dbd738b984a35c2f498ce28e1e40198ed4d4b5b3d"),
        ("moments", "3332d3e1f9abeef62da833c7ee66d92e9d62f8f6dfd3531c97cd715089acc830"),
    ], ids=["evolve", "verify", "moments"])
    def test_span_below_the_bound_runs_as_before(self, tmp_path, capsys, cmd,
                                                 digest):
        # t1 = 1e306 lies under rk45.MAX_SPAN: no warning, and the sha256
        # of stdout is the one from before spans were bounded
        doc = {"weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1.0, 1.0],
                          "trajectory": [[-1], [0], [1]]},
               "evolve": {"t0": 0, "t1": 1e306}}
        code = main([cmd, "--config", write_config(tmp_path, doc)])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("kind", ["missing", "directory", "latin-1"])
    def test_unreadable_config(self, tmp_path, capsys, kind):
        # the reason is the one Python gives for reading the file
        path = tmp_path / "cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "latin-1":
            path.write_bytes(json.dumps(CHEB).replace("{", "{\xe9", 1)
                             .encode("latin-1"))
        with pytest.raises((OSError, UnicodeDecodeError)) as reason:
            path.read_text(encoding="utf-8")
        code = main(["coeffs", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: config: {reason.value}\n")

    def test_output_in_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.csv"
        code = main(["coeffs", "--config", write_config(tmp_path, CHEB),
                     "--output", str(out)])
        assert code == EXIT_CONFIG and not out.parent.exists()
        with pytest.raises(FileNotFoundError) as reason:
            open(out, "w")
        assert capsys.readouterr() == ("", f"config error: output: {reason.value}\n")

    @pytest.mark.parametrize("field, value, reason", [
        ("alpha", [-2, 0.5],
         "exponents must be finite and > -1, got [-2.0, 0.5]"),
        ("pieces", [-1], "piece constants must be finite and > 0, got [-1.0]"),
        ("trajectory", [[1], [-1]],
         "endpoints not strictly increasing at t=0.0: [1.0, -1.0]"),
    ])
    @pytest.mark.parametrize("cmd", ["coeffs", "ladder", "evolve", "moments",
                                     "verify", "selftest"])
    def test_refused_weight_names_its_field(self, tmp_path, capsys, cmd,
                                            field, value, reason):
        doc = dict(CHEB, weight=dict(CHEB["weight"], **{field: value}))
        code = main([cmd, "--config", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert captured.err == f"config error: weight.{field}: {reason}\n"


    @pytest.mark.parametrize("cmd", ["coeffs", "ladder", "evolve", "moments",
                                     "verify", "selftest"])
    def test_overflowing_positions_name_the_trajectory(self, tmp_path, capsys,
                                                       cmd):
        # ordered, but -inf and inf at t0 = 1; refused before any pass
        # warns, which this suite would turn into an error
        doc = {"weight": {"alpha": [0.5, 0.5], "pieces": [1.0],
                          "trajectory": [[-1e308, -1e308], [1e308, 1e308]]},
               "evolve": {"t0": 1.0, "t1": 1.5}}
        code = main([cmd, "--config", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert captured.err == ("config error: weight.trajectory: endpoint "
                                "positions not finite at t=1.0: [-inf, inf]\n")


#: a middle exponent whose Cauchy transform diverges: <= 0, or so small that
#: alpha - 1 rounds to -1
DIVERGENT = [-0.5, 0.0, 1e-17]


@pytest.mark.parametrize("cmd, n, alpha, field", [
    *(pytest.param(cmd, 0, 0.5, "n: must be >= 1 for a flow", id=f"{cmd}-n0")
      for cmd in ("evolve", "verify")),
    *(pytest.param(cmd, 5, a, "weight.alpha: must be > 0, with alpha - 1 above "
                   f"-1, for the Cauchy transforms, got [0.5, {a}, 0.5]",
                   id=f"{cmd}-alpha{a}")
      for cmd in ("ladder", "evolve", "verify") for a in DIVERGENT),
])
def test_flow_requirements_are_config_errors(tmp_path, capsys, monkeypatch,
                                             cmd, n, alpha, field):
    # refused before any quadrature, with exit 2 and the field's name
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(quadrature, "_stacked_points", no_quadrature)
    doc = dict(MOVING3, n=n, weight=dict(MOVING3["weight"], alpha=[0.5, alpha, 0.5]))
    code = main([cmd, "--config", write_config(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG and captured.out == ""
    assert captured.err == f"config error: {field}\n"


@pytest.mark.parametrize("cmd, n, alpha", [
    ("ladder", 0, 0.5),
    *((cmd, n, a) for cmd in ("coeffs", "moments") for n, a in
      ((0, 0.5), *((5, a) for a in DIVERGENT))),
])
def test_commands_without_the_requirements_accept_them(tmp_path, capsys, cmd,
                                                        n, alpha):
    doc = dict(MOVING3, n=n, weight=dict(MOVING3["weight"], alpha=[0.5, alpha, 0.5]))
    assert main([cmd, "--config", write_config(tmp_path, doc)]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n, alpha", [(0, 0.5), *((5, a) for a in DIVERGENT)])
def test_selftest_skips_the_weight_checks_the_rule_refuses(tmp_path, capsys,
                                                           n, alpha):
    doc = dict(MOVING3, n=n, weight=dict(MOVING3["weight"], alpha=[0.5, alpha, 0.5]))
    assert main(["selftest", "--config", write_config(tmp_path, doc)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "PASS gauss_jacobi_mass\nPASS chebyshev_coefficients\nPASS quadrature_mass\n")


M6_GAP_CONFIG = {  # a 0.05 gap between x_2 and x_3
    "weight": {"alpha": [0.7, 1.3, 0.4, 1.1, 0.9, 1.5],
               "pieces": [1.0, 0.7, 1.5, 1.2, 0.8],
               "trajectory": [[-2.0], [-0.6], [-0.55], [0.4], [1.2], [2.0]]},
    "n": 5,
}


def resolved_npts(comments):
    line = next(c for c in comments if c.startswith("# config: "))
    return json.loads(line[len("# config: "):])["npts"]


class TestQuadratureResolution:
    def test_default_npts_follows_n(self):
        for n, npts in ((5, 64), (62, 64), (63, 65), (100, 102)):
            assert parse_config(json.dumps(dict(CHEB, n=n))).npts == npts
            cfg = parse_config(json.dumps(CHEB), overrides={"n": n})
            assert (cfg.n, cfg.npts) == (n, npts)
        cfg = parse_config(json.dumps(dict(CHEB, quad={"npts": 40})),
                           overrides={"n": 100})
        assert cfg.npts == 40             # given, so kept (and refused later)
        assert parse_config(json.dumps(CHEB), overrides={"npts": 70}).npts == 70

    @pytest.mark.parametrize("doc, n", [
        (README_CONFIG, 100), (M6_GAP_CONFIG, 70), (M6_GAP_CONFIG, 100),
    ], ids=["readme-100", "m6-gap-70", "m6-gap-100"])
    def test_default_npts_matches_four_times_the_points(self, tmp_path, capsys,
                                                        doc, n):
        # 64 points give a_100, b_100 wrong by 0.3 on the README config
        path = write_config(tmp_path, doc)
        assert main(["coeffs", "--config", path, "--n", str(n)]) == EXIT_OK
        comments, _, rows = read_csv(capsys.readouterr().out)
        npts = resolved_npts(comments)
        assert npts == n + 2
        assert main(["coeffs", "--config", path, "--n", str(n),
                     "--npts", str(4 * npts)]) == EXIT_OK
        _, _, fine = read_csv(capsys.readouterr().out)
        got, ref = np.array(rows)[:, 1:3], np.array(fine)[:, 1:3]
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-12

    def test_verify_at_high_degree_passes_by_default(self, tmp_path, capsys):
        # at 64 points the flow and the oracle share an under-resolved rule
        # and miss each other by 1.4
        code = main(["verify", "--config", write_config(tmp_path, README_CONFIG),
                     "--n", "90"])
        comments, _, _ = read_csv(capsys.readouterr().out)
        assert code == EXIT_OK
        assert resolved_npts(comments) == 92

    @pytest.mark.parametrize("args, doc", [
        (["--n", "100", "--npts", "64"], README_CONFIG),
        (["--n", "62"], dict(README_CONFIG, quad={"npts": 60})),
    ], ids=["flag", "config"])
    def test_forced_npts_below_n_plus_2_is_under_resolved(self, tmp_path,
                                                          capsys, args, doc):
        for command in ("coeffs", "verify"):
            code = main([command, "--config", write_config(tmp_path, doc), *args])
            captured = capsys.readouterr()
            assert code == EXIT_NUMERICAL
            assert "UnderResolved" in captured.err
            assert captured.out == ""
