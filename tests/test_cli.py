import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gjflow.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY,
    _emit,
    _fmt,
    _parser,
    main,
    parse_config,
)
from gjflow.errors import ConfigError
from gjflow.evolution import evolve
from gjflow.momentflow import evolve_moments

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


def read_csv(text):
    """Split CLI output into (comment lines, header columns, value rows)."""
    lines = [ln for ln in text.splitlines() if ln]
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in data[1:]]
    return comments, header, rows


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

    def test_negative_rtol(self):
        doc = dict(MOVING3)
        doc["evolve"] = dict(doc["evolve"], rtol=-1.0)
        with pytest.raises(ConfigError, match="rtol"):
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
        report = evolve(cfg.weight(), cfg.n, (cfg.t0, cfg.t1),
                        tol=(cfg.rtol, cfg.atol), sample_count=cfg.samples,
                        npts=cfg.npts)
        assert main(["evolve", "--config", write_config(tmp_path, doc)]) == EXIT_OK
        _, _, rows = read_csv(capsys.readouterr().out)
        expected = np.column_stack((report.times, report.ys, report.drifts))
        assert np.array_equal(np.array(rows), expected)

    def test_moments(self, tmp_path, capsys, doc):
        cfg = parse_config(json.dumps(doc))
        w = cfg.weight()
        nus, _ = evolve_moments(w, cfg.n, (cfg.t0, cfg.t1),
                                tol=(cfg.rtol, cfg.atol),
                                sample_count=cfg.samples, npts=cfg.npts)
        assert main(["moments", "--config", write_config(tmp_path, doc)]) == EXIT_OK
        _, header, rows = read_csv(capsys.readouterr().out)
        rows = np.array(rows)
        assert header[1:w.m + 1] == [f"nu_{j + 1}" for j in range(w.m)]
        assert np.array_equal(rows[:, 0], np.linspace(cfg.t0, cfg.t1, cfg.samples))
        assert np.array_equal(rows[:, 1:w.m + 1], nus)


class TestMoments:
    def test_runs_and_reports_gap(self, tmp_path, capsys):
        code = main(["moments", "--config", write_config(tmp_path, MOVING3),
                     "--n", "2"])
        assert code == EXIT_OK
        _, header, rows = read_csv(capsys.readouterr().out)
        assert header[-2:] == ["mu_n", "gap"]
        assert len(rows) == 5


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

    def test_flow_failure_reported_before_the_oracle(self, tmp_path, capsys):
        # x_2 = 2t meets x_3 = 1 at t = 0.5, a sample time at which the
        # oracle fails too: the flow's collision is what is reported
        doc = {"weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1, 1],
                          "trajectory": [[-1], [0, 2], [1]]},
               "n": 5, "evolve": {"t0": 0, "t1": 0.9, "samples": 10}}
        code = main(["verify", "--config", write_config(tmp_path, doc)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: EndpointCollision: ")
        last_good = re.search(r"\(last good t = (\S+)\)$", err.strip())
        assert float(last_good.group(1)) == pytest.approx(0.5, abs=1e-3)


def test_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter: the start-up cost of a command is its imports
    script = ("import sys\n"
              "from gjflow.cli import main\n"
              "code = main(['verify', '--config', sys.argv[1]])\n"
              "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
              "sys.exit(f'scipy modules loaded: {loaded}' if loaded else code)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, write_config(tmp_path, README_CONFIG)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "max_deviation" in proc.stdout


class TestSelfcheck:
    """``--selfcheck`` compares each command's quadrature quantities with
    a run at twice the points (README config at n = 1)."""

    @pytest.mark.parametrize("cmd", ["coeffs", "ladder", "moments"])
    def test_fails_at_three_points(self, tmp_path, capsys, cmd):
        code = main([cmd, "--config", write_config(tmp_path, README_CONFIG),
                     "--n", "1", "--npts", "3", "--selfcheck"])
        captured = capsys.readouterr()
        assert code == EXIT_VERIFY
        assert captured.err.startswith(f"selfcheck failed for {cmd}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("cmd", ["coeffs", "ladder", "moments"])
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
    # float array rows are written from one list repr per row; the bytes
    # must be those of _fmt on every value
    values = [0.0, -0.0, 1.0, -1.5, 1e-300, -1e-300, 5e-324, 1.2345e-310,
              2.2250738585072014e-308, 1.7976931348623157e308, -3.4e300,
              1e16, 1e-5, 1e22, 123456789.12345678, 0.1, 1 / 3,
              np.nan, np.inf, -np.inf]
    rows = np.array(values).reshape(4, 5)
    cfg = parse_config(json.dumps(CHEB))
    fast, slow = io.StringIO(), io.StringIO()
    _emit(fast, cfg, list("abcde"), rows)
    _emit(slow, cfg, list("abcde"), [tuple(row) for row in rows])
    assert fast.getvalue() == slow.getvalue()
    data = fast.getvalue().splitlines()[-4:]
    assert data == [",".join(_fmt(v) for v in row) for row in rows]


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
