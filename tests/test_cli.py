import json

import numpy as np
import pytest

from gjflow.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY,
    main,
    parse_config,
)
from gjflow.errors import ConfigError

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
    (README_CONFIG, "# steps: accepted=94 rejected=0 fevals=565"),
    (M4_CONFIG, "# steps: accepted=75 rejected=0 fevals=451"),
    (M6_CONFIG, "# steps: accepted=83 rejected=0 fevals=499"),
], ids=["readme", "m4", "m6"])
def test_evolve_step_counts_pinned(tmp_path, capsys, doc, steps):
    code = main(["evolve", "--config", write_config(tmp_path, doc)])
    assert code == EXIT_OK
    comments, _, _ = read_csv(capsys.readouterr().out)
    assert steps in comments


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
