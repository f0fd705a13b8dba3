"""Tests of the benchmark itself: generator, checks, tracer, contract.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def _blocks(name, seed=1, count=2):
    return [c for b in range(count) for c in workloads.block(name, seed, b)]


def _positions(traj, t):
    return np.array([np.polynomial.polynomial.polyval(t, row) for row in traj])


# --- generator -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_differs(name):
    def text(seed):
        return [workloads.config_text(c) for c in _blocks(name, seed)]
    assert text(7) == text(7)
    assert text(7) != text(8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gaps_stay_open_over_the_span(name):
    for cfg in _blocks(name):
        traj = cfg["weight"]["trajectory"]
        for t in np.linspace(cfg["evolve"]["t0"], cfg["evolve"]["t1"], 201):
            x = _positions(traj, t)
            assert np.min(np.diff(x)) >= workloads.MIN_GAP - 1e-12
            assert workloads.LO <= x[0] and x[-1] <= workloads.HI


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exponents_admissible(name):
    for cfg in _blocks(name):
        assert min(cfg["weight"]["alpha"]) > 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_sizes_and_degrees(name):
    wl = workloads.WORKLOADS[name]
    cfgs = _blocks(name)
    # every block covers the whole (m, n) grid once
    assert sorted((len(c["weight"]["alpha"]), c["n"]) for c in cfgs) \
        == sorted(wl.grid() * 2)
    for cfg in cfgs:
        # far below the n ~ 70 where the default npts = 64 stops resolving
        assert cfg["n"] <= 40
        assert wl.span[0] <= cfg["evolve"]["t1"] <= wl.span[1]


# --- checks ----------------------------------------------------------------

SMALL = {
    "weight": {"alpha": [0.5, 1.0, 1.5], "pieces": [1.0, 1.5],
               "trajectory": [[-2.0], [0.1, 0.5], [2.0]]},
    "n": 3,
    "evolve": {"t0": 0.0, "t1": 0.3, "samples": 5},
}


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _run(cli, tmp_path, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(workloads.config_text(cfg))
    code, text, _, _ = run.run_op(cli, command, path)
    return code, text


def _tamper(text, row, column, factor):
    lines = text.splitlines()
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    cells = lines[first + row].split(",")
    cells[column] = repr(float(cells[column]) * factor)
    lines[first + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_evolve_check_passes_and_flags_altered_a(cli, tmp_path):
    code, text = _run(cli, tmp_path, "evolve", SMALL)
    result = checks.check_op("evolve", SMALL, code, text)
    assert result.deviation < 1e-8 and result.fevals > 0
    with pytest.raises(checks.CheckFailed) as failed:
        checks.check_op("evolve", SMALL, code, _tamper(text, 2, 1, 1.0 + 1e-4))
    # a tolerance failure keeps what it measured, for the accuracy figures
    assert failed.value.measured.deviation > checks.TOL
    assert failed.value.measured.fevals > 0


def test_verify_exit_4_is_flagged(cli, tmp_path):
    strict = dict(SMALL, verify={"rtol": 1e-30})
    code, text = _run(cli, tmp_path, "verify", strict)
    assert code == 4
    with pytest.raises(checks.CheckFailed, match="exit code 4"):
        checks.check_op("verify", strict, code, text)
    code, text = _run(cli, tmp_path, "verify", SMALL)
    assert checks.check_op("verify", SMALL, code, text).deviation < 1e-8


# --- tracer ----------------------------------------------------------------

def _traced(cli, tmp_path, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(workloads.config_text(cfg))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        code, text, _, wall = run.run_op(cli, command, path)
        tracer.op = None
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer, text, wall


def test_flow_rhs_calls_match_fevals(cli, tmp_path):
    cfg = workloads.block("flow", 1, 0)[0]
    tracer, text, _ = _traced(cli, tmp_path, "evolve", cfg)
    per_name, _ = tracer.summary()
    (stats,) = tracer.rk_stats[0]
    printed = checks.parse_output(text).comments["steps"]
    assert per_name["evolution.evolution_rhs"][0] == stats.fevals
    assert f"fevals={stats.fevals}" in printed


def test_oracle_init_state_calls(cli, tmp_path):
    cfg = workloads.block("oracle", 1, 0)[0]
    tracer, _, _ = _traced(cli, tmp_path, "verify", cfg)
    per_name, _ = tracer.summary()
    assert per_name["evolution.init_state"][0] == cfg["evolve"]["samples"] + 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_account_for_op_wall_time(cli, tmp_path, name):
    cfg = workloads.block(name, 1, 0)[0]
    command = workloads.WORKLOADS[name].command
    tracer, _, wall = _traced(cli, tmp_path, command, cfg)
    _, per_op = tracer.summary()
    assert 0.95 * wall <= per_op[0] <= wall
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_counter_keeps_step_stats_without_spans(cli, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(workloads.config_text(SMALL))
    tracer = Tracer()
    tracer.install_counter()
    try:
        tracer.op = 0
        code, text, _, _ = run.run_op(cli, "evolve", path)
        tracer.op = None
    finally:
        tracer.uninstall()
    (stats,) = tracer.rk_stats[0]
    assert code == 0 and not tracer.spans
    assert f"fevals={stats.fevals}" in checks.parse_output(text).comments["steps"]


def test_uninstall_restores_every_binding(cli):
    import gjflow.evolution as evolution
    from gjflow.weights import EndpointTrajectory
    before = (evolution.node_data, evolution.integrate_rk45,
              EndpointTrajectory.positions)
    tracer = Tracer()
    tracer.install()
    assert evolution.node_data is not before[0]
    tracer.uninstall()
    assert (evolution.node_data, evolution.integrate_rk45,
            EndpointTrajectory.positions) == before


# --- contract --------------------------------------------------------------

def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
