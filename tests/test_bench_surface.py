"""The library names that the benchmark in ``perfbench/`` binds.

``perfbench/tracer.py`` rebinds ``integrate_rk45`` and ``node_data`` where
``gjflow.evolution`` imported them and wraps the trajectory methods it finds
in ``EndpointTrajectory.__dict__``; it spans the public module functions,
``evolution.evolve`` and ``evolution.verify_against_direct`` among them,
and names the ``rhs`` that a flow hands
``integrate_rk45`` by its module and qualified name, which
``perfbench/run.py`` reports as ``evolution.evolve.rhs``; its
``evolution.evolution_rhs`` span counts one call per feval at the module
bindings of both flows; the ``oracle`` workload's
``fevals_per_op`` is the sum of the stats that the rebound
``integrate_rk45`` returns during a ``verify``; ``perfbench/checks.py`` compares
``evolve`` rows with ``init_state(...).pack()``; ``perfbench/run.py`` reads
the rule cache's ``cache_info()``. The benchmark's own tests are not part
of this suite, so these checks keep a cut of the library surface from
breaking it unnoticed.
"""

import inspect
import json

import numpy as np

import gjflow.cli
import gjflow.evolution
import gjflow.momentflow
import gjflow.rk45
import gjflow.weights
from gjflow import EndpointTrajectory, make_weight
from gjflow.quadrature import _rule_cached


def test_evolution_bindings():
    assert gjflow.evolution.integrate_rk45 is gjflow.rk45.integrate_rk45
    assert gjflow.evolution.node_data is gjflow.weights.node_data


def test_verify_integrates_through_the_evolution_binding(tmp_path, monkeypatch,
                                                         capsys):
    stats = []

    def counted(*args, **kwargs):
        out = gjflow.rk45.integrate_rk45(*args, **kwargs)
        stats.append(out[1])
        return out

    monkeypatch.setattr(gjflow.evolution, "integrate_rk45", counted)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1.0, 1.0],
                   "trajectory": [[-1.0], [0.0, 1.0], [1.0]]},
        "evolve": {"t0": 0.0, "t1": 0.3, "samples": 5}}))
    assert gjflow.cli.main(["verify", "--config", str(path)]) == 0
    assert "max_deviation" in capsys.readouterr().out
    assert len(stats) == 1 and stats[0].fevals > 0


def test_moments_integrates_through_the_evolution_binding(tmp_path, monkeypatch,
                                                          capsys):
    stats = []

    def counted(*args, **kwargs):
        out = gjflow.rk45.integrate_rk45(*args, **kwargs)
        stats.append(out[1])
        return out

    monkeypatch.setattr(gjflow.evolution, "integrate_rk45", counted)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "weight": {"alpha": [0.5, 0.5, 0.5], "pieces": [1.0, 1.0],
                   "trajectory": [[-1.0], [0.0, 1.0], [1.0]]},
        "evolve": {"t0": 0.0, "t1": 0.3, "samples": 5}}))
    assert gjflow.cli.main(["moments", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert len(stats) == 1 and stats[0].fevals > 0
    assert "max_deviation" in out and f"fevals={stats[0].fevals}\n" in out


def test_evolve_is_a_public_module_function():
    fn = vars(gjflow.evolution)["evolve"]
    assert inspect.isfunction(fn) and fn.__module__ == "gjflow.evolution"


def test_verify_against_direct_is_a_public_module_function():
    # it has a span of its own, evolution.verify_against_direct
    fn = vars(gjflow.evolution)["verify_against_direct"]
    assert inspect.isfunction(fn) and fn.__module__ == "gjflow.evolution"


def test_evolve_hands_the_integrator_its_own_rhs(monkeypatch):
    handed = []

    def spy(rhs, *args, **kwargs):
        handed.append(rhs)
        return gjflow.rk45.integrate_rk45(rhs, *args, **kwargs)

    monkeypatch.setattr(gjflow.evolution, "integrate_rk45", spy)
    w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                    EndpointTrajectory(((-1.0,), (0.0, 1.0), (1.0,))))
    times = np.linspace(0.0, 0.3, 5)
    gjflow.evolution.evolve(w, times,
                            gjflow.evolution.init_states(w, 5, times[:1])[0])
    (rhs,) = handed
    assert rhs.__module__ == "gjflow.evolution"
    assert rhs.__qualname__ == "evolve.<locals>.rhs"


def _count_rhs_calls(module, command, doc, tmp_path, monkeypatch, capsys):
    """The ``evolution_rhs`` calls made at ``module``'s binding during one
    ``command`` run through ``main`` on the config doc, and its fevals,
    which the run must print."""
    calls, stats = [], []
    rhs, integrate = gjflow.evolution.evolution_rhs, gjflow.rk45.integrate_rk45

    def counted_rhs(*args, **kwargs):
        calls.append(1)
        return rhs(*args, **kwargs)

    def counted_integrate(*args, **kwargs):
        out = integrate(*args, **kwargs)
        stats.append(out[1])
        return out

    monkeypatch.setattr(module, "evolution_rhs", counted_rhs)
    monkeypatch.setattr(gjflow.evolution, "integrate_rk45", counted_integrate)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert gjflow.cli.main([command, "--config", str(path)]) == 0
    (flow_stats,) = stats
    assert f"fevals={flow_stats.fevals}\n" in capsys.readouterr().out
    return len(calls), flow_stats.fevals


M4_DOC = {"weight": {"alpha": [0.5, 1.0, 1.5, 1.0], "pieces": [1.0, 1.5, 0.7],
                     "trajectory": [[-2.0], [-0.5, 0.6, -0.4], [0.8, -0.3],
                                    [2.0]]},
          "n": 6, "evolve": {"t0": 0.0, "t1": 0.5, "samples": 10}}


def test_evolve_evaluates_the_rhs_through_its_binding(tmp_path, monkeypatch,
                                                     capsys):
    calls, fevals = _count_rhs_calls(gjflow.evolution, "evolve", M4_DOC,
                                     tmp_path, monkeypatch, capsys)
    assert calls == fevals > 100


def test_moments_evaluates_the_rhs_through_its_binding(tmp_path, monkeypatch,
                                                      capsys):
    # the moment flow's one interpreter call per feval, at its own binding
    # of evolution_rhs, which the tracer rebinds to the same span
    calls, fevals = _count_rhs_calls(gjflow.momentflow, "moments", M4_DOC,
                                     tmp_path, monkeypatch, capsys)
    assert calls == fevals > 50


def test_init_state_packs_one_state():
    w = make_weight([0.5, 0.5, 0.5], [1.0, 1.0],
                    EndpointTrajectory(((-1.0,), (0.0, 1.0), (1.0,))))
    y = gjflow.evolution.init_state(w, 5, 0.1).pack()
    assert y.shape == (3 + 3 * w.m,)
    assert np.array_equal(y, gjflow.evolution.init_states(w, 5, (0.1,))[0])


def test_rule_cache_info():
    info = _rule_cached.cache_info()
    assert info.hits >= 0 and info.misses >= 0 and info.maxsize > 0
    assert 0 <= info.currsize <= info.maxsize


def test_trajectory_methods_in_the_class_dict():
    for attr in ("positions", "velocities"):
        assert callable(EndpointTrajectory.__dict__[attr])
