"""The resolution rule has one home, ``quadrature.npts_for``.

A rule of npts points per piece resolves degree n only when npts >= n + 2.
The CLI's resolved ``npts`` and the default of every oracle that takes a
degree are ``npts_for`` of that degree, and a given ``npts`` below the rule
is refused by the library as by the CLI, with the same message.
"""

import json

import numpy as np
import pytest

from gjflow import (EndpointTrajectory, UnderResolved, init_states,
                    ladder_checks, make_weight, stieltjes_procedure)
from gjflow.cli import EXIT_NUMERICAL, main, parse_config
from gjflow.momentflow import direct_moments
from gjflow.quadrature import npts_for

WEIGHT = {"alpha": [0.5, 1.5, 0.7], "pieces": [1.0, 1.0],
          "trajectory": [[-2.0], [0.3, 0.5], [2.0]]}
W = make_weight(WEIGHT["alpha"], WEIGHT["pieces"],
                EndpointTrajectory(tuple(map(tuple, WEIGHT["trajectory"]))))
TIMES = [0.0, 0.1]


def test_the_rule():
    assert [npts_for(n) for n in (0, 5, 62, 63, 100)] == [64, 64, 64, 65, 102]
    assert npts_for(5, 7) == 7 and npts_for(100, 300) == 300
    with pytest.raises(UnderResolved, match=r"^npts = 6 is below n \+ 2 = 7: "
                       r"the quadrature cannot resolve degree 5$"):
        npts_for(5, 6)


@pytest.mark.parametrize("n", [5, 62, 63, 100])
def test_every_default_is_npts_for(n):
    npts = npts_for(n)
    assert parse_config(json.dumps({"weight": WEIGHT, "n": n})).npts == npts
    pairs = [(init_states(W, n, TIMES), init_states(W, n, TIMES, npts)),
             *zip(direct_moments(W, n, TIMES),
                  direct_moments(W, n, TIMES, npts))]
    pairs += [(ladder_checks(W, 0.1, n).values,
               ladder_checks(W, 0.1, n, npts).values)]
    table = stieltjes_procedure(W, 0.1, n)
    given = stieltjes_procedure(W, 0.1, n, npts)
    pairs += [(table.a, given.a), (table.b, given.b),
              (table.gamma, given.gamma)]
    for default, explicit in pairs:
        assert np.array_equal(default, explicit)


def _cli_refusal(tmp_path, capsys, n: int, npts: int) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"weight": WEIGHT}))
    code = main(["coeffs", "--config", str(path), "--n", str(n),
                 "--npts", str(npts)])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL and captured.out == ""
    return captured.err


def test_stieltjes_below_the_rule(tmp_path, capsys):
    # 20 points miss this table by 0.46 in a and 0.84 in b
    with pytest.raises(UnderResolved) as info:
        stieltjes_procedure(W, 0.0, 31, npts=20)
    assert str(info.value) == ("npts = 20 is below n + 2 = 33: the quadrature "
                               "cannot resolve degree 31")
    assert _cli_refusal(tmp_path, capsys, 31, 20) == (
        f"numerical failure: UnderResolved: {info.value}\n")


@pytest.mark.parametrize("N", [10, 63, 100])
def test_stieltjes_resolves_the_last_entries(N):
    # a_N and gamma_N integrate p_N^2, which N + 1 points per piece miss:
    # on one piece they read a_N 0.21 and gamma_N 29 % off there
    cheb = make_weight([0.5, 0.5], [1.0], EndpointTrajectory.fixed([-1.0, 1.0]))
    table = stieltjes_procedure(cheb, 0.0, N)
    assert abs(table.a[N] - 0.5) < 1e-14
    assert abs(table.gamma[N] / stieltjes_procedure(cheb, 0.0, N, 3 * N).gamma[N]
               - 1.0) < 1e-13
    with pytest.raises(UnderResolved):
        stieltjes_procedure(cheb, 0.0, N, N + 1)


@pytest.mark.parametrize("n", [5, 30])
def test_oracles_below_the_rule(tmp_path, capsys, n):
    cli = _cli_refusal(tmp_path, capsys, n, n + 1)
    for oracle in (lambda: init_states(W, n, TIMES, n + 1),
                   lambda: ladder_checks(W, 0.0, n, n + 1),
                   lambda: direct_moments(W, n, TIMES, n + 1)):
        with pytest.raises(UnderResolved) as info:
            oracle()
        assert cli == f"numerical failure: UnderResolved: {info.value}\n"
