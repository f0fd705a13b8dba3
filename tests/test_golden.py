"""Golden output: the exact bytes of ``evolve``, ``verify`` and ``moments``.

Each case below is run through ``cli.main`` in process, and its exit code,
stdout and stderr are compared byte for byte with
``tests/golden/<case>.<command>.txt``. The cases are sized like the
benchmark's workloads: ``flow`` (m 3-4, n 3-8, spans 0.3-0.6) and
``oracle`` (m 5-6, n 25-35, spans 0.03-0.08), with one quadratic path, one
``--selfcheck`` run and one crossing that every command refuses. The
``# steps:`` lines of ``evolve`` on block 0 of the ``flow`` workload for
seeds 1 and 2 (``perfbench/workloads.py``) are pinned in
``tests/golden/flow_steps.txt``; those 24 configs are stored in
``tests/golden/flow_step_configs.json``, so that the test does not run the
generator.

A change that should leave every output byte alone (a speed-up, a
refactor) must pass this test unchanged. The bytes depend on the numpy
build and its BLAS, so on another platform regenerate the files from the
parent commit before comparing a change against them.

To regenerate after a change that moves last bits on purpose, run from the
repository root::

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which files moved and by how much. Before it
overwrites a file whose bytes change, it names it on stderr. Regenerating
also rewrites the stored configs from the generator.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from gjflow import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
FLOW_CONFIGS = GOLDEN / "flow_step_configs.json"
COMMANDS = ("evolve", "verify", "moments")


def _config(alpha, pieces, trajectory, n, t1):
    return {"weight": {"alpha": alpha, "pieces": pieces,
                       "trajectory": trajectory},
            "n": n, "evolve": {"t0": 0.0, "t1": t1, "samples": 10}}


#: case -> (config, extra command-line flags)
CASES = {
    "m3_flow": (_config([0.5, 1.0, 1.5], [1.0, 1.5],
                        [[-2.0], [0.1, 0.8], [2.0]], 5, 0.45), []),
    "m3_quadratic": (_config([1.5, 0.5, 1.0], [0.7, 1.8],
                             [[-2.0], [-0.3, 0.6, -0.9], [2.0]], 8, 0.55), []),
    "m4_flow": (_config([1.0, 0.5, 1.5, 1.0], [1.2, 0.6, 1.9],
                        [[-2.0], [-0.6, 0.5], [0.7, -0.4], [2.0]], 4, 0.6), []),
    "m4_fast": (_config([1.5, 1.5, 0.5, 0.5], [0.9, 1.4, 0.55],
                        [[-2.0], [-1.1, 0.95], [1.2, -0.3], [2.0]], 7, 0.32),
                []),
    "m5_oracle": (_config([0.37, 1.21, 0.83, 0.54, 1.42], [1.3, 0.8, 1.7, 0.6],
                          [[-2.0], [-0.9, 0.7], [0.1, -0.5], [1.0, 0.3], [2.0]],
                          30, 0.06), []),
    "m6_oracle": (_config([0.9, 0.25, 1.1, 0.6, 1.45, 0.7],
                          [1.1, 0.5, 1.6, 0.9, 1.3],
                          [[-2.0], [-1.2, -0.4], [-0.3, 0.9], [0.5, 0.2],
                           [1.3, -0.6], [2.0]], 35, 0.08), []),
    "m6_selfcheck": (_config([0.45, 1.3, 0.75, 1.05, 0.3, 1.2],
                             [0.8, 1.9, 0.65, 1.25, 1.05],
                             [[-2.0], [-1.3, 0.35], [-0.5, -0.7], [0.4, 0.45],
                              [1.2, 0.1], [2.0]], 25, 0.05), ["--selfcheck"]),
    "m5_crossing": (_config([0.5, 1.0, 1.5, 1.0, 0.5], [1.0, 1.0, 1.0, 1.0],
                            [[-2.0], [-1.0, 0.2], [0.0, 2.5], [1.0], [2.0]],
                            6, 0.6), []),
}


def _record(case: str, command: str, tmp_dir: Path) -> str:
    """The exit code, stdout and stderr of one run, as the golden file holds
    them."""
    doc, flags = CASES[case]
    path = tmp_dir / f"{case}.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(path), *flags])
    return f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _golden_path(case: str, command: str) -> Path:
    return GOLDEN / f"{case}.{command}.txt"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", CASES)
def test_output_bytes(case, command, tmp_path):
    expected = _golden_path(case, command).read_bytes().decode("utf-8")
    assert _record(case, command, tmp_path) == expected


def _flow_steps(tmp_dir: Path) -> str:
    """The ``# steps:`` line of ``evolve`` on each stored config of block 0
    of the ``flow`` workload, seeds 1 and 2, one per line."""
    lines = []
    path = tmp_dir / "flow.json"
    for docs in json.loads(FLOW_CONFIGS.read_text()).values():
        for doc in docs:
            path.write_text(json.dumps(doc))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["evolve", "--config", str(path)]) == 0
            lines += [line for line in out.getvalue().splitlines()
                      if line.startswith("# steps: ")]
    return "".join(line + "\n" for line in lines)


def test_flow_step_counts(tmp_path):
    expected = (GOLDEN / "flow_steps.txt").read_bytes().decode("utf-8")
    assert _flow_steps(tmp_path) == expected
    assert expected.count("\n") == 24


def _overwrite(path: Path, text: str) -> None:
    """Write text to path, naming the file on stderr first if its bytes
    change."""
    data = text.encode("utf-8")
    if not path.exists() or path.read_bytes() != data:
        print(f"moved: {path.name}", file=sys.stderr)
    path.write_bytes(data)


def _regenerate():
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    sys.path.insert(0, str(GOLDEN.parents[1] / "perfbench"))
    import workloads
    configs = {f"flow.s{seed}.b0": workloads.block("flow", seed, 0)
               for seed in (1, 2)}
    _overwrite(FLOW_CONFIGS, json.dumps(configs, indent=1) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for command in COMMANDS:
                _overwrite(_golden_path(case, command),
                           _record(case, command, Path(tmp)))
        _overwrite(GOLDEN / "flow_steps.txt", _flow_steps(Path(tmp)))
    print(f"wrote {len(CASES) * len(COMMANDS) + 2} files under {GOLDEN}",
          file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
