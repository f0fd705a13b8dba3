"""The exact bytes of 280 CLI runs on the benchmark's configs.

Blocks 0 and 1 of seeds 3 and 4 of the benchmark's two workloads
(``perfbench/workloads.py``), 136 configs in all, are stored in
``tests/golden/workload_configs.json``. Each ``flow`` config runs
``evolve``, ``ladder``, ``coeffs`` and ``moments``, and each ``oracle``
config runs ``verify``: 280 runs through ``cli.main`` in process.
``tests/golden/workload_runs.sha256`` holds one sha256 per run, over the
run's exit code, stdout and stderr as ``tests/test_golden.py`` records
them, and the test names every run whose hash differs.
``tests/golden/workload_runs_selfcheck.sha256`` holds the same for the
same 280 runs with ``--selfcheck``, which repeats each run's quadrature at
twice the points.

A change that should leave every output byte alone must pass this test
unchanged. The bytes depend on the numpy build and its BLAS, so on another
platform regenerate the hashes from the parent commit before comparing a
change against them. To regenerate the configs and both sets of hashes, run from
the repository root::

    PYTHONPATH=src python tests/test_workload_runs.py

and say in CHANGES.md which runs moved and why. Before it overwrites a
file of hashes, it names on stderr each run whose hash changes.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from gjflow import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = GOLDEN / "workload_configs.json"
#: --selfcheck or not -> the file of the runs' hashes
HASHES = {False: GOLDEN / "workload_runs.sha256",
          True: GOLDEN / "workload_runs_selfcheck.sha256"}
#: workload -> the commands each of its configs runs
COMMANDS = {"flow": ("evolve", "ladder", "coeffs", "moments"),
            "oracle": ("verify",)}
BLOCKS = [(workload, seed, index) for workload in COMMANDS
          for seed in (3, 4) for index in (0, 1)]


def _block_name(workload: str, seed: int, index: int) -> str:
    return f"{workload}.s{seed}.b{index}"


def _digest(path: Path, command: str, selfcheck: bool) -> str:
    """The sha256 of one run's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    argv = [command, "--config", str(path)] + ["--selfcheck"] * selfcheck
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def _run_block(block: str, configs, tmp_dir: Path, selfcheck: bool) -> dict:
    """run name -> digest, for every run of the block's configs."""
    workload = block.split(".")[0]
    digests = {}
    for i, doc in enumerate(configs):
        path = tmp_dir / f"{block}.{i:02d}.json"
        path.write_text(json.dumps(doc))
        for command in COMMANDS[workload]:
            digests[f"{block}.{i:02d}.{command}"] = _digest(path, command,
                                                              selfcheck)
    return digests


def _stored_hashes(selfcheck: bool) -> dict:
    pairs = (line.split() for line in HASHES[selfcheck].read_text().splitlines())
    return {name: digest for digest, name in pairs}


def _check_block(block: str, tmp_path: Path, selfcheck: bool):
    configs = json.loads(CONFIGS.read_text())[block]
    expected = {name: digest for name, digest in _stored_hashes(selfcheck).items()
                if name.startswith(block + ".")}
    got = _run_block(block, configs, tmp_path, selfcheck)
    assert sorted(got) == sorted(expected)
    differ = [name for name in got if got[name] != expected[name]]
    assert not differ, f"{len(differ)} runs changed bytes: {differ}"


@pytest.mark.parametrize("block", [_block_name(*b) for b in BLOCKS])
def test_run_bytes(block, tmp_path):
    _check_block(block, tmp_path, selfcheck=False)


@pytest.mark.parametrize("block", [_block_name(*b) for b in BLOCKS])
def test_selfcheck_run_bytes(block, tmp_path):
    _check_block(block, tmp_path, selfcheck=True)


def test_run_count():
    configs = json.loads(CONFIGS.read_text())
    assert sum(map(len, configs.values())) == 136
    assert len(_stored_hashes(False)) == len(_stored_hashes(True)) == 280


def _regenerate():
    import tempfile
    sys.path.insert(0, str(GOLDEN.parents[1] / "perfbench"))
    import workloads
    configs = {_block_name(*b): workloads.block(*b) for b in BLOCKS}
    text = json.dumps(configs, indent=1) + "\n"
    if not CONFIGS.exists() or CONFIGS.read_text() != text:
        print(f"moved: {CONFIGS.name}", file=sys.stderr)
    CONFIGS.write_text(text)
    for selfcheck, hashes in HASHES.items():
        stored = _stored_hashes(selfcheck) if hashes.exists() else {}
        digests = {}
        with tempfile.TemporaryDirectory() as tmp:
            for block, docs in configs.items():
                digests.update(_run_block(block, docs, Path(tmp), selfcheck))
        moved = [name for name, digest in digests.items()
                 if stored.get(name) != digest]
        print(f"{len(moved)} runs moved in {hashes.name}:", *moved,
              file=sys.stderr)
        lines = [f"{digest}  {name}\n" for name, digest in digests.items()]
        hashes.write_text("".join(lines))
        print(f"wrote {len(lines)} hashes of {sum(map(len, configs.values()))} "
              f"configs to {hashes.name}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
