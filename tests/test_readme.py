"""The library quick start of README.md runs as written, so the documented
API cannot drift away from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The python block under the "Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split(
        "## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(quick_start(), str(README), "exec"), {})
    deviation = float(capsys.readouterr().out)
    assert deviation < 1e-9
