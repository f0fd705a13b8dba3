"""Every name a module imports is used in that module.

Scans ``src/gjflow/*.py`` and ``tests/*.py`` with ``ast``: a name bound by
an import must be referenced somewhere else in the same file. Package
``__init__.py`` files (re-exports) and ``from __future__`` imports are
exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    p for p in [*(ROOT / "src" / "gjflow").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str):
    """(line, name) of each imported name the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # "import gjflow.ladder" is referenced as the attribute chain gjflow.ladder
    used |= {n.value.id for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_unused_names():
    src = ("from __future__ import annotations\n"
           "import math\nimport numpy as np\nfrom x import a, b\nnp.zeros(a)\n")
    assert unused_imports(src) == [(2, "math"), (4, "b")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
