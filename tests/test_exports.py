"""Every name the package exports is used by the package.

Scans ``src/gjflow/*.py`` with ``ast``: each name that
``gjflow/__init__.py`` imports from a submodule must be read by some
module of the package outside the name's own top-level definition, or be
listed in ``ALLOWED`` with the reason it is exported all the same. An
export that no module reads and no reason keeps is dead weight: delete
it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gjflow"

#: exports that no module of the package reads, and why they stay
ALLOWED = {
    "init_state": "perfbench/checks.py binds it for its evolve check",
    "pn_time_derivative_check": "the dp_n/dt formula check, kept until it "
                                "moves to the tests (ROADMAP item 22)",
}


def exported(source: str) -> set:
    """The names an ``__init__`` imports from its submodules."""
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def referenced(source: str) -> set:
    """The names a module reads, as a name or an attribute, each outside
    the top-level function or class of that name."""
    refs = set()
    for stmt in ast.parse(source).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name not in (None, own):
                refs.add(name)
    return refs


def unused_exports() -> set:
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*(referenced(p.read_text(encoding="utf-8"))
                         for p in modules))
    return exported((PACKAGE / "__init__.py").read_text(encoding="utf-8")) - used


def test_scanner_skips_a_name_inside_its_own_definition():
    src = ("def f(n):\n    return f(n - 1) + g.h\n"
           "class C:\n    def copy(self):\n        return C()\n"
           "def k():\n    return C\n")
    assert referenced(src) == {"n", "g", "h", "C"}
    assert exported("from .a import f, g as h\nfrom x import y\n") == {"f", "h"}


def test_every_export_is_used_or_has_a_reason():
    assert unused_exports() == set(ALLOWED)
