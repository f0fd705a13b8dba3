"""Every defaulted parameter of the package is set by the package.

Scans ``src/gjflow/*.py`` with ``ast``: each parameter with a default of
a module-level function must be passed, by keyword or by position, at
some call of that function inside the package, outside the function's
own definition, or be listed in ``ALLOWED`` with the reason it stays. A
default that no call overrides is one value: make it a constant. A call
is matched by the function's name, as ``f(...)`` or ``x.f(...)``; a
``*args`` or ``**kwargs`` in it passes nothing the scan can see.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gjflow"

#: defaulted parameters that no call in the package passes, and why they stay
ALLOWED = {
    "cli.main(argv)": "the console script calls it with no arguments, while "
                      "perfbench/run.py and the tests pass a list",
    "rk45.integrate_rk45(rtol)": "evolution._flow passes it in *tol",
    "rk45.integrate_rk45(atol)": "evolution._flow passes it in *tol",
}


def defaulted(tree: ast.Module) -> dict:
    """{function name: (its positional parameters, its defaulted ones)} for
    the module-level functions of a module that have a default."""
    out = {}
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = stmt.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        names = positional[len(positional) - len(args.defaults):]
        names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
        if names:
            out[stmt.name] = (positional, names)
    return out


def calls(tree: ast.Module):
    """(called name, call) for each call of a module, outside the top-level
    function or class of that name."""
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if name not in (None, own):
                    yield name, node


def passed(call: ast.Call, positional: list) -> set:
    """The parameters a call passes, by position up to its first ``*args``
    and by keyword."""
    names = set()
    for i, arg in enumerate(call.args[:len(positional)]):
        if isinstance(arg, ast.Starred):
            break
        names.add(positional[i])
    return names | {k.arg for k in call.keywords if k.arg is not None}


def unset_options(sources: dict) -> set:
    """'module.function(parameter)' for each defaulted parameter of the
    modules ``sources`` ({module name: source}) that no call passes."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    sites = [site for tree in trees.values() for site in calls(tree)]
    unset = set()
    for mod, tree in trees.items():
        for fn, (positional, names) in defaulted(tree).items():
            set_here = set().union(*(passed(call, positional)
                                     for name, call in sites if name == fn))
            unset |= {f"{mod}.{fn}({p})" for p in names if p not in set_here}
    return unset


def test_scanner_sees_positions_keywords_and_stops_at_a_star():
    lib = ("def f(a, b=1, c=2, *, d=3, e=4):\n    return f(a, 0, 0, d=0, e=0)\n"
           "def g(x, y=0):\n    return x\n"
           "class C:\n    def h(self, z=0):\n        return z\n")
    use = "def k(o, t):\n    return o.f(1, 2, *t, e=5) + g(1)\n"
    assert unset_options({"lib": lib, "use": use}) == {
        "lib.f(c)", "lib.f(d)", "lib.g(y)"}


def test_every_default_is_passed_or_has_a_reason():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in PACKAGE.glob("*.py")}
    assert unset_options(sources) == set(ALLOWED)
