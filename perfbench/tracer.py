"""In-memory span tracer around the public functions of each gjflow module.

The benchmark installs wrappers from its own files; the package is not
changed. A wrapper records one span per call: name, start, end, parent span
and op id. Spans stay in memory until the run ends. A span's self time is
its duration minus the durations of its child spans (the program is
single-threaded, so children never overlap).

Every ``from .x import y`` binding in the loaded ``gjflow.*`` modules is
replaced, otherwise calls would escape the wrapper. ``EndpointTrajectory``
methods are wrapped on the class. The callbacks that ``integrate_rk45``
receives (the ``rhs`` and ``on_accept`` closures of ``evolve`` and
``evolve_moments``) get spans of their own, so that the integrator's self
time is the cost of a step beyond the right-hand side.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

#: the package modules, one layer each
LAYERS = ("weights", "quadrature", "orthopoly", "ladder", "evolution", "rk45",
          "momentflow", "cli")

#: span name of the two trajectory methods
TRAJECTORY = "weights.trajectory"

_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    """Records spans while ``op`` is set; passes calls through otherwise."""

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.op: Optional[int] = None
        self.rk_stats: Dict[int, list] = defaultdict(list)
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, start, end, parent, op)

        return wrapper

    def _wrap_integrator(self, fn, spans: bool = True):
        """integrate_rk45: keep the returned stats and, with ``spans``, span
        the call and its callbacks."""

        def with_callbacks(rhs, *args, **kwargs):
            if spans:
                rhs = self.wrap(_callback_name(rhs), rhs)
                if kwargs.get("on_accept") is not None:
                    kwargs["on_accept"] = self.wrap(
                        _callback_name(kwargs["on_accept"]), kwargs["on_accept"])
            out = fn(rhs, *args, **kwargs)
            if self.op is not None:
                self.rk_stats[self.op].append(out[1])
            return out

        counted = functools.wraps(fn)(with_callbacks)
        return self.wrap("rk45.integrate_rk45", counted) if spans else counted

    def install_counter(self):
        """Keep the ``IntegrationStats`` of every ``integrate_rk45`` call by
        op, and record no spans: for untraced runs of commands that print no
        step counts (``verify``)."""
        from gjflow.rk45 import integrate_rk45
        self._restore += rebind(
            {integrate_rk45: self._wrap_integrator(integrate_rk45, spans=False)})

    def install(self):
        """Wrap every public function of every layer, at every binding."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gjflow.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and (layer != "cli" or attr == "main")):
                    targets[obj] = f"{layer}.{attr}"
        wrappers = {
            fn: (self._wrap_integrator(fn) if name == "rk45.integrate_rk45"
                 else self.wrap(name, fn))
            for fn, name in targets.items()
        }
        self._restore += rebind(wrappers)
        from gjflow.weights import EndpointTrajectory
        for attr in ("positions", "velocities"):
            orig = EndpointTrajectory.__dict__[attr]
            self._restore.append((EndpointTrajectory, attr, orig))
            setattr(EndpointTrajectory, attr, self.wrap(TRAJECTORY, orig))

    def uninstall(self):
        restore(self._restore)

    def summary(self):
        """One pass over the spans: ``({name: [calls, self_s]}, {op: self_s})``.

        A span's self time is its duration minus its children's durations.
        """
        spans = self.spans
        own = [s[_END] - s[_START] for s in spans]
        for s, dur in zip(spans, list(own)):
            if s[_PARENT] >= 0:
                own[s[_PARENT]] -= dur
        per_name: Dict[str, list] = defaultdict(lambda: [0, 0.0])
        per_op: Dict[int, float] = defaultdict(float)
        for s, t in zip(spans, own):
            entry = per_name[s[_NAME]]
            entry[0] += 1
            entry[1] += t
            per_op[s[_OP]] += t
        return dict(per_name), dict(per_op)

    def dump(self, path):
        """Write the spans as gzipped CSV (times in microseconds)."""
        t0 = min((s[_START] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_us,end_us,parent,op\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[_NAME]},{(s[_START] - t0) * 1e6:.1f},"
                         f"{(s[_END] - t0) * 1e6:.1f},{s[_PARENT]},{s[_OP]}\n")


def rebind(replacements) -> List[tuple]:
    """Point every binding of a function in ``gjflow.*`` at its replacement.

    Returns the (owner, attribute, original) triples that undo it.
    """
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "gjflow" and not modname.startswith("gjflow."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                undo.append((mod, attr, obj))
                setattr(mod, attr, replacements[obj])
    return undo


def restore(undo: List[tuple]):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)
    undo.clear()


def _callback_name(fn) -> str:
    layer = getattr(fn, "__module__", "").rpartition(".")[2] or "callback"
    qual = getattr(fn, "__qualname__", "fn").replace(".<locals>", "")
    return f"{layer}.{qual}"
