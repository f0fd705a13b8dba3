"""gjflow benchmark: one seeded workload through ``gjflow.cli.main``.

    python3 perfbench/run.py --workload {flow,oracle} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``. One
client sends ops in process and in a closed loop (each op after the
previous one returns). The ops are CLI commands on JSON configs that
``workloads.py`` generates from the seed and writes under
``.perfbench_work/``.

The ``--seconds`` of measurement are split over ``WORKERS`` fresh
interpreters, started one after another, each continuing the op stream
where the previous one stopped. A Python process keeps its own hash seed
and memory layout for its whole life, which moves its speed by several
per cent; pooling a few processes averages that part out, and each one's
start-up is a sample of the set-up time. A worker sets up (import,
configs, one untimed warm-up op), runs its share of the timed loop,
checks every op's output against an independent oracle (``checks.py``)
and reports to this process, which prints the metrics. Between ops the
worker also times ``host_kernel``, a fixed piece of work outside gjflow,
and every timing metric is scaled by its worker's ``HOST_NOMINAL_S`` over
median kernel time: the host is shared, and its speed swings by a third
within minutes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` installs the
span tracer (``tracer.py``) in the workers and prints the per-layer
metrics, per op. The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit);
``correct`` is false when any op failed its check. The exit code is 0
when that line was printed, 2 when the gjflow sources are missing and 3
when a worker crashed.
"""

import os

# one thread per BLAS pool, set before numpy loads: the load is one client
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: fresh interpreters per run; the median of their set-up times is setup_s
WORKERS = 5
#: an op's deviation from its oracle is floored here before taking log10
DEVIATION_FLOOR = 1e-17
#: seconds of timed loop between two runs of host_kernel()
HOST_EVERY_S = 0.25
#: median time of host_kernel() on the 2-core x86-64 VM (Python 3.11.7,
#: numpy 2.4.6) where the numbers in README.md were recorded
HOST_NOMINAL_S = 10.0e-3

#: latency_tail_ms is this percentile: the highest with at least 10 ops
#: beyond it in a 40 s run on this commit, at the lowest throughput seen
TAIL_PERCENTILE = {"flow": 97, "oracle": 90}

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "fevals_per_op": "count",
    "accuracy_digits": "digits",
    "worst_accuracy_digits": "digits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: spans reported as calls and self time per op
_SPANS = (
    "weights.node_data", "weights.trajectory",
    "evolution.evolution_rhs", "evolution.init_state",
    "quadrature.stieltjes_at_node", "quadrature.gauss_jacobi_rule",
    "quadrature.discretized_measure",
    "orthopoly.eval_polynomial", "orthopoly.stieltjes_procedure",
    "ladder.ladder_init",
)
#: spans reported as self time per op only
_SELF_ONLY = (
    "evolution.evolve", "evolution.evolve.rhs",
    "evolution.verify_against_direct", "rk45.integrate_rk45",
)
_LAYERS = ("weights", "quadrature", "orthopoly", "ladder", "evolution", "rk45",
           "cli")

PER_LAYER = {}
for _s in _SPANS:
    PER_LAYER[f"{_s}.calls"] = "count"
    PER_LAYER[f"{_s}.self_ms"] = "ms"
for _s in _SELF_ONLY:
    PER_LAYER[f"{_s}.self_ms"] = "ms"
for _layer in _LAYERS:
    PER_LAYER[f"{_layer}.self_ms"] = "ms"
PER_LAYER.update({
    "rk45.fevals": "count",
    "rk45.accepted": "count",
    "rk45.rejected": "count",
    "rk45.accept_ratio": "ratio",
    "rk45.step_overhead_us": "us",
    "quadrature.rule_cache_hit_ratio": "ratio",
    "cli.output_bytes": "bytes",
    "trace.latency_p50_ms": "ms",
})


class MissingSource(Exception):
    """The checkout has no gjflow package under src/."""


def import_cli():
    """Import ``gjflow.cli`` from this checkout's ``src/``, nowhere else."""
    if not (SRC / "gjflow" / "__init__.py").is_file():
        raise MissingSource(f"no gjflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gjflow.cli
    if SRC not in Path(gjflow.__file__).resolve().parents:
        raise MissingSource(f"gjflow was imported from {gjflow.__file__}")
    return gjflow.cli


class OpStream:
    """The seeded op stream from op ``first`` on, written to config files
    one block at a time."""

    def __init__(self, workload: str, seed: int, directory: Path, first: int):
        import workloads
        self._workloads = workloads
        self.workload = workload
        self.seed = seed
        self.command = workloads.WORKLOADS[workload].command
        self.directory = directory
        self._size = len(workloads.WORKLOADS[workload].grid())
        self._next = first
        self._pending = []
        self.gen_s = 0.0  # time spent drawing and writing configs

    def write(self, index: int, cfg: dict) -> Path:
        path = self.directory / f"op{index:05d}.json"
        path.write_text(self._workloads.config_text(cfg), encoding="utf-8")
        return path

    def next(self):
        """(op index, config dict, config path) of the next op."""
        if not self._pending:
            start = time.perf_counter()
            b, skip = divmod(self._next, self._size)
            cfgs = self._workloads.block(self.workload, self.seed, b)[skip:]
            self._pending = [(self._next + i, cfg, self.write(self._next + i, cfg))
                             for i, cfg in enumerate(cfgs)]
            self.gen_s += time.perf_counter() - start
        op = self._pending.pop(0)
        self._next = op[0] + 1
        return op


def host_kernel() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls.

    An op spends its time on the same two kinds of work. On a shared host
    the kernel's time follows an op's time over windows of a few seconds
    (correlation about 0.9, log-log slope about 1), so scaling a worker's
    timings by ``HOST_NOMINAL_S`` over its median kernel time removes most
    of the host's speed swings from the timing metrics.
    """
    import numpy as np
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(30000):
        acc += (i % 7) * 0.5
        table[i & 1023] = acc
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(450):
        acc += float(np.dot(
            np.polynomial.polynomial.polyval(x, (1.0, 0.5, 0.25)), x))
    return time.perf_counter() - start


def run_op(cli, command: str, path: Path):
    """One CLI op in process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([command, "--config", str(path)])
        except (Exception, SystemExit) as exc:  # counted as a failed op
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


# --- worker: one fresh interpreter's share of the run ----------------------

def worker(workload: str, seed: int, number: int, first: int, seconds: float,
           trace: bool, spawned_at: float) -> dict:
    cli = import_cli()
    import checks
    import workloads
    from gjflow.quadrature import _rule_cached
    from tracer import Tracer

    directory = WORK / f"{workload}-s{seed}-w{number}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    stream = OpStream(workload, seed, directory, first)
    # the same warm-up op for every seed, so that setup_s does not hinge on
    # the size of one drawn op
    warmup = stream.write(0, workloads.block(workload, 0, 0)[0])
    run_op(cli, stream.command, warmup)
    setup_s = time.time() - spawned_at
    host_kernel()  # its first call loads numpy.polynomial

    hook = Tracer()
    if trace:
        hook.install()
    elif stream.command == "verify":  # prints no '# steps:' line
        hook.install_counter()
    cache0 = _rule_cached.cache_info()
    records, host = [], []
    gen0 = stream.gen_s
    start = time.perf_counter()
    deadline = start + seconds
    next_host, host_total = start, 0.0
    while True:
        now = time.perf_counter()
        if now >= next_host:
            host.append(host_kernel())
            host_total += time.perf_counter() - now
            next_host = time.perf_counter() + HOST_EVERY_S
        idx, cfg, path = stream.next()
        hook.op = idx
        code, text, err, dt = run_op(cli, stream.command, path)
        hook.op = None
        records.append((idx, cfg, code, text, err, dt))
        if time.perf_counter() >= deadline:
            break
    # config generation and the host kernel are not the program's work
    loop_s = time.perf_counter() - start - (stream.gen_s - gen0) - host_total
    cache1 = _rule_cached.cache_info()
    hook.uninstall()

    ops = []
    for idx, cfg, code, text, err, dt in records:
        op = {"op": idx, "s": dt, "bytes": len(text), "fail": None}
        try:
            c = checks.check_op(stream.command, cfg, code, text)
        except checks.CheckFailed as exc:
            op["fail"] = f"{exc}; stderr: {err.strip()[:200]}"
            c = exc.measured
        if c is not None:
            stats = hook.rk_stats[idx]
            op.update(dev=c.deviation, drift=c.drift,
                      fevals=c.fevals if c.fevals is not None
                      else sum(s.fevals for s in stats),
                      rejected=c.rejected if c.rejected is not None
                      else sum(s.rejected for s in stats))
        ops.append(op)
    report = {"setup_s": setup_s, "loop_s": loop_s, "next_op": idx + 1,
              "host_s": statistics.median(host),
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "ops": ops}

    if trace:
        per_name, _ = hook.summary()
        stats = [s for lst in hook.rk_stats.values() for s in lst]
        hits = cache1.hits - cache0.hits
        report["trace"] = {
            "per_name": per_name,
            "fevals": sum(s.fevals for s in stats),
            "accepted": sum(s.accepted for s in stats),
            "rejected": sum(s.rejected for s in stats),
            "cache": [hits, hits + cache1.misses - cache0.misses],
        }
        (WORK / "spans").mkdir(exist_ok=True)
        hook.dump(WORK / "spans" / f"{workload}-w{number}.csv.gz")
    shutil.rmtree(directory, ignore_errors=True)
    return report


# --- parent: start the workers, pool their reports -------------------------

def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workers": WORKERS,
    }


def _end_to_end(workload: str, reports, ops) -> dict:
    import numpy as np
    lat_ms = np.array([op["s"] for op in ops]) * 1e3
    checked = [op for op in ops if "dev" in op]
    passed = [op for op in checked if op["fail"] is None]

    def digits(dev):
        return -math.log10(max(dev, DEVIATION_FLOOR))

    return {
        "ops_per_s": len(ops) / sum(r["loop_s"] for r in reports),
        "latency_p50_ms": float(np.median(lat_ms)),
        "latency_tail_ms": float(np.percentile(lat_ms, TAIL_PERCENTILE[workload])),
        "fevals_per_op": statistics.fmean(op["fevals"] for op in checked)
        if checked else 0.0,
        "accuracy_digits": statistics.fmean(digits(op["dev"]) for op in checked)
        if checked else 0.0,
        # ops beyond TOL already fail the run; their size is printed apart
        "worst_accuracy_digits": digits(max(op["dev"] for op in passed))
        if passed else 0.0,
        "peak_rss_mb": max(r["rss_mb"] for r in reports),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
    }


def _per_layer(reports, ops) -> dict:
    per_name = defaultdict(lambda: [0, 0.0])
    for r in reports:
        for name, (calls, self_s) in r["trace"]["per_name"].items():
            per_name[name][0] += calls
            per_name[name][1] += self_s
    nops = len(ops)
    out = {}
    for name in _SPANS:
        calls, self_s = per_name.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls / nops
        out[f"{name}.self_ms"] = self_s * 1e3 / nops
    for name in _SELF_ONLY:
        out[f"{name}.self_ms"] = per_name.get(name, (0, 0.0))[1] * 1e3 / nops
    for layer in _LAYERS:
        out[f"{layer}.self_ms"] = sum(
            v[1] for k, v in per_name.items()
            if k.split(".")[0] == layer) * 1e3 / nops

    def total(key):
        return sum(r["trace"][key] for r in reports)

    accepted, rejected = total("accepted"), total("rejected")
    attempted = accepted + rejected
    out["rk45.fevals"] = total("fevals") / nops
    out["rk45.accepted"] = accepted / nops
    out["rk45.rejected"] = rejected / nops
    out["rk45.accept_ratio"] = accepted / attempted if attempted else 0.0
    out["rk45.step_overhead_us"] = (
        per_name.get("rk45.integrate_rk45", (0, 0.0))[1] * 1e6 / attempted
        if attempted else 0.0)
    hits = sum(r["trace"]["cache"][0] for r in reports)
    lookups = sum(r["trace"]["cache"][1] for r in reports)
    out["quadrature.rule_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    out["cli.output_bytes"] = statistics.fmean(op["bytes"] for op in ops)
    out["trace.latency_p50_ms"] = statistics.median(op["s"] for op in ops) * 1e3
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "gjflow" / "__init__.py").is_file():
        print(f"perfbench: no gjflow package under {SRC}", file=sys.stderr)
        return 2
    import workloads
    if workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {workload!r}", file=sys.stderr)
        return 2

    reports = []
    first = 1  # every worker's warm-up takes the place of op 0
    for number in range(WORKERS):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds / WORKERS), "--trace", str(int(trace)),
               "--worker", str(number), "--first-op", str(first),
               "--spawned-at"]
        proc = subprocess.run(cmd + [repr(time.time())], cwd=ROOT,
                              capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            print(f"perfbench: worker {number} failed:\n{proc.stderr[-3000:]}",
                  file=sys.stderr)
            return 3
        reports.append(json.loads(proc.stdout.splitlines()[-1]))
        first = reports[-1]["next_op"]

    ops = [op for r in reports for op in r["ops"]]
    failures = [op for op in ops if op["fail"] is not None]
    raw_p50_ms = statistics.median(op["s"] for op in ops) * 1e3
    # every timing below is at the nominal host speed (see host_kernel)
    for r in reports:
        factor = HOST_NOMINAL_S / r["host_s"]
        r["setup_s"] *= factor
        r["loop_s"] *= factor
        for op in r["ops"]:
            op["s"] *= factor
    if trace:
        metrics, units = _per_layer(reports, ops), PER_LAYER
    else:
        metrics, units = _end_to_end(workload, reports, ops), END_TO_END

    print(f"# perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"# env: {json.dumps(environment())}")
    print(f"# ops={len(ops)} failed={len(failures)} "
          f"error_rate={len(failures) / len(ops):.4g} "
          f"tail=p{TAIL_PERCENTILE[workload]}")
    checked = [op for op in ops if "dev" in op]
    if checked:
        print(f"# max_deviation={max(op['dev'] for op in checked):.4g} "
              f"rejected_steps_per_op="
              f"{statistics.fmean(op['rejected'] for op in checked):.4g}")
    if checked and checked[0]["drift"] is not None:
        print(f"# max_drift={max(op['drift'] for op in checked):.4g}")
    print("# workers: ops_per_s=" + " ".join(
        f"{len(r['ops']) / r['loop_s']:.4g}" for r in reports)
        + " setup_s=" + " ".join(f"{r['setup_s']:.3f}" for r in reports)
        + " host_kernel_ms=" + " ".join(f"{r['host_s'] * 1e3:.3f}" for r in reports))
    print(f"# unscaled latency_p50_ms={raw_p50_ms:.4g} "
          f"(host_kernel nominal {HOST_NOMINAL_S * 1e3:g} ms)")
    for op in failures[:10]:
        print(f"# FAIL op{op['op']:05d}: {op['fail']}")
    for name, value in metrics.items():
        print(f"# {name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set by run() when it starts a worker
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--first-op", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        report = worker(args.workload, args.seed, args.worker, args.first_op,
                        args.seconds, bool(args.trace), args.spawned_at)
        print(json.dumps(report))
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
