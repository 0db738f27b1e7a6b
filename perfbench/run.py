"""sphcalc benchmark: one workload, one seed, one JSON result on the last line.

Run from the repository root:

    python3 perfbench/run.py --workload transform_warm --seed 1 --seconds 30 --trace 0

One caller runs ops in a closed loop (the next op starts when the previous
one has finished and its output has been checked) until ``--seconds`` have
passed, finishing the workload's current op cycle.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs a third of the time untraced, traces
the rest, then runs one more cycle for tracemalloc peaks, and reports the
per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads BLAS; one thread keeps run-to-run spread lowest on
# small shared machines, and never exceeds the cores available.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
HOST_NOMINAL_MS = 20.0
HOST_READ_INTERVAL_S = 0.5
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def import_sphcalc(root: str):
    """Import sphcalc from ``<root>/src``, fresh, and return (package, seconds)."""
    for name in [m for m in sys.modules if m == "sphcalc" or m.startswith("sphcalc.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    package = importlib.import_module("sphcalc")
    importlib.import_module("sphcalc.cli")
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(package.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"sphcalc imported from {package.__file__}, not from {root}/src")
    return package, elapsed


class HostSpeed:
    """Reads of a fixed kernel that does not use sphcalc, spread over a run.

    On small shared hosts the speed of every workload shifts by 30-40%, for
    seconds or for minutes at a time, and this kernel shifts with it.  Timed
    end-to-end metrics are therefore scaled by ``factor``: they read as if the
    kernel had taken HOST_NOMINAL_MS, so runs from fast and slow spells
    compare.  The wall-clock values are printed beside them.
    """

    def __init__(self):
        self.reads: list[float] = []
        self.last = 0.0
        self._a = np.random.default_rng(0).standard_normal((96, 96))

    def read(self) -> None:
        t0 = time.perf_counter()
        sum(i * i for i in range(200_000))
        for _ in range(80):
            self._a @ self._a
        self.last = time.perf_counter()
        self.reads.append(1e3 * (self.last - t0))

    def read_if_due(self) -> None:
        if time.perf_counter() - self.last >= HOST_READ_INTERVAL_S:
            self.read()

    @property
    def factor(self) -> float:
        return HOST_NOMINAL_MS / statistics.median(self.reads)


def set_up(workload_cls, seed: int, root: str, workdir: str, host: HostSpeed):
    """Import, generate inputs and warm up, SETUP_REPEATS times; keep the last."""
    setup_s, import_s = [], []
    for _ in range(SETUP_REPEATS):
        workload = package = None  # release the previous repeat's tables first
        gc.collect()
        host.read()
        t0 = time.perf_counter()
        package, imported = import_sphcalc(root)
        workload = workload_cls(package, seed, workdir)
        setup_s.append(time.perf_counter() - t0)
        import_s.append(imported)
    host.read()
    return workload, package, statistics.median(setup_s), statistics.median(import_s)


def measure(workload, first: int, seconds: float, host: HostSpeed, tracer=None):
    """Closed loop from op ``first`` until ``seconds`` pass and a cycle ends.

    Host-speed reads fall between ops, outside the op timing.  Returns
    (per-op latencies in seconds, ops failed or wrong, next op index).
    """
    latencies, failed = [], 0
    i = first
    start = time.perf_counter()
    while i == first or time.perf_counter() - start < seconds or i % workload.cycle:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = workload.op(i) if tracer is None else tracer.run_op(i, workload.op, i)
            ok = True
        except Exception:
            traceback.print_exc()
            ok = False
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if ok:
            try:
                ok = bool(workload.check(i, result))
            except Exception:
                traceback.print_exc()
                ok = False
        if not ok:
            print(f"op {i} failed its output gate", file=sys.stderr)
            failed += 1
        host.read_if_due()
        i += 1
    return latencies, failed, i


def ops_per_s(latencies, failed):
    return (len(latencies) - failed) / sum(latencies)


def end_to_end(latencies, failed, setup_s, factor):
    """Metrics scaled to nominal host speed, and printed-only lines."""
    lat_ms = sorted(1e3 * t for t in latencies)
    wall = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s(latencies, failed), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
    }
    # p90 only with at least ten samples beyond it
    if len(lat_ms) >= 100:
        wall["latency_p90_ms"] = (statistics.quantiles(lat_ms, n=10)[-1], "ms")
    scaled = {name: (value / factor if unit == "1/s" else value * factor, unit)
              for name, (value, unit) in wall.items()}
    metrics = {
        **{name: scaled[name] for name in ("setup_s", "ops_per_s", "latency_p50_ms")},
        "success_frac": ((len(latencies) - failed) / len(latencies), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = {
        "failed_frac": (failed / len(latencies), "ratio"),
        **{name: scaled[name] for name in scaled.keys() - metrics.keys()},
        **{name + "_wall": value for name, value in wall.items()},
    }
    return metrics, lines


def provenance(package, args, root: str) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "sphcalc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "sphcalc": package.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def emit(metrics: dict, lines: dict, attempted: int, failed: int, prov: dict) -> None:
    print(json.dumps({"provenance": prov}, sort_keys=True))
    for name, (value, unit) in {**metrics, **lines}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"output gate: {attempted - failed}/{attempted} ops correct")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sphcalc", "__init__.py")):
        print("error: run from the repository root; src/sphcalc not found", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    workdir = os.path.join(root, WORK_DIR, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        host = HostSpeed()
        workload, package, setup_s, import_s = set_up(
            WORKLOADS[args.workload], args.seed, root, workdir, host)
        prov = provenance(package, args, root)
        if not args.trace:
            latencies, failed, _ = measure(workload, 0, args.seconds, host)
            host.read()
            prov["host_read_ms"] = [round(r, 3) for r in host.reads]
            metrics, lines = end_to_end(latencies, failed, setup_s, host.factor)
            emit(metrics, lines, len(latencies), failed, prov)
            return 0
        untraced, failed_u, nxt = measure(workload, 0, args.seconds / 3, host)
        tracer = Tracer()
        tracer.install(package)
        traced, failed_t, nxt = measure(workload, nxt, args.seconds * 2 / 3, host, tracer)
        tracer.memory = True
        memory_ops, failed_m, _ = measure(workload, nxt, 0, host, tracer)
        prov["host_read_ms"] = [round(r, 3) for r in host.reads]
        metrics = tracer.layer_metrics(len(traced))
        metrics["cli.import_ms"] = (1e3 * import_s, "ms")
        metrics["trace.ops_per_s"] = (ops_per_s(traced, failed_t), "1/s")
        metrics["trace.untraced_ops_per_s"] = (ops_per_s(untraced, failed_u), "1/s")
        # equals untraced ops_per_s over traced ops_per_s when no op fails
        metrics["trace.overhead_ratio"] = (
            statistics.mean(traced) / statistics.mean(untraced), "ratio")
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        spans = os.path.join(root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.write(spans)
        print(f"spans written to {spans}")
        emit(metrics, {}, len(untraced) + len(traced) + len(memory_ops),
             failed_u + failed_t + failed_m, prov)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
