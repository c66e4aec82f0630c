"""Benchmark for schauderlab: closed-loop workloads driven through the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload enumeration --seed 1 --seconds 20 --trace 0

One process runs one workload with one client: each op starts when the
previous one ends.  The package is imported from ``src/`` of the checkout
(there is nothing to build).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  The last line
of standard output is the result object; the line before it holds the run
metadata.  Scratch files go to ``.perfbench-work/`` in the checkout.
See ``perfbench/README.md`` for the workloads and the metrics.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread: the single-threaded baseline, set before numpy loads.
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
PACKAGE = "schauderlab"

SETUP_REPEATS = 5  # setup_s is the median of these
MIN_OPS = 100  # leaves at least 10 samples beyond the 90th percentile
HARD_STOP_S = 120.0  # stop measuring after this much wall time, whatever the op count


class SetupError(Exception):
    """The package or the workload could not be set up; no result is printed."""


def load_package():
    """Import schauderlab afresh from the checkout's src/ (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        sl = importlib.import_module(PACKAGE)
        for sub in ("documents", "cli"):
            importlib.import_module(f"{PACKAGE}.{sub}")
    except ImportError as exc:
        raise SetupError(f"cannot import {PACKAGE} from {SRC}: {exc}") from exc
    if not Path(sl.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"{PACKAGE} was imported from {sl.__file__}, not from {SRC}")
    return sl


class Runner:
    """Runs ops, times them outside their checks, and counts failures."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.completed = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_op(self, op, tracer=None, op_id: int = -1) -> float:
        if tracer is not None:
            tracer.op_id = op_id
            tracer.active = True
        start = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception:  # an op that raises is a failed op, not a crashed run
            result, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        self.latencies.append(elapsed)
        self.kinds.append(op.kind)
        if error is None:
            self.completed += 1
            try:
                problems = op.check(result)
            except Exception:
                problems = [f"check raised: {traceback.format_exc(limit=3)}"]
        else:
            problems = [f"raised: {error}"]
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.kind}: {'; '.join(problems)}")
        return elapsed

    def run_pass(self, ops, tracer=None, first_op_id: int = 0) -> float:
        return sum(self.run_op(op, tracer, first_op_id + i) for i, op in enumerate(ops))


def set_up(build, seed: int, workdir: Path):
    """Import, build the inputs through the library, and run one checked warm-up round."""
    start = time.perf_counter()
    sl = load_package()
    bench = build(sl, seed, workdir)
    warm = Runner()
    warm.run_pass(bench.rounds[0])
    return time.perf_counter() - start, sl, bench, warm


def percentile_nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples strictly after its rank."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def timed_run(build, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict]:
    setups = []
    warm_failures: list[str] = []
    for _ in range(SETUP_REPEATS):
        elapsed, sl, bench, warm = set_up(build, seed, workdir)
        setups.append(elapsed)
        warm_failures += warm.failures
    runner = Runner()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    busy = 0.0
    cycles = 0
    while True:
        for round_ops in bench.rounds:
            busy += runner.run_pass(round_ops)
        cycles += 1
        if (busy >= seconds and len(runner.latencies) >= MIN_OPS) or time.perf_counter() - wall0 > HARD_STOP_S:
            break
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    lat = sorted(runner.latencies)
    p90, beyond = percentile_nearest_rank(lat, 0.9)
    attempted = len(lat)
    passed = attempted - runner.failed
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (runner.completed / busy, "ops/s"),
        "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "op_p90_ms": (1000.0 * p90, "ms"),
        "passed_share": (passed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    meta = {
        "setup_s_samples": setups,
        "cycles": cycles,
        "rounds_per_cycle": len(bench.rounds),
        "ops_per_round": len(bench.kinds),
        "op_count": attempted,
        "completed": runner.completed,
        "percentile_samples": {"op_p50_ms": attempted, "op_p90_ms": attempted, "beyond_op_p90_ms": beyond},
        "op_p50_ms_by_kind": {
            kind: 1000.0 * statistics.median(t for k, t in zip(runner.kinds, runner.latencies) if k == kind)
            for kind in bench.kinds
        },
        "busy_s": busy,
        "loop_wall_s": wall,
        "loop_cpu_share": cpu / wall,
        "failures": runner.failures,
        "warmup_failures": warm_failures,
    }
    correct = runner.failed == 0 and not warm_failures
    result = {"correct": correct, "attempted": attempted, "failed": runner.failed, "metrics": metrics}
    return result, {**meta, **bench_meta(bench)}


def traced_run(build, seed: int, seconds: float, workdir: Path, workload: str) -> tuple[dict, dict]:
    from layertrace import PER_LAYER, Tracer

    _, sl, bench, warm = set_up(build, seed, workdir)
    tracer = Tracer(sl)
    runner = Runner()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    cycle_metrics, cycle_counts, ratios = [], [], []
    while True:
        tracer.reset_counts()
        plain = traced = 0.0
        for r, round_ops in enumerate(bench.rounds):
            plain += runner.run_pass(round_ops)
            tracer.install()
            try:
                traced += runner.run_pass(round_ops, tracer, first_op_id=1000 * len(cycle_counts) + 100 * r)
            finally:
                tracer.uninstall()
        cycle_metrics.append(tracer.layer_metrics())
        cycle_counts.append(tracer.work_counts())
        tracer.keep_spans = False
        ratios.append(traced / plain)
        if time.perf_counter() - wall0 >= seconds or time.perf_counter() - wall0 > HARD_STOP_S:
            break
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    repeat = all(c == cycle_counts[0] for c in cycle_counts)
    values = {name: statistics.median(m[name] for m in cycle_metrics) for name in cycle_metrics[0]}
    values["trace.overhead_ratio"] = statistics.median(ratios)
    values["run.cpu_share"] = cpu / wall
    metrics = {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
    spans = tracer.write_spans(WORK / f"spans-{workload}.npz")
    meta = {
        "cycles": len(cycle_counts),
        "rounds_per_cycle": len(bench.rounds),
        "ops_per_round": len(bench.kinds),
        "traced_ops": len(cycle_counts) * len(bench.rounds) * len(bench.kinds),
        "work_counts_repeat": repeat,
        "values_are": "per cycle, median over cycles",
        "spans_written": spans,
        "spans_cover": "first cycle",
        "span_file": str((WORK / f"spans-{workload}.npz").relative_to(ROOT)),
        "failures": runner.failures,
        "warmup_failures": warm.failures,
    }
    correct = runner.failed == 0 and not warm.failures and repeat
    attempted = len(runner.latencies)
    result = {"correct": correct, "attempted": attempted, "failed": runner.failed, "metrics": metrics}
    return result, {**meta, **bench_meta(bench)}


def bench_meta(bench) -> dict:
    return {"op_kinds": bench.kinds, "sizes_per_op_kind": bench.sizes, **bench.extra}


def machine_meta(seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "thread_settings": {k: os.environ.get(k) for k in THREAD_SETTINGS},
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build = workloads.WORKLOADS[args.workload]
    workdir = WORK / args.workload
    try:
        if args.trace:
            result, meta = traced_run(build, args.seed, args.seconds, workdir, args.workload)
        else:
            result, meta = timed_run(build, args.seed, args.seconds, workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = {"workload": args.workload, **machine_meta(args.seed, args.seconds, bool(args.trace)), **meta}
    for line in meta["failures"] + meta["warmup_failures"]:
        print(f"failed op: {line}", file=sys.stderr)
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
