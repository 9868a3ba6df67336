"""Closed-loop benchmark of the nullsrc batch pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-fine --seed 1 --seconds 34 --trace 0

One client runs operations back to back, each starting when the previous
one has finished, in whole workload periods for at most --seconds (at
least one period).
Every operation's output is checked. nullsrc is imported from ./src.

--trace 0 prints the end-to-end metrics: per-operation time (median and
90th percentile), completed operations per second, peak RSS, the share
of operations that passed their checks, and set-up time, the median over
three fresh processes of the time from process start to ready
for the first timed operation (imports, inputs, shared system build and
one untimed warm-up operation).

--trace 1 alternates untraced and traced periods and prints the
per-layer metrics of the traced ones (see layers.py), plus the tracing
overhead: traced minus untraced median operation time.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (name -> value and unit).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}
SETUP_RUNS = 3  # fresh processes timed for setup_s


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print 'ready' and exit")
    return parser.parse_args(argv)


def import_nullsrc(root: Path) -> bool:
    """Import nullsrc from root/src and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import nullsrc
    except ImportError:
        return False
    return Path(nullsrc.__file__).resolve().parent.parent == src.resolve()


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, None when it cannot be asked."""
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def set_up(workload_cls, seed: int, workdir: Path):
    """Build the workload and run one untimed warm-up operation."""
    workload = workload_cls(seed, workdir)
    workload.op(0)
    return workload


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh process to its 'ready' line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready


def run_period(workload, first_index: int, tracer=None) -> tuple[list[float], int]:
    """One workload period; returns per-operation seconds and failures."""
    times, failed = [], 0
    for index in range(first_index, first_index + workload.period):
        if tracer is not None:
            tracer.next_op()
        start = time.perf_counter()
        try:
            workload.op(index)
        except Exception:  # an operation failure must not stop the run
            failed += 1
            traceback.print_exc()
        times.append(time.perf_counter() - start)
    return times, failed


def repeat_within(seconds: float, step) -> float:
    """Call step() at least once, and again while another call of the
    last one's length still ends within `seconds`; returns the elapsed time."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return now - start


def timed_run(workload, seconds: float) -> tuple[list[float], int, float]:
    times, failed = [], 0

    def period():
        nonlocal failed
        t, f = run_period(workload, len(times))
        times.extend(t)
        failed += f

    elapsed = repeat_within(seconds, period)
    return times, failed, elapsed


def traced_run(workload, seconds: float):
    """Alternate untraced and traced periods over the same inputs."""
    from layers import HOOKS
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, failed = [], [], 0

    def pair():
        nonlocal failed
        t, f = run_period(workload, len(untraced))
        untraced.extend(t)
        failed += f
        with tracer.installed(HOOKS, "nullsrc"):
            t, f = run_period(workload, len(traced), tracer)
        traced.extend(t)
        failed += f

    repeat_within(seconds, pair)
    return tracer, untraced, traced, failed


def emit(attempted: int, failed: int, metrics: dict[str, tuple[float, str]], notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:<28} {value:>14.6g} {unit:<6} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not import_nullsrc(root):
        print("perfbench: no nullsrc package under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = root / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = set_up(WORKLOADS[args.workload], args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        print(f"workload {args.workload}, seed {args.seed}, environment {json.dumps(environment())}")
        if args.trace:
            from layers import PER_LAYER, per_layer_values

            tracer, untraced, traced, failed = traced_run(workload, args.seconds)
            values = per_layer_values(tracer, len(traced))
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()} | {"trace.overhead_s": "s"}
            metrics = {name: (value, units[name]) for name, value in values.items()}
            if tracer.absent:
                print(f"hooks not found, metrics left out: {sorted(tracer.absent)}")
            notes = {"trace.overhead_s": f"({len(traced)} traced, {len(untraced)} untraced ops)"}
            emit(len(untraced) + len(traced), failed, metrics, notes)
            return 0

        setups = [probe_setup(args) for _ in range(SETUP_RUNS)]
        times, failed, elapsed = timed_run(workload, args.seconds)
        passed = len(times) - failed
        metrics = {
            "setup_s": statistics.median(setups),
            "op_s.p50": statistics.median(times),
            "op_s.p90": statistics.quantiles(times, n=10, method="inclusive")[8]
            if len(times) > 1 else times[0],
            "ops_per_s": passed / elapsed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_frac": passed / len(times),
        }
        notes = {
            "setup_s": f"(median of {len(setups)} processes)",
            "op_s.p50": f"(n={len(times)})",
            "op_s.p90": f"(n={len(times)})",
            "ops_per_s": f"({passed} ops in {elapsed:.2f} s)",
            "pass_frac": f"(fail_frac {failed / len(times):.4g}: {failed} of {len(times)})",
        }
        emit(len(times), failed,
             {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, notes)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
