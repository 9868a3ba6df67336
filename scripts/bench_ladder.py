"""Time ex5a on a ladder of fine meshes and record the numbers as JSON.

Run from the repository root:

    python scripts/bench_ladder.py --label change --out BENCH_<n>.json
    python scripts/bench_ladder.py --label parent --src OTHER_CHECKOUT/src --out BENCH_<n>.json

Each rung is `run_experiment` on the ex5a preset with an n x n-cell fine
mesh (so an n/2 x n/2 inversion mesh), in a fresh Python process whose
OpenBLAS pools are capped at one thread. A rung reports the best wall
time of its runs and the peak RSS of its process. The ladder is stored
under its label, beside any ladders the file already holds, together
with the core count and the Python, numpy and scipy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

RUNGS = ((64, 3), (128, 3), (256, 3), (512, 1))  # (fine cells per side, runs)

CHILD = """
import json, resource, sys, time
from dataclasses import replace
import numpy, scipy
from nullsrc import DomainSpec, Shape
from nullsrc.experiments import builtin_presets, run_experiment

n, runs = int(sys.argv[1]), int(sys.argv[2])
cfg = replace(builtin_presets()["ex5a"], domain=DomainSpec(Shape.UNIT_SQUARE, n, n))
times = []
for _ in range(runs):
    start = time.perf_counter()
    run_experiment(cfg)
    times.append(time.perf_counter() - start)
print(json.dumps({
    "wall_s": min(times),
    "runs_s": times,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
}))
"""


def run_rung(src: Path, cells: int, runs: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(cells), str(runs)],
        capture_output=True, text=True, check=True, env=env,
    )
    return {"fine_cells": cells, "runs": runs, **json.loads(done.stdout)}


def main(argv: list[str] | None = None) -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this ladder, e.g. parent or change")
    parser.add_argument("--src", type=Path, default=root / "src", help="directory holding nullsrc")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to add the ladder to")
    args = parser.parse_args(argv)

    rungs = []
    for cells, runs in RUNGS:
        rung = run_rung(args.src.resolve(), cells, runs)
        print(f"{args.label} {cells}x{cells}: {rung['wall_s']:.3f} s, {rung['peak_rss_mb']:.0f} MB",
              file=sys.stderr)
        rungs.append(rung)
    versions = {key: rungs[0].pop(key) for key in ("numpy", "scipy")}
    for rung in rungs[1:]:
        del rung["numpy"], rung["scipy"]

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("benchmark", "nullsrc run_experiment(ex5a) with an n x n-cell fine mesh, "
                                 "one fresh process per rung, one BLAS thread; wall_s is the "
                                 "best of `runs`")
    data.setdefault("ladders", {})[args.label] = {
        "environment": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            **versions,
            "blas_threads": 1,
        },
        "rungs": rungs,
    }
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
