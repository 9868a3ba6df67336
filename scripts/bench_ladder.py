"""Time ex5a and ex7b on a ladder of fine meshes for two source trees and record the numbers as JSON.

Run from the repository root, with the source directory of each tree
given as LABEL=PATH:

    python scripts/bench_ladder.py parent=OTHER_CHECKOUT/src change=src --out BENCH_<n>.json

Each run is `run_experiment` on one preset, ex5a (epsilon > 0) or ex7b
(epsilon < 0), with an n x n-cell fine mesh (so an n/2 x n/2 inversion
mesh), in a fresh Python process whose OpenBLAS pools are capped at one
thread. The process first runs the preset at the smallest rung once,
untimed, so first-call costs stay out of the timing, then times one run
and reports it with the peak RSS of the process. On every rung and for
each preset the two trees' processes alternate, and which tree goes first
alternates from pair to pair, so a machine that drifts in speed affects
both alike. Every run is stored, with the median wall time and peak RSS
per rung and preset and the number of pairs in which the tree was the
faster of the two, under the tree's label, together with the core count
and the Python, numpy and scipy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUNGS = ((64, 10), (128, 10), (256, 6), (512, 6))  # (fine cells per side, runs per tree)
PRESETS = ("ex5a", "ex7b")

CHILD = """
import json, resource, sys, time
from dataclasses import replace
import numpy, scipy
from nullsrc import DomainSpec, Shape
from nullsrc.experiments import builtin_presets, run_experiment

preset, warm, n = builtin_presets()[sys.argv[1]], int(sys.argv[2]), int(sys.argv[3])
run_experiment(replace(preset, domain=DomainSpec(Shape.UNIT_SQUARE, warm, warm)))
cfg = replace(preset, domain=DomainSpec(Shape.UNIT_SQUARE, n, n))
start = time.perf_counter()
run_experiment(cfg)
print(json.dumps({
    "wall_s": time.perf_counter() - start,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
}))
"""


def run_once(src: Path, preset: str, cells: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, preset, str(RUNGS[0][0]), str(cells)],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(done.stdout)


def summarize(preset: str, cells: int, runs_of: list[dict], other: list[dict]) -> dict:
    wall = [s["wall_s"] for s in runs_of]
    rss = [s["peak_rss_mb"] for s in runs_of]
    return {
        "preset": preset,
        "fine_cells": cells,
        "wall_s_median": statistics.median(wall),
        "peak_rss_mb_median": statistics.median(rss),
        "pairs_won": sum(w < s["wall_s"] for w, s in zip(wall, other, strict=True)),
        "runs_s": wall,
        "peak_rss_mb": rss,
    }


def source(spec: str) -> tuple[str, Path]:
    label, sep, path = spec.partition("=")
    if not (sep and label and path):
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {spec!r}")
    return label, Path(path).resolve()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sources", nargs=2, type=source, metavar="LABEL=PATH",
                        help="a label and the directory holding that tree's nullsrc package")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.sources[0][0] == args.sources[1][0]:
        parser.error("the two sources need different labels")

    rungs: dict[str, list[dict]] = {label: [] for label, _ in args.sources}
    versions = {}
    for cells, runs in RUNGS:
        for preset in PRESETS:
            samples: dict[str, list[dict]] = {label: [] for label, _ in args.sources}
            for pair in range(runs):
                for label, src in args.sources[:: 1 if pair % 2 == 0 else -1]:
                    sample = run_once(src, preset, cells)
                    versions = {key: sample.pop(key) for key in ("numpy", "scipy")}
                    samples[label].append(sample)
            (first, _), (second, _) = args.sources
            for label, other in ((first, second), (second, first)):
                rung = summarize(preset, cells, samples[label], samples[other])
                print(f"{label} {preset} {cells}x{cells}: median {rung['wall_s_median']:.3f} s, "
                      f"{rung['peak_rss_mb_median']:.0f} MB over {runs} runs, faster in "
                      f"{rung['pairs_won']} of {runs} pairs", file=sys.stderr)
                rungs[label].append(rung)

    data = {
        "benchmark": "nullsrc run_experiment(ex5a, ex7b) with an n x n-cell fine mesh, one timed "
                     "run per fresh process after an untimed 64x64 warm-up, one BLAS thread; the "
                     "ladders' processes alternate on every rung and preset",
        "environment": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            **versions,
            "blas_threads": 1,
        },
        "ladders": {label: {"rungs": ladder} for label, ladder in rungs.items()},
    }
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
