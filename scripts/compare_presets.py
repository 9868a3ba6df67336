"""Run every built-in preset on two source trees and compare their output files.

Run from the repository root, with the source directory of each tree
given as LABEL=PATH:

    python scripts/compare_presets.py parent=OTHER_CHECKOUT/src change=src

Each tree runs `nullsrc preset NAME --out DIR` for every preset of its
`builtin_presets()`, all in one fresh Python process per tree, into a
temporary directory; the same process writes the stdout of
`nullsrc spectrum --preset NAME` to `NAME/spectrum.json` and that of
`nullsrc verify` to `verify/stdout.txt`. For each preset, and for
verify, the script prints whether every output file is byte-identical,
or which files differ or exist in one tree only. Then it prints, for
each manifest number that differs in any preset, the largest relative
difference |a - b| / max(|a|, |b|) over the presets and the preset
where it occurs, and any other manifest value that differs. The exit
code is 0 when every file is byte-identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_ladder import source  # LABEL=PATH; the script's own directory is on sys.path

CHILD = """
import contextlib
import io
import sys
from pathlib import Path
from nullsrc.cli import main
from nullsrc.experiments import builtin_presets

def run(argv, stdout_path=None):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = main(argv)
    if code != 0:
        sys.exit(f"{' '.join(argv)} exited with {code}")
    if stdout_path is not None:
        stdout_path.parent.mkdir(parents=True, exist_ok=True)
        stdout_path.write_text(text.getvalue())

out = Path(sys.argv[1])
for name in builtin_presets():
    run(["preset", name, "--out", str(out / name)])
    run(["spectrum", "--preset", name], out / name / "spectrum.json")
run(["verify"], out / "verify" / "stdout.txt")
"""


def run_presets(src: Path, out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", CHILD, str(out)], capture_output=True, text=True, env=env)
    if done.returncode != 0:
        raise SystemExit(f"presets failed under {src}:\n{done.stderr}")


def leaves(value, path: str = "") -> dict[str, object]:
    """Every scalar of a JSON value, keyed by its dotted path (list items by index)."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    flat = {}
    for key, item in items:
        flat.update(leaves(item, f"{path}.{key}" if path else str(key)))
    return flat


def relative_difference(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sources", nargs=2, type=source, metavar="LABEL=PATH",
                        help="a label and the directory holding that tree's nullsrc package")
    args = parser.parse_args(argv)
    (label_a, src_a), (label_b, src_b) = args.sources
    if label_a == label_b:
        parser.error("the two sources need different labels")

    with tempfile.TemporaryDirectory() as tmp:
        root_a, root_b = Path(tmp) / "a", Path(tmp) / "b"
        run_presets(src_a, root_a)
        run_presets(src_b, root_b)

        identical = True
        largest: dict[str, tuple[float, str]] = {}  # manifest number -> (difference, preset)
        changed: list[str] = []
        for preset in sorted({p.name for p in root_a.iterdir()} | {p.name for p in root_b.iterdir()}):
            dir_a, dir_b = root_a / preset, root_b / preset
            files_a = {p.name for p in dir_a.iterdir()} if dir_a.is_dir() else set()
            files_b = {p.name for p in dir_b.iterdir()} if dir_b.is_dir() else set()
            notes = [f"{name} only in {label_a}" for name in sorted(files_a - files_b)]
            notes += [f"{name} only in {label_b}" for name in sorted(files_b - files_a)]
            notes += [
                f"{name} differs"
                for name in sorted(files_a & files_b)
                if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()
            ]
            identical &= not notes
            print(f"{preset}: " + ("; ".join(notes) if notes else f"{len(files_a)} files byte-identical"))
            if "manifest.json" not in files_a & files_b:
                continue
            flat_a = leaves(json.loads((dir_a / "manifest.json").read_text()))
            flat_b = leaves(json.loads((dir_b / "manifest.json").read_text()))
            for key in sorted(flat_a.keys() | flat_b.keys()):
                a, b = flat_a.get(key), flat_b.get(key)
                if is_number(a) and is_number(b):
                    diff = relative_difference(a, b)
                    if diff > largest.get(key, (0.0, ""))[0]:
                        largest[key] = (diff, preset)
                elif a != b:
                    changed.append(f"{preset} {key}: {label_a} {a!r}, {label_b} {b!r}")

    if largest:
        print("largest relative difference of each differing manifest number:")
        for key, (diff, preset) in sorted(largest.items()):
            print(f"  {key}: {diff:.3g} ({preset})")
    else:
        print("every manifest number is equal")
    for line in changed:
        print(f"changed: {line}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
