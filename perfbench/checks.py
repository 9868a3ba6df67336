"""Output checks applied to every benchmark operation.

Each check raises CheckFailed with a reason; the runner counts the
operation as failed. Exit codes are checked where the CLI is called.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# l2_error may move in its last digits when a factorization or solver
# changes; a relative 1e-6 still pins the recovered source.
L2_REL_TOL = 1e-6
# Method III against W^-1 times method II on a rank-deficient system: the
# stacked-QR round-off floor at alpha = 1e-3 measured 6e-10 on ex6b.
METHOD3_REL_TOL = 1e-8


class CheckFailed(Exception):
    pass


def load_reference() -> dict:
    """Per-preset, per-method argmax and l2_error recorded from a known-good run."""
    return json.loads((Path(__file__).parent / "reference.json").read_text())["presets"]


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def check_preset(
    out_dir: Path, preset: str, expected_methods: int, reference: dict | None
) -> dict:
    """Finite manifest, no method error, and the reference when given.

    Returns the manifest for further checks.
    """
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if not all(math.isfinite(v) for v in _numbers(manifest)):
        raise CheckFailed(f"{preset}: non-finite number in manifest")
    methods = manifest["methods"]
    if manifest["config"]["name"] != preset or len(methods) != expected_methods:
        raise CheckFailed(f"{preset}: manifest names {manifest['config']['name']!r}, "
                          f"{len(methods)} methods")
    errors = {name: e["error"] for name, e in methods.items() if "error" in e}
    if errors:
        raise CheckFailed(f"{preset}: method errors {errors}")
    if reference is not None:
        if sorted(methods) != sorted(reference):
            raise CheckFailed(f"{preset}: methods {sorted(methods)} != reference")
        for name, ref in reference.items():
            got = methods[name]
            if got["argmax_cell"] not in ref["argmax_tieset"]:
                raise CheckFailed(f"{preset}/{name}: argmax {got['argmax_cell']} "
                                  f"not in reference tie set {ref['argmax_tieset']}")
            if abs(got["l2_error"] - ref["l2_error"]) > L2_REL_TOL * ref["l2_error"]:
                raise CheckFailed(f"{preset}/{name}: l2_error {got['l2_error']!r} "
                                  f"!= reference {ref['l2_error']!r}")
    return manifest


def check_discrepancy(label: str, residual: float, gamma: float, rel_tol: float) -> None:
    """Morozov's residual must hit the noise norm within its relative tolerance."""
    if not abs(residual - gamma) <= rel_tol * gamma:
        raise CheckFailed(f"{label}: residual {residual!r} misses gamma {gamma!r} "
                          f"by more than {rel_tol:g} relative")


def check_morozov_manifest(preset: str, manifest: dict) -> None:
    gamma = manifest["gamma"]
    rel_tol = manifest["config"]["alpha"]["rel_tol"]
    for name, entry in manifest["methods"].items():
        check_discrepancy(f"{preset}/{name}", entry["residual"], gamma, rel_tol)


def check_finite(label: str, coeffs: np.ndarray) -> None:
    if not np.all(np.isfinite(coeffs)):
        raise CheckFailed(f"{label}: non-finite coefficients")


def check_method3(y_method2: np.ndarray, z_method3: np.ndarray, weights: np.ndarray) -> None:
    gap = float(np.linalg.norm(z_method3 - y_method2 / weights) / np.linalg.norm(y_method2))
    if not gap <= METHOD3_REL_TOL:
        raise CheckFailed(f"method III differs from W^-1 method II by {gap:.2e} relative")


def check_verify(text: str) -> None:
    """`nullsrc verify` must report PASS on every check."""
    lines = text.strip().splitlines()
    if (
        len(lines) < 2
        or lines[-1] != "all checks passed"
        or not all(line.startswith("PASS ") for line in lines[:-1])
    ):
        raise CheckFailed(f"verify output {text!r}")
