"""Which nullsrc functions make up each layer, and the per-layer metrics.

Every hooked name is public. Methods reached only through solvers'
internal dispatch table are covered by the `solve_method` span that
encloses them.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

from tracer import Hook, Tracer


def _factor_system(tracer: Tracer, args, kwargs, result) -> dict[str, float]:
    """Count a factorization as useful the first time its matrix appears in an op."""
    S = (args[0] if args else kwargs["sys"]).S
    digest = hashlib.blake2b(digest_size=16)
    for part in (S.indptr, S.indices, S.data):
        digest.update(np.ascontiguousarray(part).tobytes())
    return {"fem.factor_systems": float(tracer.first_in_op(digest.digest()))}


def _solve_cols(tracer: Tracer, args, kwargs, result) -> dict[str, float]:
    load = np.asarray(args[1] if len(args) > 1 else kwargs["load"])
    return {"fem.solve_cols": float(load.shape[1] if load.ndim == 2 else 1)}


def _export_bytes(tracer: Tracer, args, kwargs, result) -> dict[str, float]:
    out = Path(result).parent
    return {"experiments.export_bytes": float(sum(os.path.getsize(p) for p in out.iterdir()))}


HOOKS = [
    Hook("mesh.build", "nullsrc.mesh", "build_mesh"),
    Hook("mesh.refine", "nullsrc.mesh", "refine_uniform"),
    Hook("fem.assemble", "nullsrc.fem", "assemble"),
    Hook("fem.factor", "nullsrc.fem", "StateSolver", _factor_system),
    Hook("fem.solve", "nullsrc.fem", "StateSolver.solve", _solve_cols),
    Hook("control_space.basis", "nullsrc.control_space", "build_control_basis"),
    Hook("control_space.load", "nullsrc.control_space", "control_load_matrix"),
    Hook("spectral.forward", "nullsrc.spectral", "build_forward_model"),
    Hook("spectral.svd", "nullsrc.spectral", "spectral_data_from_matrix"),
    Hook("solvers.lsq", "nullsrc.solvers", "tikhonov"),
    Hook("solvers.min_norm_lsq", "nullsrc.solvers", "min_norm_lsq"),
    Hook("solvers.method", "nullsrc.solvers", "solve_method"),
    Hook("solvers.method", "nullsrc.solvers", "method_I"),
    Hook("solvers.method", "nullsrc.solvers", "min_norm_solve"),
    Hook("solvers.morozov", "nullsrc.solvers", "morozov"),
    Hook("experiments.run", "nullsrc.experiments", "run_experiment"),
    Hook("experiments.export", "nullsrc.experiments", "export_result", _export_bytes),
    Hook("cli.main", "nullsrc.cli", "main"),
    Hook("verify.self", "nullsrc.verify", "run_all"),
]

# name -> (unit, hook groups it needs)
PER_LAYER = {
    "fem.factor_s": ("s", ["fem.factor"]),
    "fem.factor_count": ("count", ["fem.factor"]),
    "fem.factor_useful_frac": ("ratio", ["fem.factor"]),
    "fem.assemble_s": ("s", ["fem.assemble"]),
    "fem.solve_s": ("s", ["fem.solve"]),
    "fem.solve_cols": ("count", ["fem.solve"]),
    "mesh.build_s": ("s", ["mesh.build"]),
    "mesh.refine_s": ("s", ["mesh.refine"]),
    "control_space.basis_s": ("s", ["control_space.basis"]),
    "control_space.load_s": ("s", ["control_space.load"]),
    "spectral.forward_s": ("s", ["spectral.forward"]),
    "spectral.svd_s": ("s", ["spectral.svd"]),
    "spectral.svd_count": ("count", ["spectral.svd"]),
    "solvers.lsq_s": ("s", ["solvers.lsq"]),
    "solvers.lsq_count": ("count", ["solvers.lsq"]),
    "solvers.min_norm_lsq_count": ("count", ["solvers.min_norm_lsq"]),
    "solvers.method_s": ("s", ["solvers.method"]),
    "solvers.morozov_steps": ("count", ["solvers.method", "solvers.morozov"]),
    "experiments.run_s": ("s", ["experiments.run"]),
    "experiments.export_s": ("s", ["experiments.export"]),
    "experiments.export_bytes": ("bytes", ["experiments.export"]),
    "cli.main_s": ("s", ["cli.main"]),
    "verify.self_s": ("s", ["verify.self"]),
}


def per_layer_values(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-operation layer metrics, leaving out any that needs a group no hook fed.

    `fem.factor_useful_frac` is distinct systems over factorizations, 1.0
    when an operation factors nothing (nothing was wasted);
    `solvers.morozov_steps` is method solves per Morozov search, 0.0 when
    no search ran. `spectral.svd_count` counts `spectral_data_from_matrix`
    calls only; `min_norm_lsq` makes an SVD of its own on each call, and
    those calls are `solvers.min_norm_lsq_count` (also in `solvers.lsq_*`).
    """
    s, calls, extra = tracer.self_s, tracer.calls, tracer.extra
    factors = calls["fem.factor"]
    searches = calls["solvers.morozov"]
    values = {
        "fem.factor_s": s["fem.factor"] / n_ops,
        "fem.factor_count": factors / n_ops,
        "fem.factor_useful_frac": extra["fem.factor_systems"] / factors if factors else 1.0,
        "fem.assemble_s": s["fem.assemble"] / n_ops,
        "fem.solve_s": s["fem.solve"] / n_ops,
        "fem.solve_cols": extra["fem.solve_cols"] / n_ops,
        "mesh.build_s": s["mesh.build"] / n_ops,
        "mesh.refine_s": s["mesh.refine"] / n_ops,
        "control_space.basis_s": s["control_space.basis"] / n_ops,
        "control_space.load_s": s["control_space.load"] / n_ops,
        "spectral.forward_s": s["spectral.forward"] / n_ops,
        "spectral.svd_s": s["spectral.svd"] / n_ops,
        "spectral.svd_count": calls["spectral.svd"] / n_ops,
        "solvers.lsq_s": (s["solvers.lsq"] + s["solvers.min_norm_lsq"]) / n_ops,
        "solvers.lsq_count": (calls["solvers.lsq"] + calls["solvers.min_norm_lsq"]) / n_ops,
        "solvers.min_norm_lsq_count": calls["solvers.min_norm_lsq"] / n_ops,
        "solvers.method_s": (s["solvers.method"] + s["solvers.morozov"]) / n_ops,
        "solvers.morozov_steps": (
            tracer.nested_calls[("solvers.morozov", "solvers.method")] / searches
            if searches
            else 0.0
        ),
        "experiments.run_s": s["experiments.run"] / n_ops,
        "experiments.export_s": s["experiments.export"] / n_ops,
        "experiments.export_bytes": extra["experiments.export_bytes"] / n_ops,
        "cli.main_s": s["cli.main"] / n_ops,
        "verify.self_s": s["verify.self"] / n_ops,
    }
    return {
        name: values[name]
        for name, (_, groups) in PER_LAYER.items()
        if all(g in tracer.installed_groups for g in groups)
    }
