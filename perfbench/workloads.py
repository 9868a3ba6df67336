"""The benchmark's workloads.

Each workload is built from the workload seed (its set-up) and then
runs operations by index; an operation raises on any error or failed
output check. Operation i draws its inputs from the seed and i modulo
`period`, so a run of whole periods repeats exactly and its per-layer
counts are the same on every run with the same seed.

nullsrc is reached only through public names looked up at call time
(`cli.main`, `solvers.morozov`, ...), so the tracer's hooks see every call.

- pipeline-fine: the paper's headline experiments on the 64x64-cell fine
  mesh, where the state factorization and mesh refinement dominate.
  The cycle covers the Cholesky branch (ex5a), the LU branch (ex7b,
  epsilon < 0) and one noisy Morozov case (ex6b).
- sweep: the ex6b system built once; each operation is only the
  regularized solves, so mesh and FEM work stays in set-up.
- small-systems: ex1, ex2 and `nullsrc verify`, many tiny systems where
  per-call overhead shows; covers the L-shape and inverse-crime paths.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

import nullsrc
from nullsrc import cli, solvers
from nullsrc.experiments import add_noise, builtin_presets, generate_data

import checks


def derive_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_cli(argv: list[str]) -> str:
    """Run the nullsrc CLI in-process; returns its stdout, raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise checks.CheckFailed(
            f"nullsrc {' '.join(argv)} exited {code}: {out.getvalue()[-500:]}{err.getvalue()[-500:]}"
        )
    return out.getvalue()


class _PresetRunner:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "preset"
        self.presets = builtin_presets()
        self.reference = checks.load_reference()

    def run_preset(self, preset: str, index: int) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        seed = derive_seed(self.seed, index % self.period)
        run_cli(["preset", preset, "--out", str(self.out), "--override", f"seed={seed}"])
        return checks.check_preset(
            self.out, preset, len(self.presets[preset].methods), self.reference.get(preset)
        )


class PipelineFine(_PresetRunner):
    name = "pipeline-fine"
    cycle = ("ex5a", "ex6b", "ex7b")
    period = 2 * len(cycle)  # two ex6b noise draws

    def op(self, index: int) -> None:
        preset = self.cycle[index % len(self.cycle)]
        manifest = self.run_preset(preset, index)
        if preset == "ex6b":
            checks.check_morozov_manifest(preset, manifest)


class SmallSystems(_PresetRunner):
    name = "small-systems"
    period = 1

    def op(self, index: int) -> None:
        for preset in ("ex1", "ex2"):
            self.run_preset(preset, index)
        checks.check_verify(run_cli(["verify"]))


class Sweep:
    name = "sweep"
    kappas = (0.05, 0.20)
    period = 16  # eight noise draws per noise level: Morozov steps vary by draw
    alpha = 1e-3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        cfg = builtin_presets()["ex6b"]
        self.rule = cfg.alpha
        self.d, _, _ = generate_data(replace(cfg, noise_kappa=0.0, alpha=self.alpha))
        coarse = nullsrc.DomainSpec(cfg.domain.shape, cfg.domain.nx // 2, cfg.domain.ny // 2)
        mesh = nullsrc.build_mesh(coarse)
        system = nullsrc.assemble(mesh, cfg.epsilon, cfg.sigma.materialize(mesh))
        basis = nullsrc.build_control_basis(mesh, *cfg.control_dims_inverse)
        self.fm = nullsrc.build_forward_model(system, basis, mesh)
        self.sd = nullsrc.analyze(self.fm, cfg.rank_tol)

    def op(self, index: int) -> None:
        fm, sd, rule = self.fm, self.sd, self.rule
        kappa = self.kappas[index % len(self.kappas)]
        d_noisy, _ = add_noise(self.d, kappa, derive_seed(self.seed, index % self.period))
        gamma = float(np.linalg.norm(fm.R @ (d_noisy - self.d)))
        b_hat = fm.R @ d_noisy
        for method in (solvers.Method.METHOD_II, solvers.Method.METHOD_III):
            _, solved = solvers.morozov(
                fm, sd, b_hat, gamma, method,
                alpha_range=(rule.alpha_min, rule.alpha_max), rel_tol=rule.rel_tol,
            )
            label = f"morozov {method.value}"
            checks.check_finite(label, solved.coeffs)
            checks.check_discrepancy(label, solved.residual, gamma, rule.rel_tol)
            # the solver's own residual could share a bug with its search, so
            # also work it out from the coefficients: method II's act through W^-1
            x = solved.coeffs / sd.p_norms if method is solvers.Method.METHOD_II else solved.coeffs
            residual = float(np.linalg.norm(fm.A_hat @ x - b_hat))
            checks.check_discrepancy(f"{label} (from coeffs)", residual, gamma, rule.rel_tol)
        fixed = {m: solvers.solve_method(fm, sd, b_hat, self.alpha, m) for m in solvers.Method}
        for method, solved in fixed.items():
            checks.check_finite(method.value, solved.coeffs)
        checks.check_method3(
            fixed[solvers.Method.METHOD_II].coeffs, fixed[solvers.Method.METHOD_III].coeffs, sd.p_norms
        )


WORKLOADS = {w.name: w for w in (PipelineFine, Sweep, SmallSystems)}
