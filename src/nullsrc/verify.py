"""Runnable checks of the recovery guarantees behind the weighted methods.

These are the same properties the test suite asserts, packaged so the CLI
can execute them without a test harness: the minimum-norm projection
identity, maximum-at-the-correct-index recovery, the norm-comparison
inequalities between the methods, and the projector/weight algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control_space import build_control_basis
from .fem import assemble
from .mesh import DomainSpec, Shape, build_mesh
from .solvers import ARGMAX_TIE_TOL, Method, method_coeffs, min_norm_lsq, tikhonov
from .spectral import (
    RANK_TOL_REL,
    ForwardModel,
    SpectralData,
    analyze,
    build_forward_model,
    numerical_rank,
    optimal_scalar_weight,
    thin_svd,
)

INEQUALITY_SLACK = 1e-10


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_rank_deficient(
    rng: np.random.Generator,
    m: int,
    n: int,
    rank: int,
    s_range: tuple[float, float] = (0.5, 2.0),
) -> np.ndarray:
    """Random m x n matrix with prescribed rank and benign singular values."""
    qu, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    s = np.sort(rng.uniform(*s_range, size=rank))[::-1]
    return (qu * s) @ qv.T


def crime_system(
    mesh_cells: int = 16, ctrl: int = 8, epsilon: float = 1e-3
) -> tuple[ForwardModel, SpectralData]:
    """Inverse-crime unit-square system used by the recovery checks."""
    mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, mesh_cells, mesh_cells))
    sys = assemble(mesh, epsilon)
    basis = build_control_basis(mesh, ctrl, ctrl)
    fm = build_forward_model(sys, basis, mesh)
    return fm, analyze(fm)


def check_minimum_norm_projection(rng: np.random.Generator, trials: int = 50) -> CheckResult:
    """min_norm_lsq(A, A psi) equals the projection of psi for random A."""
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(2, 13))
        rank = int(rng.integers(1, min(m, n)))
        A = random_rank_deficient(rng, m, n, rank)
        _, s, V = thin_svd(A)
        V_r = V[:, : numerical_rank(s, RANK_TOL_REL)]
        psi = rng.standard_normal(n)
        diff = np.linalg.norm(min_norm_lsq(A, A @ psi) - V_r @ (V_r.T @ psi))
        worst = max(worst, diff / np.linalg.norm(psi))
    passed = worst <= 1e-8
    return CheckResult(
        "minimum-norm solution equals nullspace-complement projection",
        passed,
        f"worst relative deviation {worst:.2e} over {trials} random systems (tol 1e-8)",
    )


def check_argmax_recovery(fm: ForwardModel, sd: SpectralData, alpha: float = 1e-10) -> CheckResult:
    """Method I places its maximum at the driving basis index, every index."""
    X = method_coeffs(sd, fm.A_hat, alpha, Method.METHOD_I)  # column j answers data A_hat e_j
    failures = np.flatnonzero(np.diag(X) < X.max(axis=0) - ARGMAX_TIE_TOL).tolist()
    return CheckResult(
        "method I attains its maximum at the correct index",
        not failures,
        f"{len(X) - len(failures)}/{len(X)} indices recovered"
        + (f", failed: {failures[:8]}" if failures else ""),
    )


def expansion_deviation(fm: ForwardModel, sd: SpectralData, alpha: float | None) -> float:
    """Worst deviation of method I from its closed-form expansion, over e_j.

    alpha=None compares the exact zero-regularization limit (method I at
    alpha = 0) with the projection expansion P e_j / w.
    A positive alpha compares the method-I iterate with the same-alpha
    expansion V diag(s^2/(s^2+alpha)) V^T e_j / w over the full thin SVD,
    which is exact for data A_hat e_j. That iterate itself sits about
    alpha over the squared smallest retained singular value from the
    limit, so only the same-alpha form can be held to a tight tolerance.
    """
    # column j of coeffs and of the expansion answers data A_hat e_j
    coeffs = method_coeffs(sd, fm.A_hat, alpha or 0.0, Method.METHOD_I)
    if alpha is None:
        expansion = sd.project(np.eye(coeffs.shape[0]))
    else:
        expansion = (sd.V * (sd.s**2 / (sd.s**2 + alpha))) @ sd.V.T
    return float(np.max(np.abs(coeffs - expansion / sd.p_norms[:, None])))


def check_expansion_identity(
    fm: ForwardModel, sd: SpectralData, alpha: float | None = None, tol: float = 1e-8
) -> CheckResult:
    """Method I matches its closed-form projection expansion."""
    worst = expansion_deviation(fm, sd, alpha)
    at = "the exact limit" if alpha is None else f"alpha={alpha:g}"
    return CheckResult(
        "method I matches the closed-form expansion",
        worst <= tol,
        f"max abs deviation {worst:.2e} at {at} (tol {tol:g})",
    )


def norm_inequality_violations(fm: ForwardModel, sd: SpectralData) -> tuple[float, float]:
    """Largest excess of the method II and method III norms over their method I
    bounds, over every e_j, in the alpha -> 0 limits; at most 0 when they hold."""
    w = sd.p_norms
    E = np.eye(len(w))
    # column j of each limit solves data A_hat e_j
    X, Y = (method_coeffs(sd, fm.A_hat, 0.0, m) for m in (Method.STANDARD_TIKHONOV, Method.METHOD_II))
    rhs = np.linalg.norm(E - X / w[:, None], axis=0)
    worst2 = np.max(np.linalg.norm(E - Y / w[None, :], axis=0) - rhs)
    worst3 = np.max(np.linalg.norm(E - Y / w[:, None], axis=0) - (w / w.min()) * rhs)
    return float(worst2), float(worst3)


def check_norm_inequalities(fm: ForwardModel, sd: SpectralData) -> CheckResult:
    """Scaled method II beats method I in norm; method III within the
    weight-ratio factor of method I (alpha -> 0 limits, every index)."""
    worst2, worst3 = norm_inequality_violations(fm, sd)
    passed = worst2 <= INEQUALITY_SLACK and worst3 <= INEQUALITY_SLACK
    return CheckResult(
        "method II / method III norm inequalities",
        passed,
        f"largest violations {worst2:.2e} (II), {worst3:.2e} (III), slack {INEQUALITY_SLACK:g}",
    )


def check_method_iii_consistency(
    rng: np.random.Generator,
    trials: int = 10,
    alphas: tuple[float, ...] = (1e-6, 1e-3, 1.0),
) -> CheckResult:
    """Weighted-penalty solve equals an independent least-squares solve.

    tikhonov(A, b, alpha, weights=w) minimizes |Az - b|^2 + alpha |Wz|^2
    through the SVD of A W^{-1}; the reference solves the stacked system
    [A; sqrt(alpha) W] z = [b; 0] with lstsq, which shares no code with it.
    """
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(3, 9))
        m = n + int(rng.integers(1, 8))
        A = random_rank_deficient(rng, m, n, n)
        w = rng.uniform(0.2, 1.0, size=n)
        for alpha in alphas:
            b = rng.standard_normal(m)
            z = tikhonov(A, b, alpha, weights=w)
            stacked = np.vstack([A, np.sqrt(alpha) * np.diag(w)])
            ref = np.linalg.lstsq(stacked, np.concatenate([b, np.zeros(n)]), rcond=None)[0]
            worst = max(worst, float(np.linalg.norm(z - ref) / np.linalg.norm(ref)))
    return CheckResult(
        "weighted-penalty solve matches stacked lstsq",
        worst <= 1e-10,
        f"worst relative gap {worst:.2e} over alphas {list(alphas)} (tol 1e-10)",
    )


def check_projector_properties(sd: SpectralData) -> CheckResult:
    """P is an orthogonal projector; weights equal their scalar optima."""
    P = sd.projector()
    idem = float(np.linalg.norm(P @ P - P, 2))
    sym = float(np.linalg.norm(P - P.T, 2))
    w = sd.p_norms
    in_range = bool(np.all((w > 0) & (w <= 1 + 1e-12)))
    opt = max(
        abs(optimal_scalar_weight(sd, i) - w[i]) for i in range(len(w))
    )
    passed = idem <= 1e-10 and sym <= 1e-12 and in_range and opt <= 1e-12
    return CheckResult(
        "projector idempotent/symmetric, weights in (0, 1] and optimal",
        passed,
        f"|P^2-P|={idem:.2e}, |P-P^T|={sym:.2e}, max weight gap {opt:.2e}",
    )


def run_all() -> list[CheckResult]:
    """Execute the full property suite."""
    rng = np.random.default_rng(2024)
    results = [
        check_minimum_norm_projection(rng, trials=50),
        check_method_iii_consistency(rng, trials=10),
    ]
    # The limit-realization checks carry tolerances calibrated for the
    # canonical 8x8-cell system; finer meshes shrink the smallest retained
    # singular value and push pseudo-inverse round-off past those slacks.
    for cells in (8, 16):
        fm, sd = crime_system(mesh_cells=cells)
        label = f" [{cells}x{cells}-cell mesh]"
        checks = [check_argmax_recovery(fm, sd), check_projector_properties(sd)]
        if cells == 8:
            checks.insert(1, check_expansion_identity(fm, sd))
            checks.insert(2, check_norm_inequalities(fm, sd))
        for check in checks:
            check.name += label
            results.append(check)
    return results
