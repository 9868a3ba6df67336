"""Regularized inversion: standard Tikhonov, the three weighted methods,
minimum-norm least squares, and discrepancy-principle parameter selection.

Every method is Tikhonov for A_hat (standard, I, min-norm) or A_hat W^{-1}
(II, III), solved by one filter over a thin SVD; alpha = 0 is the exact
truncated-SVD limit. The stored residual is the data-fit term of each
method's own problem, monotone in alpha and recomputable from the coeffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GammaTooLarge, GammaTooSmall, IllConditioned
from .spectral import RANK_TOL_REL, ForwardModel, SpectralData, Svd, thin_svd

ARGMAX_TIE_TOL = 1e-8


class Method(Enum):
    STANDARD_TIKHONOV = "standard_tikhonov"
    METHOD_I = "method_i"
    METHOD_II = "method_ii"
    METHOD_III = "method_iii"
    MIN_NORM = "min_norm"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one regularized solve, in control-basis coefficients.

    argmax_cell is the smallest index attaining the maximum coefficient;
    argmax_tieset lists all indices within the tie tolerance of it. On
    uniform control grids coefficient order equals cell-value order.
    """

    coeffs: np.ndarray
    alpha: float
    residual: float
    method: Method
    argmax_cell: int
    argmax_tieset: tuple[int, ...]


def _argmax_tieset(coeffs: np.ndarray, tol: float = ARGMAX_TIE_TOL) -> tuple[int, tuple[int, ...]]:
    if not np.isfinite(coeffs).all():
        raise IllConditioned("solution coefficients are not all finite")
    ties = np.flatnonzero(coeffs >= coeffs.max() - tol).tolist()
    return ties[0], tuple(ties)


def _filter(svd: Svd, b: np.ndarray, alpha: float, rank: int | None = None) -> tuple[np.ndarray, float]:
    """Minimizer of |M x - b|^2 + alpha |x|^2 for M = U diag(s) V^T, and |M x - b|.

    x = V diag(f) U^T b with f = s/(s^2+alpha); alpha = 0 is the
    pseudo-inverse over the leading `rank` triplets. g is the share of
    c = U^T b left unfitted, so the residual needs no product M x.
    """
    U, s, V = svd
    c = U.T @ b
    if alpha > 0:
        denom = s**2 + alpha
        f, g = s / denom, alpha / denom
    else:
        f, g = np.zeros_like(s), np.ones_like(s)
        f[:rank], g[:rank] = 1.0 / s[:rank], 0.0
    residual = math.hypot(np.linalg.norm(g * c), np.linalg.norm(b - U @ c))
    return V @ (f * c), residual


def tikhonov(
    A_hat: np.ndarray,
    b_hat: np.ndarray,
    alpha: float,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Solve min |A_hat z - b_hat|^2 + alpha |W z|^2, unique for alpha > 0.

    weights holds the positive diagonal of W (identity when absent). With
    y = W z this is plain Tikhonov for A_hat W^{-1}: an SVD of that
    matrix, the filter factors s/(s^2+alpha), then z = W^{-1} y.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    M = np.atleast_2d(np.asarray(A_hat, dtype=np.float64))
    w = np.ones(M.shape[1]) if weights is None else np.asarray(weights, dtype=np.float64)
    return _filter(thin_svd(M / w), np.asarray(b_hat, dtype=np.float64), alpha)[0] / w


def min_norm_lsq(
    A_hat: np.ndarray, b_hat: np.ndarray, rank_tol_rel: float = RANK_TOL_REL
) -> np.ndarray:
    """Minimum-norm least-squares solution via the truncated-SVD pseudo-inverse."""
    U, s, V = thin_svd(np.asarray(A_hat, dtype=np.float64))
    r = int(np.sum(s > rank_tol_rel * s[0])) if s.size and s[0] > 0 else 0
    return _filter((U, s, V), np.asarray(b_hat, dtype=np.float64), 0.0, r)[0]


def residual_from_coeffs(
    A_hat: np.ndarray,
    sd: SpectralData,
    method: Method,
    coeffs: np.ndarray,
    b_hat: np.ndarray,
) -> float:
    """Data-fit residual of a method's optimization problem, from its coeffs."""
    w = sd.p_norms
    if method is Method.METHOD_I:
        fit = A_hat @ (coeffs * w)  # optimization variable is W * coeffs
    elif method is Method.METHOD_II:
        fit = A_hat @ (coeffs / w)  # operator acts through W^{-1}
    elif method is Method.METHOD_III:
        fit = A_hat @ coeffs  # same optimum as Method II, z = W^{-1} y
    else:
        fit = A_hat @ coeffs
    return float(np.linalg.norm(fit - b_hat))


def solve_method(
    model: ForwardModel, sd: SpectralData, b_hat: np.ndarray, alpha: float, method: Method
) -> SolveResult:
    """Solve one method through the SVDs stored on sd; min_norm reports alpha 0."""
    if method is Method.MIN_NORM:
        alpha = 0.0
    elif not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    svd = sd.weighted_svd if method in (Method.METHOD_II, Method.METHOD_III) else (sd.U, sd.s, sd.V)
    x, residual = _filter(svd, np.asarray(b_hat, dtype=np.float64), alpha, sd.rank)
    if method in (Method.METHOD_I, Method.METHOD_III):
        x = x / sd.p_norms
    cell, ties = _argmax_tieset(x)
    return SolveResult(x, alpha, residual, method, cell, ties)


def standard_tikhonov(
    model: ForwardModel, sd: SpectralData, b_hat: np.ndarray, alpha: float
) -> SolveResult:
    """Unweighted Tikhonov solution."""
    return solve_method(model, sd, b_hat, alpha, Method.STANDARD_TIKHONOV)


def method_I(
    model: ForwardModel, sd: SpectralData, b_hat: np.ndarray, alpha: float
) -> SolveResult:
    """Standard Tikhonov followed by the inverse weight scaling."""
    return solve_method(model, sd, b_hat, alpha, Method.METHOD_I)


def method_II(
    model: ForwardModel, sd: SpectralData, b_hat: np.ndarray, alpha: float
) -> SolveResult:
    """Tikhonov for the rescaled operator A_hat W^{-1}."""
    return solve_method(model, sd, b_hat, alpha, Method.METHOD_II)


def method_III(
    model: ForwardModel, sd: SpectralData, b_hat: np.ndarray, alpha: float
) -> SolveResult:
    """Tikhonov with the weighted penalty |W z|; equals W^{-1} of method II."""
    return solve_method(model, sd, b_hat, alpha, Method.METHOD_III)


def min_norm_solve(model: ForwardModel, sd: SpectralData, b_hat: np.ndarray) -> SolveResult:
    """Pseudo-inverse solution computed from the stored SVD."""
    return solve_method(model, sd, b_hat, 0.0, Method.MIN_NORM)


def morozov(
    model: ForwardModel,
    sd: SpectralData,
    b_hat: np.ndarray,
    gamma: float,
    method: Method = Method.METHOD_II,
    alpha_range: tuple[float, float] = (1e-14, 1e6),
    rel_tol: float = 1e-3,
) -> tuple[float, SolveResult]:
    """Pick alpha so the method's residual matches the noise norm gamma.

    Bisects on log(alpha) using the monotonicity of the residual. Raises
    GammaTooSmall / GammaTooLarge when gamma falls outside the residual
    range attainable on alpha_range.
    """
    if gamma <= 0:
        raise GammaTooSmall(f"discrepancy target must be positive, got {gamma!r}")
    if method is Method.MIN_NORM:
        raise ValueError("discrepancy principle needs an alpha-dependent method")
    lo, hi = alpha_range
    if not (0 < lo < hi):
        raise ValueError(f"invalid alpha range {alpha_range!r}")

    def res_at(alpha: float) -> SolveResult:
        return solve_method(model, sd, b_hat, alpha, method)

    r_lo = res_at(lo)
    if abs(r_lo.residual - gamma) <= rel_tol * gamma:
        return lo, r_lo
    if r_lo.residual > gamma:
        raise GammaTooSmall(
            f"gamma={gamma!r} below the minimal attainable residual {r_lo.residual!r}"
        )
    r_hi = res_at(hi)
    if abs(r_hi.residual - gamma) <= rel_tol * gamma:
        return hi, r_hi
    if r_hi.residual < gamma:
        raise GammaTooLarge(
            f"gamma={gamma!r} above the largest attainable residual {r_hi.residual!r}"
        )

    llo, lhi = math.log(lo), math.log(hi)
    best = None
    for _ in range(200):
        mid = math.exp(0.5 * (llo + lhi))
        r_mid = res_at(mid)
        if abs(r_mid.residual - gamma) <= rel_tol * gamma:
            best = (mid, r_mid)
            break
        if r_mid.residual < gamma:
            llo = math.log(mid)
        else:
            lhi = math.log(mid)
    if best is None:
        raise IllConditioned("discrepancy bisection failed to converge")
    return best
