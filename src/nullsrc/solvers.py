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
from .spectral import RANK_TOL_REL, ForwardModel, SpectralData, Svd, numerical_rank, thin_svd

ARGMAX_TIE_TOL = 1e-8
MOROZOV_ALPHA_RANGE = (1e-14, 1e6)  # default discrepancy-search bracket
MOROZOV_REL_TOL = 1e-3


class Method(Enum):
    STANDARD_TIKHONOV = "standard_tikhonov"
    METHOD_I = "method_i"
    METHOD_II = "method_ii"
    METHOD_III = "method_iii"
    MIN_NORM = "min_norm"


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of one regularized solve, in control-basis coefficients.

    argmax_cell is the smallest index attaining the maximum coefficient;
    argmax_tieset lists all indices within the tie tolerance of it. On
    uniform control grids coefficient order equals cell-value order.
    """

    coeffs: np.ndarray
    alpha: float
    residual: float
    argmax_cell: int
    argmax_tieset: tuple[int, ...]


def _gains(s: np.ndarray, alpha: float, rank: int | None = None) -> np.ndarray:
    """Filter factors s/(s^2+alpha); alpha = 0 inverts the leading `rank` s only."""
    if alpha > 0:
        return s / (s**2 + alpha)
    f = np.zeros_like(s)
    f[:rank] = 1.0 / s[:rank]
    return f


def _residual(c: np.ndarray, s: np.ndarray, alpha: float, floor: float, rank: int | None = None) -> float:
    """|M x - b| of the filtered solution, from c = U^T b and floor = |b - U c|.

    g is the share of each c_i left unfitted (all of it past the rank cut
    at alpha = 0), so the residual needs no product M x.
    """
    if alpha > 0:
        g = alpha / (s**2 + alpha)
    else:
        g = np.ones_like(s)
        g[:rank] = 0.0
    return math.hypot(np.linalg.norm(g * c), floor)


def _filter(svd: Svd, c: np.ndarray, alpha: float, rank: int | None = None) -> np.ndarray:
    """Minimizer x of |M x - b|^2 + alpha |x|^2 for M = U diag(s) V^T, from c = U^T b;
    c is (r,) or (r, k), solved column by column, and alpha = 0 is the pseudo-inverse
    over the leading `rank` triplets."""
    _, s, V = svd
    return V @ (_gains(s, alpha, rank) * c.T).T  # c.T: the gains scale the rows of a 2-D c


def tikhonov(
    A_hat: np.ndarray,
    b_hat: np.ndarray,
    alpha: float,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Solve min |A_hat z - b_hat|^2 + alpha |W z|^2 for a finite alpha > 0.

    weights holds the positive diagonal of W (identity when absent). With
    y = W z this is plain Tikhonov for A_hat W^{-1}: an SVD of that
    matrix, the filter factors s/(s^2+alpha), then z = W^{-1} y.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    M = np.atleast_2d(np.asarray(A_hat, dtype=np.float64))
    w = np.ones(M.shape[1]) if weights is None else np.asarray(weights, dtype=np.float64)
    svd = thin_svd(M / w)
    return _filter(svd, svd[0].T @ np.asarray(b_hat, dtype=np.float64), alpha) / w


def min_norm_lsq(
    A_hat: np.ndarray, b_hat: np.ndarray, rank_tol_rel: float = RANK_TOL_REL
) -> np.ndarray:
    """Minimum-norm least squares by the truncated-SVD pseudo-inverse, from an SVD of its
    own (no SpectralData); one SVD serves every column of a 2-D b_hat."""
    svd = thin_svd(np.asarray(A_hat, dtype=np.float64))
    c = svd[0].T @ np.asarray(b_hat, dtype=np.float64)
    return _filter(svd, c, 0.0, numerical_rank(svd[1], rank_tol_rel))


def _operator_svd(sd: SpectralData, method: Method) -> Svd:
    """Stored SVD of the operator a method inverts: A_hat W^{-1} for II and III."""
    return sd.weighted_svd if method in (Method.METHOD_II, Method.METHOD_III) else (sd.U, sd.s, sd.V)


def _method_filter(sd: SpectralData, c: np.ndarray, alpha: float, method: Method) -> np.ndarray:
    """method_coeffs from c = U^T b on the method's operator."""
    x = _filter(_operator_svd(sd, method), c, 0.0 if method is Method.MIN_NORM else alpha, sd.rank)
    if method in (Method.METHOD_I, Method.METHOD_III):
        x = (x.T / sd.p_norms).T  # x.T: the weights scale the rows of a 2-D x
    if not np.isfinite(x).all():
        raise IllConditioned("solution coefficients are not all finite")
    return x


def method_coeffs(sd: SpectralData, b_hat: np.ndarray, alpha: float, method: Method) -> np.ndarray:
    """One method's coefficients for b_hat of shape (m,) or (m, k), column by column,
    from the SVDs on sd; alpha = 0 (always, for min_norm) is the truncated-SVD limit."""
    U = _operator_svd(sd, method)[0]
    return _method_filter(sd, U.T @ np.asarray(b_hat, dtype=np.float64), alpha, method)


def solve_method(
    model: ForwardModel, sd: SpectralData, b_hat: np.ndarray, alpha: float, method: Method
) -> SolveResult:
    """Solve one method through the SVDs stored on sd; min_norm reports alpha 0."""
    if method is Method.MIN_NORM:
        alpha = 0.0
    elif not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    U, _, _ = _operator_svd(sd, method)
    b = np.asarray(b_hat, dtype=np.float64)
    c = U.T @ b
    return _solved(sd, c, np.linalg.norm(b - U @ c), alpha, method)


def _solved(sd: SpectralData, c: np.ndarray, floor: float, alpha: float, method: Method) -> SolveResult:
    """solve_method from c = U^T b and floor = |b - U c| on the method's operator."""
    x = _method_filter(sd, c, alpha, method)
    residual = _residual(c, _operator_svd(sd, method)[1], alpha, floor, sd.rank)
    ties = np.flatnonzero(x >= x.max() - ARGMAX_TIE_TOL).tolist()
    return SolveResult(x, alpha, residual, ties[0], tuple(ties))


def morozov(
    model: ForwardModel,
    sd: SpectralData,
    b_hat: np.ndarray,
    gamma: float,
    method: Method = Method.METHOD_II,
    alpha_range: tuple[float, float] = MOROZOV_ALPHA_RANGE,
    rel_tol: float = MOROZOV_REL_TOL,
) -> tuple[float, SolveResult]:
    """Pick alpha so the method's residual matches the noise norm gamma.

    Bisects on log(alpha) using the monotonicity of the residual. The
    search runs on the coefficients c = U^T b of the method's operator and
    the floor |b - U c|, where each residual is a scalar, and the one final
    solve at the chosen alpha reuses that c and floor, so it equals
    solve_method at that alpha bit for bit. Raises GammaTooSmall /
    GammaTooLarge when gamma falls outside the residual range attainable
    on alpha_range.
    """
    if gamma <= 0:
        raise GammaTooSmall(f"discrepancy target must be positive, got {gamma!r}")
    if method is Method.MIN_NORM:
        raise ValueError("discrepancy principle needs an alpha-dependent method")
    lo, hi = alpha_range
    if not (0 < lo < hi < math.inf):
        raise ValueError(f"invalid alpha range {alpha_range!r}")
    U, s, _ = _operator_svd(sd, method)
    b = np.asarray(b_hat, dtype=np.float64)
    c = U.T @ b
    floor = np.linalg.norm(b - U @ c)
    if not math.isfinite(floor):
        raise IllConditioned("discrepancy data are not all finite")

    def met(residual: float) -> bool:
        return abs(residual - gamma) <= rel_tol * gamma

    def solved(alpha: float) -> tuple[float, SolveResult]:
        return alpha, _solved(sd, c, floor, alpha, method)

    r_lo = _residual(c, s, lo, floor)
    if met(r_lo):
        return solved(lo)
    if r_lo > gamma:
        raise GammaTooSmall(f"gamma={gamma!r} below the minimal attainable residual {r_lo!r}")
    r_hi = _residual(c, s, hi, floor)
    if met(r_hi):
        return solved(hi)
    if r_hi < gamma:
        raise GammaTooLarge(f"gamma={gamma!r} above the largest attainable residual {r_hi!r}")

    llo, lhi = math.log(lo), math.log(hi)
    for _ in range(200):
        mid = math.exp(0.5 * (llo + lhi))
        r_mid = _residual(c, s, mid, floor)
        if met(r_mid):
            return solved(mid)
        if r_mid < gamma:
            llo = math.log(mid)
        else:
            lhi = math.log(mid)
    raise IllConditioned("discrepancy bisection failed to converge")
