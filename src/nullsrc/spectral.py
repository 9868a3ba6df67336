"""Whitened forward matrix, nullspace projector norms and the weight operator.

The forward matrix A maps control coefficients to boundary nodal values.
Left-multiplying by the Cholesky factor R of the boundary mass matrix
(B = R^T R) makes Euclidean norms on data equal L2 norms on the boundary,
so a plain SVD of A_hat = R A yields the orthogonal projector P onto the
complement of the nullspace and the per-basis projection norms w_i that
define the diagonal weight operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control_space import ControlBasis, control_load_matrix
from .errors import DegenerateBasis, IllConditioned
from .fem import FemSystem
from .mesh import Mesh

RANK_TOL_REL = 1e-12
DEGENERATE_TOL = 1e-8

Svd = tuple[np.ndarray, np.ndarray, np.ndarray]  # thin SVD (U, s, V), V as columns


@dataclass(frozen=True)
class ForwardModel:
    """Discrete forward map and its whitened version.

    A has one column per basis function (the boundary trace of the state
    it drives); R is the upper-triangular Cholesky factor of the boundary
    mass matrix; A_hat = R A.
    """

    A: np.ndarray
    R: np.ndarray
    A_hat: np.ndarray


@dataclass(frozen=True)
class SpectralData:
    """Thin SVD of the whitened forward matrix and derived quantities.

    p_norms[i] is the norm of the projection of basis function i onto the
    orthogonal complement of the nullspace; these are the diagonal entries
    of the weight operator W.
    """

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray  # right singular vectors as columns, (n, k)
    rank: int
    p_norms: np.ndarray
    rank_tol: float
    weighted_svd: Svd  # of A_hat W^{-1}, the operator of methods II and III

    @property
    def V_r(self) -> np.ndarray:
        return self.V[:, : self.rank]

    def projector(self) -> np.ndarray:
        """Dense orthogonal projector P = V_r V_r^T onto range(A_hat^T)."""
        return self.V_r @ self.V_r.T

    def project(self, x: np.ndarray) -> np.ndarray:
        """Apply P without forming it."""
        return self.V_r @ (self.V_r.T @ np.asarray(x, dtype=np.float64))


def build_forward_model(sys: FemSystem, basis: ControlBasis, mesh: Mesh) -> ForwardModel:
    """Assemble A from one solve of all basis loads against the system's factor.

    The factor and R are the ones cached on sys, so data synthesis on the
    same system reuses them instead of factoring again.
    """
    M_cf = control_load_matrix(basis, mesh)
    A = sys.solver.solve(M_cf)[sys.trace_map, :]
    return ForwardModel(A=A, R=sys.R, A_hat=sys.R @ A)


def thin_svd(M: np.ndarray) -> Svd:
    """Thin SVD of M; a failed SVD raises IllConditioned."""
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"SVD failed: {exc}") from exc
    return U, s, Vt.T


def numerical_rank(s: np.ndarray, tol: float) -> int:
    """Count of singular values (descending) above tol times the largest."""
    return int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0


def spectral_data_from_matrix(A_hat: np.ndarray, rank_tol_rel: float = RANK_TOL_REL) -> SpectralData:
    """SVD analysis of an arbitrary whitened matrix.

    Numerical rank counts singular values above rank_tol_rel times the
    largest one. Raises DegenerateBasis if some basis function projects
    onto the nullspace complement with norm below the invertibility
    threshold (the weight operator would not be invertible).
    """
    A_hat = np.asarray(A_hat, dtype=np.float64)
    if not np.all(np.isfinite(A_hat)):
        raise ValueError("forward matrix contains non-finite entries")
    U, s, V = thin_svd(A_hat)
    rank = numerical_rank(s, rank_tol_rel)
    p_norms = np.linalg.norm(V[:, :rank].T, axis=0)
    bad = np.flatnonzero(p_norms < DEGENERATE_TOL)
    if bad.size:
        i = int(bad[0])
        raise DegenerateBasis(i, float(p_norms[i]))
    return SpectralData(
        U=U, s=s, V=V, rank=rank, p_norms=p_norms, rank_tol=rank_tol_rel,
        weighted_svd=thin_svd(A_hat / p_norms[None, :]),
    )


def analyze(fm: ForwardModel, rank_tol_rel: float = RANK_TOL_REL) -> SpectralData:
    """Spectral analysis of a forward model's whitened matrix."""
    return spectral_data_from_matrix(fm.A_hat, rank_tol_rel)


def optimal_scalar_weight(sd: SpectralData, i: int) -> float:
    """Best scalar c making c*phi_i closest to the normalized projection.

    Closed-form least squares in one scalar: c = (phi_i, P phi_i)/|P phi_i|,
    which collapses to p_norms[i]; computed here from the inner product so
    it can serve as an independent consistency check.
    """
    p_ei = sd.V_r @ sd.V_r[i, :]
    return float(p_ei[i] / sd.p_norms[i])
