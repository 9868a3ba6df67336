"""P1 finite elements for -div(sigma grad u) + eps*u = f with zero Neumann data.

All element integrals are exact for the piecewise-linear ansatz: the
element mass matrix is area/12 * [[2,1,1],[1,2,1],[1,1,2]], gradients are
constant per triangle, and boundary edges carry length/6 * [[2,1],[1,2]].
A system keeps only what runs read, the state matrix S and the boundary
mass B; stiffness_and_mass builds the stiffness and mass matrices from the
element matrices S is summed from.
The state matrix of a system is factored once, by one sparse LU, and the
factor is shared by every solve on that system.

Synthetic data on a nested fine mesh need one fine solve. For epsilon > 0
the fine state matrix is symmetric positive definite, and that solve is
conjugate gradients preconditioned by one symmetric two-grid cycle through
the coarse system's factor (Hackbusch, Multi-Grid Methods and
Applications, 1985), so the fine matrix is never factored. For
epsilon <= 0, or when CG misses its iteration cap, the fine matrix gets
its own sparse LU.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import NonPositiveCoefficient, SingularState
from .mesh import Mesh

PIVOT_TOL = 1e-12
CG_RTOL = 1e-12
CG_MAXITER = 50  # the presets need 16; strong anisotropy needs hundreds
CG_CHECK_AT = 10  # iteration at which CG stops if its pace cannot meet CG_RTOL
JACOBI_OMEGA = 0.6


@dataclass(frozen=True)
class CoefficientField:
    """Diffusivity sigma = diag(kappa1, kappa2), constant per triangle."""

    kappa1: np.ndarray
    kappa2: np.ndarray

    @classmethod
    def identity(cls, mesh: Mesh) -> "CoefficientField":
        ones = np.ones(mesh.n_triangles)
        return cls(ones, ones.copy())

    @classmethod
    def diagonal(cls, kappa1: np.ndarray, kappa2: np.ndarray) -> "CoefficientField":
        return cls(np.asarray(kappa1, dtype=np.float64), np.asarray(kappa2, dtype=np.float64))

    @classmethod
    def from_functions(cls, mesh: Mesh, f1, f2) -> "CoefficientField":
        """Sample two callables (x, y) -> kappa at triangle centroids."""
        x, y = mesh.nodes[:, 0][mesh.triangles.T], mesh.nodes[:, 1][mesh.triangles.T]
        cx, cy = (x[0] + x[1] + x[2]) / 3.0, (y[0] + y[1] + y[2]) / 3.0
        return cls.diagonal(f1(cx, cy), f2(cx, cy))


@dataclass(frozen=True)
class FemSystem:
    """Assembled matrices for one mesh, epsilon and coefficient field.

    S = K_sigma + epsilon*M is the sparse n_nodes x n_nodes state matrix;
    B is the dense boundary mass matrix in boundary-node order; trace_map
    selects boundary values from nodal vectors. K_sigma and M are not
    kept (see stiffness_and_mass).
    """

    B: np.ndarray
    S: scipy.sparse.csr_matrix
    epsilon: float
    trace_map: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.S.shape[0]

    @cached_property
    def solver(self) -> "StateSolver":
        """The one factorization of S, made on first use and shared afterwards."""
        return StateSolver(self)

    @cached_property
    def R(self) -> np.ndarray:
        """Upper-triangular Cholesky factor of the boundary mass matrix, B = R^T R."""
        return np.linalg.cholesky(self.B).T


_MASS_REF = (np.ones((3, 3)) + np.eye(3)) / 12.0


def _element_matrices(mesh: Mesh, sigma: CoefficientField | None) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle stiffness and mass matrices, each (3, 3, n_tri): entry
    [i, j, t] couples local vertices i and j of triangle t.

    Raises NonPositiveCoefficient if any per-triangle kappa is not
    strictly positive or the arrays do not have one value per triangle.
    """
    if sigma is None:
        sigma = CoefficientField.identity(mesh)
    k1 = np.asarray(sigma.kappa1, dtype=np.float64)
    k2 = np.asarray(sigma.kappa2, dtype=np.float64)
    if k1.shape != (mesh.n_triangles,) or k2.shape != (mesh.n_triangles,):
        raise NonPositiveCoefficient(
            f"coefficient arrays must have one value per triangle "
            f"({mesh.n_triangles}), got {k1.shape} and {k2.shape}"
        )
    if np.any(k1 <= 0) or np.any(k2 <= 0):
        raise NonPositiveCoefficient("kappa1 and kappa2 must be positive on every triangle")

    # vertex-major (3, n_tri) layouts keep every array operation n_tri long
    x, y = mesh.nodes[:, 0][mesh.triangles.T], mesh.nodes[:, 1][mesh.triangles.T]
    area = mesh.triangle_areas
    # P1 gradient coefficients: grad(lambda_i) = (b_i, c_i) / (2*area)
    b = np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    ke = (k1 * b[:, None] * b[None, :] + k2 * c[:, None] * c[None, :]) / (4.0 * area)
    return ke, area * _MASS_REF[:, :, None]


def _global(mesh: Mesh, element: np.ndarray) -> scipy.sparse.csr_matrix:
    """Sum (3, 3, n_tri) element matrices into one n_nodes x n_nodes CSR matrix.

    Entries enter in triangle-major order, which fixes the order in which
    the conversion sums each node pair's contributions.
    """
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_nodes
    data = element.transpose(2, 0, 1).ravel()
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def stiffness_and_mass(
    mesh: Mesh, sigma: CoefficientField | None = None
) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
    """Stiffness K_sigma and mass M, sparse CSR, from assemble's element matrices.

    sigma defaults to the identity diffusivity; raises NonPositiveCoefficient
    like assemble.
    """
    ke, me = _element_matrices(mesh, sigma)
    return _global(mesh, ke), _global(mesh, me)


def assemble(mesh: Mesh, epsilon: float, sigma: CoefficientField | None = None) -> FemSystem:
    """Assemble the state and boundary-mass matrices.

    Each triangle's stiffness and epsilon-scaled mass are summed into one
    element matrix, and S is built from those by one sparse conversion.

    Parameters
    ----------
    mesh : Mesh
    epsilon : float
        Reaction coefficient; may be negative (Helmholtz regime).
    sigma : CoefficientField, optional
        Defaults to the identity diffusivity.

    Raises
    ------
    NonPositiveCoefficient
        If any per-triangle kappa is not strictly positive.
    """
    ke, me = _element_matrices(mesh, sigma)
    S = _global(mesh, ke + epsilon * me)

    bnodes = mesh.boundary_nodes
    i, j = np.searchsorted(bnodes, mesh.boundary_edges).T
    seg = mesh.nodes[mesh.boundary_edges[:, 0]] - mesh.nodes[mesh.boundary_edges[:, 1]]
    length = np.linalg.norm(seg, axis=1)
    B = np.zeros((len(bnodes), len(bnodes)))
    # every boundary node ends exactly two edges: its diagonal sum is order-free
    np.add.at(
        B,
        (np.concatenate([i, j, i, j]), np.concatenate([i, j, j, i])),
        np.concatenate([length / 3.0, length / 3.0, length / 6.0, length / 6.0]),
    )
    return FemSystem(B=B, S=S, epsilon=epsilon, trace_map=bnodes.copy())


class StateSolver:
    """Sparse LU factorization of the state matrix, reusable across many loads.

    One path for every epsilon: scipy's splu of S in CSC form with its
    default column ordering. The state is declared singular (pure Neumann
    problem or a resonance) when the factorization breaks down or the
    smallest |diag U| falls below PIVOT_TOL times the largest.
    """

    def __init__(self, sys: FemSystem):
        try:
            self._lu = scipy.sparse.linalg.splu(sys.S.tocsc())
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularState(f"state matrix singular at epsilon={sys.epsilon!r}: {exc}") from exc
        diag = np.abs(self._lu.U.diagonal())
        if diag.min() < PIVOT_TOL * diag.max():
            raise SingularState(
                f"state matrix numerically singular at epsilon={sys.epsilon!r} "
                f"(pure Neumann or near a resonance)"
            )

    def solve(self, load: np.ndarray) -> np.ndarray:
        """Solve S*u = load for one vector or a matrix of stacked columns."""
        return self._lu.solve(np.asarray(load, dtype=np.float64))


@dataclass(frozen=True)
class DataSolve:
    """How a data system was solved; deterministic, so manifests may carry it."""

    method: str  # "two_grid_cg" or "splu"
    iterations: int = 0  # CG iterations run; 0 when CG was not tried
    fallback: str | None = None  # why a CG attempt gave way to splu


class _Stalled(Exception):
    """Raised from CG's callback to stop an iteration that cannot converge in time."""


def solve_data(
    sys: FemSystem,
    load: np.ndarray,
    coarse: FemSystem | None = None,
    P: scipy.sparse.csr_matrix | None = None,
) -> tuple[np.ndarray, DataSolve]:
    """Solve S*u = load once, for one right-hand side.

    With a coarse system and the prolongation P from its mesh to sys's
    nested mesh, and epsilon > 0, this is CG preconditioned by a symmetric
    two-grid cycle: damped Jacobi, the coarse correction P S_c^-1 P^T r
    through coarse.solver, then Jacobi again. Otherwise, or when CG misses
    CG_RTOL within CG_MAXITER iterations, sys.solver (sparse LU) solves it.
    CG also gives up after CG_CHECK_AT iterations when its true relative
    residual r there, continued at the same rate to CG_MAXITER iterations
    (r^(CG_MAXITER / CG_CHECK_AT)), would still exceed CG_RTOL.
    """
    if coarse is None or sys.epsilon <= 0:
        return sys.solver.solve(load), DataSolve("splu")
    S = sys.S
    jacobi = JACOBI_OMEGA / S.diagonal()
    restrict = P.T.tocsr()

    def two_grid(r: np.ndarray) -> np.ndarray:
        x = jacobi * r
        x += P @ coarse.solver.solve(restrict @ (r - S @ x))
        x += jacobi * (r - S @ x)
        return x

    iterations = 0
    b_norm = np.linalg.norm(load)

    def count(x: np.ndarray) -> None:
        nonlocal iterations
        iterations += 1
        if iterations == CG_CHECK_AT:
            rel = np.linalg.norm(load - S @ x) / b_norm
            if rel ** (CG_MAXITER / CG_CHECK_AT) > CG_RTOL:
                raise _Stalled(rel)

    try:
        u, info = scipy.sparse.linalg.cg(
            S,
            load,
            rtol=CG_RTOL,
            atol=0.0,
            maxiter=CG_MAXITER,
            M=scipy.sparse.linalg.LinearOperator(S.shape, matvec=two_grid, dtype=np.float64),
            callback=count,
        )
    except _Stalled as stall:
        reason = (
            f"two-grid CG stalled at relative residual {stall.args[0]:.2g} after "
            f"{CG_CHECK_AT} iterations; that pace misses rtol {CG_RTOL:g} in {CG_MAXITER}"
        )
        return sys.solver.solve(load), DataSolve("splu", iterations, reason)
    if info == 0:
        return u, DataSolve("two_grid_cg", iterations)
    reason = f"two-grid CG missed rtol {CG_RTOL:g} in {CG_MAXITER} iterations"
    return sys.solver.solve(load), DataSolve("splu", iterations, reason)
