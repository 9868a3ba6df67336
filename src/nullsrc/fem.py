"""P1 finite elements for -div(sigma grad u) + eps*u = f with zero Neumann data.

All element integrals are exact for the piecewise-linear ansatz: the
element mass matrix is area/12 * [[2,1,1],[1,2,1],[1,1,2]], gradients are
constant per triangle, and boundary edges carry length/6 * [[2,1],[1,2]].
The state matrix of a system is factored once, by one sparse LU, and the
factor is shared by every solve on that system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import NonPositiveCoefficient, SingularState
from .mesh import Mesh, triangle_areas

PIVOT_TOL = 1e-12


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
        cent = mesh.nodes[mesh.triangles].mean(axis=1)
        return cls.diagonal(f1(cent[:, 0], cent[:, 1]), f2(cent[:, 0], cent[:, 1]))


@dataclass(frozen=True)
class FemSystem:
    """Assembled matrices for one mesh, epsilon and coefficient field.

    K_sigma and M are n_nodes x n_nodes sparse; B is the dense boundary
    mass matrix in boundary-node order; S = K_sigma + epsilon*M is the
    state matrix; trace_map selects boundary values from nodal vectors.
    """

    K_sigma: scipy.sparse.csr_matrix
    M: scipy.sparse.csr_matrix
    B: np.ndarray
    S: scipy.sparse.csr_matrix
    epsilon: float
    trace_map: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.M.shape[0]

    @cached_property
    def solver(self) -> "StateSolver":
        """The one factorization of S, made on first use and shared afterwards."""
        return StateSolver(self)

    @cached_property
    def R(self) -> np.ndarray:
        """Upper-triangular Cholesky factor of the boundary mass matrix, B = R^T R."""
        return np.linalg.cholesky(self.B).T


def assemble(mesh: Mesh, epsilon: float, sigma: CoefficientField | None = None) -> FemSystem:
    """Assemble stiffness, mass, boundary-mass and state matrices.

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

    p = mesh.nodes[mesh.triangles]  # (n_tri, 3, 2)
    x, y = p[..., 0], p[..., 1]
    area = triangle_areas(mesh)
    # P1 gradient coefficients: grad(lambda_i) = (b_i, c_i) / (2*area)
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)

    ke = (
        k1[:, None, None] * b[:, :, None] * b[:, None, :]
        + k2[:, None, None] * c[:, :, None] * c[:, None, :]
    ) / (4.0 * area)[:, None, None]
    me_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = area[:, None, None] * me_ref[None, :, :]

    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_nodes
    K = scipy.sparse.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = scipy.sparse.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n)).tocsr()

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

    S = (K + epsilon * M).tocsr()
    return FemSystem(K_sigma=K, M=M, B=B, S=S, epsilon=epsilon, trace_map=bnodes.copy())


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
