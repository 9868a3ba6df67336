"""P1 finite elements for -div(sigma grad u) + eps*u = f with zero Neumann data.

All element integrals are exact for the piecewise-linear ansatz: the
element mass matrix is area/12 * [[2,1,1],[1,2,1],[1,1,2]], gradients are
constant per triangle, and boundary edges carry length/6 * [[2,1],[1,2]].
A system keeps its mesh, epsilon and the state matrix S; the boundary
mass B and its Cholesky factor are built from the mesh on first use, so a
system that only solves never makes them. stiffness_and_mass builds the
stiffness and mass matrices from the element matrices S is summed from.
The state matrix of a system is factored once, by one sparse LU, and the
factor is shared by every solve on that system; a factorization that finds
S singular is not repeated either.

Synthetic data on a nested fine mesh need one fine solve, through one
symmetric two-grid cycle on the coarse system's factor (Hackbusch,
Multi-Grid Methods and Applications, 1985) as preconditioner, so the fine
matrix is not factored:
- epsilon > 0: S is symmetric positive definite, and the solve is
  conjugate gradients;
- epsilon <= 0: S is symmetric but may be indefinite, and the solve is
  Bi-CGSTAB (van der Vorst, SIAM J. Sci. Stat. Comput., 1992).
Without a coarse system, or when the Krylov solve stalls or misses its
iteration cap, the fine matrix gets its own sparse LU.

Singular states (pure Neumann, a resonance) raise SingularState. Every LU
checks its pivot ratio against PIVOT_TOL. For epsilon <= 0 that check
misses some resonances, so every solve path for those systems also runs
one probe: it solves S z = r for a seeded standard-normal r and estimates
est = |r| / (|z| |S|_1). If the solve's true residual is at most eta |r|,
then est >= sigma_min(S) / ((1 + eta) |S|_1), so a nonsingular system is
never flagged; at a resonance r has a component of about |r| / sqrt(n)
along the null vector, and est stays near sigma_min sqrt(n) / |S|_1 while
eta is well below 1 / sqrt(n). The state is singular when est is below
SINGULAR_TOL. On the Krylov path the probe is a second Bi-CGSTAB solve to
PROBE_RTOL, and it decides only when its true residual is at most
2 PROBE_RTOL; otherwise the fine LU, which carries the probe, decides.
Epsilon > 0 skips the probe: there est scales as epsilon h^2, which at
fine meshes comes near any threshold that resonances stay below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import NonPositiveCoefficient, SingularState
from .mesh import Mesh, prolongation

PIVOT_TOL = 1e-12
SINGULAR_TOL = 1e-10  # the probe's est; epsilon < 0 presets read 1e-3, resonances 1e-13
PROBE_RTOL = 1e-4  # Bi-CGSTAB tolerance of the probe solve
CG_RTOL = 1e-12
CG_MAXITER = 50  # the presets need 16; strong anisotropy needs hundreds
CG_CHECK_AT = 10  # iteration at which CG stops if its pace cannot meet CG_RTOL
JACOBI_OMEGA = 0.6


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Diffusivity sigma = diag(kappa1, kappa2), one value per triangle (see SigmaSpec)."""

    kappa1: np.ndarray
    kappa2: np.ndarray

    @classmethod
    def identity(cls, mesh: Mesh) -> "CoefficientField":
        ones = np.ones(mesh.n_triangles)
        return cls(ones, ones.copy())


@dataclass(frozen=True, eq=False)
class FemSystem:
    """The state matrix of one mesh, epsilon and coefficient field.

    S = K_sigma + epsilon*M is the sparse n_nodes x n_nodes state matrix;
    mesh.boundary_nodes selects boundary values from nodal vectors.
    K_sigma and M are not kept (see stiffness_and_mass).
    """

    mesh: Mesh
    S: scipy.sparse.csr_matrix
    epsilon: float

    @property
    def n_nodes(self) -> int:
        return self.S.shape[0]

    @property
    def solver(self) -> "StateSolver":
        """The one factorization of S, made on first use and shared afterwards.

        A SingularState from that factorization is kept, and raised again on
        every later use, so a singular S is factored and probed once.
        """
        factor = self._factor
        if isinstance(factor, str):
            raise SingularState(factor)
        return factor

    @cached_property
    def _factor(self) -> "StateSolver | str":
        try:
            return StateSolver(self)
        except SingularState as exc:
            return str(exc)  # its traceback would hold the failed factor

    @cached_property
    def B(self) -> np.ndarray:
        """Dense boundary mass matrix of the mesh, in boundary-node order."""
        mesh = self.mesh
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
        return B

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
    # (k1 b_i b_j + k2 c_i c_j) / (4 area), summed and scaled in place
    ke = k1 * b[:, None] * b[None, :]
    ke += k2 * c[:, None] * c[None, :]
    ke /= 4.0 * area
    return ke, area * _MASS_REF[:, :, None]


def _global(mesh: Mesh, element: np.ndarray) -> scipy.sparse.csr_matrix:
    """Sum (3, 3, n_tri) element matrices into one n_nodes x n_nodes CSR matrix.

    Entries enter in triangle-major order, which fixes the order in which
    the conversion sums each node pair's contributions. The row and column
    indices are int32, the dtype scipy converts them to anyway, so the
    conversion makes no copy of them.
    """
    triangles = mesh.triangles.astype(np.int32)
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
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
    """Assemble the state matrix.

    Each triangle's epsilon-scaled mass is added in place into its
    stiffness, and the mass array is dropped before S is built from the
    sums by one sparse conversion. The sums and their triangle-major order
    are those of ke + epsilon * me, so S has the same bits.

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
    me *= epsilon
    ke += me
    del me
    return FemSystem(mesh, _global(mesh, ke), epsilon)


class StateSolver:
    """Sparse LU factorization of the state matrix, reusable across many loads.

    One path for every epsilon: scipy's splu of S in CSC form with its
    default column ordering. The state is declared singular (pure Neumann
    problem or a resonance) when the factorization breaks down, when the
    smallest |diag U| falls below PIVOT_TOL times the largest, or, for
    epsilon <= 0, when the probe through the factor reads below
    SINGULAR_TOL.
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
        if sys.epsilon <= 0:
            _probe(sys, self._lu.solve)  # part of the factorization, not a solve of a load

    def solve(self, load: np.ndarray) -> np.ndarray:
        """Solve S*u = load for one vector or a matrix of stacked columns."""
        return self._lu.solve(np.asarray(load, dtype=np.float64))


def _probe(sys: FemSystem, solve) -> None:
    """Raise SingularState when S looks singular to one solve of a random load.

    solve(r) returns z with S z close to r; see the module docstring for
    the estimate and its bound. It may raise to decline the decision.
    """
    r = np.random.default_rng(0).standard_normal(sys.n_nodes)
    z = solve(r)
    est = np.linalg.norm(r) / (np.linalg.norm(z) * abs(sys.S).sum(axis=0).max())
    if not est >= SINGULAR_TOL:
        raise SingularState(
            f"state matrix numerically singular at epsilon={sys.epsilon!r}: sigma_min "
            f"estimate {est:.2g} of |S|_1 is below {SINGULAR_TOL:g} (near a resonance)"
        )


@dataclass(frozen=True)
class DataSolve:
    """How a data system was solved; deterministic, so manifests may carry it."""

    method: str  # "two_grid_cg", "two_grid_bicgstab" or "splu"
    iterations: int = 0  # Krylov iterations of the data solve; 0 when none was tried
    fallback: str | None = None  # why a Krylov attempt gave way to splu


class _Stalled(Exception):
    """Stops a Krylov solve, or its probe, and hands the data solve to splu."""


def solve_data(
    sys: FemSystem, load: np.ndarray, coarse: FemSystem | None = None
) -> tuple[np.ndarray, DataSolve]:
    """Solve S*u = load once, for one right-hand side.

    With a coarse system whose mesh refine_uniform turns into sys's mesh,
    this is a Krylov solve preconditioned by a symmetric two-grid cycle:
    damped Jacobi, the coarse correction P S_c^-1 P^T r through
    coarse.solver with P = prolongation(coarse.mesh), then Jacobi again.
    The Krylov method is CG for epsilon > 0 and Bi-CGSTAB otherwise;
    Bi-CGSTAB is followed by the singularity probe as a second Bi-CGSTAB
    solve (see the module docstring). Without a coarse system, or when the
    Krylov solve misses CG_RTOL within CG_MAXITER iterations or the probe
    cannot verify its own residual, sys.solver (sparse LU) solves it. The
    Krylov solve also gives up after CG_CHECK_AT iterations when its true
    relative residual r there, continued at the same rate to CG_MAXITER
    iterations (r^(CG_MAXITER / CG_CHECK_AT)), would still exceed CG_RTOL.
    """
    if coarse is None:
        return sys.solver.solve(load), DataSolve("splu")
    S, P = sys.S, prolongation(coarse.mesh)
    jacobi = JACOBI_OMEGA / S.diagonal()
    restrict = P.T.tocsr()

    def two_grid(r: np.ndarray) -> np.ndarray:
        x = jacobi * r
        x += P @ coarse.solver.solve(restrict @ (r - S @ x))
        x += jacobi * (r - S @ x)
        return x

    cycle = scipy.sparse.linalg.LinearOperator(S.shape, matvec=two_grid, dtype=np.float64)
    if sys.epsilon > 0:
        krylov, name, method = scipy.sparse.linalg.cg, "CG", "two_grid_cg"
    else:
        krylov, name, method = scipy.sparse.linalg.bicgstab, "BiCGStab", "two_grid_bicgstab"
    iterations = 0
    b_norm = np.linalg.norm(load)

    def count(x: np.ndarray) -> None:
        nonlocal iterations
        iterations += 1
        if iterations == CG_CHECK_AT:
            rel = np.linalg.norm(load - S @ x) / b_norm
            if rel ** (CG_MAXITER / CG_CHECK_AT) > CG_RTOL:
                raise _Stalled(
                    f"two-grid {name} stalled at relative residual {rel:.2g} after "
                    f"{CG_CHECK_AT} iterations; that pace misses rtol {CG_RTOL:g} in {CG_MAXITER}"
                )

    def verified(r: np.ndarray) -> np.ndarray:
        z, _ = krylov(S, r, rtol=PROBE_RTOL, atol=0.0, maxiter=CG_MAXITER, M=cycle)
        rel = np.linalg.norm(r - S @ z) / np.linalg.norm(r)
        if not rel <= 2 * PROBE_RTOL:
            raise _Stalled(
                f"the two-grid {name} singularity probe reached relative residual "
                f"{rel:.2g}, above {2 * PROBE_RTOL:g}"
            )
        return z

    try:
        u, info = krylov(
            S, load, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAXITER, M=cycle, callback=count
        )
        if info != 0:
            raise _Stalled(f"two-grid {name} missed rtol {CG_RTOL:g} in {CG_MAXITER} iterations")
        if sys.epsilon <= 0:
            _probe(sys, verified)
    except _Stalled as stall:
        return sys.solver.solve(load), DataSolve("splu", iterations, str(stall))
    return u, DataSolve(method, iterations)
