"""Rectangular control partitions and the L2-orthonormal characteristic basis.

Each control cell carries the basis function phi_i = chi_i / sqrt(area_i),
so coefficient vectors live in an orthonormal coordinate system: Euclidean
inner products of coefficients equal L2(Omega) inner products of the
represented piecewise-constant functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import IncompatibleGrids, LengthMismatch
from .mesh import Mesh

_GEOM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ControlBasis:
    """Control cells covering the domain, in row-major grid order.

    Attributes
    ----------
    scale : float
        The basis scaling 1/sqrt(cell area); every cell has area 1/(mx*my).
    grid_dims : (mx, my)
    grid_coords : (n, 2) int array
        Integer (gx, gy) grid positions; absent cells (L-shape) are skipped.
        Cell i is the rectangle [gx/mx, (gx+1)/mx] x [gy/my, (gy+1)/my].
    triangle_cells : (n_tri,) int array
        Containing cell of every mesh triangle.
    """

    scale: float
    grid_dims: tuple[int, int]
    grid_coords: np.ndarray
    triangle_cells: np.ndarray

    @property
    def n(self) -> int:
        return self.grid_coords.shape[0]

    @property
    def cell_centers(self) -> np.ndarray:
        """(n, 2) cell midpoints."""
        (mx, my), (gx, gy) = self.grid_dims, self.grid_coords.T
        return np.column_stack([(gx + 0.5) * (1.0 / mx), (gy + 0.5) * (1.0 / my)])


def build_control_basis(mesh: Mesh, mx: int, my: int) -> ControlBasis:
    """Partition the meshed domain into an mx-by-my grid of control cells.

    Every triangle must lie entirely inside one cell (the mesh resolution
    must be an integer multiple of the control resolution), otherwise
    IncompatibleGrids is raised. Cells not covered by the mesh (the removed
    quadrant of an L-shape) are dropped.
    """
    if mx < 1 or my < 1:
        raise IncompatibleGrids(f"control dims must be positive, got {mx}x{my}")
    wx, wy = 1.0 / mx, 1.0 / my
    # vertex-major (3, n_tri) coordinates: sums and min/max combine three rows
    x, y = mesh.nodes[:, 0][mesh.triangles.T], mesh.nodes[:, 1][mesh.triangles.T]
    gx = np.clip(np.floor((x[0] + x[1] + x[2]) / 3.0 / wx).astype(np.int64), 0, mx - 1)
    gy = np.clip(np.floor((y[0] + y[1] + y[2]) / 3.0 / wy).astype(np.int64), 0, my - 1)

    # each triangle's vertices must stay inside the candidate rectangle
    x0, y0 = gx * wx, gy * wy
    inside = (
        (np.minimum(np.minimum(x[0], x[1]), x[2]) >= x0 - _GEOM_TOL)
        & (np.maximum(np.maximum(x[0], x[1]), x[2]) <= x0 + wx + _GEOM_TOL)
        & (np.minimum(np.minimum(y[0], y[1]), y[2]) >= y0 - _GEOM_TOL)
        & (np.maximum(np.maximum(y[0], y[1]), y[2]) <= y0 + wy + _GEOM_TOL)
    )
    if not inside.all():
        t = int(np.flatnonzero(~inside)[0])
        raise IncompatibleGrids(
            f"triangle {t} straddles a control-cell boundary "
            f"(mesh must refine the {mx}x{my} control grid)"
        )

    flat = gy * mx + gx
    present = np.unique(flat)  # ascending == row-major order
    tri_cells = np.searchsorted(present, flat)

    # covered area per cell must equal the full rectangle: cells tile Omega
    covered = np.bincount(tri_cells, mesh.triangle_areas, minlength=len(present))
    if not np.allclose(covered, wx * wy, rtol=1e-10, atol=0.0):
        raise IncompatibleGrids("mesh does not fully tile some control cells")

    return ControlBasis(
        scale=float(1.0 / np.sqrt(wx * wy)),
        grid_dims=(mx, my),
        grid_coords=np.column_stack([present % mx, present // mx]).astype(np.int64),
        triangle_cells=tri_cells,
    )


def control_load_matrix(basis: ControlBasis, mesh: Mesh) -> scipy.sparse.csc_matrix:
    """Sparse (CSC) load matrix M_cf with column i the P1 load vector of phi_i.

    Column entries are integral(phi_i * lambda_k); phi_i is constant on
    each triangle, so every triangle contributes scale * area_T / 3 to
    each of its three vertices (exact). The matrix is built from those
    triplets, three per triangle.
    """
    contrib = basis.scale * mesh.triangle_areas / 3.0
    rows = mesh.triangles.T.ravel()
    cols = np.tile(basis.triangle_cells, 3)
    return scipy.sparse.csc_matrix(
        (np.tile(contrib, 3), (rows, cols)), shape=(mesh.n_nodes, basis.n)
    )


def source_load(basis: ControlBasis, mesh: Mesh, coeffs: np.ndarray) -> np.ndarray:
    """P1 load vector of sum(coeffs_i * phi_i), assembled without M_cf.

    Equals control_load_matrix(...) @ coeffs up to rounding: each triangle
    adds its cell value times area_T / 3 to each of its three vertices.
    """
    per_tri = (coeffs * basis.scale)[basis.triangle_cells] * mesh.triangle_areas / 3.0
    return np.bincount(mesh.triangles.ravel(), np.repeat(per_tri, 3), minlength=mesh.n_nodes)


def coefficients_to_cell_field(basis: ControlBasis, coeffs: np.ndarray) -> np.ndarray:
    """Pointwise cell values of sum(coeffs_i * phi_i)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (basis.n,):
        raise LengthMismatch(f"expected {basis.n} coefficients, got {coeffs.shape}")
    return coeffs * basis.scale


def _axis_overlaps(m_src: int, m_dst: int) -> np.ndarray:
    """(m_src, m_dst) lengths of the overlaps of two uniform partitions of [0, 1]."""
    a = np.arange(m_src + 1) * (1.0 / m_src)
    b = np.arange(m_dst + 1) * (1.0 / m_dst)
    return np.maximum(
        0.0, np.minimum(a[1:, None], b[None, 1:]) - np.maximum(a[:-1, None], b[None, :-1])
    )


def project_cell_function(
    src: ControlBasis, src_coeffs: np.ndarray, dst: ControlBasis
) -> np.ndarray:
    """L2 projection of a source-grid function onto a destination grid.

    Works by exact rectangle-intersection integration, which reduces to
    cell averaging when the destination cells are unions of source cells.
    Control cells are uniform grids on the unit square, so the overlap of
    two cells is the product of their x and y interval overlaps and the
    integrals over every destination cell are oy^T @ (grid @ ox) on the
    source values laid out as a grid (zero where a cell is absent).
    Returns destination basis coefficients.
    """
    values = coefficients_to_cell_field(src, src_coeffs)
    (smx, smy), (dmx, dmy) = src.grid_dims, dst.grid_dims
    grid = np.zeros((smy, smx))
    grid[src.grid_coords[:, 1], src.grid_coords[:, 0]] = values
    integrals = _axis_overlaps(smy, dmy).T @ (grid @ _axis_overlaps(smx, dmx))
    return integrals[dst.grid_coords[:, 1], dst.grid_coords[:, 0]] * dst.scale


def cell_touches_boundary(basis: ControlBasis) -> np.ndarray:
    """Boolean mask: cell has at least one edge on the domain boundary.

    An edge lies on the boundary exactly when there is no neighbouring
    cell across it (cells tile the domain).
    """
    mx, my = basis.grid_dims
    gx, gy = basis.grid_coords.T + 1
    occupied = np.zeros((my + 2, mx + 2), dtype=bool)  # padded by one empty ring
    occupied[gy, gx] = True
    return ~(
        occupied[gy, gx + 1] & occupied[gy, gx - 1] & occupied[gy + 1, gx] & occupied[gy - 1, gx]
    )
