"""Rectangular control partitions and the L2-orthonormal characteristic basis.

Each control cell carries the basis function phi_i = chi_i / sqrt(area_i),
so coefficient vectors live in an orthonormal coordinate system: Euclidean
inner products of coefficients equal L2(Omega) inner products of the
represented piecewise-constant functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleGrids, LengthMismatch
from .mesh import Mesh, triangle_areas

_GEOM_TOL = 1e-12


@dataclass(frozen=True)
class ControlBasis:
    """Control cells covering the domain, in row-major grid order.

    Attributes
    ----------
    cells : (n, 4) float array
        Rectangles (x0, y0, x1, y1).
    areas, scale : (n,) float arrays
        Cell areas and the basis scaling 1/sqrt(area).
    grid_dims : (mx, my)
    cell_centers : (n, 2) float array
    grid_coords : (n, 2) int array
        Integer (gx, gy) grid positions; absent cells (L-shape) are skipped.
    triangle_cells : (n_tri,) int array
        Containing cell of every mesh triangle.
    """

    cells: np.ndarray
    areas: np.ndarray
    scale: np.ndarray
    grid_dims: tuple[int, int]
    cell_centers: np.ndarray
    grid_coords: np.ndarray
    triangle_cells: np.ndarray

    @property
    def n(self) -> int:
        return self.cells.shape[0]


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
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    gx = np.clip(np.floor(cent[:, 0] / wx).astype(np.int64), 0, mx - 1)
    gy = np.clip(np.floor(cent[:, 1] / wy).astype(np.int64), 0, my - 1)

    # each triangle's vertices must stay inside the candidate rectangle
    p = mesh.nodes[mesh.triangles]
    x0, y0 = gx * wx, gy * wy
    inside = (
        (p[..., 0] >= x0[:, None] - _GEOM_TOL).all(axis=1)
        & (p[..., 0] <= x0[:, None] + wx + _GEOM_TOL).all(axis=1)
        & (p[..., 1] >= y0[:, None] - _GEOM_TOL).all(axis=1)
        & (p[..., 1] <= y0[:, None] + wy + _GEOM_TOL).all(axis=1)
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

    pgx = present % mx
    pgy = present // mx
    cells = np.column_stack([pgx * wx, pgy * wy, (pgx + 1) * wx, (pgy + 1) * wy])
    areas_cells = np.full(len(present), wx * wy)

    # covered area per cell must equal the full rectangle: cells tile Omega
    tri_area = triangle_areas(mesh)
    covered = np.zeros(len(present))
    np.add.at(covered, tri_cells, tri_area)
    if not np.allclose(covered, areas_cells, rtol=1e-10, atol=0.0):
        raise IncompatibleGrids("mesh does not fully tile some control cells")

    return ControlBasis(
        cells=cells,
        areas=areas_cells,
        scale=1.0 / np.sqrt(areas_cells),
        grid_dims=(mx, my),
        cell_centers=np.column_stack([(pgx + 0.5) * wx, (pgy + 0.5) * wy]),
        grid_coords=np.column_stack([pgx, pgy]).astype(np.int64),
        triangle_cells=tri_cells,
    )


def control_load_matrix(basis: ControlBasis, mesh: Mesh) -> np.ndarray:
    """Load matrix M_cf with column i the P1 load vector of phi_i.

    Column entries are integral(phi_i * lambda_k); phi_i is constant on
    each triangle, so every triangle in cell i contributes
    scale_i * area_T / 3 to each of its three vertices (exact).
    """
    tri_area = triangle_areas(mesh)
    M_cf = np.zeros((mesh.n_nodes, basis.n))
    contrib = basis.scale[basis.triangle_cells] * tri_area / 3.0
    for k in range(3):
        np.add.at(M_cf, (mesh.triangles[:, k], basis.triangle_cells), contrib)
    return M_cf


def source_load(basis: ControlBasis, mesh: Mesh, coeffs: np.ndarray) -> np.ndarray:
    """P1 load vector of sum(coeffs_i * phi_i), assembled without M_cf.

    Equals control_load_matrix(...) @ coeffs up to rounding: each triangle
    adds its cell value times area_T / 3 to each of its three vertices.
    """
    per_tri = (coeffs * basis.scale)[basis.triangle_cells] * triangle_areas(mesh) / 3.0
    return np.bincount(mesh.triangles.ravel(), np.repeat(per_tri, 3), minlength=mesh.n_nodes)


def coefficients_to_cell_field(basis: ControlBasis, coeffs: np.ndarray) -> np.ndarray:
    """Pointwise cell values of sum(coeffs_i * phi_i)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (basis.n,):
        raise LengthMismatch(f"expected {basis.n} coefficients, got {coeffs.shape}")
    return coeffs * basis.scale


def project_cell_function(
    src: ControlBasis, src_coeffs: np.ndarray, dst: ControlBasis
) -> np.ndarray:
    """L2 projection of a source-grid function onto a destination grid.

    Works by exact rectangle-intersection integration, which reduces to
    cell averaging when the destination cells are unions of source cells.
    Returns destination basis coefficients.
    """
    values = coefficients_to_cell_field(src, src_coeffs)
    ax0, ay0, ax1, ay1 = src.cells.T
    bx0, by0, bx1, by1 = dst.cells.T
    ox = np.maximum(
        0.0, np.minimum(ax1[:, None], bx1[None, :]) - np.maximum(ax0[:, None], bx0[None, :])
    )
    oy = np.maximum(
        0.0, np.minimum(ay1[:, None], by1[None, :]) - np.maximum(ay0[:, None], by0[None, :])
    )
    integrals = (values[:, None] * ox * oy).sum(axis=0)
    return integrals * dst.scale


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
