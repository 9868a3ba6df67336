"""Structured triangular meshes of the unit square and an L-shaped domain.

Meshes are built deterministically: nodes in row-major order, every cell
split along its lower-left to upper-right diagonal, counterclockwise
triangles. The L-shaped domain is the unit square minus the open
upper-right quadrant [1/2,1] x [1/2,1].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidSpec


class Shape(Enum):
    UNIT_SQUARE = "unit_square"
    L_SHAPE = "l_shape"


@dataclass(frozen=True)
class DomainSpec:
    """Structured-grid description of the computational domain."""

    shape: Shape
    nx: int
    ny: int


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation with explicit boundary structure.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array
        Vertex coordinates.
    triangles : (n_tri, 3) int array
        Vertex indices, counterclockwise (positive signed area).
    boundary_edges : (n_bedges, 2) int array
        Edges lying on the domain boundary, oriented as traversed by
        their owning triangle.
    boundary_nodes : (n_bnodes,) int array
        Indices of boundary vertices, ascending.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_nodes: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def _edges(triangles: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edges (a,b), (b,c), (c,a) of every triangle, in triangle order.

    Returns the tails, the heads and one int64 key min*n_nodes + max per
    edge, so both orientations of an undirected edge share a key and keys
    sort like the (min, max) pairs.
    """
    u = triangles.ravel()
    v = np.roll(triangles, -1, axis=1).ravel()
    return u, v, np.minimum(u, v) * n_nodes + np.maximum(u, v)


def _boundary_structure(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary edges (appearing in exactly one triangle) and their nodes.

    Edges keep their owning triangle's orientation and are sorted by
    (tail, head); raises InvalidSpec if an edge has more than two triangles.
    """
    triangles = np.asarray(triangles, dtype=np.int64)
    u, v, keys = _edges(triangles, int(triangles.max(initial=-1)) + 1)
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    if (counts > 2).any():
        raise InvalidSpec("non-manifold edge: more than two incident triangles")
    once = first[counts == 1]
    tail, head = u[once], v[once]
    bedges = np.column_stack([tail, head])[np.lexsort((head, tail))]
    return bedges, np.unique(bedges)


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Signed areas of all triangles (positive for CCW orientation)."""
    p = mesh.nodes[mesh.triangles]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def build_mesh(spec: DomainSpec) -> Mesh:
    """Triangulate the requested domain with nx-by-ny structured cells.

    The unit square gets (nx+1)(ny+1) nodes and 2*nx*ny triangles; the
    L-shape drops the cells and interior nodes of the removed quadrant.
    Raises InvalidSpec for non-positive cell counts or odd L-shape counts.
    """
    nx, ny = spec.nx, spec.ny
    if nx < 1 or ny < 1:
        raise InvalidSpec(f"cell counts must be positive, got {nx}x{ny}")
    if spec.shape is Shape.L_SHAPE and (nx % 2 or ny % 2):
        raise InvalidSpec(
            f"L-shape needs even cell counts so the removed quadrant "
            f"aligns with cells, got {nx}x{ny}"
        )

    hx, hy = 1.0 / nx, 1.0 / ny
    keep_node = np.ones((ny + 1, nx + 1), dtype=bool)
    keep_cell = np.ones((ny, nx), dtype=bool)
    if spec.shape is Shape.L_SHAPE:
        keep_node[ny // 2 + 1 :, nx // 2 + 1 :] = False
        keep_cell[ny // 2 :, nx // 2 :] = False

    row, col = np.nonzero(keep_node)  # row-major
    index = np.full((ny + 1, nx + 1), -1, dtype=np.int64)
    index[row, col] = np.arange(row.size)
    j, i = np.nonzero(keep_cell)
    n00, n10 = index[j, i], index[j, i + 1]
    n01, n11 = index[j + 1, i], index[j + 1, i + 1]
    # two triangles per cell, diagonal from lower-left to upper-right
    tri_arr = np.column_stack([n00, n10, n11, n00, n11, n01]).reshape(-1, 3)
    bedges, bnodes = _boundary_structure(tri_arr)
    return Mesh(
        nodes=np.column_stack([col * hx, row * hy]),
        triangles=tri_arr,
        boundary_edges=bedges,
        boundary_nodes=bnodes,
    )


def refine_uniform(mesh: Mesh) -> tuple[Mesh, np.ndarray]:
    """Split every triangle into four via edge midpoints.

    Coarse nodes keep their indices and coordinates in the fine mesh.
    Returns the refined mesh and the coarse-to-fine node injection map
    (here simply arange(n_coarse), kept explicit for callers).
    """
    n_coarse = mesh.n_nodes
    tris = np.asarray(mesh.triangles, dtype=np.int64)
    _, _, keys = _edges(tris, n_coarse)
    edge_keys, edge_of = np.unique(keys, return_inverse=True)  # sorted (min, max)
    lo, hi = np.divmod(edge_keys, n_coarse)
    fine_nodes = np.vstack([mesh.nodes, 0.5 * (mesh.nodes[lo] + mesh.nodes[hi])])

    a, b, c = tris.T
    mab, mbc, mca = (n_coarse + edge_of.reshape(-1, 3)).T
    tri_arr = np.column_stack(
        [a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca]
    ).reshape(-1, 3)
    bedges, bnodes = _boundary_structure(tri_arr)
    fine = Mesh(
        nodes=fine_nodes,
        triangles=tri_arr,
        boundary_edges=bedges,
        boundary_nodes=bnodes,
    )
    return fine, np.arange(n_coarse, dtype=np.int64)
