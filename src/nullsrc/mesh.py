"""Structured triangular meshes of the unit square and an L-shaped domain.

Meshes are built deterministically: nodes in row-major order, every cell
split along its lower-left to upper-right diagonal, counterclockwise
triangles. The L-shaped domain is the unit square minus the open
upper-right quadrant [1/2,1] x [1/2,1].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse

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


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangulation: its nodes and triangles.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array
        Vertex coordinates.
    triangles : (n_tri, 3) int array
        Vertex indices, counterclockwise (positive signed area).

    Derived properties
    ------------------
    boundary_edges : (n_bedges, 2) int array
        Edges lying on the domain boundary (in exactly one triangle),
        oriented as traversed by their owning triangle and sorted by
        (tail, head). Raises InvalidSpec if an edge has more than two
        triangles.
    boundary_nodes : (n_bnodes,) int array
        Indices of boundary vertices, ascending.
    triangle_areas : (n_tri,) float array
        Signed triangle areas (positive for CCW orientation).
    edges : (lo, hi, edge_of) int arrays
        Undirected edges sorted by (min, max) node: lo and hi are their
        ends, and edge_of[k] is the edge of directed triangle edge k of
        _edges. Edge e becomes node n_nodes + e of refine_uniform(mesh).

    All four are computed on first use and read-only, so callers share
    them and a mesh that is never asked for its boundary never builds it.
    Meshes compare by identity.
    """

    nodes: np.ndarray
    triangles: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def triangle_areas(self) -> np.ndarray:
        x, y = self.nodes[:, 0][self.triangles.T], self.nodes[:, 1][self.triangles.T]
        area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
        area.flags.writeable = False
        return area

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        triangles = np.asarray(self.triangles, dtype=np.int64)
        u, v, keys = _edges(triangles, int(triangles.max(initial=-1)) + 1)
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        if (counts > 2).any():
            raise InvalidSpec("non-manifold edge: more than two incident triangles")
        once = first[counts == 1]
        tail, head = u[once], v[once]
        bedges = np.column_stack([tail, head])[np.lexsort((head, tail))]
        bedges.flags.writeable = False
        return bedges

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        bnodes = np.unique(self.boundary_edges)
        bnodes.flags.writeable = False
        return bnodes

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.n_nodes
        _, _, keys = _edges(np.asarray(self.triangles, dtype=np.int64), n)
        edge_keys, edge_of = np.unique(keys, return_inverse=True)
        lo, hi = np.divmod(edge_keys, n)
        for array in (lo, hi, edge_of):
            array.flags.writeable = False
        return lo, hi, edge_of


def _edges(triangles: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edges (a,b), (b,c), (c,a) of every triangle, in triangle order.

    Returns the tails, the heads and one int64 key min*n_nodes + max per
    edge, so both orientations of an undirected edge share a key and keys
    sort like the (min, max) pairs.
    """
    u = triangles.ravel()
    v = np.roll(triangles, -1, axis=1).ravel()
    return u, v, np.minimum(u, v) * n_nodes + np.maximum(u, v)


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
    return Mesh(nodes=np.column_stack([col * hx, row * hy]), triangles=tri_arr)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into four via edge midpoints.

    Coarse nodes keep their indices and coordinates in the fine mesh, so
    the first n_coarse fine nodes are the coarse ones. The fine mesh is
    built from the coarse edge table alone; its own boundary and edges are
    derived only if something asks for them.
    """
    n_coarse = mesh.n_nodes
    lo, hi, edge_of = mesh.edges
    fine_nodes = np.vstack([mesh.nodes, 0.5 * (mesh.nodes[lo] + mesh.nodes[hi])])

    a, b, c = np.asarray(mesh.triangles, dtype=np.int64).T
    mab, mbc, mca = (n_coarse + edge_of.reshape(-1, 3)).T
    tri_arr = np.column_stack(
        [a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca]
    ).reshape(-1, 3)
    return Mesh(nodes=fine_nodes, triangles=tri_arr)


def prolongation(coarse: Mesh) -> scipy.sparse.csr_matrix:
    """Nested P1 interpolation from coarse nodes to refine_uniform(coarse).

    A sparse (n_fine, n_coarse) matrix: coarse nodes keep their values and
    every edge midpoint takes half the value of each end, so affine
    functions are reproduced exactly and every row sums to one.
    """
    n = coarse.n_nodes
    lo, hi, _ = coarse.edges
    mid = n + np.arange(lo.size)
    rows = np.concatenate([np.arange(n), mid, mid])
    cols = np.concatenate([np.arange(n), lo, hi])
    vals = np.concatenate([np.ones(n), np.full(2 * lo.size, 0.5)])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n + lo.size, n))
