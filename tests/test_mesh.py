"""Mesh construction, refinement and boundary-structure tests."""

import numpy as np
import pytest
import scipy.sparse

from nullsrc import DomainSpec, InvalidSpec, Shape, build_mesh, refine_uniform
from nullsrc.mesh import Mesh, prolongation


def boundary_length(mesh):
    segs = mesh.nodes[mesh.boundary_edges[:, 0]] - mesh.nodes[mesh.boundary_edges[:, 1]]
    return np.linalg.norm(segs, axis=1).sum()


# Loop reference implementations: they pin the node, triangle and boundary
# order that the array code must reproduce exactly.


def reference_boundary_structure(triangles):
    counts, oriented = {}, {}
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            counts[key] = counts.get(key, 0) + 1
            oriented[key] = (u, v)
    if any(n > 2 for n in counts.values()):
        raise InvalidSpec("non-manifold edge: more than two incident triangles")
    bedges = [oriented[k] for k, n in counts.items() if n == 1]
    bedges_arr = np.array(sorted(bedges), dtype=np.int64).reshape(-1, 2)
    return bedges_arr, np.unique(bedges_arr)


def reference_build_mesh(spec):
    nx, ny = spec.nx, spec.ny
    hx, hy = 1.0 / nx, 1.0 / ny
    lshape = spec.shape is Shape.L_SHAPE
    index = -np.ones((ny + 1, nx + 1), dtype=np.int64)
    nodes = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            if not (lshape and j > ny // 2 and i > nx // 2):
                index[j, i] = len(nodes)
                nodes.append((i * hx, j * hy))
    triangles = []
    for j in range(ny):
        for i in range(nx):
            if lshape and j >= ny // 2 and i >= nx // 2:
                continue
            n00, n10 = index[j, i], index[j, i + 1]
            n01, n11 = index[j + 1, i], index[j + 1, i + 1]
            triangles.append((n00, n10, n11))
            triangles.append((n00, n11, n01))
    return Mesh(np.array(nodes, dtype=np.float64), np.array(triangles, dtype=np.int64))


def reference_refine_uniform(mesh):
    n_coarse = mesh.n_nodes
    edges = set()
    for a, b, c in mesh.triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            edges.add((min(u, v), max(u, v)))
    edge_list = sorted(edges)
    midpoint = {e: n_coarse + i for i, e in enumerate(edge_list)}
    fine_nodes = np.vstack(
        [mesh.nodes] + [0.5 * (mesh.nodes[[u]] + mesh.nodes[[v]]) for u, v in edge_list]
    )
    fine_tris = []
    for a, b, c in mesh.triangles:
        mab = midpoint[(min(a, b), max(a, b))]
        mbc = midpoint[(min(b, c), max(b, c))]
        mca = midpoint[(min(c, a), max(c, a))]
        fine_tris.extend([(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)])
    return Mesh(fine_nodes, np.array(fine_tris, dtype=np.int64))


def assert_identical(actual, expected):
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


def assert_same_mesh(mesh, ref):
    assert_identical(mesh.nodes, ref.nodes)
    assert_identical(mesh.triangles, ref.triangles)
    bedges, bnodes = reference_boundary_structure(ref.triangles)
    assert_identical(mesh.boundary_edges, bedges)
    assert_identical(mesh.boundary_nodes, bnodes)


ORACLE_SPECS = [
    DomainSpec(Shape.UNIT_SQUARE, 1, 1),
    DomainSpec(Shape.UNIT_SQUARE, 3, 5),
    DomainSpec(Shape.UNIT_SQUARE, 32, 32),
    DomainSpec(Shape.L_SHAPE, 2, 2),
    DomainSpec(Shape.L_SHAPE, 8, 8),
    DomainSpec(Shape.L_SHAPE, 32, 32),
]
SPEC_IDS = [f"{s.shape.value}-{s.nx}x{s.ny}" for s in ORACLE_SPECS]


class TestMatchesLoopReference:
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=SPEC_IDS)
    def test_build_mesh(self, spec):
        assert_same_mesh(build_mesh(spec), reference_build_mesh(spec))

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=SPEC_IDS)
    def test_refine_once(self, spec):
        coarse = build_mesh(spec)
        assert_same_mesh(refine_uniform(coarse), reference_refine_uniform(coarse))

    def test_refine_twice(self):
        once = refine_uniform(build_mesh(DomainSpec(Shape.L_SHAPE, 8, 8)))
        assert_same_mesh(refine_uniform(once), reference_refine_uniform(once))

    def test_non_manifold_edge_raises(self):
        # three triangles share the edge (0, 1)
        triangles = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]], dtype=np.int64)
        mesh = Mesh(np.zeros((5, 2)), triangles)  # the check runs when the boundary is derived
        with pytest.raises(InvalidSpec, match="non-manifold"):
            mesh.boundary_edges


class TestBuildMesh:
    def test_single_cell_counts(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 1, 1))
        assert mesh.n_nodes == 4
        assert mesh.n_triangles == 2
        assert mesh.boundary_edges.shape[0] == 4

    def test_32x32_node_count(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 32, 32))
        assert mesh.n_nodes == 1089

    def test_lshape_2x2(self):
        mesh = build_mesh(DomainSpec(Shape.L_SHAPE, 2, 2))
        assert mesh.n_nodes == 8
        assert mesh.n_triangles == 6

    def test_positive_areas(self):
        for spec in (DomainSpec(Shape.UNIT_SQUARE, 5, 3), DomainSpec(Shape.L_SHAPE, 4, 6)):
            assert np.all(build_mesh(spec).triangle_areas > 0)

    def test_areas_are_cached_and_read_only(self):
        mesh = build_mesh(DomainSpec(Shape.L_SHAPE, 4, 4))
        areas = mesh.triangle_areas
        assert mesh.triangle_areas is areas
        with pytest.raises(ValueError, match="read-only"):
            areas[0] = 1.0

    def test_edges_are_cached_and_read_only(self):
        mesh = build_mesh(DomainSpec(Shape.L_SHAPE, 4, 4))
        edges = mesh.edges
        assert all(again is first for again, first in zip(mesh.edges, edges, strict=True))
        assert mesh.boundary_edges is mesh.boundary_edges
        assert mesh.boundary_nodes is mesh.boundary_nodes
        for array in (*edges, mesh.boundary_edges, mesh.boundary_nodes):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        lo, hi, edge_of = edges
        # a simply connected triangulation has n_nodes + n_triangles - 1 edges
        assert lo.size == hi.size == mesh.n_nodes + mesh.n_triangles - 1
        assert edge_of.shape == (3 * mesh.n_triangles,)

    @pytest.mark.parametrize(
        "spec,area,perimeter",
        [
            (DomainSpec(Shape.UNIT_SQUARE, 7, 4), 1.0, 4.0),
            (DomainSpec(Shape.L_SHAPE, 8, 8), 0.75, 4.0),
        ],
    )
    def test_area_and_perimeter(self, spec, area, perimeter):
        mesh = build_mesh(spec)
        assert mesh.triangle_areas.sum() == pytest.approx(area, rel=1e-12)
        assert boundary_length(mesh) == pytest.approx(perimeter, rel=1e-12)

    def test_boundary_nodes_are_edge_endpoints(self):
        mesh = build_mesh(DomainSpec(Shape.L_SHAPE, 6, 4))
        assert np.array_equal(mesh.boundary_nodes, np.unique(mesh.boundary_edges))

    def test_interior_edges_shared_by_two_triangles(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 3, 3))
        counts = {}
        for tri in mesh.triangles:
            for u, v in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                counts[(min(u, v), max(u, v))] = counts.get((min(u, v), max(u, v)), 0) + 1
        boundary = {(min(u, v), max(u, v)) for u, v in mesh.boundary_edges}
        for edge, count in counts.items():
            assert count == (1 if edge in boundary else 2)

    def test_deterministic(self):
        a = build_mesh(DomainSpec(Shape.L_SHAPE, 8, 8))
        b = build_mesh(DomainSpec(Shape.L_SHAPE, 8, 8))
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.triangles, b.triangles)
        assert np.array_equal(a.boundary_edges, b.boundary_edges)

    def test_invalid_counts(self):
        with pytest.raises(InvalidSpec):
            build_mesh(DomainSpec(Shape.UNIT_SQUARE, 0, 3))
        with pytest.raises(InvalidSpec):
            build_mesh(DomainSpec(Shape.L_SHAPE, 3, 4))


class TestRefineUniform:
    def test_node_counts_33_to_65(self):
        coarse = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 32, 32))
        assert refine_uniform(coarse).n_nodes == 65 * 65

    def test_coarse_nodes_preserved(self):
        coarse = build_mesh(DomainSpec(Shape.L_SHAPE, 4, 4))
        fine = refine_uniform(coarse)
        assert np.array_equal(fine.nodes[: coarse.n_nodes], coarse.nodes)

    def test_triangle_count_quadruples(self):
        coarse = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 3, 5))
        fine = refine_uniform(coarse)
        assert fine.n_triangles == 4 * coarse.n_triangles

    def test_area_preserved(self):
        coarse = build_mesh(DomainSpec(Shape.L_SHAPE, 6, 6))
        fine = refine_uniform(coarse)
        assert fine.triangle_areas.sum() == pytest.approx(0.75, rel=1e-12)

    def test_boundary_preserved_under_refinement(self):
        coarse = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 2, 2))
        fine = refine_uniform(coarse)
        assert set(coarse.boundary_nodes.tolist()) <= set(fine.boundary_nodes.tolist())

    def test_twice_refined(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 2, 2))
        once = refine_uniform(mesh)
        twice = refine_uniform(once)
        assert twice.n_nodes == 81
        assert twice.triangle_areas.min() > 0


class TestProlongation:
    @pytest.mark.parametrize(
        "spec",
        [DomainSpec(Shape.UNIT_SQUARE, 8, 8), DomainSpec(Shape.L_SHAPE, 8, 4)],
        ids=["square", "lshape"],
    )
    def test_reproduces_affine_functions(self, spec):
        # integer coefficients on a dyadic grid: every value is exact in
        # floating point, so interpolation must match to the bit
        coarse = build_mesh(spec)
        fine = refine_uniform(coarse)
        P = prolongation(coarse)
        assert P.shape == (fine.n_nodes, coarse.n_nodes)
        for c0, cx, cy in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, -2, 5)]:
            (xc, yc), (xf, yf) = coarse.nodes.T, fine.nodes.T
            assert np.array_equal(P @ (c0 + cx * xc + cy * yc), c0 + cx * xf + cy * yf)

    def test_rows_sum_to_one_and_coarse_nodes_are_injected(self):
        coarse = build_mesh(DomainSpec(Shape.L_SHAPE, 6, 6))
        P = prolongation(coarse)
        assert np.array_equal(np.asarray(P.sum(axis=1)).ravel(), np.ones(P.shape[0]))
        n = coarse.n_nodes
        assert (P[:n] != scipy.sparse.eye(n)).nnz == 0
        assert np.array_equal(np.diff(P.indptr)[n:], np.full(P.shape[0] - n, 2))
