"""Mesh construction, refinement and boundary-structure tests."""

import numpy as np
import pytest

from nullsrc import DomainSpec, InvalidSpec, Shape, build_mesh, refine_uniform
from nullsrc.mesh import Mesh, _boundary_structure, triangle_areas


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
    tri_arr = np.array(triangles, dtype=np.int64)
    return Mesh(np.array(nodes, dtype=np.float64), tri_arr, *reference_boundary_structure(tri_arr))


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
    tri_arr = np.array(fine_tris, dtype=np.int64)
    fine = Mesh(fine_nodes, tri_arr, *reference_boundary_structure(tri_arr))
    return fine, np.arange(n_coarse, dtype=np.int64)


def assert_identical(actual, expected):
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


def assert_same_mesh(mesh, ref):
    for name in ("nodes", "triangles", "boundary_edges", "boundary_nodes"):
        assert_identical(getattr(mesh, name), getattr(ref, name))


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
        fine, injection = refine_uniform(coarse)
        ref_fine, ref_injection = reference_refine_uniform(coarse)
        assert_same_mesh(fine, ref_fine)
        assert_identical(injection, ref_injection)

    def test_refine_twice(self):
        once, _ = refine_uniform(build_mesh(DomainSpec(Shape.L_SHAPE, 8, 8)))
        twice, injection = refine_uniform(once)
        ref_twice, ref_injection = reference_refine_uniform(once)
        assert_same_mesh(twice, ref_twice)
        assert_identical(injection, ref_injection)

    def test_non_manifold_edge_raises(self):
        # three triangles share the edge (0, 1)
        triangles = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]], dtype=np.int64)
        with pytest.raises(InvalidSpec, match="non-manifold"):
            _boundary_structure(triangles)


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
            assert np.all(triangle_areas(build_mesh(spec)) > 0)

    @pytest.mark.parametrize(
        "spec,area,perimeter",
        [
            (DomainSpec(Shape.UNIT_SQUARE, 7, 4), 1.0, 4.0),
            (DomainSpec(Shape.L_SHAPE, 8, 8), 0.75, 4.0),
        ],
    )
    def test_area_and_perimeter(self, spec, area, perimeter):
        mesh = build_mesh(spec)
        assert triangle_areas(mesh).sum() == pytest.approx(area, rel=1e-12)
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
        fine, injection = refine_uniform(coarse)
        assert fine.n_nodes == 65 * 65
        assert np.array_equal(injection, np.arange(coarse.n_nodes))

    def test_coarse_nodes_preserved(self):
        coarse = build_mesh(DomainSpec(Shape.L_SHAPE, 4, 4))
        fine, injection = refine_uniform(coarse)
        assert np.array_equal(fine.nodes[injection], coarse.nodes)

    def test_triangle_count_quadruples(self):
        coarse = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 3, 5))
        fine, _ = refine_uniform(coarse)
        assert fine.n_triangles == 4 * coarse.n_triangles

    def test_area_preserved(self):
        coarse = build_mesh(DomainSpec(Shape.L_SHAPE, 6, 6))
        fine, _ = refine_uniform(coarse)
        assert triangle_areas(fine).sum() == pytest.approx(0.75, rel=1e-12)

    def test_boundary_preserved_under_refinement(self):
        coarse = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 2, 2))
        fine, injection = refine_uniform(coarse)
        fine_boundary = set(fine.boundary_nodes.tolist())
        for k in coarse.boundary_nodes:
            assert int(injection[k]) in fine_boundary

    def test_twice_refined(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 2, 2))
        once, _ = refine_uniform(mesh)
        twice, _ = refine_uniform(once)
        assert twice.n_nodes == 81
        assert triangle_areas(twice).min() > 0
