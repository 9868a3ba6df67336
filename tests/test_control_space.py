"""Control-basis construction, load assembly and projection tests."""

import numpy as np
import pytest

from nullsrc import (
    DomainSpec,
    IncompatibleGrids,
    LengthMismatch,
    Shape,
    assemble,
    build_control_basis,
    build_mesh,
    coefficients_to_cell_field,
    control_load_matrix,
    project_cell_function,
)
from nullsrc.control_space import cell_touches_boundary, source_load
from nullsrc.mesh import triangle_areas


@pytest.fixture(scope="module")
def square8():
    mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 8, 8))
    sys = assemble(mesh, 1e-3)
    basis = build_control_basis(mesh, 8, 8)
    return mesh, sys, basis


class TestBuildControlBasis:
    def test_unit_square_scales(self, square8):
        _, _, basis = square8
        np.testing.assert_allclose(basis.scale, 8.0)
        assert basis.n == 64

    def test_compatible_16_on_32(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 32, 32))
        basis = build_control_basis(mesh, 16, 16)
        assert basis.n == 256

    def test_lshape_cells(self):
        mesh = build_mesh(DomainSpec(Shape.L_SHAPE, 8, 8))
        basis = build_control_basis(mesh, 4, 4)
        assert basis.n == 12
        assert basis.areas.sum() == pytest.approx(0.75, rel=1e-12)

    def test_incompatible_raises(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 3, 3))
        with pytest.raises(IncompatibleGrids):
            build_control_basis(mesh, 2, 2)

    def test_gram_matrix_is_identity(self, square8):
        mesh, _, basis = square8
        # exact Gram from triangle memberships: triangles never straddle cells
        areas = triangle_areas(mesh)
        gram = np.zeros((basis.n, basis.n))
        for t, cell in enumerate(basis.triangle_cells):
            gram[cell, cell] += basis.scale[cell] ** 2 * areas[t]
        np.testing.assert_allclose(gram, np.eye(basis.n), atol=1e-12)

    def test_row_major_cell_order(self, square8):
        _, _, basis = square8
        flat = basis.grid_coords[:, 1] * 8 + basis.grid_coords[:, 0]
        assert np.array_equal(flat, np.arange(64))


class TestControlLoadMatrix:
    def test_column_sums_are_sqrt_area(self, square8):
        mesh, sys, basis = square8
        M_cf = control_load_matrix(basis, mesh)
        np.testing.assert_allclose(M_cf.sum(axis=0), np.sqrt(basis.areas), rtol=1e-12)

    def test_constant_function_consistency(self, square8):
        mesh, sys, basis = square8
        # f = 1 expanded in the basis has coefficients sqrt(area)
        M_cf = control_load_matrix(basis, mesh)
        load = M_cf @ np.sqrt(basis.areas)
        np.testing.assert_allclose(load, sys.M @ np.ones(sys.n_nodes), atol=1e-12)

    def test_source_load_matches_matrix_product(self):
        mesh = build_mesh(DomainSpec(Shape.L_SHAPE, 16, 16))
        basis = build_control_basis(mesh, 8, 8)
        a = np.random.default_rng(3).standard_normal(basis.n)
        np.testing.assert_allclose(
            source_load(basis, mesh, a), control_load_matrix(basis, mesh) @ a, rtol=0, atol=1e-15
        )

    def test_single_triangle_against_quadrature(self):
        # 1-cell control grid on a 1-cell mesh; oracle: midpoint quadrature,
        # exact for the linear integrand phi * lambda_k
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 1, 1))
        basis = build_control_basis(mesh, 1, 1)
        M_cf = control_load_matrix(basis, mesh)
        oracle = np.zeros(mesh.n_nodes)
        for tri in mesh.triangles:
            p = mesh.nodes[tri]
            area = 0.5 * abs(
                (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1])
            )
            mids = [(0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)]
            for k in range(3):
                lam_at_mids = [m[k] for m in mids]
                oracle[tri[k]] += basis.scale[0] * area * np.mean(lam_at_mids)
        np.testing.assert_allclose(M_cf[:, 0], oracle, atol=1e-15)


class TestCellFields:
    def test_unit_vector(self, square8):
        _, _, basis = square8
        coeffs = np.zeros(64)
        coeffs[11] = 1.0
        values = coefficients_to_cell_field(basis, coeffs)
        assert values[11] == pytest.approx(8.0)
        assert np.count_nonzero(values) == 1

    def test_zero(self, square8):
        _, _, basis = square8
        assert np.all(coefficients_to_cell_field(basis, np.zeros(64)) == 0)

    def test_round_trip(self, square8):
        _, _, basis = square8
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(64)
        values = coefficients_to_cell_field(basis, coeffs)
        np.testing.assert_allclose(values / basis.scale, coeffs)

    def test_length_mismatch(self, square8):
        _, _, basis = square8
        with pytest.raises(LengthMismatch):
            coefficients_to_cell_field(basis, np.zeros(17))

    def test_euclidean_equals_l2_inner_product(self, square8):
        mesh, _, basis = square8
        rng = np.random.default_rng(6)
        areas = triangle_areas(mesh)
        for _ in range(5):
            a = rng.standard_normal(64)
            b = rng.standard_normal(64)
            # L2 inner product integrated triangle by triangle
            fa = coefficients_to_cell_field(basis, a)[basis.triangle_cells]
            fb = coefficients_to_cell_field(basis, b)[basis.triangle_cells]
            l2 = float(np.sum(fa * fb * areas))
            assert l2 == pytest.approx(float(a @ b), abs=1e-12 * max(1, abs(a @ b)))


class TestProjection:
    def test_identity_projection_same_grid(self, square8):
        _, _, basis = square8
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(64)
        np.testing.assert_allclose(
            project_cell_function(basis, coeffs, basis), coeffs, atol=1e-12
        )

    def test_fine_to_coarse_average(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 8, 8))
        fine = build_control_basis(mesh, 8, 8)
        coarse = build_control_basis(mesh, 4, 4)
        coeffs = np.zeros(64)
        coeffs[0] = 1.0  # phi on one fine cell, pointwise value 8
        proj = project_cell_function(fine, coeffs, coarse)
        values = coefficients_to_cell_field(coarse, proj)
        # the fine cell is a quarter of the coarse one: average 8/4 = 2
        assert values[0] == pytest.approx(2.0, rel=1e-12)
        assert np.abs(values[1:]).max() == 0

    def test_boundary_touch_detection(self):
        mesh = build_mesh(DomainSpec(Shape.L_SHAPE, 8, 8))
        basis = build_control_basis(mesh, 4, 4)
        touches = cell_touches_boundary(basis)
        # on the 4x4 L-grid every present cell touches the boundary except none;
        # compare against a direct geometric rule
        for i in range(basis.n):
            x0, y0, x1, y1 = basis.cells[i]
            on_outer = x0 == 0 or y0 == 0 or x1 == 1 or y1 == 1
            on_reentrant = (x1 == 0.5 and y0 >= 0.5) or (y1 == 0.5 and x0 >= 0.5)
            assert touches[i] == (on_outer or on_reentrant)

    def test_interior_cells_not_touching(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 8, 8))
        basis = build_control_basis(mesh, 8, 8)
        touches = cell_touches_boundary(basis)
        interior = (
            (basis.grid_coords[:, 0] > 0)
            & (basis.grid_coords[:, 0] < 7)
            & (basis.grid_coords[:, 1] > 0)
            & (basis.grid_coords[:, 1] < 7)
        )
        assert not touches[interior].any()
        assert touches[~interior].all()
