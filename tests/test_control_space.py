"""Control-basis construction, load assembly and projection tests."""

import dataclasses

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
from nullsrc.control_space import ControlBasis, cell_touches_boundary, source_load
from nullsrc.fem import stiffness_and_mass


# Reference implementations: the array code before it read per-vertex
# coordinate slices and before projection became separable.


def old_control_basis(mesh, mx, my):
    """Fields of build_control_basis as a dict; raises IncompatibleGrids on straddling."""
    wx, wy = 1.0 / mx, 1.0 / my
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    gx = np.clip(np.floor(cent[:, 0] / wx).astype(np.int64), 0, mx - 1)
    gy = np.clip(np.floor(cent[:, 1] / wy).astype(np.int64), 0, my - 1)
    p = mesh.nodes[mesh.triangles]
    x0, y0 = gx * wx, gy * wy
    tol = 1e-12
    inside = (
        (p[..., 0] >= x0[:, None] - tol).all(axis=1)
        & (p[..., 0] <= x0[:, None] + wx + tol).all(axis=1)
        & (p[..., 1] >= y0[:, None] - tol).all(axis=1)
        & (p[..., 1] <= y0[:, None] + wy + tol).all(axis=1)
    )
    if not inside.all():
        raise IncompatibleGrids("straddles")
    flat = gy * mx + gx
    present = np.unique(flat)
    pgx, pgy = present % mx, present // mx
    areas = np.full(len(present), wx * wy)
    return {
        "cells": np.column_stack([pgx * wx, pgy * wy, (pgx + 1) * wx, (pgy + 1) * wy]),
        "scale": 1.0 / np.sqrt(areas),
        "grid_dims": (mx, my),
        "cell_centers": np.column_stack([(pgx + 0.5) * wx, (pgy + 0.5) * wy]),
        "grid_coords": np.column_stack([pgx, pgy]).astype(np.int64),
        "triangle_cells": np.searchsorted(present, flat),
    }


def cell_rectangles(basis):
    """The (x0, y0, x1, y1) rectangle of every cell, from its grid position."""
    (mx, my), (gx, gy) = basis.grid_dims, basis.grid_coords.T
    wx, wy = 1.0 / mx, 1.0 / my
    return np.column_stack([gx * wx, gy * wy, (gx + 1) * wx, (gy + 1) * wy])


def old_projection(src, src_coeffs, dst):
    """Dense rectangle-intersection integration over every (source, destination) pair."""
    values = coefficients_to_cell_field(src, src_coeffs)
    ax0, ay0, ax1, ay1 = cell_rectangles(src).T
    bx0, by0, bx1, by1 = cell_rectangles(dst).T
    ox = np.maximum(
        0.0, np.minimum(ax1[:, None], bx1[None, :]) - np.maximum(ax0[:, None], bx0[None, :])
    )
    oy = np.maximum(
        0.0, np.minimum(ay1[:, None], by1[None, :]) - np.maximum(ay0[:, None], by0[None, :])
    )
    return (values[:, None] * ox * oy).sum(axis=0) * dst.scale


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
        assert basis.n / basis.scale**2 == pytest.approx(0.75, rel=1e-12)

    def test_fields_are_the_grid(self):
        assert [f.name for f in dataclasses.fields(ControlBasis)] == [
            "scale", "grid_dims", "grid_coords", "triangle_cells"
        ]

    def test_incompatible_raises(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 3, 3))
        with pytest.raises(IncompatibleGrids):
            build_control_basis(mesh, 2, 2)

    @pytest.mark.parametrize(
        "shape, n, m",
        [
            (Shape.UNIT_SQUARE, 8, 8),
            (Shape.UNIT_SQUARE, 48, 12),
            (Shape.UNIT_SQUARE, 32, 16),
            (Shape.L_SHAPE, 16, 8),
            (Shape.L_SHAPE, 24, 12),
        ],
    )
    def test_matches_old_code_field_by_field(self, shape, n, m):
        mesh = build_mesh(DomainSpec(shape, n, n))
        basis = build_control_basis(mesh, m, m)
        old = old_control_basis(mesh, m, m)
        # the basis keeps no rectangles or centres: they follow from grid_coords
        # and grid_dims, and every cell shares one scale
        assert {f.name for f in dataclasses.fields(basis)} | {"cells", "cell_centers"} == old.keys()
        assert type(basis.scale) is float
        for name, expected in old.items():
            got = cell_rectangles(basis) if name == "cells" else getattr(basis, name)
            if name == "scale":
                got = np.full(basis.n, got)
            assert np.array_equal(got, expected), name

    @pytest.mark.parametrize(
        "shape, n, m", [(Shape.UNIT_SQUARE, 3, 2), (Shape.UNIT_SQUARE, 12, 8), (Shape.L_SHAPE, 6, 4)]
    )
    def test_straddling_raises_like_old_code(self, shape, n, m):
        mesh = build_mesh(DomainSpec(shape, n, n))
        with pytest.raises(IncompatibleGrids):
            old_control_basis(mesh, m, m)
        with pytest.raises(IncompatibleGrids):
            build_control_basis(mesh, m, m)

    def test_gram_matrix_is_identity(self, square8):
        mesh, _, basis = square8
        # exact Gram from triangle memberships: triangles never straddle cells
        areas = mesh.triangle_areas
        gram = np.zeros((basis.n, basis.n))
        for t, cell in enumerate(basis.triangle_cells):
            gram[cell, cell] += basis.scale**2 * areas[t]
        np.testing.assert_allclose(gram, np.eye(basis.n), atol=1e-12)

    def test_row_major_cell_order(self, square8):
        _, _, basis = square8
        flat = basis.grid_coords[:, 1] * 8 + basis.grid_coords[:, 0]
        assert np.array_equal(flat, np.arange(64))


class TestControlLoadMatrix:
    def test_column_sums_are_sqrt_area(self, square8):
        mesh, sys, basis = square8
        M_cf = control_load_matrix(basis, mesh).toarray()
        np.testing.assert_allclose(M_cf.sum(axis=0), 1.0 / basis.scale, rtol=1e-12)

    def test_constant_function_consistency(self, square8):
        mesh, sys, basis = square8
        # f = 1 expanded in the basis has coefficients sqrt(area)
        M_cf = control_load_matrix(basis, mesh)
        load = M_cf @ np.full(basis.n, 1.0 / basis.scale)
        np.testing.assert_allclose(load, stiffness_and_mass(mesh)[1] @ np.ones(mesh.n_nodes), atol=1e-12)

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
        M_cf = control_load_matrix(basis, mesh).toarray()
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
                oracle[tri[k]] += basis.scale * area * np.mean(lam_at_mids)
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
        areas = mesh.triangle_areas
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

    @pytest.mark.parametrize(
        "shape, m_src, m_dst",
        [
            (Shape.UNIT_SQUARE, (16, 16), (8, 8)),
            (Shape.UNIT_SQUARE, (8, 8), (16, 16)),
            (Shape.UNIT_SQUARE, (16, 16), (12, 12)),
            (Shape.UNIT_SQUARE, (12, 12), (16, 16)),
            (Shape.UNIT_SQUARE, (16, 8), (12, 16)),
            (Shape.L_SHAPE, (16, 16), (12, 12)),
            (Shape.L_SHAPE, (8, 8), (16, 16)),
        ],
    )
    def test_matches_dense_intersection(self, shape, m_src, m_dst):
        mesh = build_mesh(DomainSpec(shape, 48, 48))
        src = build_control_basis(mesh, *m_src)
        dst = build_control_basis(mesh, *m_dst)
        coeffs = np.random.default_rng(8).standard_normal(src.n)
        expected = old_projection(src, coeffs, dst)
        got = project_cell_function(src, coeffs, dst)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14 * np.abs(expected).max())

    @pytest.mark.parametrize("shape, m", [(Shape.UNIT_SQUARE, 16), (Shape.UNIT_SQUARE, 12), (Shape.L_SHAPE, 8)])
    def test_same_grid_is_bit_identical_to_dense_intersection(self, shape, m):
        basis = build_control_basis(build_mesh(DomainSpec(shape, 48, 48)), m, m)
        coeffs = np.random.default_rng(9).standard_normal(basis.n)
        expected = old_projection(basis, coeffs, basis)
        assert np.array_equal(project_cell_function(basis, coeffs, basis), expected)

    def test_boundary_touch_detection(self):
        mesh = build_mesh(DomainSpec(Shape.L_SHAPE, 8, 8))
        basis = build_control_basis(mesh, 4, 4)
        touches = cell_touches_boundary(basis)
        # on the 4x4 L-grid every present cell touches the boundary except none;
        # compare against a direct geometric rule
        for i, (x0, y0, x1, y1) in enumerate(cell_rectangles(basis)):
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
