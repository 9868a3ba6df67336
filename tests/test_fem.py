"""Assembly and state-solve tests against dense and analytic oracles."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from nullsrc import (
    CoefficientField,
    DomainSpec,
    NonPositiveCoefficient,
    Shape,
    SingularState,
    assemble,
    build_mesh,
)
from nullsrc.fem import StateSolver


@pytest.fixture(scope="module")
def square3():
    mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 3, 3))
    return mesh, assemble(mesh, 1e-3)


class TestAssemble:
    def test_mass_total(self, square3):
        _, sys = square3
        assert sys.M.sum() == pytest.approx(1.0, rel=1e-10)

    def test_mass_total_lshape(self):
        mesh = build_mesh(DomainSpec(Shape.L_SHAPE, 4, 4))
        sys = assemble(mesh, 2.0)
        assert sys.M.sum() == pytest.approx(0.75, rel=1e-10)

    def test_stiffness_kills_constants(self, square3):
        _, sys = square3
        ones = np.ones(sys.n_nodes)
        norm = np.abs(sys.K_sigma.toarray()).max()
        assert np.abs(sys.K_sigma @ ones).max() <= 1e-10 * norm

    def test_boundary_mass_total(self, square3):
        _, sys = square3
        assert sys.B.sum() == pytest.approx(4.0, rel=1e-10)

    def test_boundary_mass_total_lshape(self):
        mesh = build_mesh(DomainSpec(Shape.L_SHAPE, 4, 8))
        sys = assemble(mesh, 1e-3)
        assert sys.B.sum() == pytest.approx(4.0, rel=1e-10)

    def test_state_matrix_spd_for_positive_epsilon(self, square3):
        _, sys = square3
        eigs = np.linalg.eigvalsh(sys.S.toarray())
        assert eigs.min() > 0

    def test_galerkin_symmetry(self, square3):
        _, sys = square3
        rng = np.random.default_rng(3)
        S = sys.S
        for _ in range(5):
            v = rng.standard_normal(sys.n_nodes)
            w = rng.standard_normal(sys.n_nodes)
            a, b = float(v @ (S @ w)), float(w @ (S @ v))
            assert a == pytest.approx(b, rel=1e-10)

    def test_anisotropic_stiffness_scales(self):
        # constant kappa1=2 doubles the x-derivative energy of u = x
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 4, 4))
        k = CoefficientField.diagonal(
            np.full(mesh.n_triangles, 2.0), np.ones(mesh.n_triangles)
        )
        sys = assemble(mesh, 0.0, k)
        ux = mesh.nodes[:, 0]
        # energy = integral kappa1 |du/dx|^2 = 2 * |Omega| = 2
        assert ux @ (sys.K_sigma @ ux) == pytest.approx(2.0, rel=1e-10)
        uy = mesh.nodes[:, 1]
        assert uy @ (sys.K_sigma @ uy) == pytest.approx(1.0, rel=1e-10)

    def test_rejects_nonpositive_coefficient(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 2, 2))
        bad = CoefficientField.diagonal(
            np.zeros(mesh.n_triangles), np.ones(mesh.n_triangles)
        )
        with pytest.raises(NonPositiveCoefficient):
            assemble(mesh, 1.0, bad)

    def test_epsilon_default_value_assembles(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 2, 2))
        sys = assemble(mesh, 1e-3)
        assert sys.epsilon == 1e-3


class TestSolveState:
    def test_zero_load(self, square3):
        _, sys = square3
        assert np.all(sys.solver.solve(np.zeros(sys.n_nodes)) == 0)

    def test_constant_source_gives_constant_state(self):
        # -lap(1) + eps*1 = eps, so the load eps*M*1 yields u = 1
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 6, 6))
        for eps in (1e-3, 0.7):
            sys = assemble(mesh, eps)
            load = eps * (sys.M @ np.ones(sys.n_nodes))
            u = sys.solver.solve(load)
            np.testing.assert_allclose(u, 1.0, atol=1e-10)

    def test_matches_dense_oracle_on_9_node_mesh(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 2, 2))
        sys = assemble(mesh, 1e-3)
        rng = np.random.default_rng(11)
        load = rng.standard_normal(9)
        expected = np.linalg.solve(sys.S.toarray(), load)
        np.testing.assert_allclose(sys.solver.solve(load), expected, atol=1e-12)

    def test_negative_epsilon_uses_lu_and_matches_oracle(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 4, 4))
        sys = assemble(mesh, -1.0)
        rng = np.random.default_rng(12)
        load = rng.standard_normal(sys.n_nodes)
        expected = np.linalg.solve(sys.S.toarray(), load)
        np.testing.assert_allclose(sys.solver.solve(load), expected, rtol=1e-10)

    def test_pure_neumann_is_singular(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 3, 3))
        sys = assemble(mesh, 0.0)
        with pytest.raises(SingularState):
            sys.solver.solve(np.ones(sys.n_nodes))

    def test_resonance_is_singular(self):
        # epsilon tuned to a generalized eigenvalue of (K, M)
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 4, 4))
        sys = assemble(mesh, 1.0)
        eigs = scipy.linalg.eigh(
            sys.K_sigma.toarray(), sys.M.toarray(), eigvals_only=True
        )
        resonant = assemble(mesh, -float(eigs[3]))
        with pytest.raises(SingularState):
            StateSolver(resonant)

    def test_exactly_singular_is_singular_state(self, square3):
        _, sys = square3
        zero = dataclasses.replace(sys, S=scipy.sparse.csr_matrix(sys.S.shape))
        with pytest.raises(SingularState):
            StateSolver(zero)

    def test_continuity_in_epsilon(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 5, 5))
        rng = np.random.default_rng(13)
        load = rng.standard_normal(36)
        u1 = assemble(mesh, 1e-3).solver.solve(load)
        u2 = assemble(mesh, 1e-3 * (1 + 1e-9)).solver.solve(load)
        assert np.linalg.norm(u1 - u2) <= 1e-6 * np.linalg.norm(u1)

    def test_wrong_load_length(self, square3):
        _, sys = square3
        with pytest.raises(ValueError):
            sys.solver.solve(np.zeros(3))


class TestTrace:
    def test_constant(self, square3):
        _, sys = square3
        np.testing.assert_array_equal(np.ones(sys.n_nodes)[sys.trace_map], 1.0)

    def test_zero(self, square3):
        _, sys = square3
        assert np.all(np.zeros(sys.n_nodes)[sys.trace_map] == 0)

    def test_selection_by_index(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 2, 2))
        sys = assemble(mesh, 1.0)
        u = np.arange(9, dtype=float)
        np.testing.assert_array_equal(u[sys.trace_map], mesh.boundary_nodes.astype(float))
