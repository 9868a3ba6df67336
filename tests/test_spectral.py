"""Forward-model, projector and weight-operator tests."""

import numpy as np
import pytest

from nullsrc import (
    DegenerateBasis,
    DomainSpec,
    IllConditioned,
    Shape,
    analyze,
    assemble,
    build_control_basis,
    build_forward_model,
    build_mesh,
    optimal_scalar_weight,
    spectral_data_from_matrix,
)
from nullsrc.spectral import RANK_TOL_REL, numerical_rank
from nullsrc.verify import random_rank_deficient


@pytest.fixture(scope="module")
def crime8():
    mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 8, 8))
    sys = assemble(mesh, 1e-3)
    basis = build_control_basis(mesh, 8, 8)
    fm = build_forward_model(sys, basis, mesh)
    return mesh, sys, basis, fm, analyze(fm)


class TestForwardModel:
    def test_whitened_norm_equals_boundary_l2(self, crime8):
        _, sys, basis, fm, _ = crime8
        rng = np.random.default_rng(21)
        for _ in range(5):
            c = rng.standard_normal(basis.n)
            lhs = float(np.linalg.norm(fm.A_hat @ c) ** 2)
            Ac = fm.A @ c
            rhs = float(Ac @ (sys.B @ Ac))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_constant_source_maps_to_one(self, crime8):
        _, sys, basis, fm, _ = crime8
        eps = sys.epsilon
        c = eps * np.sqrt(basis.areas)  # coefficients of f = eps
        np.testing.assert_allclose(fm.A @ c, 1.0, atol=1e-8)

    def test_zero_coefficients(self, crime8):
        *_, fm, _ = crime8
        assert np.all(fm.A @ np.zeros(fm.A.shape[1]) == 0)

    def test_column_against_dense_solve(self, crime8):
        mesh, sys, basis, fm, _ = crime8
        from nullsrc.control_space import control_load_matrix

        M_cf = control_load_matrix(basis, mesh)
        j = 19
        u = np.linalg.solve(sys.S.toarray(), M_cf[:, j])
        np.testing.assert_allclose(fm.A[:, j], u[sys.trace_map], atol=1e-12)


class TestAnalyze:
    def test_symmetric_1x2(self):
        sd = spectral_data_from_matrix(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(sd.projector(), 0.5 * np.ones((2, 2)), atol=1e-14)
        np.testing.assert_allclose(sd.p_norms, 1 / np.sqrt(2), atol=1e-14)
        assert sd.rank == 1

    def test_degenerate_basis_detected(self):
        A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(DegenerateBasis) as err:
            spectral_data_from_matrix(A)
        assert err.value.index == 2

    def test_projector_matches_pseudo_inverse(self):
        rng = np.random.default_rng(22)
        A = random_rank_deficient(rng, 6, 4, 3)
        sd = spectral_data_from_matrix(A)
        np.testing.assert_allclose(sd.projector(), np.linalg.pinv(A) @ A, atol=1e-10)

    def test_rank_threshold_relative(self):
        # rotate so the truncated direction is not a bare basis vector
        rng = np.random.default_rng(26)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A = np.diag([1.0, 1e-6, 1e-13]) @ q.T
        sd = spectral_data_from_matrix(A, rank_tol_rel=1e-12)
        assert sd.rank == 2
        assert np.all(sd.p_norms < 1.0)

    def test_numerical_rank_of_zero_and_empty_spectra(self):
        assert numerical_rank(np.linalg.svd(np.zeros((3, 2)), compute_uv=False), RANK_TOL_REL) == 0
        assert numerical_rank(np.array([]), RANK_TOL_REL) == 0

    def test_failed_svd_raises_ill_conditioned(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(IllConditioned, match="SVD failed"):
            spectral_data_from_matrix(np.eye(3))

    def test_projection_stays_in_row_space(self, crime8):
        *_, fm, sd = crime8
        rng = np.random.default_rng(23)
        A = fm.A_hat
        norm_A = np.linalg.norm(A, 2)
        for _ in range(5):
            x = rng.standard_normal(A.shape[1])
            err = np.linalg.norm(A @ (x - sd.project(x)))
            assert err <= 1e-8 * norm_A * np.linalg.norm(x)

    def test_p_norm_squared_is_diagonal_of_projector(self, crime8):
        *_, sd = crime8
        P = sd.projector()
        np.testing.assert_allclose(sd.p_norms**2, np.diag(P), atol=1e-12)

    def test_nullspace_correspondence(self, crime8):
        *_, fm, sd = crime8
        # q in the nullspace iff W q in the nullspace of A W^-1
        null_vecs = sd.V[:, sd.rank :]
        A = fm.A_hat
        Aw = A / sd.p_norms[None, :]
        for k in range(min(3, null_vecs.shape[1])):
            q = null_vecs[:, k]
            assert np.linalg.norm(A @ q) <= 1e-8
            assert np.linalg.norm(Aw @ (q * sd.p_norms)) <= 1e-8


class TestWeightOperator:
    def test_symmetric_case_apply(self):
        sd = spectral_data_from_matrix(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(np.array([1.0, 0.0]) * sd.p_norms, [1 / np.sqrt(2), 0.0])

    def test_round_trip(self, crime8):
        *_, sd = crime8
        rng = np.random.default_rng(24)
        c = rng.standard_normal(len(sd.p_norms))
        np.testing.assert_allclose(c * sd.p_norms / sd.p_norms, c, atol=1e-14)

    def test_full_rank_gives_identity_weights(self):
        A = np.eye(3)
        sd = spectral_data_from_matrix(A)
        np.testing.assert_allclose(sd.p_norms, 1.0, atol=1e-14)

    def test_optimal_weight_symmetric_case(self):
        sd = spectral_data_from_matrix(np.array([[1.0, 1.0]]))
        assert optimal_scalar_weight(sd, 0) == pytest.approx(1 / np.sqrt(2), abs=1e-14)

    def test_optimal_weight_full_rank(self):
        sd = spectral_data_from_matrix(np.array([[2.0, 0.0], [0.0, 0.5]]))
        assert optimal_scalar_weight(sd, 0) == pytest.approx(1.0, abs=1e-12)

    def test_optimal_weight_matches_p_norms(self):
        rng = np.random.default_rng(25)
        A = random_rank_deficient(rng, 6, 4, 2)
        sd = spectral_data_from_matrix(A)
        for i in range(4):
            assert optimal_scalar_weight(sd, i) == pytest.approx(
                sd.p_norms[i], abs=1e-12
            )
