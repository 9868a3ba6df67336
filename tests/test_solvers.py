"""Regularized-solver tests: closed forms, oracles and the recovery theory."""

import numpy as np
import pytest

from nullsrc import (
    GammaTooLarge,
    GammaTooSmall,
    Method,
    method_I,
    method_II,
    method_III,
    min_norm_lsq,
    min_norm_solve,
    morozov,
    solve_method,
    spectral_data_from_matrix,
    standard_tikhonov,
    tikhonov,
)
from nullsrc.solvers import residual_from_coeffs
from nullsrc.spectral import ForwardModel
from nullsrc.verify import crime_system, random_rank_deficient


def model_from_matrix(A):
    return ForwardModel(A=A, R=np.eye(A.shape[0]), A_hat=A), spectral_data_from_matrix(A)


@pytest.fixture(scope="module")
def crime8():
    return crime_system(mesh_cells=8)


@pytest.fixture(scope="module")
def random_systems():
    rng = np.random.default_rng(31)
    systems = []
    for _ in range(8):
        m = int(rng.integers(4, 12))
        n = int(rng.integers(3, 10))
        rank = int(rng.integers(2, min(m, n) + 1))
        systems.append(model_from_matrix(random_rank_deficient(rng, m, n, rank)))
    return systems


class TestTikhonov:
    def test_scalar_closed_form(self):
        z = tikhonov(np.array([[1.0]]), np.array([1.0]), 1.0)
        assert z[0] == pytest.approx(0.5, abs=1e-14)

    def test_huge_alpha_vanishes(self):
        rng = np.random.default_rng(32)
        A = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        z = tikhonov(A, b, 1e6)
        assert np.linalg.norm(z) <= 1e-5 * np.linalg.norm(b)

    def test_tiny_alpha_matches_pseudo_inverse(self):
        rng = np.random.default_rng(33)
        A = random_rank_deficient(rng, 8, 5, 3)
        b = A @ rng.standard_normal(5)
        z = tikhonov(A, b, 1e-10)
        np.testing.assert_allclose(z, min_norm_lsq(A, b), atol=1e-6)

    def test_rejects_nonpositive_alpha(self):
        fm, sd = model_from_matrix(np.eye(2))
        for alpha in (0.0, float("nan")):
            with pytest.raises(ValueError):
                tikhonov(np.eye(2), np.ones(2), alpha)
            with pytest.raises(ValueError):
                solve_method(fm, sd, np.ones(2), alpha, Method.METHOD_II)

    def test_weighted_normal_equations_satisfied(self):
        rng = np.random.default_rng(34)
        A = rng.standard_normal((7, 5))
        b = rng.standard_normal(7)
        w = rng.uniform(0.5, 2.0, 5)
        alpha = 0.3
        z = tikhonov(A, b, alpha, weights=w)
        lhs = A.T @ (A @ z) + alpha * w**2 * z
        np.testing.assert_allclose(lhs, A.T @ b, atol=1e-12)


class TestMinNormLsq:
    def test_projection_identity_random(self, random_systems):
        rng = np.random.default_rng(35)
        for fm, sd in random_systems:
            psi = rng.standard_normal(fm.A_hat.shape[1])
            np.testing.assert_allclose(
                min_norm_lsq(fm.A_hat, fm.A_hat @ psi), sd.project(psi), atol=1e-10
            )

    def test_zero_rhs(self):
        assert np.all(min_norm_lsq(np.ones((3, 2)), np.zeros(3)) == 0)

    def test_identity_matrix(self):
        b = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(min_norm_lsq(np.eye(3), b), b)


class TestMethodI:
    def test_symmetric_1x2(self):
        fm, sd = model_from_matrix(np.array([[1.0, 1.0]]))
        r = method_I(fm, sd, np.array([1.0]), 1e-12)
        np.testing.assert_allclose(r.coeffs, [1 / np.sqrt(2)] * 2, atol=1e-10)
        assert set(r.argmax_tieset) == {0, 1}
        assert r.argmax_cell == 0

    def test_zero_data(self, crime8):
        fm, sd = crime8
        r = method_I(fm, sd, np.zeros(fm.A_hat.shape[0]), 1e-6)
        np.testing.assert_allclose(r.coeffs, 0.0, atol=1e-12)

    def test_expansion_identity_in_the_limit(self, crime8):
        # closed form: coefficients of the limit solution are (P e_j) / w
        fm, sd = crime8
        n = fm.A_hat.shape[1]
        for j in (0, 27, 63):
            limit = min_norm_lsq(fm.A_hat, fm.A_hat[:, j]) / sd.p_norms
            expansion = sd.project(np.eye(n)[j]) / sd.p_norms
            np.testing.assert_allclose(limit, expansion, atol=1e-10)

    def test_expansion_error_shrinks_with_alpha(self, crime8):
        # the Tikhonov iterate approaches the expansion as alpha shrinks
        # (linearly until the solver's round-off floor near 1e-11); at
        # alpha=1e-12 every index matches within 1e-6 on this system
        fm, sd = crime8
        n = fm.A_hat.shape[1]
        for j in (0, 27, 63):
            expansion = sd.project(np.eye(n)[j]) / sd.p_norms
            errs = [
                np.max(np.abs(method_I(fm, sd, fm.A_hat[:, j], alpha).coeffs - expansion))
                for alpha in (1e-8, 1e-10, 1e-12)
            ]
            assert errs[2] <= 1e-6
            assert errs[0] > errs[1] > errs[2]

    def test_argmax_at_correct_index_all_j(self, crime8):
        fm, sd = crime8
        n = fm.A_hat.shape[1]
        for j in range(n):
            r = method_I(fm, sd, fm.A_hat[:, j], 1e-10)
            assert r.coeffs[j] >= r.coeffs.max() - 1e-8

    def test_argmax_at_correct_index_random(self, random_systems):
        for fm, sd in random_systems:
            for j in range(fm.A_hat.shape[1]):
                r = method_I(fm, sd, fm.A_hat[:, j], 1e-10)
                assert r.coeffs[j] >= r.coeffs.max() - 1e-8


class TestMethodII:
    def test_symmetric_1x2_limit(self):
        fm, sd = model_from_matrix(np.array([[1.0, 1.0]]))
        r = method_II(fm, sd, np.array([1.0]), 1e-12)
        np.testing.assert_allclose(r.coeffs, [np.sqrt(2) / 4] * 2, atol=1e-10)
        np.testing.assert_allclose(r.coeffs / sd.p_norms[0], [0.5, 0.5], atol=1e-10)

    def test_zero_data(self, crime8):
        fm, sd = crime8
        r = method_II(fm, sd, np.zeros(fm.A_hat.shape[0]), 1e-3)
        np.testing.assert_allclose(r.coeffs, 0.0, atol=1e-12)

    def test_matches_scaled_pseudo_inverse(self, random_systems):
        # in-range data: off-range components excite the numerically-zero
        # singular values under the 1/alpha filter and would mask the limit
        rng = np.random.default_rng(36)
        for fm, sd in random_systems:
            b = fm.A_hat @ rng.standard_normal(fm.A_hat.shape[1])
            r = method_II(fm, sd, b, 1e-10)
            oracle = min_norm_lsq(fm.A_hat / sd.p_norms[None, :], b)
            np.testing.assert_allclose(r.coeffs, oracle, atol=1e-6)

    def test_norm_inequality_vs_method_I(self, crime8):
        # scaled method II is at least as close to the true basis vector
        fm, sd = crime8
        A, w = fm.A_hat, sd.p_norms
        Aw = A / w[None, :]
        n = A.shape[1]
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            lhs = np.linalg.norm(e - min_norm_lsq(Aw, A[:, j]) / w[j])
            rhs = np.linalg.norm(e - min_norm_lsq(A, A[:, j]) / w)
            assert lhs <= rhs + 1e-10


class TestMethodIII:
    def test_identity_weights_reduce_to_standard(self):
        rng = np.random.default_rng(37)
        A = random_rank_deficient(rng, 8, 5, 5)  # full column rank: w = 1
        fm, sd = model_from_matrix(A)
        b = rng.standard_normal(8)
        r3 = method_III(fm, sd, b, 1e-3)
        r0 = standard_tikhonov(fm, sd, b, 1e-3)
        np.testing.assert_allclose(r3.coeffs, r0.coeffs, atol=1e-10)

    def test_symmetric_1x2_limit(self):
        fm, sd = model_from_matrix(np.array([[1.0, 1.0]]))
        r = method_III(fm, sd, np.array([1.0]), 1e-12)
        np.testing.assert_allclose(r.coeffs, [0.5, 0.5], atol=1e-10)

    def test_equals_rescaled_method_II(self, random_systems):
        rng = np.random.default_rng(38)
        for fm, sd in random_systems:
            b = rng.standard_normal(fm.A_hat.shape[0])
            for alpha in (1e-6, 1e-3, 1.0):
                z = method_III(fm, sd, b, alpha).coeffs
                y = method_II(fm, sd, b, alpha).coeffs
                gap = np.linalg.norm(z - y / sd.p_norms)
                assert gap <= 1e-9 * max(1.0, np.linalg.norm(y))

    def test_norm_inequality_vs_method_I(self, crime8):
        fm, sd = crime8
        A, w = fm.A_hat, sd.p_norms
        Aw = A / w[None, :]
        wmin = w.min()
        n = A.shape[1]
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            z = min_norm_lsq(Aw, A[:, j]) / w
            lhs = np.linalg.norm(e - z)
            rhs = (w[j] / wmin) * np.linalg.norm(e - min_norm_lsq(A, A[:, j]) / w)
            assert lhs <= rhs + 1e-10


def stacked_lstsq(M, b, alpha):
    """Tikhonov minimizer from an independent least-squares solve of [M; sqrt(alpha) I]."""
    n = M.shape[1]
    stacked = np.vstack([M, np.sqrt(alpha) * np.eye(n)])
    return np.linalg.lstsq(stacked, np.concatenate([b, np.zeros(n)]), rcond=None)[0]


@pytest.mark.parametrize("alpha", [1e-6, 1e-3, 1.0])
def test_methods_match_stacked_lstsq(crime8, random_systems, alpha):
    rng = np.random.default_rng(44)
    for fm, sd in [crime8, *random_systems]:
        w = sd.p_norms
        b = rng.standard_normal(fm.A_hat.shape[0])
        x = stacked_lstsq(fm.A_hat, b, alpha)
        y = stacked_lstsq(fm.A_hat / w, b, alpha)
        expected = {standard_tikhonov: x, method_I: x / w, method_II: y, method_III: y / w}
        for solve, reference in expected.items():
            coeffs = solve(fm, sd, b, alpha).coeffs
            assert np.linalg.norm(coeffs - reference) <= 1e-8 * np.linalg.norm(reference)


class TestSolveResultContract:
    def test_residual_recomputable(self, crime8):
        fm, sd = crime8
        rng = np.random.default_rng(39)
        b = rng.standard_normal(fm.A_hat.shape[0])
        for alpha in (1e-10, 1e-4, 1.0):
            for method in Method:
                if method is Method.MIN_NORM:
                    r = min_norm_solve(fm, sd, b)
                else:
                    r = solve_method(fm, sd, b, alpha, method)
                recomputed = residual_from_coeffs(fm.A_hat, sd, method, r.coeffs, b)
                assert recomputed == pytest.approx(r.residual, rel=1e-10)

    def test_residual_monotone_in_alpha(self, random_systems):
        rng = np.random.default_rng(40)
        alphas = np.logspace(-8, 4, 13)
        for fm, sd in random_systems[:4]:
            b = rng.standard_normal(fm.A_hat.shape[0])
            for method in (
                Method.STANDARD_TIKHONOV,
                Method.METHOD_I,
                Method.METHOD_II,
                Method.METHOD_III,
            ):
                res = [solve_method(fm, sd, b, a, method).residual for a in alphas]
                for lo, hi in zip(res, res[1:]):
                    assert lo <= hi + 1e-12

    def test_argmax_tie_reporting(self):
        fm, sd = model_from_matrix(np.eye(3))
        r = standard_tikhonov(fm, sd, np.array([1.0, 1.0, 0.0]), 1e-6)
        assert r.argmax_cell == 0
        assert set(r.argmax_tieset) == {0, 1}


class TestMorozov:
    def test_scalar_closed_form(self):
        # residual(alpha) = alpha / (1 + alpha); gamma = 1/2 at alpha = 1
        fm, sd = model_from_matrix(np.array([[1.0]]))
        alpha, r = morozov(fm, sd, np.array([1.0]), 0.5, Method.STANDARD_TIKHONOV)
        assert alpha == pytest.approx(1.0, rel=5e-3)
        assert r.residual == pytest.approx(0.5, rel=1e-3)

    def test_gamma_too_large(self):
        fm, sd = model_from_matrix(np.array([[1.0]]))
        with pytest.raises(GammaTooLarge):
            morozov(fm, sd, np.array([1.0]), 2.0, Method.STANDARD_TIKHONOV)

    def test_gamma_too_small(self):
        rng = np.random.default_rng(41)
        A = random_rank_deficient(rng, 6, 4, 2)
        fm, sd = model_from_matrix(A)
        b = rng.standard_normal(6)
        floor = np.linalg.norm(A @ min_norm_lsq(A, b) - b)
        assert floor > 0
        with pytest.raises(GammaTooSmall):
            morozov(fm, sd, b, 0.5 * floor, Method.STANDARD_TIKHONOV)

    def test_residual_meets_gamma_on_random_systems(self, random_systems):
        rng = np.random.default_rng(42)
        for fm, sd in random_systems[:5]:
            b = rng.standard_normal(fm.A_hat.shape[0])
            floor = np.linalg.norm(fm.A_hat @ min_norm_lsq(fm.A_hat, b) - b)
            ceil = np.linalg.norm(b)
            if ceil <= floor * 1.05:
                continue
            gamma = 0.5 * (floor + ceil)
            for method in (Method.METHOD_II, Method.METHOD_III):
                alpha, r = morozov(fm, sd, b, gamma, method)
                assert abs(r.residual - gamma) <= 1e-3 * gamma

    def test_min_norm_rejected(self):
        fm, sd = model_from_matrix(np.eye(2))
        with pytest.raises(ValueError):
            morozov(fm, sd, np.ones(2), 0.5, Method.MIN_NORM)
