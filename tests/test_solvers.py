"""Regularized-solver tests: closed forms, oracles and the recovery theory."""

import math

import numpy as np
import pytest

import nullsrc.solvers

from nullsrc import (
    GammaTooLarge,
    GammaTooSmall,
    IllConditioned,
    Method,
    min_norm_lsq,
    morozov,
    solve_method,
    spectral_data_from_matrix,
    tikhonov,
)
from nullsrc.experiments import build_setup, builtin_presets, generate_data
from nullsrc.spectral import ForwardModel, analyze, build_forward_model, thin_svd
from nullsrc.verify import crime_system, norm_inequality_violations, random_rank_deficient


def model_from_matrix(A):
    return ForwardModel(A=A, R=np.eye(A.shape[0]), A_hat=A), spectral_data_from_matrix(A)


def residual_from_coeffs(A_hat, sd, method, coeffs, b_hat):
    """Data-fit residual of a method's optimization problem, from its coeffs."""
    w = sd.p_norms
    if method is Method.METHOD_I:
        fit = A_hat @ (coeffs * w)  # optimization variable is W * coeffs
    elif method is Method.METHOD_II:
        fit = A_hat @ (coeffs / w)  # operator acts through W^{-1}
    else:
        fit = A_hat @ coeffs  # method III shares method II's optimum, z = W^{-1} y
    return float(np.linalg.norm(fit - b_hat))


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

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan")])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            tikhonov(np.eye(2), np.ones(2), alpha)

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

    def test_vector_rhs_keeps_the_single_solve(self, random_systems):
        rng = np.random.default_rng(46)
        for fm, _ in random_systems:
            A = fm.A_hat
            b = rng.standard_normal(A.shape[0])
            U, s, V = thin_svd(A)
            f = np.zeros_like(s)
            r = int(np.sum(s > 1e-12 * s[0]))
            f[:r] = 1.0 / s[:r]
            assert np.array_equal(min_norm_lsq(A, b), V @ (f * (U.T @ b)))

    def test_matrix_rhs_solves_each_column(self, crime8):
        rng = np.random.default_rng(45)
        fm, sd = crime8
        shapes = ((9, 6, 3), (5, 8, 4), (12, 12, 7), (20, 7, 6))
        matrices = [random_rank_deficient(rng, *shape) for shape in shapes]
        for A in matrices:
            B = np.hstack([A, A @ rng.standard_normal((A.shape[1], 3))])
            X = min_norm_lsq(A, B)
            assert X.shape == (A.shape[1], B.shape[1])
            columns = np.column_stack([min_norm_lsq(A, b) for b in B.T])
            np.testing.assert_allclose(X, columns, rtol=0, atol=1e-12)
        # crime8's retained spectrum spans a condition number near 1e6, so the
        # matrix and vector products round differently by up to eps * kappa * |x|
        for A in (fm.A_hat, fm.A_hat / sd.p_norms[None, :]):
            B = np.hstack([fm.A_hat, A @ rng.standard_normal((A.shape[1], 3))])
            X = min_norm_lsq(A, B)
            assert X.shape == (A.shape[1], B.shape[1])
            columns = np.column_stack([min_norm_lsq(A, b) for b in B.T])
            s = np.linalg.svd(A, compute_uv=False)
            kappa = s[0] / s[sd.rank - 1]
            tol = np.finfo(float).eps * kappa * np.abs(columns).max()
            np.testing.assert_allclose(X, columns, rtol=0, atol=tol)


class TestMethodI:
    def test_symmetric_1x2(self):
        fm, sd = model_from_matrix(np.array([[1.0, 1.0]]))
        r = solve_method(fm, sd, np.array([1.0]), 1e-12, Method.METHOD_I)
        np.testing.assert_allclose(r.coeffs, [1 / np.sqrt(2)] * 2, atol=1e-10)
        assert set(r.argmax_tieset) == {0, 1}
        assert r.argmax_cell == 0

    def test_zero_data(self, crime8):
        fm, sd = crime8
        r = solve_method(fm, sd, np.zeros(fm.A_hat.shape[0]), 1e-6, Method.METHOD_I)
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
                np.max(np.abs(solve_method(fm, sd, fm.A_hat[:, j], alpha, Method.METHOD_I).coeffs
                              - expansion))
                for alpha in (1e-8, 1e-10, 1e-12)
            ]
            assert errs[2] <= 1e-6
            assert errs[0] > errs[1] > errs[2]

    def test_argmax_at_correct_index_all_j(self, crime8):
        fm, sd = crime8
        n = fm.A_hat.shape[1]
        for j in range(n):
            r = solve_method(fm, sd, fm.A_hat[:, j], 1e-10, Method.METHOD_I)
            assert r.coeffs[j] >= r.coeffs.max() - 1e-8

    def test_argmax_at_correct_index_random(self, random_systems):
        for fm, sd in random_systems:
            for j in range(fm.A_hat.shape[1]):
                r = solve_method(fm, sd, fm.A_hat[:, j], 1e-10, Method.METHOD_I)
                assert r.coeffs[j] >= r.coeffs.max() - 1e-8


class TestMethodII:
    def test_symmetric_1x2_limit(self):
        fm, sd = model_from_matrix(np.array([[1.0, 1.0]]))
        r = solve_method(fm, sd, np.array([1.0]), 1e-12, Method.METHOD_II)
        np.testing.assert_allclose(r.coeffs, [np.sqrt(2) / 4] * 2, atol=1e-10)
        np.testing.assert_allclose(r.coeffs / sd.p_norms[0], [0.5, 0.5], atol=1e-10)

    def test_zero_data(self, crime8):
        fm, sd = crime8
        r = solve_method(fm, sd, np.zeros(fm.A_hat.shape[0]), 1e-3, Method.METHOD_II)
        np.testing.assert_allclose(r.coeffs, 0.0, atol=1e-12)

    def test_matches_scaled_pseudo_inverse(self, random_systems):
        # in-range data: off-range components excite the numerically-zero
        # singular values under the 1/alpha filter and would mask the limit
        rng = np.random.default_rng(36)
        for fm, sd in random_systems:
            b = fm.A_hat @ rng.standard_normal(fm.A_hat.shape[1])
            r = solve_method(fm, sd, b, 1e-10, Method.METHOD_II)
            oracle = min_norm_lsq(fm.A_hat / sd.p_norms[None, :], b)
            np.testing.assert_allclose(r.coeffs, oracle, atol=1e-6)

    def test_norm_inequality_vs_method_I(self, crime8):
        # scaled method II is at least as close to the true basis vector
        assert per_column_violations(*crime8)[0] <= 1e-10


class TestMethodIII:
    def test_identity_weights_reduce_to_standard(self):
        rng = np.random.default_rng(37)
        A = random_rank_deficient(rng, 8, 5, 5)  # full column rank: w = 1
        fm, sd = model_from_matrix(A)
        b = rng.standard_normal(8)
        r3 = solve_method(fm, sd, b, 1e-3, Method.METHOD_III)
        r0 = solve_method(fm, sd, b, 1e-3, Method.STANDARD_TIKHONOV)
        np.testing.assert_allclose(r3.coeffs, r0.coeffs, atol=1e-10)

    def test_symmetric_1x2_limit(self):
        fm, sd = model_from_matrix(np.array([[1.0, 1.0]]))
        r = solve_method(fm, sd, np.array([1.0]), 1e-12, Method.METHOD_III)
        np.testing.assert_allclose(r.coeffs, [0.5, 0.5], atol=1e-10)

    def test_equals_rescaled_method_II(self, random_systems):
        rng = np.random.default_rng(38)
        for fm, sd in random_systems:
            b = rng.standard_normal(fm.A_hat.shape[0])
            for alpha in (1e-6, 1e-3, 1.0):
                z = solve_method(fm, sd, b, alpha, Method.METHOD_III).coeffs
                y = solve_method(fm, sd, b, alpha, Method.METHOD_II).coeffs
                gap = np.linalg.norm(z - y / sd.p_norms)
                assert gap <= 1e-9 * max(1.0, np.linalg.norm(y))

    def test_norm_inequality_vs_method_I(self, crime8):
        # method III within the weight-ratio factor of method I
        assert per_column_violations(*crime8)[1] <= 1e-10


def per_column_violations(fm, sd):
    """Worst method II and III norm-inequality excesses, one pair of
    single-column pseudo-inverse solves per basis index."""
    A, w = fm.A_hat, sd.p_norms
    Aw = A / w[None, :]
    n = A.shape[1]
    worst2 = worst3 = -np.inf
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rhs = np.linalg.norm(e - min_norm_lsq(A, A[:, j]) / w)
        y = min_norm_lsq(Aw, A[:, j])
        worst2 = max(worst2, np.linalg.norm(e - y / w[j]) - rhs)
        worst3 = max(worst3, np.linalg.norm(e - y / w) - (w[j] / w.min()) * rhs)
    return worst2, worst3


def test_batched_norm_inequalities_match_per_column_loop(crime8, random_systems):
    for fm, sd in random_systems:
        expected = per_column_violations(fm, sd)
        np.testing.assert_allclose(norm_inequality_violations(fm, sd), expected, rtol=0, atol=1e-12)
    # on crime8 the batched and single-column solves round apart (see
    # test_matrix_rhs_solves_each_column); by the triangle inequality each
    # violation then moves by at most what those solves move
    fm, sd = crime8
    A, w = fm.A_hat, sd.p_norms
    dX = min_norm_lsq(A, A) - np.column_stack([min_norm_lsq(A, a) for a in A.T])
    dY = min_norm_lsq(A / w, A) - np.column_stack([min_norm_lsq(A / w, a) for a in A.T])
    dx = np.linalg.norm(dX / w[:, None], axis=0)
    bound2 = np.max(np.linalg.norm(dY, axis=0) / w + dx)
    bound3 = np.max(np.linalg.norm(dY / w[:, None], axis=0) + w / w.min() * dx)
    got, expected = norm_inequality_violations(fm, sd), per_column_violations(fm, sd)
    assert abs(got[0] - expected[0]) <= bound2 + 1e-14
    assert abs(got[1] - expected[1]) <= bound3 + 1e-14
    assert max(bound2, bound3) <= 1e-9


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
        expected = {
            Method.STANDARD_TIKHONOV: x,
            Method.METHOD_I: x / w,
            Method.METHOD_II: y,
            Method.METHOD_III: y / w,
        }
        for method, reference in expected.items():
            coeffs = solve_method(fm, sd, b, alpha, method).coeffs
            assert np.linalg.norm(coeffs - reference) <= 1e-8 * np.linalg.norm(reference)


class TestSolveResultContract:
    def test_residual_recomputable(self, crime8):
        fm, sd = crime8
        rng = np.random.default_rng(39)
        b = rng.standard_normal(fm.A_hat.shape[0])
        for alpha in (1e-10, 1e-4, 1.0):
            for method in Method:
                r = solve_method(fm, sd, b, alpha, method)  # MIN_NORM solves at alpha 0
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
        r = solve_method(fm, sd, np.array([1.0, 1.0, 0.0]), 1e-6, Method.STANDARD_TIKHONOV)
        assert r.argmax_cell == 0
        assert set(r.argmax_tieset) == {0, 1}

    @pytest.mark.parametrize("method", list(Method))
    def test_nan_data_raises_ill_conditioned(self, method):
        fm, sd = model_from_matrix(np.eye(3))
        with pytest.raises(IllConditioned):
            solve_method(fm, sd, np.array([1.0, np.nan, 0.0]), 1e-3, method)


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

    def test_nan_data_raises_ill_conditioned(self):
        fm, sd = model_from_matrix(np.eye(3))
        with pytest.raises(IllConditioned, match="not all finite"):
            morozov(fm, sd, np.array([1.0, np.nan, 0.0]), 0.5, Method.METHOD_II)

    def test_min_norm_rejected(self):
        fm, sd = model_from_matrix(np.eye(2))
        with pytest.raises(ValueError):
            morozov(fm, sd, np.ones(2), 0.5, Method.MIN_NORM)


def stepwise_morozov(model, sd, b_hat, gamma, method, alpha_range=(1e-14, 1e6), rel_tol=1e-3):
    """Reference discrepancy search: a full solve_method at every bisection step."""
    if gamma <= 0:
        raise GammaTooSmall(f"discrepancy target must be positive, got {gamma!r}")
    lo, hi = alpha_range
    r_lo = solve_method(model, sd, b_hat, lo, method)
    if abs(r_lo.residual - gamma) <= rel_tol * gamma:
        return lo, r_lo
    if r_lo.residual > gamma:
        raise GammaTooSmall(f"gamma={gamma!r} below the minimal attainable residual {r_lo.residual!r}")
    r_hi = solve_method(model, sd, b_hat, hi, method)
    if abs(r_hi.residual - gamma) <= rel_tol * gamma:
        return hi, r_hi
    if r_hi.residual < gamma:
        raise GammaTooLarge(f"gamma={gamma!r} above the largest attainable residual {r_hi.residual!r}")
    llo, lhi = math.log(lo), math.log(hi)
    for _ in range(200):
        mid = math.exp(0.5 * (llo + lhi))
        r_mid = solve_method(model, sd, b_hat, mid, method)
        if abs(r_mid.residual - gamma) <= rel_tol * gamma:
            return mid, r_mid
        if r_mid.residual < gamma:
            llo = math.log(mid)
        else:
            lhi = math.log(mid)
    raise IllConditioned("discrepancy bisection failed to converge")


SEARCHED_METHODS = (Method.STANDARD_TIKHONOV, Method.METHOD_I, Method.METHOD_II, Method.METHOD_III)


@pytest.fixture(scope="module")
def morozov_cases(random_systems):
    """(model, sd, b, gamma, method) over the ex6b-sized crime system (128 x 256)
    and the random systems; gamma in the bracket, at each endpoint's early
    exit, and below and above the attainable residuals."""
    rng = np.random.default_rng(47)
    fm, sd = crime_system(mesh_cells=32, ctrl=16)
    truth = np.zeros(fm.A_hat.shape[1])
    truth[[51, 52, 67, 68, 187, 188, 203, 204]] = 1.0
    clean = fm.A_hat @ truth
    noisy = clean + 0.2 * np.ptp(clean) * rng.standard_normal(clean.shape)
    systems = [(fm, sd, noisy)]
    systems += [(m, s, rng.standard_normal(m.A_hat.shape[0])) for m, s in random_systems]
    cases = []
    for fm, sd, b in systems:
        for method in SEARCHED_METHODS:
            r_lo = solve_method(fm, sd, b, 1e-14, method).residual
            r_hi = solve_method(fm, sd, b, 1e6, method).residual
            for gamma in (0.5 * (r_lo + r_hi), 0.9 * r_lo + 0.1 * r_hi, r_lo, r_hi, 0.5 * r_lo, 2 * r_hi):
                cases.append((fm, sd, b, gamma, method))
    return cases


def _outcome(search, case):
    try:
        return search(*case)
    except (GammaTooSmall, GammaTooLarge) as exc:
        return type(exc), str(exc)


class TestMorozovScalarSearch:
    def test_matches_stepwise_search_bitwise(self, morozov_cases):
        kinds = set()
        for case in morozov_cases:
            got, expected = _outcome(morozov, case), _outcome(stepwise_morozov, case)
            if isinstance(expected[1], str):
                assert got == expected
                kinds.add(expected[0])
                continue
            assert got[0] == expected[0]  # the same alpha, bit for bit
            assert np.array_equal(got[1].coeffs, expected[1].coeffs)
            assert got[1].residual == expected[1].residual
            kinds.add("solved")
        assert kinds == {"solved", GammaTooSmall, GammaTooLarge}

    def test_endpoint_gammas_exit_at_the_endpoints(self, morozov_cases):
        fm, sd, b, _, method = morozov_cases[0]
        for alpha in (1e-14, 1e6):
            gamma = solve_method(fm, sd, b, alpha, method).residual
            assert morozov(fm, sd, b, gamma, method)[0] == alpha

    def test_one_solve_per_search(self, morozov_cases, monkeypatch):
        # every solve, single or batched, is one _filter call
        calls = []
        solve = nullsrc.solvers._filter

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(nullsrc.solvers, "_filter", counted)
        searches = 0
        for case in morozov_cases:
            del calls[:]
            if not isinstance(_outcome(morozov, case)[1], str):
                assert len(calls) == 1
                searches += 1
        assert searches >= len(morozov_cases) // 2

    @pytest.fixture(scope="class")
    def ex6b(self):
        cfg = builtin_presets()["ex6b"]
        _, d_noisy, gamma = generate_data(cfg)
        setup = build_setup(cfg)
        fm = build_forward_model(setup.sys_inv, setup.basis_inv, setup.sys_inv.mesh)
        return cfg, fm, analyze(fm, cfg.rank_tol), fm.R @ d_noisy, gamma

    @pytest.mark.parametrize("method", [Method.METHOD_II, Method.METHOD_III])
    def test_final_solve_is_solve_method_at_the_chosen_alpha(self, ex6b, method):
        # the search's c = U^T b and floor serve its final solve: no bit moves
        cfg, fm, sd, b_hat, gamma = ex6b
        rule = cfg.alpha
        alpha, got = morozov(
            fm, sd, b_hat, gamma, method, alpha_range=(rule.alpha_min, rule.alpha_max), rel_tol=rule.rel_tol
        )
        expected = solve_method(fm, sd, b_hat, alpha, method)
        assert got.coeffs.tobytes() == expected.coeffs.tobytes()
        assert (got.alpha.hex(), got.residual.hex()) == (expected.alpha.hex(), expected.residual.hex())
        assert (got.argmax_cell, got.argmax_tieset) == (expected.argmax_cell, expected.argmax_tieset)


class TestNonFiniteAlpha:
    def test_solve_method_rejects_infinite_alpha(self, crime8):
        fm, sd = crime8
        with pytest.raises(ValueError, match="finite"):
            solve_method(fm, sd, fm.A_hat[:, 0], math.inf, Method.METHOD_II)

    def test_morozov_rejects_infinite_bracket(self, crime8):
        # gamma lies above every attainable residual, but no bisection may run
        fm, sd = crime8
        b = fm.A_hat[:, 0]
        with pytest.raises(ValueError, match="invalid alpha range"):
            morozov(fm, sd, b, 1e3, Method.METHOD_II, alpha_range=(1e-3, math.inf))
        with pytest.raises(GammaTooLarge):
            morozov(fm, sd, b, 1e3, Method.METHOD_II, alpha_range=(1e-3, 1e6))
