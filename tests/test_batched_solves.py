"""One SVD filter for many right-hand sides: `method_coeffs` on a matrix of
data columns, and the `verify` checks that solve through it."""

import numpy as np
import pytest

import nullsrc.solvers
import nullsrc.spectral
import nullsrc.verify
from nullsrc import IllConditioned, Method, build_forward_model, min_norm_lsq, solve_method
from nullsrc.experiments import build_setup, builtin_presets
from nullsrc.solvers import ARGMAX_TIE_TOL, method_coeffs
from nullsrc.spectral import ForwardModel, analyze
from nullsrc.verify import check_argmax_recovery, run_all

ALPHAS = {method: (0.0 if method is Method.MIN_NORM else 1e-3) for method in Method}


@pytest.fixture(scope="module")
def ex5a():
    setup = build_setup(builtin_presets()["ex5a"])
    fm = build_forward_model(setup.sys_inv, setup.basis_inv, setup.sys_inv.mesh)
    return fm, analyze(fm)


def data_columns(fm, seed):
    """Every unit-source datum A_hat e_j, plus noisy random combinations."""
    rng = np.random.default_rng(seed)
    A = fm.A_hat
    mixed = A @ rng.standard_normal((A.shape[1], 4))
    return np.hstack([A, mixed + 1e-3 * np.abs(mixed).max() * rng.standard_normal(mixed.shape)])


def tie_set(column):
    return tuple(np.flatnonzero(column >= column.max() - ARGMAX_TIE_TOL).tolist())


@pytest.mark.parametrize("system", ["crime8", "ex5a"])
@pytest.mark.parametrize("method", list(Method))
def test_matrix_rhs_matches_per_column_solves(request, system, method):
    fm, sd = request.getfixturevalue(system)
    B = data_columns(fm, seed=61)
    X = method_coeffs(sd, B, ALPHAS[method], method)
    assert X.shape == (fm.A_hat.shape[1], B.shape[1])
    solves = [solve_method(fm, sd, b, ALPHAS[method], method) for b in B.T]
    columns = np.column_stack([r.coeffs for r in solves])
    # the matrix and vector products round differently by up to eps * kappa * |x|
    s = sd.weighted_svd[1] if method in (Method.METHOD_II, Method.METHOD_III) else sd.s
    tol = np.finfo(float).eps * s[0] / s[sd.rank - 1] * np.abs(columns).max()
    np.testing.assert_allclose(X, columns, rtol=0, atol=tol)
    assert [tie_set(x) for x in X.T] == [r.argmax_tieset for r in solves]


def test_zero_alpha_limits_equal_min_norm_lsq(crime8):
    fm, sd = crime8
    A, w = fm.A_hat, sd.p_norms
    B = data_columns(fm, seed=63)
    assert np.array_equal(method_coeffs(sd, B, 0.0, Method.STANDARD_TIKHONOV), min_norm_lsq(A, B))
    assert np.array_equal(method_coeffs(sd, B, 0.0, Method.METHOD_II), min_norm_lsq(A / w, B))


def test_nonfinite_column_raises(crime8):
    fm, sd = crime8
    B = fm.A_hat.copy()
    B[3, 5] = np.nan
    for method in Method:
        with pytest.raises(IllConditioned, match="not all finite"):
            method_coeffs(sd, B, ALPHAS[method], method)


def test_crime_checks_solve_on_the_stored_svds(monkeypatch):
    svds, solves = [], []
    thin_svd = nullsrc.spectral.thin_svd

    def counted_svd(M):
        svds.append(M.shape)
        return thin_svd(M)

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return solve_method(*args, **kwargs)

    for module in (nullsrc.spectral, nullsrc.solvers):
        monkeypatch.setattr(module, "thin_svd", counted_svd)
    for module in (nullsrc.solvers, nullsrc.verify):
        monkeypatch.setattr(module, "solve_method", counted_solve, raising=False)
    # leave only the crime-system checks, whose SVDs are analyze's two per system
    skipped = nullsrc.verify.CheckResult("skipped", True, "")
    monkeypatch.setattr(nullsrc.verify, "check_minimum_norm_projection", lambda rng, trials: skipped)
    monkeypatch.setattr(nullsrc.verify, "check_method_iii_consistency", lambda rng, trials: skipped)
    results = run_all()
    assert all(r.passed for r in results)
    assert len(results) == 8
    assert svds == [(32, 64)] * 2 + [(64, 64)] * 2  # 8x8 and 16x16 cells: A_hat, A_hat W^-1
    assert solves == []


def test_argmax_recovery_rejects_nan_data(crime8):
    fm, sd = crime8
    A_hat = fm.A_hat.copy()
    A_hat[0, 0] = np.nan
    with pytest.raises(IllConditioned):
        check_argmax_recovery(ForwardModel(A=fm.A, R=fm.R, A_hat=A_hat), sd)
