"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 2a holds method I at alpha = 1e-10 to tolerance 1e-6
against its own closed-form expansion at that alpha (the SVD filter-factor
form), and the exact zero-regularization limit to 1e-8 against the
projection expansion. The iterate itself sits about alpha / s_min^2 from
the limit (~9e-6 on this operator), which the 2a line prints alongside.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import nullsrc
from nullsrc import (
    DomainSpec,
    GammaTooLarge,
    GammaTooSmall,
    Method,
    Shape,
    SingularState,
    analyze,
    assemble,
    build_control_basis,
    build_forward_model,
    build_mesh,
    min_norm_lsq,
    morozov,
    spectral_data_from_matrix,
)
from nullsrc.cli import main
from nullsrc.control_space import cell_touches_boundary
from nullsrc.experiments import (
    ExperimentConfig,
    SigmaSpec,
    add_noise,
    builtin_presets,
    run_experiment,
)
from nullsrc.fem import StateSolver, stiffness_and_mass
from nullsrc.spectral import ForwardModel
from nullsrc.verify import (
    check_argmax_recovery,
    check_method_iii_consistency,
    check_minimum_norm_projection,
    check_norm_inequalities,
    check_projector_properties,
    expansion_deviation,
    random_rank_deficient,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")


def model_from_matrix(A):
    return ForwardModel(A=A, R=np.eye(A.shape[0]), A_hat=A), spectral_data_from_matrix(A)


def test_criterion_01_minimum_norm_oracle():
    t0 = time.time()
    result = check_minimum_norm_projection(np.random.default_rng(1001), trials=50)
    elapsed = time.time() - t0
    ok = result.passed and elapsed < 5.0
    report("criterion 1 (minimum-norm oracle)", ok, f"{result.detail} in {elapsed:.2f}s")
    assert result.passed
    assert elapsed < 5.0


def test_criterion_02a_method1_matches_expansion(crime8):
    fm, sd = crime8
    alpha = 1e-10
    t0 = time.time()
    worst = expansion_deviation(fm, sd, alpha=alpha)
    worst_limit = expansion_deviation(fm, sd, alpha=None)
    elapsed = time.time() - t0
    s_min = sd.s[sd.rank - 1]
    ok = worst <= 1e-6 and worst_limit <= 1e-8 and elapsed < 30.0
    report(
        "criterion 2a (method I matches its expansion: 1e-6 at alpha=1e-10, 1e-8 in the limit)",
        ok,
        f"max abs deviation {worst:.2e} from the same-alpha expansion, "
        f"{worst_limit:.2e} in the exact limit, in {elapsed:.2f}s "
        f"(iterate-to-limit scale alpha/s_min^2 = {alpha / s_min**2:.1e}, s_min={s_min:.2e})",
    )
    assert worst <= 1e-6
    assert worst_limit <= 1e-8
    assert elapsed < 30.0


def test_criterion_02b_method1_argmax_membership(crime8):
    fm, sd = crime8
    t0 = time.time()
    result = check_argmax_recovery(fm, sd, alpha=1e-10)
    elapsed = time.time() - t0
    ok = result.passed and elapsed < 30.0
    report(
        "criterion 2b (method I argmax membership, all 64 indices)",
        ok,
        f"{result.detail} in {elapsed:.2f}s",
    )
    assert result.passed
    assert elapsed < 30.0


def test_criterion_03_norm_inequalities(crime8):
    result = check_norm_inequalities(*crime8)
    report("criterion 3 (method II / III inequalities, slack 1e-10)", result.passed, result.detail)
    assert result.passed


def test_criterion_04_figure_reproduction():
    t0 = time.time()
    res = run_experiment(builtin_presets()["ex1"])
    touches = cell_touches_boundary(res.basis_inverse)
    std = res.outcomes["standard_tikhonov"]
    std_on_boundary = bool(touches[std.result.argmax_cell])
    true_cell = res.config.true_source[0][0]
    true_interior = not touches[true_cell]
    chebs = {
        name: res.outcomes[name].argmax_chebyshev
        for name in ("method_i", "method_ii", "method_iii")
    }
    elapsed = time.time() - t0
    ok = (
        std_on_boundary
        and true_interior
        and all(c <= 1 for c in chebs.values())
        and elapsed < 10.0
    )
    report(
        "criterion 4 (boundary-pile-up and weighted recovery)",
        ok,
        f"standard argmax on boundary={std_on_boundary}, "
        f"chebyshev distances {chebs} ({elapsed:.2f}s)",
    )
    assert true_interior
    assert std_on_boundary
    assert all(c <= 1 for c in chebs.values())
    assert elapsed < 10.0


def test_criterion_05_morozov():
    # scalar closed form: residual(alpha) = alpha/(1+alpha)
    fm, sd = model_from_matrix(np.array([[1.0]]))
    alpha, solved = morozov(fm, sd, np.array([1.0]), 0.5, Method.STANDARD_TIKHONOV)
    scalar_ok = abs(alpha - 1.0) <= 5e-3 and abs(solved.residual - 0.5) <= 1e-3 * 0.5

    with pytest.raises(GammaTooLarge):
        morozov(fm, sd, np.array([1.0]), 2.0, Method.STANDARD_TIKHONOV)

    rng = np.random.default_rng(1005)
    random_ok = True
    floors_checked = 0
    for _ in range(10):
        m = int(rng.integers(5, 14))
        n = int(rng.integers(3, 9))
        A = random_rank_deficient(rng, m, n, int(rng.integers(2, min(m, n) + 1)))
        fmr, sdr = model_from_matrix(A)
        b = rng.standard_normal(m)
        floor = float(np.linalg.norm(A @ min_norm_lsq(A, b) - b))
        ceil = float(np.linalg.norm(b))
        if floor > 1e-8:
            with pytest.raises(GammaTooSmall):
                morozov(fmr, sdr, b, 0.25 * floor, Method.METHOD_II)
            floors_checked += 1
        if ceil > 1.1 * max(floor, 1e-8):
            gamma = 0.6 * ceil if 0.6 * ceil > 1.2 * floor else 0.5 * (floor + ceil)
            _, r = morozov(fmr, sdr, b, gamma, Method.METHOD_III)
            random_ok &= abs(r.residual - gamma) <= 1e-3 * gamma
    ok = scalar_ok and random_ok and floors_checked >= 3
    report(
        "criterion 5 (discrepancy principle)",
        ok,
        f"scalar alpha={alpha:.4f}, residuals within 1e-3 of gamma on random "
        f"systems, {floors_checked} GammaTooSmall cases",
    )
    assert scalar_ok
    assert random_ok
    assert floors_checked >= 3


def test_criterion_06_projector_and_weights():
    # the inverse-crime system behind the figure reproduction, plus randoms
    mesh = build_mesh(builtin_presets()["ex1"].domain)
    sys_ = assemble(mesh, 1e-3)
    basis = build_control_basis(mesh, 8, 8)
    systems = [analyze(build_forward_model(sys_, basis, mesh))]
    rng = np.random.default_rng(1006)
    for _ in range(20):
        m = int(rng.integers(3, 16))
        n = int(rng.integers(2, 11))
        A = random_rank_deficient(rng, m, n, int(rng.integers(1, min(m, n) + 1)))
        systems.append(spectral_data_from_matrix(A))

    failed = [r.detail for r in map(check_projector_properties, systems) if not r.passed]
    report(
        "criterion 6 (projector and weight properties)",
        not failed,
        f"{len(systems) - len(failed)}/{len(systems)} systems pass; failed: {failed}",
    )
    assert not failed


def test_criterion_07_noise_model():
    rng = np.random.default_rng(1007)
    d = rng.uniform(-1.0, 3.0, 12_000)
    d_noisy, delta = add_noise(d, 0.05, seed=777)
    sample_std = float(np.std(d_noisy - d))
    stat_ok = abs(sample_std - delta) <= 0.05 * delta
    clean, delta0 = add_noise(d, 0.0, seed=777)
    clean_ok = delta0 == 0.0 and np.array_equal(clean, d)
    report(
        "criterion 7 (noise model)",
        stat_ok and clean_ok,
        f"sample std {sample_std:.5f} vs delta {delta:.5f} on 12000 values; "
        f"kappa=0 bit-identical={clean_ok}",
    )
    assert stat_ok
    assert clean_ok


def test_criterion_08_method3_consistency():
    result = check_method_iii_consistency(np.random.default_rng(1008), trials=10)
    report("criterion 8 (weighted-penalty solve matches stacked lstsq)", result.passed, result.detail)
    assert result.passed


def test_criterion_09_helmholtz_and_remaining_examples(tmp_path):
    # inverse-crime variant of the indefinite case on the 8x8 control grid
    cfg = ExperimentConfig(
        name="ex7_crime",
        domain=DomainSpec(Shape.UNIT_SQUARE, 16, 16),
        control_dims_forward=(8, 8),
        control_dims_inverse=(8, 8),
        epsilon=-1.0,
        sigma=SigmaSpec(),
        true_source=((4 * 8 + 2, 1.0),),
        methods=(Method.METHOD_I, Method.METHOD_II, Method.METHOD_III),
        alpha=1e-3,
        inverse_crime=True,
    )
    res = run_experiment(cfg)
    chebs = {m: o.argmax_chebyshev for m, o in res.outcomes.items()}
    helmholtz_ok = all(o.error is None for o in res.outcomes.values()) and all(
        c <= 2 for c in chebs.values()
    )

    # a state matrix tuned to a detected resonance must raise, not solve
    mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 8, 8))
    K, M = stiffness_and_mass(mesh)
    lam = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)[5]
    with pytest.raises(SingularState):
        StateSolver(assemble(mesh, -float(lam)))

    # remaining studies run to completion and export valid manifests
    presets = builtin_presets()
    manifest_ok = True
    for name in ("ex2", "ex3", "ex4", "ex5a", "ex5b", "ex6a", "ex6b", "ex7a", "ex7b"):
        out = tmp_path / name
        code = main(["preset", name, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        entries = manifest["methods"]
        manifest_ok &= (
            code == 0
            and manifest["config"]["name"] == name
            and manifest["rank"] > 0
            and 0 < manifest["w_min"] <= manifest["w_max"] <= 1 + 1e-12
            and len(entries) == len(presets[name].methods)
            and all("error" not in entry for entry in entries.values())
            and all(np.isfinite(entry["residual"]) for entry in entries.values())
        )
    ok = helmholtz_ok and manifest_ok
    report(
        "criterion 9 (Helmholtz and remaining examples)",
        ok,
        f"eps=-1 chebyshev {chebs}; resonance raises SingularState; "
        f"all presets exported valid manifests={manifest_ok}",
    )
    assert helmholtz_ok
    assert manifest_ok


def test_criterion_10_end_to_end_determinism(tmp_path):
    # ex1 is the one-thread inverse-crime path; ex6b the nested, noisy,
    # Morozov run whose SVDs go to a worker thread
    compared, identical = 0, True
    for preset in ("ex1", "ex6b"):
        outs = []
        for sub in ("first", "second"):
            out = tmp_path / preset / sub
            assert main(["preset", preset, "--out", str(out)]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        identical &= names == sorted(p.name for p in outs[1].iterdir()) and all(
            (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
        )
        compared += len(names)
    report(
        "criterion 10 (bit-identical reruns)",
        identical,
        f"{compared} files of ex1 and ex6b compared byte-for-byte",
    )
    assert identical


def test_compare_presets_finds_every_preset_byte_identical():
    # criterion 10 across processes: the script every output-preserving
    # change is checked with runs all presets, their spectra and verify
    # twice in fresh interpreters
    src = Path(nullsrc.__file__).resolve().parent.parent
    script = Path(__file__).resolve().parent.parent / "scripts" / "compare_presets.py"
    done = subprocess.run(
        [sys.executable, str(script), f"a={src}", f"b={src}"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = done.stdout.splitlines()
    presets = [line for line in lines if line.endswith("byte-identical")]
    report(
        "compare_presets (cross-process determinism)",
        done.returncode == 0,
        f"{len(presets)} of {len(builtin_presets())} presets byte-identical",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert [line.split(":")[0] for line in presets] == [*sorted(builtin_presets()), "verify"]
    assert "every manifest number is equal" in lines
