"""Command-line interface tests (direct main() invocations)."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

import nullsrc.cli
import nullsrc.experiments
from nullsrc import ConfigError, SingularState, _blas
from nullsrc.cli import main
from nullsrc.experiments import builtin_presets, config_to_dict, export_result, run_experiment


def test_preset_run_creates_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["preset", "ex1", "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert "wrote" in capsys.readouterr().out


def test_unknown_preset_exits_2(tmp_path, capsys):
    assert main(["preset", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_override_echoed_in_manifest(tmp_path):
    out = tmp_path / "o"
    code = main(["preset", "ex1", "--out", str(out), "--override", "alpha=1e-4"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["alpha"] == 1e-4
    assert manifest["methods"]["method_ii"]["alpha"] == 1e-4


def test_unknown_override_exits_2(tmp_path, capsys):
    code = main(["preset", "ex1", "--out", str(tmp_path), "--override", "gamma=2"])
    assert code == 2
    assert "unknown override" in capsys.readouterr().err


def test_malformed_override_exits_2(tmp_path, capsys):
    code = main(["preset", "ex1", "--out", str(tmp_path), "--override", "alpha"])
    assert code == 2


def test_run_with_config_file(tmp_path):
    cfg = builtin_presets()["ex1"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


def test_run_with_missing_config_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)])
    assert code == 2


def test_usage_error_exits_2():
    assert main(["preset"]) == 2
    assert main([]) == 2


def test_verify_has_no_quick_mode(capsys):
    assert main(["verify", "--quick"]) == 2
    assert "--quick" in capsys.readouterr().err


def _file_as_out(tmp_path):
    (tmp_path / "file").write_text("")
    return tmp_path / "file", "file"


def _under_a_file(tmp_path):
    (tmp_path / "file").write_text("")
    return tmp_path / "file" / "sub", "sub"


def _manifest_is_a_directory(tmp_path):
    (tmp_path / "o" / "manifest.json").mkdir(parents=True)
    return tmp_path / "o", "manifest.json"


@pytest.mark.parametrize("make_out", [_file_as_out, _under_a_file, _manifest_is_a_directory])
def test_unwritable_out_exits_2_with_one_error_line(tmp_path, capsys, make_out):
    out, named = make_out(tmp_path)
    assert main(["preset", "ex1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write output {out}: ")
    assert named in lines[0]


def test_rerun_into_an_out_dir_leaves_only_its_own_files(tmp_path):
    out = tmp_path / "o"
    assert main(["preset", "ex1", "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept")
    assert main(["preset", "ex1", "--out", str(out), "--override", "methods=II"]) == 0
    assert sorted(path.name for path in out.glob("source_*.csv")) == ["source_method_ii.csv"]
    assert list(json.loads((out / "manifest.json").read_text())["methods"]) == ["method_ii"]
    assert (out / "notes.txt").read_text() == "kept"


def test_export_failing_midway_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    out = tmp_path / "o"
    assert main(["preset", "ex1", "--out", str(out)]) == 0
    write_csv = nullsrc.experiments._write_csv

    def full_disk(path, *args):
        if path.name == "boundary.csv":
            raise OSError(28, "No space left on device", str(path))
        write_csv(path, *args)

    monkeypatch.setattr(nullsrc.experiments, "_write_csv", full_disk)
    assert main(["preset", "ex1", "--out", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert (out / "true_source.csv").exists() and not (out / "boundary.csv").exists()


# sha256 of `nullsrc spectrum --preset P` output without its `config` echo,
# re-serialized with indent=2 and sorted keys, recorded with numpy 2.4.6
# and scipy 1.17.1; other builds may round the SVD differently. The echo is
# checked on its own, so a config-schema change leaves the digests alone.
# The three presets have distinct inversion systems: ex3 the identity sigma
# at epsilon = 1e-3 (ex5a, ex5b, ex6a and ex6b share it), ex4 the affine
# sigma, whose spectrum moves with the last bits of S, and ex7b epsilon < 0.
# The ex3 digest was re-recorded when build_forward_model began solving one
# unit column per boundary node (128 here) instead of one load per control
# (256): that sums A in another order, so the JSON moves in its last digits.
# spectrum_reference.json keeps ex3's numbers of the per-control build, and
# the test holds the new output to them; ex4 and ex7b were recorded from
# the boundary-node build before it solved in column blocks.
SPECTRUM_SHA256 = {
    "ex3": "869cda34ec26155bc27677a83ebdb05be3d34bc4a65fee4fceacbfdff1447922",
    "ex4": "752ef9bfa0e9099cea28c3db27eb8acd630ac35bcedb826b6758e0824345e969",
    "ex7b": "9c0149601821aa7dc4b90c9a5009cc8cc75f6d43817818514d008c3fc44ed658",
}
SPECTRUM_REFERENCE = json.loads((Path(__file__).parent / "spectrum_reference.json").read_text())


@pytest.mark.parametrize("preset", sorted(SPECTRUM_SHA256))
def test_spectrum_builds_only_the_inversion_side(capsys, monkeypatch, preset):
    built = []

    def refuse(mesh):
        raise AssertionError("spectrum refined the inversion mesh")

    def counting(function):
        def wrapper(*args, **kwargs):
            built.append(function.__name__)
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(nullsrc.experiments, "refine_uniform", refuse)
    for name in ("assemble", "build_control_basis"):
        monkeypatch.setattr(nullsrc.experiments, name, counting(getattr(nullsrc.experiments, name)))
    assert main(["spectrum", "--preset", preset]) == 0
    assert built == ["assemble", "build_control_basis"]
    out = capsys.readouterr().out
    data, reference = json.loads(out), SPECTRUM_REFERENCE[preset]
    assert data["rank"] == reference["rank"]
    retained = np.array(reference["retained_singular_values"])
    np.testing.assert_allclose(data["singular_values"][: data["rank"]], retained, rtol=1e-9, atol=0)
    assert data.pop("config") == json.loads(json.dumps(config_to_dict(builtin_presets()[preset])))
    if (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"):
        pytest.skip("output digests were recorded with numpy 2.4.6 and scipy 1.17.1")
    numbers = json.dumps(data, indent=2, sort_keys=True)
    assert hashlib.sha256(numbers.encode()).hexdigest() == SPECTRUM_SHA256[preset]


def test_spectrum_outputs_json(capsys):
    assert main(["spectrum", "--preset", "ex1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rank"] > 0
    assert len(data["p_norms"]) == 64
    assert all(0 < w <= 1 + 1e-12 for w in data["p_norms"])


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_solver_error_exits_1(tmp_path, capsys):
    # epsilon = 0 makes the state matrix singular (pure Neumann)
    out = tmp_path / "o"
    code = main(["preset", "ex1", "--out", str(out), "--override", "epsilon=0"])
    assert code == 1
    assert "SingularState" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["ex5a", "ex1"])
def test_config_error_wins_over_a_singular_inversion_system(tmp_path, capsys, preset):
    # epsilon = 0 makes the inversion system singular, but in turn the data
    # synthesis meets the out-of-range true-source cell before any factor
    cfg = replace(builtin_presets()[preset], epsilon=0.0, true_source=((999, 1.0),))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "true-source cell 999" in err and "SingularState" not in err


@pytest.mark.parametrize("epsilon", ["0", "1e-14"])
def test_near_neumann_nested_run_exits_1(tmp_path, capsys, epsilon):
    # for epsilon > 0 the fine data solve is CG, so the coarse factor's
    # pivot check must catch the near-singular state
    code = main(["preset", "ex5a", "--out", str(tmp_path / "o"), "--override", f"epsilon={epsilon}"])
    assert code == 1
    assert "SingularState" in capsys.readouterr().err


def test_manifest_names_the_data_solve_and_rank_cut(tmp_path):
    manifests = {}
    for preset in ("ex1", "ex5a", "ex7b"):
        assert main(["preset", preset, "--out", str(tmp_path / preset)]) == 0
        manifests[preset] = json.loads((tmp_path / preset / "manifest.json").read_text())
    assert manifests["ex1"]["data_solve"] == {"method": "splu", "iterations": 0}
    assert manifests["ex5a"]["data_solve"]["method"] == "two_grid_cg"
    assert manifests["ex7b"]["data_solve"]["method"] == "two_grid_bicgstab"
    for preset in ("ex5a", "ex7b"):
        assert 0 < manifests[preset]["data_solve"]["iterations"] <= 50
        assert "fallback" not in manifests[preset]["data_solve"]
    for m in manifests.values():
        assert m["rank_cut"] == m["config"]["rank_tol"] * m["s_max"]
        assert m["s_min_retained"] > m["rank_cut"]


def _run_ex4_with_sigma(tmp_path, kappa1, kappa2):
    data = config_to_dict(builtin_presets()["ex4"])
    data["sigma"] = {"kappa1": kappa1, "kappa2": kappa2}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    return json.loads((tmp_path / "o" / "manifest.json").read_text())


def test_strongly_anisotropic_run_falls_back_to_lu(tmp_path):
    # two-grid CG with point-Jacobi smoothing needs hundreds of iterations
    # here; it gives up at its early check, the run still succeeds and its
    # manifest says why LU solved it
    manifest = _run_ex4_with_sigma(tmp_path, [1.0, 100.0, 0.0], [0.01, 0.0, 0.0])
    solve = manifest["data_solve"]
    assert solve["method"] == "splu" and solve["iterations"] <= 10
    assert "stalled" in solve["fallback"]
    assert all("error" not in entry for entry in manifest["methods"].values())


def test_tenfold_anisotropy_still_converges_by_cg(tmp_path):
    manifest = _run_ex4_with_sigma(tmp_path, [1.0, 0.0, 0.0], [0.1, 0.0, 0.0])
    assert manifest["data_solve"]["method"] == "two_grid_cg"
    assert "fallback" not in manifest["data_solve"]


def test_huge_noise_level_exits_2_without_manifest(tmp_path, capsys):
    # finite kappa whose noise norm overflows: no Infinity may reach a manifest
    out = tmp_path / "o"
    assert main(["preset", "ex1", "--out", str(out), "--override", "kappa=1e300"]) == 2
    assert "gamma" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def fresh_cli(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, so numpy's RuntimeWarnings would reach stderr."""
    src = str(Path(nullsrc.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "nullsrc.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.parametrize("kappa", ["1e160", "1e300"])
def test_huge_noise_level_prints_only_the_error_line(tmp_path, kappa):
    done = fresh_cli("preset", "ex1", "--out", str(tmp_path / "o"), "--override", f"kappa={kappa}")
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "gamma" in lines[0]


@pytest.mark.parametrize(
    "amplitude, code, n_lines, prefix, message",
    [
        (1e308, 2, 1, "error: ", "true-source amplitudes"),
        (1e300, 1, 4, "method ", "failed: IllConditioned: non-finite residual and l2_error"),
    ],
    ids=["1e308", "1e300"],
)
def test_huge_source_amplitude_prints_only_the_error_line(
    tmp_path, amplitude, code, n_lines, prefix, message
):
    # 1e308 overflows the boundary data itself; 1e300 only the norms after
    # the solve, which fails each method (one line per method)
    data = config_to_dict(builtin_presets()["ex1"])
    data["true_source"] = [{"cell": 34, "amplitude": amplitude}]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    done = fresh_cli("run", "--config", str(config), "--out", str(tmp_path / "o"))
    assert done.returncode == code
    lines = done.stderr.splitlines()
    assert len(lines) == n_lines
    assert all(line.startswith(prefix) and message in line for line in lines)
    assert all("kappa" not in line for line in lines)


@pytest.mark.parametrize(
    "override, message",
    [
        ("alpha=nan", "finite"),
        ("alpha=inf", "finite"),
        ("kappa=nan", "finite"),
        ("epsilon=nan", "finite"),
        ("epsilon=inf", "finite"),
        ("rank_tol=-1", "rank_tol"),
        ("rank_tol=2", "rank_tol"),
    ],
)
def test_bad_number_override_exits_2(tmp_path, capsys, override, message):
    assert main(["preset", "ex1", "--out", str(tmp_path / "o"), "--override", override]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset, key, value, message",
    [
        ("ex4", "sigma", {"kappa1": [1.0, 0.5], "kappa2": [1, 0, 0]}, "kappa1"),
        ("ex6a", "alpha", {"rule": "morozov", "alpha_min": 0}, "alpha_min"),
        ("ex6a", "alpha", {"rule": "morozov", "rel_tol": 0}, "rel_tol"),
        ("ex1", "true_source", [{"cell": 34, "amplitude": float("nan")}], "finite"),
        ("ex1", "control_dims_forward", [5, 5], "straddles"),
        ("ex1", "control_dims_inverse", [0, 8], "positive"),
        ("ex1", "control_dims_forward", [8, 8, 8], "two entries"),
        ("ex4", "sigma", {"kappa1": [-1, 0, 0], "kappa2": [1, 0, 0]}, "positive"),
        ("ex1", "inverse_crime", "false", "expected true or false"),
        ("ex1", "seed", 1.5, "expected an integer"),
        ("ex1", "domain", {"shape": "unit_square", "nx": 8.9, "ny": 8}, "expected an integer"),
        ("ex1", "true_source", [{"cell": 5.7, "amplitude": 1.0}], "expected an integer"),
        ("ex1", "methods", "ii", "expected an array"),
        ("ex1", "control_dims_inverse", "44", "expected an array"),
        ("ex4", "sigma", {"kappa1": "123", "kappa2": [1, 0, 0]}, "expected an array"),
        ("ex1", "epsilon", True, "expected a number"),
        ("ex1", "sigma", {"kappa1": [-1, 0, 0], "kappa2": [1, 0, 0]}, "positive"),
        ("ex4", "sigma", {"kind": "affine", "kappa1": [1, 0.5, 0], "kappa2": [1, 0, 0.25]}, "'kind'"),
        ("ex1", "noise_kapa", 0.2, "'noise_kapa'"),
        ("ex1", "domain", {"shape": "unit_square", "nx": 16, "ny": 16, "nz": 4}, "'nz'"),
        ("ex6a", "alpha", {"rule": "morozov", "alpha_mn": 1e-8}, "'alpha_mn'"),
        ("ex1", "true_source", [{"cell": 34, "amplitdue": 2.0}], "'amplitdue'"),
        ("ex1", "name", None, "expected a string, got None"),
        ("ex1", "methods", ["ii", "method_ii"], "each method once, got ['method_ii', 'method_ii']"),
    ],
    ids=[
        "kappa1-length-2",
        "alpha_min-0",
        "rel_tol-0",
        "amplitude-nan",
        "control-dims-5x5-on-16x16",
        "control-dims-0x8",
        "control-dims-three-entries",
        "kappa1-negative",
        "inverse-crime-string",
        "seed-float",
        "nx-float",
        "cell-float",
        "methods-string",
        "control-dims-string",
        "kappa1-string",
        "epsilon-bool",
        "kappa1-negative-without-kind",
        "sigma-kind",
        "unknown-top-level-key",
        "unknown-domain-key",
        "unknown-alpha-key",
        "unknown-true-source-key",
        "name-null",
        "method-twice",
    ],
)
def test_bad_config_value_exits_2(tmp_path, capsys, preset, key, value, message):
    data = config_to_dict(builtin_presets()[preset])
    data[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_huge_mesh_exits_2_without_traceback(tmp_path, capsys):
    # the first mesh array of a 1e9 x 1e9 grid asks for ~1e18 bytes, so the
    # allocation fails at once without touching memory
    data = config_to_dict(builtin_presets()["ex1"])
    data["domain"]["nx"] = data["domain"]["ny"] = 10**9
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "too large for available memory" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not out.exists()


def _thread_counts():
    return [get() for get, _ in _blas.pools()]


@pytest.fixture
def raised_pools():
    """Every OpenBLAS pool at a distinct count above 1, restored afterwards."""
    if not _blas.pools():
        pytest.skip("no OpenBLAS pool found in numpy.libs or scipy.libs")
    original = _thread_counts()
    raised = [2 + i for i in range(len(original))]
    for (_, set_), count in zip(_blas.pools(), raised):
        set_(count)
    try:
        yield raised
    finally:
        for (_, set_), count in zip(_blas.pools(), original):
            set_(count)


@pytest.mark.parametrize(
    "raised, code",
    [(None, 0), (ConfigError("bad"), 2), (SingularState("singular"), 1)],
    ids=["ok", "config-error", "singular-state"],
)
def test_commands_run_on_one_blas_thread(tmp_path, monkeypatch, raised_pools, raised, code):
    seen = []

    def fake_run_experiment(cfg):
        seen.append(_thread_counts())
        if raised is not None:
            raise raised
        return run_experiment(cfg)

    monkeypatch.setattr(nullsrc.cli, "run_experiment", fake_run_experiment)
    assert main(["preset", "ex1", "--out", str(tmp_path / "o")]) == code
    assert seen == [[1] * len(raised_pools)]
    assert _thread_counts() == raised_pools


def test_import_leaves_blas_threads_alone():
    # a fresh process reads the counts with _blas loaded on its own, then
    # imports the package and reads them again
    if not _blas.pools():
        pytest.skip("no OpenBLAS pool found in numpy.libs or scipy.libs")
    script = (
        "import importlib.util, json\n"
        f"spec = importlib.util.spec_from_file_location('probe', {_blas.__file__!r})\n"
        "probe = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(probe)\n"
        "before = [get() for get, _ in probe.pools()]\n"
        "import nullsrc, nullsrc.cli\n"
        "print(json.dumps([before, [get() for get, _ in probe.pools()]]))\n"
    )
    src = str(Path(nullsrc.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    before, after = json.loads(done.stdout)
    assert before and after == before


@pytest.mark.parametrize("preset", ["ex1", "ex5a"])
def test_thread_cap_changes_no_output(tmp_path, preset):
    # cli.main runs at one BLAS thread, the library call at the caller's count
    assert main(["preset", preset, "--out", str(tmp_path / "cli")]) == 0
    export_result(run_experiment(builtin_presets()[preset]), tmp_path / "lib")
    names = sorted(p.name for p in (tmp_path / "cli").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "lib").iterdir())
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()
