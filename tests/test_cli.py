"""Command-line interface tests (direct main() invocations)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nullsrc.cli
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


def test_spectrum_outputs_json(capsys):
    assert main(["spectrum", "--preset", "ex1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rank"] > 0
    assert len(data["p_norms"]) == 64
    assert all(0 < w <= 1 + 1e-12 for w in data["p_norms"])


def test_verify_quick_passes(capsys):
    assert main(["verify", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_solver_error_exits_1(tmp_path, capsys):
    # epsilon = 0 makes the state matrix singular (pure Neumann)
    out = tmp_path / "o"
    code = main(["preset", "ex1", "--out", str(out), "--override", "epsilon=0"])
    assert code == 1
    assert "SingularState" in capsys.readouterr().err


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
    "amplitude, code, message",
    [(1e308, 2, "true-source amplitudes"), (1e300, 1, "refusing to export a non-finite result")],
    ids=["1e308", "1e300"],
)
def test_huge_source_amplitude_prints_only_the_error_line(tmp_path, amplitude, code, message):
    # 1e308 overflows the boundary data itself; 1e300 only the norms after the solve
    data = config_to_dict(builtin_presets()["ex1"])
    data["true_source"] = [{"cell": 34, "amplitude": amplitude}]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    done = fresh_cli("run", "--config", str(config), "--out", str(tmp_path / "o"))
    assert done.returncode == code
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and message in lines[0] and "kappa" not in lines[0]


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
        ("ex4", "sigma", {"kind": "affine", "kappa1": [1.0, 0.5], "kappa2": [1, 0, 0]}, "kappa1"),
        ("ex6a", "alpha", {"rule": "morozov", "alpha_min": 0}, "alpha_min"),
        ("ex6a", "alpha", {"rule": "morozov", "rel_tol": 0}, "rel_tol"),
        ("ex1", "true_source", [{"cell": 34, "amplitude": float("nan")}], "finite"),
        ("ex1", "control_dims_forward", [5, 5], "straddles"),
        ("ex1", "control_dims_inverse", [0, 8], "positive"),
        ("ex1", "control_dims_forward", [8, 8, 8], "two entries"),
        ("ex4", "sigma", {"kind": "affine", "kappa1": [-1, 0, 0], "kappa2": [1, 0, 0]}, "positive"),
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
