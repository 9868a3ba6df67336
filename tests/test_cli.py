"""Command-line interface tests (direct main() invocations)."""

import json

import pytest

from nullsrc.cli import main
from nullsrc.experiments import builtin_presets, config_to_dict


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
    ],
    ids=["kappa1-length-2", "alpha_min-0", "rel_tol-0", "amplitude-nan"],
)
def test_bad_config_value_exits_2(tmp_path, capsys, preset, key, value, message):
    data = config_to_dict(builtin_presets()[preset])
    data[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
