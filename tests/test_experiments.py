"""Experiment pipeline tests: data generation, noise, presets, exports."""

import json

import numpy as np
import pytest

import nullsrc.fem
from nullsrc import ConfigError, DomainSpec, Method, NullsrcError, Shape
from nullsrc.experiments import (
    ExperimentConfig,
    MorozovRule,
    SigmaSpec,
    add_noise,
    apply_overrides,
    builtin_presets,
    config_from_dict,
    config_to_dict,
    export_result,
    generate_data,
    load_config,
    run_experiment,
)


def crime_cfg(**kwargs):
    base = dict(
        name="t",
        domain=DomainSpec(Shape.UNIT_SQUARE, 8, 8),
        control_dims_forward=(8, 8),
        control_dims_inverse=(8, 8),
        epsilon=1e-3,
        sigma=SigmaSpec(),
        true_source=((34, 1.0),),
        methods=(Method.METHOD_II,),
        alpha=1e-3,
        inverse_crime=True,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestGenerateData:
    def test_zero_source_zero_data(self):
        d, d_noisy, gamma = generate_data(crime_cfg(true_source=()))
        assert np.all(d == 0) and np.all(d_noisy == 0) and gamma == 0.0

    def test_constant_source_constant_data(self):
        # f = eps has basis coefficients eps*sqrt(area); trace is 1
        coeffs = tuple((i, 1e-3 / 8.0) for i in range(64))
        d, _, _ = generate_data(crime_cfg(true_source=coeffs))
        np.testing.assert_allclose(d, 1.0, atol=1e-8)

    def test_restriction_is_nodal_injection(self):
        # coarse boundary values must equal the fine solution at the
        # coincident nodes, located independently by coordinate matching
        from nullsrc import assemble, build_mesh, refine_uniform
        from nullsrc.control_space import build_control_basis, control_load_matrix

        cfg = crime_cfg(
            domain=DomainSpec(Shape.UNIT_SQUARE, 16, 16),
            inverse_crime=False,
            control_dims_forward=(8, 8),
            control_dims_inverse=(8, 8),
        )
        d, _, _ = generate_data(cfg)

        coarse = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 8, 8))
        fine, _ = refine_uniform(coarse)
        sys_f = assemble(fine, cfg.epsilon)
        basis_f = build_control_basis(fine, 8, 8)
        a = np.zeros(64)
        a[34] = 1.0
        u = sys_f.solver.solve(control_load_matrix(basis_f, fine) @ a)
        d_fine = u[sys_f.trace_map]
        fine_xy = {tuple(xy): i for i, xy in enumerate(fine.nodes[fine.boundary_nodes])}
        for k, node in enumerate(coarse.boundary_nodes):
            pos = fine_xy[tuple(coarse.nodes[node])]
            assert d[k] == d_fine[pos]

    def test_morozov_requires_noise(self):
        with pytest.raises(ConfigError):
            generate_data(crime_cfg(alpha=MorozovRule(), noise_kappa=0.0))

    def test_odd_fine_mesh_rejected_without_crime(self):
        with pytest.raises(ConfigError):
            generate_data(
                crime_cfg(domain=DomainSpec(Shape.UNIT_SQUARE, 9, 9), inverse_crime=False)
            )


class TestAddNoise:
    def test_zero_kappa_bit_identical(self):
        d = np.linspace(0.0, 1.0, 50)
        d_noisy, delta = add_noise(d, 0.0, 7)
        assert delta == 0.0
        assert np.array_equal(d_noisy, d)

    def test_constant_data_no_noise(self):
        d = np.full(30, 3.25)
        d_noisy, delta = add_noise(d, 0.5, 7)
        assert delta == 0.0
        assert np.array_equal(d_noisy, d)

    def test_sample_std_matches_delta(self):
        rng = np.random.default_rng(8)
        d = rng.uniform(0.0, 2.0, 10_000)
        d_noisy, delta = add_noise(d, 0.05, 12345)
        assert delta == pytest.approx(0.05 * (d.max() - d.min()))
        sample_std = np.std(d_noisy - d)
        assert abs(sample_std - delta) <= 0.05 * delta

    def test_seed_reproducible(self):
        d = np.linspace(0.0, 1.0, 100)
        a, _ = add_noise(d, 0.1, 99)
        b, _ = add_noise(d, 0.1, 99)
        c, _ = add_noise(d, 0.1, 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("span, kappa", [(1e10, 1e300), (1.0, 1e308)])
    @pytest.mark.filterwarnings("error")
    def test_overflow_is_silent(self, span, kappa):
        # delta, or the noise itself, overflows to inf without a numpy
        # warning; the caller's finiteness check on gamma reports it
        d_noisy, _ = add_noise(np.array([0.0, span]), kappa, 3)
        assert not np.isfinite(d_noisy).all()


class TestRunExperiment:
    def test_inverse_crime_truth_passthrough(self):
        cfg = crime_cfg()
        res = run_experiment(cfg)
        expected = np.zeros(64)
        expected[34] = 1.0
        np.testing.assert_allclose(res.truth_coeffs, expected, atol=1e-12)
        out = res.outcomes["method_ii"]
        assert out.error is None
        assert out.argmax_chebyshev <= 1
        recomputed = float(np.linalg.norm(out.result.coeffs - res.truth_coeffs))
        assert recomputed == pytest.approx(out.l2_error, rel=1e-10)

    def test_per_method_error_capture(self):
        # gamma below the attainable residual floor: morozov fails for the
        # method but the run still completes and reports the failure
        cfg = crime_cfg(
            methods=(Method.METHOD_II, Method.METHOD_III),
            alpha=MorozovRule(alpha_min=1e-8, alpha_max=1e-7, rel_tol=1e-6),
            noise_kappa=0.05,
            seed=3,
        )
        res = run_experiment(cfg)
        assert all(out.error is not None for out in res.outcomes.values())
        assert all("Gamma" in out.error for out in res.outcomes.values())

    def test_multisource_chebyshev_distance(self):
        cfg = crime_cfg(true_source=((0, 1.0), (63, 1.0)), methods=(Method.METHOD_III,))
        res = run_experiment(cfg)
        # argmax near one of the two opposite corner cells
        assert res.outcomes["method_iii"].argmax_chebyshev <= 1

    @pytest.mark.parametrize("inverse_crime, factors", [(True, 1), (False, 2)])
    def test_one_factorization_per_system(self, monkeypatch, inverse_crime, factors):
        calls = []
        original = nullsrc.fem.StateSolver

        def counting(sys):
            calls.append(sys)
            return original(sys)

        monkeypatch.setattr(nullsrc.fem, "StateSolver", counting)
        cfg = crime_cfg(
            inverse_crime=inverse_crime,
            control_dims_forward=(4, 4),
            control_dims_inverse=(4, 4),
            true_source=((5, 1.0),),
        )
        run_experiment(cfg)
        assert len(calls) == factors

    def test_s_min_retained_is_last_value_above_rank_cut(self):
        from nullsrc import analyze, build_forward_model
        from nullsrc.experiments import build_setup

        cfg = builtin_presets()["ex5a"]
        res = run_experiment(cfg)
        setup = build_setup(cfg)
        fm = build_forward_model(setup.sys_inv, setup.basis_inv, setup.mesh_inv)
        sd = analyze(fm, cfg.rank_tol)
        assert sd.rank < sd.s.size  # the cut falls inside the spectrum
        assert res.s_min_retained == sd.s[sd.rank - 1]
        assert res.s_min_retained >= cfg.rank_tol * res.s_max
        assert res.s_min < cfg.rank_tol * res.s_max


class TestPresets:
    def test_names(self):
        names = set(builtin_presets())
        assert names == {
            "ex1", "ex2", "ex3", "ex4", "ex5a", "ex5b", "ex6a", "ex6b", "ex7a", "ex7b",
        }

    def test_ex1_is_single_interior_crime(self):
        cfg = builtin_presets()["ex1"]
        assert cfg.inverse_crime
        assert cfg.epsilon == 1e-3 and cfg.alpha == 1e-3
        assert len(cfg.true_source) == 1
        (cell, amp), = cfg.true_source
        gx, gy = cell % 8, cell // 8
        assert 0 < gx < 7 and 0 < gy < 7  # interior cell
        assert amp == 1.0

    def test_ex2_lshape(self):
        cfg = builtin_presets()["ex2"]
        assert cfg.domain.shape is Shape.L_SHAPE
        assert not cfg.inverse_crime

    def test_ex3_alpha(self):
        assert builtin_presets()["ex3"].alpha == 1e-4

    def test_ex6_noise_levels_and_rule(self):
        presets = builtin_presets()
        assert presets["ex6a"].noise_kappa == 0.05
        assert presets["ex6b"].noise_kappa == 0.20
        assert isinstance(presets["ex6a"].alpha, MorozovRule)

    def test_ex7_epsilons(self):
        presets = builtin_presets()
        assert presets["ex7a"].epsilon == -1.0
        assert presets["ex7b"].epsilon == -100.0

    def test_config_round_trip(self):
        for cfg in builtin_presets().values():
            assert config_from_dict(config_to_dict(cfg)) == cfg


class TestOverrides:
    def test_alpha_override(self):
        cfg = apply_overrides(builtin_presets()["ex1"], {"alpha": "1e-4"})
        assert cfg.alpha == 1e-4

    def test_methods_override(self):
        cfg = apply_overrides(builtin_presets()["ex1"], {"methods": "II,III"})
        assert cfg.methods == (Method.METHOD_II, Method.METHOD_III)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(builtin_presets()["ex1"], {"beta": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(builtin_presets()["ex1"], {"alpha": "fast"})


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    res = run_experiment(crime_cfg(methods=(Method.STANDARD_TIKHONOV, Method.METHOD_I)))
    export_result(res, out)
    return out, res


class TestExport:
    def test_files_present(self, exported):
        out, _ = exported
        names = {p.name for p in out.iterdir()}
        assert names == {
            "manifest.json",
            "boundary.csv",
            "true_source.csv",
            "source_standard_tikhonov.csv",
            "source_method_i.csv",
        }

    def test_source_csv_schema(self, exported):
        out, res = exported
        lines = (out / "source_method_i.csv").read_text().splitlines()
        assert lines[0] == "cell,cx,cy,value"
        assert len(lines) == 1 + 64
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == res.basis_inverse.cell_centers[0, 0]
        values = np.array([float(ln.split(",")[3]) for ln in lines[1:]])
        np.testing.assert_array_equal(values, res.outcomes["method_i"].values)

    def test_boundary_csv_schema(self, exported):
        out, res = exported
        lines = (out / "boundary.csv").read_text().splitlines()
        assert lines[0] == "node,x,y,d,d_noisy"
        assert len(lines) == 1 + len(res.boundary_nodes)
        row = lines[1].split(",")
        assert int(row[0]) == res.boundary_nodes[0]
        assert float(row[3]) == res.d[0]

    def test_manifest_contents(self, exported):
        out, res = exported
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rank"] == res.rank
        assert manifest["w_min"] == res.w_min
        assert manifest["s_min_retained"] == res.s_min_retained
        assert set(manifest["methods"]) == {"standard_tikhonov", "method_i"}
        entry = manifest["methods"]["method_i"]
        for key in (
            "alpha",
            "residual",
            "l2_error",
            "argmax_cell",
            "argmax_tieset",
            "argmax_chebyshev_distance",
        ):
            assert key in entry
        assert manifest["config"]["name"] == "t"

    def test_export_deterministic(self, tmp_path):
        cfg = crime_cfg(noise_kappa=0.1, seed=5)
        for sub in ("a", "b"):
            export_result(run_experiment(cfg), tmp_path / sub)
        for name in ("manifest.json", "boundary.csv", "true_source.csv", "source_method_ii.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_l2_error_recomputable_from_exported_fields(self, exported):
        # round-trip through the CSV serialization must preserve the error
        out, res = exported
        manifest = json.loads((out / "manifest.json").read_text())

        def field_from_csv(path):
            rows = path.read_text().splitlines()[1:]
            return np.array([float(r.split(",")[3]) for r in rows])

        truth = field_from_csv(out / "true_source.csv")
        scale = res.basis_inverse.scale
        for name in ("standard_tikhonov", "method_i"):
            recovered = field_from_csv(out / f"source_{name}.csv")
            err = float(np.linalg.norm((recovered - truth) / scale))
            stored = manifest["methods"][name]["l2_error"]
            assert err == pytest.approx(stored, rel=1e-10)

    def test_load_config_round_trip(self, tmp_path):
        cfg = builtin_presets()["ex6a"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert load_config(path) == cfg

    def test_load_config_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_finite_result_is_not_written(self, tmp_path):
        res = run_experiment(crime_cfg())
        res.s_min = float("nan")
        with pytest.raises(NullsrcError):
            export_result(res, tmp_path / "o")
        assert not (tmp_path / "o").exists()
