"""Experiment pipeline tests: data generation, noise, presets, exports."""

import json
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

import nullsrc.experiments
import nullsrc.fem
from nullsrc import ConfigError, DegenerateBasis, DomainSpec, Method, NullsrcError, Shape, SingularState
from nullsrc.control_space import coefficients_to_cell_field
from nullsrc.experiments import (
    ExperimentConfig,
    ExperimentResult,
    MorozovRule,
    SigmaSpec,
    _synthesize,
    add_noise,
    apply_overrides,
    build_setup,
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
        # coincident nodes, located independently by coordinate matching;
        # the fine solution comes from the same data-solve entry point
        from nullsrc import assemble, build_mesh, refine_uniform
        from nullsrc.control_space import build_control_basis, control_load_matrix
        from nullsrc.fem import solve_data

        cfg = crime_cfg(
            domain=DomainSpec(Shape.UNIT_SQUARE, 16, 16),
            inverse_crime=False,
            control_dims_forward=(8, 8),
            control_dims_inverse=(8, 8),
        )
        d, _, _ = generate_data(cfg)

        coarse = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 8, 8))
        fine = refine_uniform(coarse)
        sys_f = assemble(fine, cfg.epsilon)
        basis_f = build_control_basis(fine, 8, 8)
        a = np.zeros(64)
        a[34] = 1.0
        sys_c = assemble(coarse, cfg.epsilon)
        load = control_load_matrix(basis_f, fine) @ a
        u, _ = solve_data(sys_f, load, sys_c)
        d_fine = u[fine.boundary_nodes]
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
        np.testing.assert_allclose(res.synthesis.truth_coeffs, expected, atol=1e-12)
        out = res.outcomes["method_ii"]
        assert out.error is None
        assert out.argmax_chebyshev <= 1
        recomputed = float(np.linalg.norm(out.result.coeffs - res.synthesis.truth_coeffs))
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

    @pytest.mark.parametrize("inverse_crime, factors", [(True, 1), (False, 1)])
    def test_one_factorization_per_system(self, monkeypatch, inverse_crime, factors):
        # with epsilon > 0 the nested fine data solve runs CG on the coarse factor
        self._check_factor_count(monkeypatch, factors, inverse_crime=inverse_crime)

    def test_indefinite_nested_run_factors_once(self, monkeypatch):
        # epsilon < 0: the fine data solve is BiCGStab on the coarse factor
        self._check_factor_count(monkeypatch, 1, inverse_crime=False, epsilon=-1.0)

    def test_singular_system_is_factored_once(self, monkeypatch):
        # ex1 with epsilon = 0: the synthesis raises the forward build's
        # failed factorization again instead of repeating it
        calls = self._factor_calls(monkeypatch)
        with pytest.raises(SingularState):
            run_experiment(replace(builtin_presets()["ex1"], epsilon=0.0))
        assert len(calls) == 1

    @staticmethod
    def _factor_calls(monkeypatch) -> list:
        # every factor is made on the calling thread, which also frees it
        calls = []
        original = nullsrc.fem.StateSolver

        def counting(sys):
            assert threading.current_thread() is threading.main_thread()
            calls.append(sys)
            return original(sys)

        monkeypatch.setattr(nullsrc.fem, "StateSolver", counting)
        return calls

    def _check_factor_count(self, monkeypatch, factors, **overrides):
        calls = self._factor_calls(monkeypatch)
        cfg = crime_cfg(
            control_dims_forward=(4, 4),
            control_dims_inverse=(4, 4),
            true_source=((5, 1.0),),
            **overrides,
        )
        run_experiment(cfg)
        assert len(calls) == factors
        assert len({id(sys) for sys in calls}) == factors

    def test_s_min_retained_is_last_value_above_rank_cut(self):
        from nullsrc import analyze, build_forward_model
        from nullsrc.experiments import build_setup

        cfg = builtin_presets()["ex5a"]
        res = run_experiment(cfg)
        setup = build_setup(cfg)
        fm = build_forward_model(setup.sys_inv, setup.basis_inv, setup.sys_inv.mesh)
        sd = analyze(fm, cfg.rank_tol)
        assert sd.rank < sd.s.size  # the cut falls inside the spectrum
        spectrum = res.spectrum
        assert spectrum["s_min_retained"] == sd.s[sd.rank - 1]
        assert spectrum["s_min_retained"] >= cfg.rank_tol * spectrum["s_max"]
        assert spectrum["s_min"] < cfg.rank_tol * spectrum["s_max"]

    # epsilon at each of the eight lowest eigenvalues of the fine pencil;
    # the fine pivot check alone let 16^2 k = 2 and 32^2 k = 2, 3 and 8
    # return data, up to 1.6e11 at 32^2 k = 3
    @pytest.mark.parametrize("k", range(1, 9), ids=lambda k: f"k{k}")
    @pytest.mark.parametrize("cells", [16, 32])
    def test_nested_resonance_raises(self, pencil_eigenvalues, cells, k):
        cfg = crime_cfg(
            domain=DomainSpec(Shape.UNIT_SQUARE, cells, cells),
            inverse_crime=False,
            epsilon=-float(pencil_eigenvalues(cells, True)[k]),
            true_source=((18, 1.0), (45, 1.0)),
        )
        with pytest.raises(SingularState):
            run_experiment(cfg)

    def test_fine_mesh_only_resonance_raises(self):
        # epsilon at an eigenvalue of the fine pencil (K, M) that the 8x8
        # inversion mesh does not share: the coarse system factors, and only
        # the fine data solve can see the resonance; no data may come back.
        # The fine pivot ratio reads about 5e-13, a factor 2 below PIVOT_TOL
        import scipy.linalg

        from nullsrc import build_mesh, refine_uniform
        from nullsrc.fem import stiffness_and_mass

        K, M = stiffness_and_mass(refine_uniform(build_mesh(DomainSpec(Shape.UNIT_SQUARE, 8, 8))))
        eigs = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
        assert eigs[6] == pytest.approx(50.1559, abs=1e-4)
        cfg = crime_cfg(
            domain=DomainSpec(Shape.UNIT_SQUARE, 16, 16),
            inverse_crime=False,
            epsilon=-float(eigs[6]),
            true_source=((18, 1.0), (45, 1.0)),
        )
        build_setup(cfg).sys_inv.solver  # the coarse factor passes its pivot check
        with pytest.raises(SingularState):
            run_experiment(cfg)

    @pytest.mark.parametrize("preset", ["ex5a", "ex7b"])  # CG and Bi-CGSTAB data solves
    def test_fine_system_builds_only_what_it_reads(self, monkeypatch, preset):
        # the fine system only solves, through the coarse factor: it makes no
        # boundary mass, no Cholesky factor and no LU of its own
        systems = []
        original = nullsrc.experiments.assemble

        def recording(mesh, epsilon, sigma=None):
            systems.append(original(mesh, epsilon, sigma))
            return systems[-1]

        monkeypatch.setattr(nullsrc.experiments, "assemble", recording)
        run_experiment(builtin_presets()[preset])
        inversion, fine = systems
        assert fine.n_nodes == 4225 and inversion.n_nodes == 1089
        assert {"B", "R", "_factor"} <= vars(inversion).keys()
        assert not {"B", "R", "_factor"} & vars(fine).keys()
        # nor does the fine mesh derive a boundary: only the inversion one is observed
        assert {"boundary_edges", "boundary_nodes"} <= vars(inversion.mesh).keys()
        assert not {"boundary_edges", "boundary_nodes"} & vars(fine.mesh).keys()


class TestOverlap:
    """A nested run overlaps _synthesize with analyze, the SVDs, on a worker thread."""

    @staticmethod
    def _record_analyze(monkeypatch):
        seen = {}
        original = nullsrc.experiments.analyze

        def recording(fm, rank_tol):
            seen["thread"] = threading.current_thread()
            seen["sd"] = original(fm, rank_tol)
            return seen["sd"]

        monkeypatch.setattr(nullsrc.experiments, "analyze", recording)
        return seen

    @pytest.mark.parametrize("preset, overlapped", [("ex5a", True), ("ex7b", True), ("ex1", False)])
    def test_overlapped_run_equals_the_steps_in_turn(self, monkeypatch, preset, overlapped):
        from nullsrc import analyze, build_forward_model, solve_method

        cfg = builtin_presets()[preset]
        seen = self._record_analyze(monkeypatch)
        result = run_experiment(cfg)
        assert (seen["thread"] is not threading.main_thread()) == overlapped

        setup = build_setup(cfg)
        syn = _synthesize(cfg, setup)
        fm = build_forward_model(setup.sys_inv, setup.basis_inv, setup.sys_inv.mesh)
        sd = analyze(fm, cfg.rank_tol)
        assert np.array_equal(result.synthesis.d, syn.d)
        assert np.array_equal(result.synthesis.d_noisy, syn.d_noisy)
        assert result.synthesis.data_solve == syn.data_solve
        assert np.array_equal(seen["sd"].s, sd.s)
        assert np.array_equal(seen["sd"].p_norms, sd.p_norms)
        b_hat = fm.R @ syn.d_noisy
        for method in cfg.methods:
            coeffs = solve_method(fm, sd, b_hat, cfg.alpha, method).coeffs
            assert np.array_equal(result.outcomes[method.value].result.coeffs, coeffs)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def degenerate(fm, rank_tol):
            raise DegenerateBasis(3, 0.0)

        monkeypatch.setattr(nullsrc.experiments, "analyze", degenerate)
        with pytest.raises(DegenerateBasis) as info:
            run_experiment(builtin_presets()["ex5a"])
        assert info.value.index == 3

    def test_synthesis_error_wins_over_a_worker_error(self, monkeypatch):
        # in turn, _synthesize meets the bad cell before the SVDs run
        def degenerate(fm, rank_tol):
            raise DegenerateBasis(3, 0.0)

        monkeypatch.setattr(nullsrc.experiments, "analyze", degenerate)
        cfg = replace(builtin_presets()["ex5a"], true_source=((999, 1.0),))
        with pytest.raises(ConfigError, match="true-source cell 999"):
            run_experiment(cfg)

    @pytest.mark.parametrize("preset", ["ex5a", "ex1"])
    def test_forward_error_after_the_synthesis(self, monkeypatch, preset):
        # a failed forward build still lets the data synthesis run first
        synthesized = []
        original = nullsrc.experiments._synthesize

        def failing(*args):
            raise SingularState("forward build")

        def recording(cfg, setup):
            synthesized.append(cfg)
            return original(cfg, setup)

        monkeypatch.setattr(nullsrc.experiments, "build_forward_model", failing)
        monkeypatch.setattr(nullsrc.experiments, "_synthesize", recording)
        with pytest.raises(SingularState, match="forward build"):
            run_experiment(builtin_presets()[preset])
        assert len(synthesized) == 1


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
        # the dict's keys are the dataclass fields, and it survives JSON
        for cfg in builtin_presets().values():
            data = config_to_dict(cfg)
            assert list(data) == [f.name for f in fields(ExperimentConfig)]
            assert list(data["domain"]) == [f.name for f in fields(DomainSpec)]
            assert list(data["sigma"]) == [f.name for f in fields(SigmaSpec)]
            assert config_from_dict(json.loads(json.dumps(data))) == cfg

    def test_numeric_alpha_string(self):
        data = config_to_dict(builtin_presets()["ex1"])
        data["alpha"] = "1e-3"
        assert config_from_dict(data).alpha == 1e-3


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

    def test_bad_value_names_the_override(self):
        with pytest.raises(ConfigError, match="seed='1.5'"):
            apply_overrides(builtin_presets()["ex1"], {"seed": "1.5"})


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
        expected = coefficients_to_cell_field(res.basis_inverse, res.outcomes["method_i"].result.coeffs)
        np.testing.assert_array_equal(values, expected)

    def test_boundary_csv_schema(self, exported):
        out, res = exported
        lines = (out / "boundary.csv").read_text().splitlines()
        assert lines[0] == "node,x,y,d,d_noisy"
        assert len(lines) == 1 + len(res.mesh_inverse.boundary_nodes)
        row = lines[1].split(",")
        assert int(row[0]) == res.mesh_inverse.boundary_nodes[0]
        assert float(row[3]) == res.synthesis.d[0]

    def test_csv_fields_are_repr_of_floats(self, exported):
        # reference built row by row, as the exporter wrote it before it
        # formatted the shared cell,cx,cy columns once
        out, res = exported
        centers = res.basis_inverse.cell_centers

        def reference(header, ids, *columns):
            rows = [
                ",".join([str(int(i))] + [repr(float(v)) for v in values])
                for i, *values in zip(ids, *columns, strict=True)
            ]
            return "\n".join([header, *rows]) + "\n"

        cells = (range(len(centers)), centers[:, 0], centers[:, 1])
        truth = coefficients_to_cell_field(res.basis_inverse, res.synthesis.truth_coeffs)
        expected = {"true_source.csv": truth}
        for name, o in res.outcomes.items():
            expected[f"source_{name}.csv"] = coefficients_to_cell_field(res.basis_inverse, o.result.coeffs)
        for name, values in expected.items():
            assert (out / name).read_text() == reference("cell,cx,cy,value", *cells, values)
        mesh, syn = res.mesh_inverse, res.synthesis
        boundary = (mesh.boundary_nodes, *mesh.nodes[mesh.boundary_nodes].T, syn.d, syn.d_noisy)
        assert (out / "boundary.csv").read_text() == reference("node,x,y,d,d_noisy", *boundary)

    def test_manifest_contents(self, exported):
        out, res = exported
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rank"] == res.spectrum["rank"]
        assert manifest["w_min"] == res.spectrum["w_min"]
        assert manifest["s_min_retained"] == res.spectrum["s_min_retained"]
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

    def test_spectrum_is_the_manifests_diagnostics(self, exported):
        out, res = exported
        assert [f.name for f in fields(ExperimentResult)] == [
            "config", "mesh_inverse", "basis_inverse", "synthesis", "spectrum", "outcomes"
        ]
        names = {"w_min", "w_max", "rank", "s_max", "s_min", "s_min_retained", "rank_cut"}
        assert res.spectrum.keys() == names
        manifest = json.loads((out / "manifest.json").read_text())
        assert {key: manifest[key] for key in names} == res.spectrum

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
        res.spectrum["s_min"] = float("nan")
        with pytest.raises(NullsrcError):
            export_result(res, tmp_path / "o")
        assert not (tmp_path / "o").exists()
