"""Assembly and state-solve tests against dense and analytic oracles."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from nullsrc import (
    CoefficientField,
    DomainSpec,
    NonPositiveCoefficient,
    Shape,
    SingularState,
    assemble,
    build_mesh,
)
from nullsrc.control_space import build_control_basis, source_load
from nullsrc.experiments import SigmaSpec, build_setup, builtin_presets
from nullsrc.fem import StateSolver, solve_data, stiffness_and_mass
from nullsrc.mesh import refine_uniform


@pytest.fixture(scope="module")
def square3():
    mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 3, 3))
    return mesh, assemble(mesh, 1e-3)


class TestAssemble:
    def test_mesh_and_system_compare_by_identity(self):
        # array fields have no truth value: equality and hashing go by identity
        def build():
            mesh = build_mesh(DomainSpec(Shape.L_SHAPE, 4, 4))
            return mesh, assemble(mesh, 1e-3)

        for x, twin in zip(build(), build(), strict=True):
            assert x == x
            assert x != twin
            assert hash(x) == hash(x) != hash(twin)
            assert len({x, twin}) == 2

    def test_mass_total(self, square3):
        mesh, _ = square3
        assert stiffness_and_mass(mesh)[1].sum() == pytest.approx(1.0, rel=1e-10)

    def test_mass_total_lshape(self):
        mesh = build_mesh(DomainSpec(Shape.L_SHAPE, 4, 4))
        assert stiffness_and_mass(mesh)[1].sum() == pytest.approx(0.75, rel=1e-10)

    def test_stiffness_kills_constants(self, square3):
        mesh, _ = square3
        K, _ = stiffness_and_mass(mesh)
        norm = np.abs(K.toarray()).max()
        assert np.abs(K @ np.ones(mesh.n_nodes)).max() <= 1e-10 * norm

    def test_boundary_mass_total(self, square3):
        _, sys = square3
        assert sys.B.sum() == pytest.approx(4.0, rel=1e-10)

    def test_boundary_mass_total_lshape(self):
        mesh = build_mesh(DomainSpec(Shape.L_SHAPE, 4, 8))
        sys = assemble(mesh, 1e-3)
        assert sys.B.sum() == pytest.approx(4.0, rel=1e-10)

    def test_state_matrix_spd_for_positive_epsilon(self, square3):
        _, sys = square3
        eigs = np.linalg.eigvalsh(sys.S.toarray())
        assert eigs.min() > 0

    def test_galerkin_symmetry(self, square3):
        _, sys = square3
        rng = np.random.default_rng(3)
        S = sys.S
        for _ in range(5):
            v = rng.standard_normal(sys.n_nodes)
            w = rng.standard_normal(sys.n_nodes)
            a, b = float(v @ (S @ w)), float(w @ (S @ v))
            assert a == pytest.approx(b, rel=1e-10)

    def test_anisotropic_stiffness_scales(self):
        # constant kappa1=2 doubles the x-derivative energy of u = x
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 4, 4))
        k = CoefficientField(np.full(mesh.n_triangles, 2.0), np.ones(mesh.n_triangles))
        K, _ = stiffness_and_mass(mesh, k)
        ux = mesh.nodes[:, 0]
        # energy = integral kappa1 |du/dx|^2 = 2 * |Omega| = 2
        assert ux @ (K @ ux) == pytest.approx(2.0, rel=1e-10)
        uy = mesh.nodes[:, 1]
        assert uy @ (K @ uy) == pytest.approx(1.0, rel=1e-10)

    def test_rejects_nonpositive_coefficient(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 2, 2))
        bad = CoefficientField(np.zeros(mesh.n_triangles), np.ones(mesh.n_triangles))
        with pytest.raises(NonPositiveCoefficient):
            assemble(mesh, 1.0, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_coefficient(self, bad):
        # a kappa that overflowed used to pass the check and end as a singular factor
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 2, 2))
        kappa = np.ones(mesh.n_triangles)
        kappa[3] = bad
        with pytest.raises(NonPositiveCoefficient, match="finite"):
            assemble(mesh, 1.0, CoefficientField(np.ones(mesh.n_triangles), kappa))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_affine_kappa_is_rejected_without_warnings(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 4, 4))
        sigma = SigmaSpec(kappa1=(1e308, 1e308, 0.0)).materialize(mesh)
        assert np.isinf(sigma.kappa1).any()
        with pytest.raises(NonPositiveCoefficient):
            assemble(mesh, 1e-3, sigma)

    def test_epsilon_default_value_assembles(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 2, 2))
        sys = assemble(mesh, 1e-3)
        assert sys.epsilon == 1e-3


def old_element_matrices(mesh, sigma):
    """Triangle-major (n_tri, 3, 3) element stiffness and mass and their int64
    COO indices, as assemble computed them before it summed in place."""
    p = mesh.nodes[mesh.triangles]
    x, y = p[..., 0], p[..., 1]
    area = 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    k1, k2 = sigma.kappa1, sigma.kappa2
    ke = (
        k1[:, None, None] * b[:, :, None] * b[:, None, :]
        + k2[:, None, None] * c[:, :, None] * c[:, None, :]
    ) / (4.0 * area)[:, None, None]
    me = area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)[None, :, :]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    return ke, me, rows, cols


def old_stiffness_and_mass(mesh, sigma):
    """K and M as assemble built them before it summed elements into S directly."""
    ke, me, rows, cols = old_element_matrices(mesh, sigma)
    n = mesh.n_nodes
    K = scipy.sparse.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = scipy.sparse.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K, M


AFFINE = SigmaSpec(kappa1=(1.0, 0.5, 0.0), kappa2=(1.0, 0.0, 0.25))


@pytest.mark.parametrize(
    "shape, n, epsilon, affine",
    [
        (Shape.UNIT_SQUARE, 8, 1e-3, False),
        (Shape.L_SHAPE, 8, 1e-3, False),
        (Shape.UNIT_SQUARE, 8, 1e-3, True),
        (Shape.L_SHAPE, 12, -100.0, True),
    ],
)
class TestElementSums:
    @staticmethod
    def problem(shape, n, affine, refined=False):
        mesh = build_mesh(DomainSpec(shape, n, n))
        if refined:
            mesh = refine_uniform(mesh)
        sigma = AFFINE.materialize(mesh) if affine else None
        return mesh, sigma

    @staticmethod
    def assert_same_bits(new, old):
        assert np.array_equal(new.indptr, old.indptr) and np.array_equal(new.indices, old.indices)
        assert new.data.tobytes() == old.data.tobytes()

    def test_stiffness_and_mass_match_old_assembly(self, shape, n, epsilon, affine):
        mesh, sigma = self.problem(shape, n, affine)
        K, M = stiffness_and_mass(mesh, sigma)
        K_old, M_old = old_stiffness_and_mass(mesh, sigma or CoefficientField.identity(mesh))
        for new, old in ((K, K_old), (M, M_old)):
            assert (new != old).nnz == 0

    def test_state_matrix_is_stiffness_plus_epsilon_mass(self, shape, n, epsilon, affine):
        mesh, sigma = self.problem(shape, n, affine)
        S = assemble(mesh, epsilon, sigma).S
        K, M = stiffness_and_mass(mesh, sigma)
        ref = (K + epsilon * M).tocsr()
        ref.sort_indices()
        S_sorted = S.sorted_indices()
        assert np.array_equal(S_sorted.indptr, ref.indptr)
        assert np.array_equal(S_sorted.indices, ref.indices)
        scale = np.abs(ref.data).max()
        assert np.abs(S_sorted.data - ref.data).max() <= 1e-14 * scale

    def test_state_matrix_keeps_the_bits_of_the_element_sums(self, shape, n, epsilon, affine):
        # rows grouped straight into CSR: S equal, entry for entry, to the
        # COO->CSR conversion of ke + epsilon * me with int64 indices
        mesh, sigma = self.problem(shape, n, affine)
        S = assemble(mesh, epsilon, sigma).S
        ke, me, rows, cols = old_element_matrices(mesh, sigma or CoefficientField.identity(mesh))
        ref = scipy.sparse.csr_matrix(((ke + epsilon * me).ravel(), (rows, cols)), shape=S.shape)
        self.assert_same_bits(S, ref)

    @pytest.mark.parametrize(
        "refined, zero_epsilon",
        [(True, False), (False, True), (True, True)],
        ids=["refined", "epsilon-0", "refined-epsilon-0"],
    )
    def test_bits_hold_on_refined_meshes_and_at_zero_epsilon(
        self, shape, n, epsilon, affine, refined, zero_epsilon
    ):
        # refine_uniform numbers nodes and triangles as every fine side does; at
        # epsilon = 0 each stiffness entry still gets its +0.0 of mass
        mesh, sigma = self.problem(shape, n, affine, refined)
        epsilon = 0.0 if zero_epsilon else epsilon
        S = assemble(mesh, epsilon, sigma).S
        ke, me, rows, cols = old_element_matrices(mesh, sigma or CoefficientField.identity(mesh))
        ref = scipy.sparse.csr_matrix(((ke + epsilon * me).ravel(), (rows, cols)), shape=S.shape)
        self.assert_same_bits(S, ref)
        K_old, M_old = old_stiffness_and_mass(mesh, sigma or CoefficientField.identity(mesh))
        for new, old in zip(stiffness_and_mass(mesh, sigma), (K_old, M_old), strict=True):
            self.assert_same_bits(new, old)


def fine_assembly_transient(transient_mb, cells):
    """tracemalloc peak of assemble on ex5a's setup with a cells x cells fine mesh."""
    cfg = builtin_presets()["ex5a"]
    mesh = refine_uniform(build_mesh(DomainSpec(Shape.UNIT_SQUARE, cells // 2, cells // 2)))
    sigma = cfg.sigma.materialize(mesh)
    sys, peak = transient_mb(lambda: assemble(mesh, cfg.epsilon, sigma))
    assert sys.n_nodes == (cells + 1) ** 2
    return peak


def test_fine_assembly_transient_memory(transient_mb):
    # ex5a's 64 x 64-cell fine mesh (4,225 nodes). Summed straight into grouped
    # CSR rows, assemble peaks at about 1.9 MB; through a COO->CSR conversion
    # of the element sums it took 3.1 MB, and 5.4 MB with a temporary per sum.
    assert fine_assembly_transient(transient_mb, 64) <= 2.0


def test_ladder_fine_assembly_transient_memory(transient_mb):
    # the 256 x 256-cell rung: about 29.4 MB, against 47.5 MB through COO->CSR
    assert fine_assembly_transient(transient_mb, 256) <= 32.0


def loop_sigma(mesh, spec):
    """kappa1 and kappa2 triangle by triangle, each c0 + cx*x + cy*y at the
    centroid (x0 + x1 + x2) / 3, as an affine field was sampled before
    SigmaSpec.materialize evaluated it directly."""
    kappas = []
    for c0, cx, cy in (spec.kappa1, spec.kappa2):
        values = []
        for tri in mesh.triangles.tolist():
            (x0, y0), (x1, y1), (x2, y2) = (mesh.nodes[i].tolist() for i in tri)
            values.append(c0 + cx * ((x0 + x1 + x2) / 3.0) + cy * ((y0 + y1 + y2) / 3.0))
        kappas.append(np.array(values))
    return kappas


class TestMaterialize:
    @pytest.mark.parametrize("refined", [False, True], ids=["built", "refined"])
    @pytest.mark.parametrize("shape", [Shape.UNIT_SQUARE, Shape.L_SHAPE])
    @pytest.mark.parametrize("preset", ["ex1", "ex4"])  # the default triples and the affine field
    def test_matches_loop_oracle_bit_for_bit(self, preset, shape, refined):
        mesh = build_mesh(DomainSpec(shape, 8, 8))
        if refined:
            mesh = refine_uniform(mesh)
        spec = builtin_presets()[preset].sigma
        sigma = spec.materialize(mesh)
        for got, want in zip((sigma.kappa1, sigma.kappa2), loop_sigma(mesh, spec)):
            assert got.dtype == np.float64 and np.array_equal(got, want)
        if spec == SigmaSpec():
            identity = CoefficientField.identity(mesh)
            assert np.array_equal(sigma.kappa1, identity.kappa1)
            assert np.array_equal(sigma.kappa2, identity.kappa2)

    def test_default_is_the_identity(self):
        assert builtin_presets()["ex1"].sigma == SigmaSpec()
        assert [f.name for f in dataclasses.fields(SigmaSpec)] == ["kappa1", "kappa2"]


class TestSolveState:
    def test_zero_load(self, square3):
        _, sys = square3
        assert np.all(sys.solver.solve(np.zeros(sys.n_nodes)) == 0)

    def test_constant_source_gives_constant_state(self):
        # -lap(1) + eps*1 = eps, so the load eps*M*1 yields u = 1
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 6, 6))
        for eps in (1e-3, 0.7):
            sys = assemble(mesh, eps)
            load = eps * (stiffness_and_mass(mesh)[1] @ np.ones(sys.n_nodes))
            u = sys.solver.solve(load)
            np.testing.assert_allclose(u, 1.0, atol=1e-10)

    def test_matches_dense_oracle_on_9_node_mesh(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 2, 2))
        sys = assemble(mesh, 1e-3)
        rng = np.random.default_rng(11)
        load = rng.standard_normal(9)
        expected = np.linalg.solve(sys.S.toarray(), load)
        np.testing.assert_allclose(sys.solver.solve(load), expected, atol=1e-12)

    def test_negative_epsilon_uses_lu_and_matches_oracle(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 4, 4))
        sys = assemble(mesh, -1.0)
        rng = np.random.default_rng(12)
        load = rng.standard_normal(sys.n_nodes)
        expected = np.linalg.solve(sys.S.toarray(), load)
        np.testing.assert_allclose(sys.solver.solve(load), expected, rtol=1e-10)

    def test_pure_neumann_is_singular(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 3, 3))
        sys = assemble(mesh, 0.0)
        with pytest.raises(SingularState):
            sys.solver.solve(np.ones(sys.n_nodes))

    def test_resonance_is_singular(self):
        # epsilon tuned to a generalized eigenvalue of (K, M)
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 4, 4))
        K, M = stiffness_and_mass(mesh)
        eigs = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
        resonant = assemble(mesh, -float(eigs[3]))
        with pytest.raises(SingularState):
            StateSolver(resonant)

    # the pivot ratio stays above PIVOT_TOL at 16^2 k = 2 and 32^2 k = 2, 3,
    # 5 and 6; the probe through the factor catches those
    @pytest.mark.parametrize("k", range(1, 9), ids=lambda k: f"k{k}")
    @pytest.mark.parametrize("cells", [16, 32])
    def test_every_low_resonance_is_singular(self, pencil_eigenvalues, cells, k):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, cells, cells))
        with pytest.raises(SingularState):
            StateSolver(assemble(mesh, -float(pencil_eigenvalues(cells, False)[k])))

    def test_exactly_singular_is_singular_state(self, square3):
        _, sys = square3
        zero = dataclasses.replace(sys, S=scipy.sparse.csr_matrix(sys.S.shape))
        with pytest.raises(SingularState):
            StateSolver(zero)

    def test_continuity_in_epsilon(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 5, 5))
        rng = np.random.default_rng(13)
        load = rng.standard_normal(36)
        u1 = assemble(mesh, 1e-3).solver.solve(load)
        u2 = assemble(mesh, 1e-3 * (1 + 1e-9)).solver.solve(load)
        assert np.linalg.norm(u1 - u2) <= 1e-6 * np.linalg.norm(u1)

    def test_wrong_load_length(self, square3):
        _, sys = square3
        with pytest.raises(ValueError):
            sys.solver.solve(np.zeros(3))


class TestSolveData:
    @staticmethod
    def fine_problem(preset):
        cfg = builtin_presets()[preset]
        setup = build_setup(cfg)
        fine = refine_uniform(setup.sys_inv.mesh)
        sys = assemble(fine, cfg.epsilon, cfg.sigma.materialize(fine))
        basis = build_control_basis(fine, *cfg.control_dims_forward)
        a = np.zeros(basis.n)
        for cell, amplitude in cfg.true_source:
            a[cell] += amplitude
        return setup, sys, source_load(basis, fine, a)

    @pytest.mark.parametrize("preset", ["ex4", "ex2"])  # affine sigma, L-shape
    def test_two_grid_cg_trace_matches_direct_solve(self, preset):
        setup, sys, load = self.fine_problem(preset)
        u, how = solve_data(sys, load, setup.sys_inv)
        assert how.method == "two_grid_cg" and 0 < how.iterations <= 50
        assert how.fallback is None
        direct = sys.solver.solve(load)[sys.mesh.boundary_nodes]
        gap = np.linalg.norm(u[sys.mesh.boundary_nodes] - direct) / np.linalg.norm(direct)
        assert gap <= 1e-9

    @pytest.mark.parametrize("preset", ["ex7b", "ex7a"])  # epsilon -100 and -1
    def test_two_grid_bicgstab_trace_matches_direct_solve(self, preset):
        setup, sys, load = self.fine_problem(preset)
        u, how = solve_data(sys, load, setup.sys_inv)
        assert how.method == "two_grid_bicgstab" and 0 < how.iterations <= 50
        assert how.fallback is None
        direct = sys.solver.solve(load)[sys.mesh.boundary_nodes]
        gap = np.linalg.norm(u[sys.mesh.boundary_nodes] - direct) / np.linalg.norm(direct)
        assert gap <= 1e-9

    def test_stalled_bicgstab_falls_back_to_lu(self):
        # at epsilon = -1000 the two-grid cycle no longer reduces the residual
        cfg = builtin_presets()["ex7b"]
        setup = build_setup(dataclasses.replace(cfg, epsilon=-1000.0))
        fine = refine_uniform(setup.sys_inv.mesh)
        sys = assemble(fine, -1000.0)
        _, _, load = self.fine_problem("ex7b")
        u, how = solve_data(sys, load, setup.sys_inv)
        assert how.method == "splu" and how.iterations == 10
        assert how.fallback.startswith("two-grid BiCGStab stalled")
        assert np.array_equal(u, sys.solver.solve(load))

    def test_without_coarse_system_uses_lu(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 4, 4))
        fine = refine_uniform(mesh)
        load = np.random.default_rng(14).standard_normal(fine.n_nodes)
        for eps in (1e-3, -1.0):
            sys = assemble(fine, eps)
            u, how = solve_data(sys, load)
            assert how.method == "splu" and how.iterations == 0 and how.fallback is None
            assert np.array_equal(u, sys.solver.solve(load))


class TestTrace:
    """A system's trace is its mesh's boundary-node selection."""

    def test_constant(self, square3):
        _, sys = square3
        np.testing.assert_array_equal(np.ones(sys.n_nodes)[sys.mesh.boundary_nodes], 1.0)

    def test_zero(self, square3):
        _, sys = square3
        assert np.all(np.zeros(sys.n_nodes)[sys.mesh.boundary_nodes] == 0)

    def test_selection_by_index(self):
        mesh = build_mesh(DomainSpec(Shape.UNIT_SQUARE, 2, 2))
        sys = assemble(mesh, 1.0)
        assert sys.mesh is mesh
        u = np.arange(9, dtype=float)
        # every node of the 3 x 3 grid but the centre lies on the boundary
        np.testing.assert_array_equal(u[sys.mesh.boundary_nodes], [0, 1, 2, 3, 5, 6, 7, 8])
