"""End-to-end source-identification experiments and their exports.

Synthetic boundary data is generated on a fine mesh, restricted to the
coarse (inversion) mesh through the nested-node injection, optionally
perturbed by seeded Gaussian noise, and inverted by the requested
methods. Runs are bit-reproducible for a fixed configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .control_space import (
    ControlBasis,
    build_control_basis,
    cell_touches_boundary,
    coefficients_to_cell_field,
    project_cell_function,
    source_load,
)
from .errors import ConfigError, NullsrcError
from .fem import CoefficientField, FemSystem, assemble
from .mesh import DomainSpec, Mesh, Shape, build_mesh, refine_uniform
from .solvers import (
    MOROZOV_ALPHA_RANGE,
    MOROZOV_REL_TOL,
    Method,
    SolveResult,
    morozov,
    solve_method,
)
from .spectral import RANK_TOL_REL, analyze, build_forward_model

_METHOD_ALIASES = {
    "standard": Method.STANDARD_TIKHONOV,
    "standard_tikhonov": Method.STANDARD_TIKHONOV,
    "tikhonov": Method.STANDARD_TIKHONOV,
    "i": Method.METHOD_I,
    "method_i": Method.METHOD_I,
    "ii": Method.METHOD_II,
    "method_ii": Method.METHOD_II,
    "iii": Method.METHOD_III,
    "method_iii": Method.METHOD_III,
    "min_norm": Method.MIN_NORM,
}


def parse_method(name: str) -> Method:
    try:
        return _METHOD_ALIASES[name.strip().lower()]
    except KeyError:
        raise ConfigError(f"unknown method {name!r}") from None


@dataclass(frozen=True)
class SigmaSpec:
    """JSON-friendly diffusivity description.

    kind "identity" or "affine"; affine fields are kappa(x, y) =
    c0 + cx*x + cy*y per component, sampled at triangle centroids.
    """

    kind: str = "identity"
    kappa1: tuple[float, float, float] = (1.0, 0.0, 0.0)
    kappa2: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def materialize(self, mesh: Mesh) -> CoefficientField:
        if self.kind == "identity":
            return CoefficientField.identity(mesh)
        if self.kind == "affine":
            a0, ax, ay = self.kappa1
            b0, bx, by = self.kappa2
            return CoefficientField.from_functions(
                mesh,
                lambda x, y: a0 + ax * x + ay * y,
                lambda x, y: b0 + bx * x + by * y,
            )
        raise ConfigError(f"unknown sigma kind {self.kind!r}")


# Default anisotropic field for the ex4 preset: mild rightward/upward
# gradients in the two diffusivities; overridable through the config.
BUILTIN_TENSOR = SigmaSpec(kind="affine", kappa1=(1.0, 0.5, 0.0), kappa2=(1.0, 0.0, 0.25))


@dataclass(frozen=True)
class MorozovRule:
    alpha_min: float = MOROZOV_ALPHA_RANGE[0]
    alpha_max: float = MOROZOV_ALPHA_RANGE[1]
    rel_tol: float = MOROZOV_REL_TOL


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment run."""

    name: str
    domain: DomainSpec  # forward (fine) state mesh
    control_dims_forward: tuple[int, int]
    control_dims_inverse: tuple[int, int]
    epsilon: float
    sigma: SigmaSpec
    true_source: tuple[tuple[int, float], ...]  # (forward cell index, amplitude)
    methods: tuple[Method, ...]
    alpha: float | MorozovRule
    noise_kappa: float = 0.0
    seed: int = 0
    inverse_crime: bool = False
    rank_tol: float = RANK_TOL_REL


@dataclass
class MethodOutcome:
    method: Method
    result: SolveResult | None = None
    values: np.ndarray | None = None  # recovered cell field on the inverse grid
    l2_error: float | None = None
    argmax_chebyshev: int | None = None
    error: str | None = None


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    basis_inverse: ControlBasis
    boundary_nodes: np.ndarray
    boundary_xy: np.ndarray
    d: np.ndarray
    d_noisy: np.ndarray
    delta: float
    gamma: float
    truth_coeffs: np.ndarray  # truth projected onto the inverse grid
    truth_values: np.ndarray
    outcomes: dict[str, MethodOutcome] = field(default_factory=dict)
    w_min: float = 0.0
    w_max: float = 0.0
    rank: int = 0
    s_max: float = 0.0
    s_min: float = 0.0
    s_min_retained: float = 0.0  # smallest singular value above the rank cut


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError unless every number is finite and within its range."""
    if not cfg.methods:
        raise ConfigError("at least one method is required")
    rule = cfg.alpha if isinstance(cfg.alpha, MorozovRule) else None
    numbers = [cfg.epsilon, cfg.noise_kappa, cfg.rank_tol, *cfg.sigma.kappa1, *cfg.sigma.kappa2]
    numbers += [a for _, a in cfg.true_source]
    numbers += [rule.alpha_min, rule.alpha_max, rule.rel_tol] if rule else [cfg.alpha]
    if not all(math.isfinite(v) for v in numbers):
        raise ConfigError(f"config numbers must be finite, got {numbers!r}")
    if len(cfg.sigma.kappa1) != 3 or len(cfg.sigma.kappa2) != 3:
        raise ConfigError("sigma kappa1 and kappa2 need 3 coefficients each (c0, cx, cy)")
    if cfg.noise_kappa < 0:
        raise ConfigError(f"noise_kappa must be nonnegative, got {cfg.noise_kappa!r}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed!r}")
    if len(cfg.control_dims_forward) != 2 or len(cfg.control_dims_inverse) != 2:
        raise ConfigError("control dims need two entries each (mx, my)")
    if not 0 < cfg.rank_tol < 1:
        raise ConfigError(f"rank_tol must lie in (0, 1), got {cfg.rank_tol!r}")
    if not cfg.inverse_crime:
        nx, ny = cfg.domain.nx, cfg.domain.ny
        if nx % 2 or ny % 2:
            raise ConfigError(
                f"non-inverse-crime runs need even fine cell counts "
                f"(nested coarse mesh), got {nx}x{ny}"
            )
    if isinstance(cfg.alpha, MorozovRule) and cfg.noise_kappa == 0:
        raise ConfigError("the discrepancy rule needs noisy data (noise_kappa > 0)")
    if not isinstance(cfg.alpha, MorozovRule) and cfg.alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {cfg.alpha!r}")
    if rule and not (0 < rule.alpha_min < rule.alpha_max and 0 < rule.rel_tol < 1):
        raise ConfigError(f"discrepancy rule needs 0 < alpha_min < alpha_max, 0 < rel_tol < 1: {rule}")


@dataclass(frozen=True)
class Setup:
    mesh_inv: Mesh
    mesh_fwd: Mesh
    sys_inv: FemSystem
    sys_fwd: FemSystem
    basis_inv: ControlBasis
    basis_fwd: ControlBasis
    restrict_idx: np.ndarray  # positions in the fine trace of the coarse boundary nodes


def build_setup(cfg: ExperimentConfig) -> Setup:
    validate_config(cfg)
    if cfg.inverse_crime:
        mesh = build_mesh(cfg.domain)
        mesh_inv = mesh_fwd = mesh
        restrict_idx = np.arange(len(mesh.boundary_nodes))
    else:
        coarse_spec = DomainSpec(cfg.domain.shape, cfg.domain.nx // 2, cfg.domain.ny // 2)
        mesh_inv = build_mesh(coarse_spec)
        mesh_fwd, injection = refine_uniform(mesh_inv)
        restrict_idx = np.searchsorted(mesh_fwd.boundary_nodes, injection[mesh_inv.boundary_nodes])
    sys_inv = assemble(mesh_inv, cfg.epsilon, cfg.sigma.materialize(mesh_inv))
    sys_fwd = (
        sys_inv
        if cfg.inverse_crime
        else assemble(mesh_fwd, cfg.epsilon, cfg.sigma.materialize(mesh_fwd))
    )
    basis_inv = build_control_basis(mesh_inv, *cfg.control_dims_inverse)
    basis_fwd = (
        basis_inv
        if cfg.inverse_crime and cfg.control_dims_forward == cfg.control_dims_inverse
        else build_control_basis(mesh_fwd, *cfg.control_dims_forward)
    )
    return Setup(mesh_inv, mesh_fwd, sys_inv, sys_fwd, basis_inv, basis_fwd, restrict_idx)


def _true_coefficients(cfg: ExperimentConfig, basis_fwd: ControlBasis) -> np.ndarray:
    a = np.zeros(basis_fwd.n)
    for cell, amplitude in cfg.true_source:
        if not 0 <= cell < basis_fwd.n:
            raise ConfigError(
                f"true-source cell {cell} outside the forward control grid "
                f"(n={basis_fwd.n})"
            )
        a[cell] += amplitude
    return a


def add_noise(d: np.ndarray, kappa: float, seed: int) -> tuple[np.ndarray, float]:
    """Perturb boundary data with scaled Gaussian noise.

    delta = kappa * (max d - min d); samples are drawn once, in
    boundary-node order, from a generator seeded by `seed`, so reruns are
    bit-identical. kappa = 0 returns an untouched copy.
    """
    d = np.asarray(d, dtype=np.float64)
    if kappa < 0:
        raise ConfigError(f"kappa must be nonnegative, got {kappa!r}")
    with np.errstate(over="ignore"):  # an overflow shows as a non-finite gamma
        delta = float(kappa * (d.max() - d.min())) if d.size else 0.0
        if kappa == 0.0 or delta == 0.0:
            return d.copy(), 0.0
        rho = np.random.default_rng(seed).standard_normal(d.shape[0])
        return d + delta * rho, delta


def _synthesize(
    cfg: ExperimentConfig, setup: Setup
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """True forward coefficients, clean data, noisy data, delta and the
    realized discrepancy gamma."""
    a = _true_coefficients(cfg, setup.basis_fwd)
    with np.errstate(over="ignore"):  # the check below reports overflow
        load = source_load(setup.basis_fwd, setup.mesh_fwd, a)
    d = setup.sys_fwd.solver.solve(load)[setup.sys_fwd.trace_map][setup.restrict_idx]
    if not np.isfinite(d).all():
        amplitudes = [amplitude for _, amplitude in cfg.true_source]
        raise ConfigError(f"true-source amplitudes {amplitudes!r} give non-finite boundary data")
    d_noisy, delta = add_noise(d, cfg.noise_kappa, cfg.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports overflow
        gamma = float(np.linalg.norm(setup.sys_inv.R @ (d_noisy - d)))
    if not math.isfinite(gamma):
        raise ConfigError(
            f"noise level kappa={cfg.noise_kappa!r} gives a non-finite noise norm gamma"
        )
    return a, d, d_noisy, delta, gamma


def generate_data(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Synthetic boundary data on the inversion mesh: (d, d_noisy, gamma)."""
    setup = build_setup(cfg)
    _, d, d_noisy, _, gamma = _synthesize(cfg, setup)
    return d, d_noisy, gamma


def _chebyshev_to_truth(
    basis: ControlBasis, cell: int, truth_values: np.ndarray
) -> int | None:
    """Grid Chebyshev distance from a cell to the nearest true-source cell."""
    vmax = np.max(np.abs(truth_values)) if truth_values.size else 0.0
    if vmax == 0.0:
        return None
    true_cells = np.flatnonzero(np.abs(truth_values) > 1e-8 * vmax)
    gx, gy = basis.grid_coords[cell]
    coords = basis.grid_coords[true_cells]
    return int(np.min(np.maximum(np.abs(coords[:, 0] - gx), np.abs(coords[:, 1] - gy))))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Full pipeline for every requested method.

    Per-method solver failures are recorded in the outcome instead of
    aborting the remaining methods; setup-level failures propagate.
    """
    setup = build_setup(cfg)
    a_fwd, d, d_noisy, delta, gamma = _synthesize(cfg, setup)

    fm = build_forward_model(setup.sys_inv, setup.basis_inv, setup.mesh_inv)
    sd = analyze(fm, cfg.rank_tol)
    b_hat = fm.R @ d_noisy

    truth_coeffs = project_cell_function(setup.basis_fwd, a_fwd, setup.basis_inv)
    truth_values = coefficients_to_cell_field(setup.basis_inv, truth_coeffs)

    result = ExperimentResult(
        config=cfg,
        basis_inverse=setup.basis_inv,
        boundary_nodes=setup.mesh_inv.boundary_nodes.copy(),
        boundary_xy=setup.mesh_inv.nodes[setup.mesh_inv.boundary_nodes],
        d=d,
        d_noisy=d_noisy,
        delta=delta,
        gamma=gamma,
        truth_coeffs=truth_coeffs,
        truth_values=truth_values,
        w_min=float(sd.p_norms.min()),
        w_max=float(sd.p_norms.max()),
        rank=sd.rank,
        s_max=float(sd.s[0]),
        s_min=float(sd.s[-1]),
        s_min_retained=float(sd.s[sd.rank - 1]) if sd.rank else 0.0,
    )

    # an overflowing residual or error norm is left as inf, which export refuses
    with np.errstate(over="ignore"):
        for method in cfg.methods:
            outcome = MethodOutcome(method=method)
            try:
                if isinstance(cfg.alpha, MorozovRule):
                    _, solved = morozov(
                        fm,
                        sd,
                        b_hat,
                        gamma,
                        method,
                        alpha_range=(cfg.alpha.alpha_min, cfg.alpha.alpha_max),
                        rel_tol=cfg.alpha.rel_tol,
                    )
                else:
                    solved = solve_method(fm, sd, b_hat, cfg.alpha, method)
                outcome.result = solved
                outcome.values = coefficients_to_cell_field(setup.basis_inv, solved.coeffs)
                outcome.l2_error = float(np.linalg.norm(solved.coeffs - truth_coeffs))
                outcome.argmax_chebyshev = _chebyshev_to_truth(
                    setup.basis_inv, solved.argmax_cell, truth_values
                )
            except NullsrcError as exc:
                outcome.error = f"{type(exc).__name__}: {exc}"
            result.outcomes[method.value] = outcome
    return result


# ---------------------------------------------------------------------------
# serialization

def _csv_float(x: float) -> str:
    return repr(float(x))


def _write_field_csv(path: Path, basis: ControlBasis, values: np.ndarray) -> None:
    lines = ["cell,cx,cy,value"]
    for i in range(basis.n):
        cx, cy = basis.cell_centers[i]
        lines.append(f"{i},{_csv_float(cx)},{_csv_float(cy)},{_csv_float(values[i])}")
    path.write_text("\n".join(lines) + "\n")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    if isinstance(cfg.alpha, MorozovRule):
        alpha = {
            "rule": "morozov",
            "alpha_min": cfg.alpha.alpha_min,
            "alpha_max": cfg.alpha.alpha_max,
            "rel_tol": cfg.alpha.rel_tol,
        }
    else:
        alpha = cfg.alpha
    return {
        "name": cfg.name,
        "domain": {"shape": cfg.domain.shape.value, "nx": cfg.domain.nx, "ny": cfg.domain.ny},
        "control_dims_forward": list(cfg.control_dims_forward),
        "control_dims_inverse": list(cfg.control_dims_inverse),
        "epsilon": cfg.epsilon,
        "sigma": {
            "kind": cfg.sigma.kind,
            "kappa1": list(cfg.sigma.kappa1),
            "kappa2": list(cfg.sigma.kappa2),
        },
        "true_source": [{"cell": c, "amplitude": a} for c, a in cfg.true_source],
        "methods": [m.value for m in cfg.methods],
        "alpha": alpha,
        "noise_kappa": cfg.noise_kappa,
        "seed": cfg.seed,
        "inverse_crime": cfg.inverse_crime,
        "rank_tol": cfg.rank_tol,
    }


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _given(raw: dict, **convert) -> dict:
    """The entries of raw named in convert, each converted by its function;
    absent keys are left out so the dataclass defaults apply."""
    return {key: f(raw[key]) for key, f in convert.items() if key in raw.keys()}


def config_from_dict(data: dict) -> ExperimentConfig:
    try:
        dom = data["domain"]
        shape = Shape(dom["shape"])
        alpha_raw = data["alpha"]
        if isinstance(alpha_raw, dict):
            if alpha_raw.get("rule") != "morozov":
                raise ConfigError(f"unknown alpha rule {alpha_raw!r}")
            alpha: float | MorozovRule = MorozovRule(
                **_given(alpha_raw, alpha_min=float, alpha_max=float, rel_tol=float)
            )
        elif isinstance(alpha_raw, str):
            if alpha_raw.lower() != "morozov":
                raise ConfigError(f"unknown alpha rule {alpha_raw!r}")
            alpha = MorozovRule()
        else:
            alpha = float(alpha_raw)
        sigma = SigmaSpec(**_given(data.get("sigma", {}), kind=str, kappa1=_floats, kappa2=_floats))
        return ExperimentConfig(
            name=str(data.get("name", "custom")),
            domain=DomainSpec(shape, int(dom["nx"]), int(dom["ny"])),
            control_dims_forward=tuple(int(v) for v in data["control_dims_forward"]),
            control_dims_inverse=tuple(int(v) for v in data["control_dims_inverse"]),
            epsilon=float(data["epsilon"]),
            sigma=sigma,
            true_source=tuple(
                (int(t["cell"]), float(t.get("amplitude", 1.0)))
                for t in data["true_source"]
            ),
            methods=tuple(parse_method(m) for m in data["methods"]),
            alpha=alpha,
            **_given(data, noise_kappa=float, seed=int, inverse_crime=bool, rank_tol=float),
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed experiment config: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


_OVERRIDE_KEYS = ("alpha", "epsilon", "kappa", "seed", "methods", "rank_tol")


def apply_overrides(cfg: ExperimentConfig, overrides: dict[str, str]) -> ExperimentConfig:
    """Apply key=value CLI overrides; unknown keys are rejected."""
    data = config_to_dict(cfg)
    for key, value in overrides.items():
        if key not in _OVERRIDE_KEYS:
            raise ConfigError(
                f"unknown override {key!r} (allowed: {', '.join(_OVERRIDE_KEYS)})"
            )
        try:
            if key == "alpha":
                data["alpha"] = value if value.lower() == "morozov" else float(value)
            elif key == "epsilon":
                data["epsilon"] = float(value)
            elif key == "kappa":
                data["noise_kappa"] = float(value)
            elif key == "seed":
                data["seed"] = int(value)
            elif key == "rank_tol":
                data["rank_tol"] = float(value)
            elif key == "methods":
                data["methods"] = [m for m in value.split(",") if m]
        except ValueError as exc:
            raise ConfigError(f"bad override value {key}={value!r}: {exc}") from exc
    return config_from_dict(data)


def export_result(result: ExperimentResult, out_dir: str | Path) -> Path:
    """Write the per-run CSV files and manifest.json into out_dir.

    A NaN or infinite manifest number raises NullsrcError before any file
    is written, so no non-standard JSON reaches disk.
    """
    basis = result.basis_inverse
    methods_manifest: dict[str, dict] = {}
    touches = cell_touches_boundary(basis)
    for name, outcome in result.outcomes.items():
        if outcome.error is not None:
            methods_manifest[name] = {"error": outcome.error}
            continue
        solved = outcome.result
        methods_manifest[name] = {
            "alpha": float(solved.alpha),
            "residual": float(solved.residual),
            "l2_error": float(outcome.l2_error),
            "argmax_cell": int(solved.argmax_cell),
            "argmax_tieset": [int(i) for i in solved.argmax_tieset],
            "argmax_chebyshev_distance": outcome.argmax_chebyshev,
            "argmax_touches_boundary": bool(touches[solved.argmax_cell]),
        }
    manifest = {
        "config": config_to_dict(result.config),
        "gamma": result.gamma,
        "delta": result.delta,
        "w_min": result.w_min,
        "w_max": result.w_max,
        "rank": result.rank,
        "s_max": result.s_max,
        "s_min": result.s_min,
        "s_min_retained": result.s_min_retained,
        "methods": methods_manifest,
    }
    try:
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NullsrcError(f"refusing to export a non-finite result: {exc}") from exc

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_field_csv(out / "true_source.csv", basis, result.truth_values)
    for name, outcome in result.outcomes.items():
        if outcome.error is None:
            _write_field_csv(out / f"source_{name}.csv", basis, outcome.values)

    lines = ["node,x,y,d,d_noisy"]
    for k, node in enumerate(result.boundary_nodes):
        x, y = result.boundary_xy[k]
        lines.append(
            f"{int(node)},{_csv_float(x)},{_csv_float(y)},"
            f"{_csv_float(result.d[k])},{_csv_float(result.d_noisy[k])}"
        )
    (out / "boundary.csv").write_text("\n".join(lines) + "\n")
    (out / "manifest.json").write_text(manifest_text)
    return out / "manifest.json"


def builtin_presets() -> dict[str, ExperimentConfig]:
    """Named configurations reproducing the reference numerical studies."""

    def square(n: int) -> DomainSpec:
        return DomainSpec(Shape.UNIT_SQUARE, n, n)

    all_methods = (
        Method.STANDARD_TIKHONOV,
        Method.METHOD_I,
        Method.METHOD_II,
        Method.METHOD_III,
    )
    weighted = (Method.METHOD_I, Method.METHOD_II, Method.METHOD_III)

    def block(gx0: int, gy0: int, mx: int = 16, size: int = 2) -> tuple[tuple[int, float], ...]:
        return tuple(
            ((gy0 + dy) * mx + gx0 + dx, 1.0) for dy in range(size) for dx in range(size)
        )

    presets = {
        # single interior basis function, deliberate inverse crime
        "ex1": ExperimentConfig(
            name="ex1",
            domain=square(16),
            control_dims_forward=(8, 8),
            control_dims_inverse=(8, 8),
            epsilon=1e-3,
            sigma=SigmaSpec(),
            true_source=((4 * 8 + 2, 1.0),),  # grid cell (2, 4)
            methods=all_methods,
            alpha=1e-3,
            seed=101,
            inverse_crime=True,
        ),
        # L-shaped geometry, nested-mesh data generation
        "ex2": ExperimentConfig(
            name="ex2",
            domain=DomainSpec(Shape.L_SHAPE, 32, 32),
            control_dims_forward=(8, 8),
            control_dims_inverse=(8, 8),
            epsilon=1e-3,
            sigma=SigmaSpec(),
            true_source=((2 * 8 + 2, 1.0), (2 * 8 + 3, 1.0)),  # cells (2,2), (3,2)
            methods=all_methods,
            alpha=1e-3,
            seed=102,
        ),
        # source hugging the left boundary
        "ex3": ExperimentConfig(
            name="ex3",
            domain=square(64),
            control_dims_forward=(16, 16),
            control_dims_inverse=(16, 16),
            epsilon=1e-3,
            sigma=SigmaSpec(),
            true_source=((7 * 16, 1.0), (8 * 16, 1.0)),  # cells (0,7), (0,8)
            methods=all_methods,
            alpha=1e-4,
            seed=103,
        ),
        # anisotropic diffusivity
        "ex4": ExperimentConfig(
            name="ex4",
            domain=square(64),
            control_dims_forward=(16, 16),
            control_dims_inverse=(16, 16),
            epsilon=1e-3,
            sigma=BUILTIN_TENSOR,
            true_source=block(3, 7),
            methods=all_methods,
            alpha=1e-4,
            seed=104,
        ),
        # two well-separated sources
        "ex5a": ExperimentConfig(
            name="ex5a",
            domain=square(64),
            control_dims_forward=(16, 16),
            control_dims_inverse=(16, 16),
            epsilon=1e-3,
            sigma=SigmaSpec(),
            true_source=block(3, 3) + block(11, 11),
            methods=all_methods,
            alpha=1e-3,
            seed=105,
        ),
        # three sources; the bottom-right one is the hardest to see
        "ex5b": ExperimentConfig(
            name="ex5b",
            domain=square(64),
            control_dims_forward=(16, 16),
            control_dims_inverse=(16, 16),
            epsilon=1e-3,
            sigma=SigmaSpec(),
            true_source=block(3, 3) + block(11, 11) + block(11, 3),
            methods=all_methods,
            alpha=1e-3,
            seed=106,
        ),
    }
    # noisy data with the discrepancy rule, two noise levels
    for tag, kappa, seed in (("ex6a", 0.05, 107), ("ex6b", 0.20, 108)):
        presets[tag] = ExperimentConfig(
            name=tag,
            domain=square(64),
            control_dims_forward=(16, 16),
            control_dims_inverse=(16, 16),
            epsilon=1e-3,
            sigma=SigmaSpec(),
            true_source=block(3, 3) + block(11, 11),
            methods=(Method.METHOD_II, Method.METHOD_III),
            alpha=MorozovRule(),
            noise_kappa=kappa,
            seed=seed,
        )
    # indefinite (Helmholtz) regime; same source location as ex1
    for tag, eps, seed in (("ex7a", -1.0, 109), ("ex7b", -100.0, 110)):
        presets[tag] = ExperimentConfig(
            name=tag,
            domain=square(64),
            control_dims_forward=(16, 16),
            control_dims_inverse=(16, 16),
            epsilon=eps,
            sigma=SigmaSpec(),
            true_source=block(4, 8),
            methods=all_methods,
            alpha=1e-3,
            seed=seed,
        )
    return presets
