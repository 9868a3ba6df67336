"""End-to-end source-identification experiments and their exports.

Synthetic boundary data is generated on a fine mesh, restricted to the
coarse (inversion) mesh through the nested-node injection, optionally
perturbed by seeded Gaussian noise, and inverted by the requested
methods. The fine mesh, system and basis live only while the data are
synthesized. Runs are bit-reproducible for a fixed configuration.

Every run builds its forward matrix first, then synthesizes its data
and computes the two SVDs; a nested run synthesizes on the calling
thread while one worker thread computes the SVDs. The branches share
nothing but read-only arrays, and LAPACK releases the GIL for a whole
SVD. The sparse solves stay on the calling thread: SuperLU takes the GIL
back for each allocation, so beside a thread that runs Python it waits
out the interpreter's switch interval. Each step computes exactly what it
computes alone, so results are bit-identical to running the synthesis,
the forward build and the SVDs in turn, and an error is the one that
order raises first. Inverse-crime runs have no fine side to overlap and
stay on the calling thread: on ex1 the hand-off costs more than the
overlap saves (7.9 ms in turn against 8.9 to 9.6 ms through the worker
thread, in-process medians on 2 vCPUs with one BLAS thread; in turn won
19 of 20 alternating pairs).
"""

from __future__ import annotations

import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
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
from .errors import ConfigError, IllConditioned, InvalidSpec, NullsrcError
from .fem import CoefficientField, DataSolve, FemSystem, assemble, solve_data
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
    """Diagonal diffusivity sigma = diag(kappa1, kappa2), each component an
    affine triple (c0, cx, cy): kappa(x, y) = c0 + cx*x + cy*y, sampled at
    triangle centroids. The default triples (1, 0, 0) are the identity.
    """

    kappa1: tuple[float, float, float] = (1.0, 0.0, 0.0)
    kappa2: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def materialize(self, mesh: Mesh) -> CoefficientField:
        x, y = mesh.nodes[:, 0][mesh.triangles.T], mesh.nodes[:, 1][mesh.triangles.T]
        cx, cy = (x[0] + x[1] + x[2]) / 3.0, (y[0] + y[1] + y[2]) / 3.0
        (a0, ax, ay), (b0, bx, by) = self.kappa1, self.kappa2
        with np.errstate(over="ignore"):  # assembly rejects a kappa that overflows
            return CoefficientField(a0 + ax * cx + ay * cy, b0 + bx * cx + by * cy)


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
    result: SolveResult | None = None
    l2_error: float | None = None
    argmax_chebyshev: int | None = None
    error: str | None = None


@dataclass
class ExperimentResult:
    """One run's inputs, data and per-method outcomes; `spectrum` holds the
    manifest's SVD diagnostics under their manifest keys (see run_experiment)."""

    config: ExperimentConfig
    mesh_inverse: Mesh
    basis_inverse: ControlBasis
    synthesis: Synthesis
    spectrum: dict[str, float | int]
    outcomes: dict[str, MethodOutcome] = field(default_factory=dict)


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError unless every number is finite and within its range."""
    if not cfg.methods or len(set(cfg.methods)) < len(cfg.methods):
        names = [m.value for m in cfg.methods]
        raise ConfigError(f"list at least one method and each method once, got {names}")
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
    """The inversion side of a run; the forward side lives in _synthesize."""

    sys_inv: FemSystem
    basis_inv: ControlBasis


def build_setup(cfg: ExperimentConfig) -> Setup:
    validate_config(cfg)
    domain = cfg.domain
    if not cfg.inverse_crime:
        domain = DomainSpec(domain.shape, domain.nx // 2, domain.ny // 2)
    mesh_inv = build_mesh(domain)
    sys_inv = assemble(mesh_inv, cfg.epsilon, cfg.sigma.materialize(mesh_inv))
    return Setup(sys_inv, build_control_basis(mesh_inv, *cfg.control_dims_inverse))


@dataclass(frozen=True, eq=False)
class Synthesis:
    """Synthetic data on the inversion boundary and the truth on the inversion grid."""

    d: np.ndarray
    d_noisy: np.ndarray
    delta: float
    gamma: float
    truth_coeffs: np.ndarray  # true source projected onto the inverse control grid
    data_solve: DataSolve


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


def _synthesize(cfg: ExperimentConfig, setup: Setup) -> Synthesis:
    """Solve for the true source's boundary data on the forward mesh.

    Outside the inverse crime the forward mesh is refine_uniform of the
    inversion mesh; it, its system and its basis are built here and
    dropped on return, so a run never holds the fine and coarse sides
    together past this point. When the forward and inverse control dims
    are equal, the forward basis is the inversion basis, on the fine mesh
    with each coarse triangle's cell given to its four children.
    """
    sys, coarse = setup.sys_inv, None
    if not cfg.inverse_crime:
        mesh = refine_uniform(setup.sys_inv.mesh)  # coarse nodes keep their indices
        sys, coarse = assemble(mesh, cfg.epsilon, cfg.sigma.materialize(mesh)), setup.sys_inv
    if cfg.control_dims_forward != cfg.control_dims_inverse:
        basis = build_control_basis(sys.mesh, *cfg.control_dims_forward)
    elif coarse is None:
        basis = setup.basis_inv
    else:  # refine_uniform turns coarse triangle t into fine triangles 4t ... 4t+3
        basis = replace(setup.basis_inv, triangle_cells=np.repeat(setup.basis_inv.triangle_cells, 4))
    a = _true_coefficients(cfg, basis)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports overflow
        load = source_load(basis, sys.mesh, a)
        u, data_solve = solve_data(sys, load, coarse)
    d = u[setup.sys_inv.mesh.boundary_nodes]  # the forward mesh keeps the inversion node indices
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
    truth_coeffs = project_cell_function(basis, a, setup.basis_inv)
    return Synthesis(d, d_noisy, delta, gamma, truth_coeffs, data_solve)


def generate_data(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Synthetic boundary data on the inversion mesh: (d, d_noisy, gamma)."""
    syn = _synthesize(cfg, build_setup(cfg))
    return syn.d, syn.d_noisy, syn.gamma


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
    aborting the remaining methods; setup-level failures propagate. Every
    run builds its forward model first; a nested run then overlaps
    _synthesize with analyze on one worker thread (see the module
    docstring). The error raised is the one that running the steps in
    turn meets first.
    """
    setup = build_setup(cfg)
    try:
        fm = build_forward_model(setup.sys_inv, setup.basis_inv, setup.sys_inv.mesh)
    except NullsrcError:
        _synthesize(cfg, setup)  # in turn the synthesis runs first, so its error wins
        raise
    if cfg.inverse_crime:
        syn, sd = _synthesize(cfg, setup), analyze(fm, cfg.rank_tol)
    else:
        with ThreadPoolExecutor(max_workers=1) as worker:
            spectral = worker.submit(analyze, fm, cfg.rank_tol)
            syn = _synthesize(cfg, setup)
            sd = spectral.result()
    b_hat = fm.R @ syn.d_noisy
    truth_values = coefficients_to_cell_field(setup.basis_inv, syn.truth_coeffs)

    result = ExperimentResult(
        config=cfg,
        mesh_inverse=setup.sys_inv.mesh,
        basis_inverse=setup.basis_inv,
        synthesis=syn,
        spectrum={
            "w_min": float(sd.p_norms.min()),
            "w_max": float(sd.p_norms.max()),
            "rank": sd.rank,
            "s_max": float(sd.s[0]),
            "s_min": float(sd.s[-1]),
            "s_min_retained": float(sd.s[sd.rank - 1]) if sd.rank else 0.0,  # smallest kept
            "rank_cut": float(sd.rank_tol * sd.s[0]),  # singular values above it are kept
        },
    )

    # an overflowing residual or error norm is reported by the check below
    with np.errstate(over="ignore"):
        for method in cfg.methods:
            outcome = MethodOutcome()
            try:
                if isinstance(cfg.alpha, MorozovRule):
                    _, solved = morozov(
                        fm,
                        sd,
                        b_hat,
                        syn.gamma,
                        method,
                        alpha_range=(cfg.alpha.alpha_min, cfg.alpha.alpha_max),
                        rel_tol=cfg.alpha.rel_tol,
                    )
                else:
                    solved = solve_method(fm, sd, b_hat, cfg.alpha, method)
                l2_error = float(np.linalg.norm(solved.coeffs - syn.truth_coeffs))
                norms = {"residual": float(solved.residual), "l2_error": l2_error}
                bad = [name for name, value in norms.items() if not math.isfinite(value)]
                if bad:
                    raise IllConditioned(f"non-finite {' and '.join(bad)}: the data are too large")
                outcome.result = solved
                outcome.l2_error = l2_error
                outcome.argmax_chebyshev = _chebyshev_to_truth(
                    setup.basis_inv, solved.argmax_cell, truth_values
                )
            except NullsrcError as exc:
                outcome.error = f"{type(exc).__name__}: {exc}"
            result.outcomes[method.value] = outcome
    return result


# ---------------------------------------------------------------------------
# serialization

def _text(values) -> list[str]:
    """Each value as repr(float(v)): shortest round-trip decimals."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def _write_csv(path: Path, header: str, *columns: list[str]) -> None:
    """One row per entry: the columns' formatted fields joined by commas."""
    rows = map(",".join, zip(*columns, strict=True))
    path.write_text("\n".join([header, *rows]) + "\n")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    rule = isinstance(cfg.alpha, MorozovRule)
    alpha = {"rule": "morozov", **asdict(cfg.alpha)} if rule else cfg.alpha
    return {
        "name": cfg.name,
        "domain": {"shape": cfg.domain.shape.value, "nx": cfg.domain.nx, "ny": cfg.domain.ny},
        "control_dims_forward": list(cfg.control_dims_forward),
        "control_dims_inverse": list(cfg.control_dims_inverse),
        "epsilon": cfg.epsilon,
        "sigma": {"kappa1": list(cfg.sigma.kappa1), "kappa2": list(cfg.sigma.kappa2)},
        "true_source": [{"cell": c, "amplitude": a} for c, a in cfg.true_source],
        "methods": [m.value for m in cfg.methods],
        "alpha": alpha,
        "noise_kappa": cfg.noise_kappa,
        "seed": cfg.seed,
        "inverse_crime": cfg.inverse_crime,
        "rank_tol": cfg.rank_tol,
    }


def _int(value) -> int:
    """A JSON integer, or a string that int() parses (a CLI override)."""
    if isinstance(value, str):
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """A JSON number, or a string that float() parses; never a boolean."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _array(item):
    """Converter of a JSON array that converts each entry by item."""

    def convert(values) -> tuple:
        if not isinstance(values, list):
            raise TypeError(f"expected an array, got {values!r}")
        return tuple(map(item, values))

    return convert


def _known(raw: dict, keys: tuple[str, ...], where: str) -> dict:
    """raw, once each of its keys is one of keys."""
    unknown = [key for key in raw.keys() if key not in keys]
    if unknown:
        raise ConfigError(f"unknown {where} key {unknown[0]!r} (known: {', '.join(keys)})")
    return raw


def _names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _source(entry: dict) -> tuple[int, float]:
    entry = _known(entry, ("cell", "amplitude"), "true_source entry")
    return _int(entry["cell"]), _float(entry.get("amplitude", 1.0))


def _given(raw: dict, **convert) -> dict:
    """The entries of raw named in convert, each converted by its function;
    absent keys are left out so the dataclass defaults apply."""
    return {key: f(raw[key]) for key, f in convert.items() if key in raw.keys()}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Convert a JSON config; a value of the wrong JSON type raises ConfigError.

    Each object's keys are the fields of the dataclass it fills ("rule"
    too for alpha; "cell" and "amplitude" for a true-source entry). Integers
    are JSON integers, numbers are JSON numbers, flags are JSON booleans,
    the name is a JSON string and sequences are JSON arrays. Strings that
    int() or float() parse are accepted for integers and numbers, so CLI
    overrides convert here like config-file values.
    """
    try:
        _known(data, _names(ExperimentConfig), "config")
        dom = _known(data["domain"], _names(DomainSpec), "domain")
        shape = Shape(dom["shape"])
        alpha_raw = data["alpha"]
        if isinstance(alpha_raw, dict):
            _known(alpha_raw, ("rule", *_names(MorozovRule)), "alpha")
            if alpha_raw.get("rule") != "morozov":
                raise ConfigError(f"unknown alpha rule {alpha_raw!r}")
            alpha: float | MorozovRule = MorozovRule(
                **_given(alpha_raw, alpha_min=_float, alpha_max=_float, rel_tol=_float)
            )
        elif isinstance(alpha_raw, str) and alpha_raw.lower() == "morozov":
            alpha = MorozovRule()
        else:
            alpha = _float(alpha_raw)
        floats, ints = _array(_float), _array(_int)
        sigma = _known(data.get("sigma", {}), _names(SigmaSpec), "sigma")
        return ExperimentConfig(
            name=_string(data.get("name", "custom")),
            domain=DomainSpec(shape, _int(dom["nx"]), _int(dom["ny"])),
            control_dims_forward=ints(data["control_dims_forward"]),
            control_dims_inverse=ints(data["control_dims_inverse"]),
            epsilon=_float(data["epsilon"]),
            sigma=SigmaSpec(**_given(sigma, kappa1=floats, kappa2=floats)),
            true_source=_array(_source)(data["true_source"]),
            methods=_array(parse_method)(data["methods"]),
            alpha=alpha,
            **_given(data, noise_kappa=_float, seed=_int, inverse_crime=_bool, rank_tol=_float),
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
    """Apply key=value CLI overrides; unknown keys are rejected.

    Values are converted by config_from_dict, exactly like config-file
    values; a failed conversion names the override that caused it.
    """
    data = config_to_dict(cfg)
    for key, value in overrides.items():
        if key not in _OVERRIDE_KEYS:
            raise ConfigError(
                f"unknown override {key!r} (allowed: {', '.join(_OVERRIDE_KEYS)})"
            )
        if key == "methods":
            data["methods"] = [m for m in value.split(",") if m]
        else:
            data["noise_kappa" if key == "kappa" else key] = value
        try:
            cfg = config_from_dict(data)
        except ConfigError as exc:
            raise ConfigError(f"bad override value {key}={value!r}: {exc}") from exc
    return cfg


def export_result(result: ExperimentResult, out_dir: str | Path) -> Path:
    """Write the per-run CSV files and manifest.json into out_dir.

    A NaN or infinite manifest number raises NullsrcError before any file
    is written, so no non-standard JSON reaches disk. An OSError from
    creating out_dir or writing a file raises InvalidSpec naming the path.
    A manifest vouches for exactly one complete run: the files an earlier
    run left in out_dir are removed first, manifest.json before the CSVs
    (true_source.csv, boundary.csv, source_*.csv), and manifest.json is
    written last. Other files in out_dir are left alone.
    """
    basis, syn, mesh = result.basis_inverse, result.synthesis, result.mesh_inverse
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
        "gamma": syn.gamma,
        "delta": syn.delta,
        **result.spectrum,
        "data_solve": {key: value for key, value in vars(syn.data_solve).items() if value is not None},
        "methods": methods_manifest,
    }
    try:
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NullsrcError(f"refusing to export a non-finite result: {exc}") from exc

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        # the earlier run's manifest goes first, so none outlives its files
        earlier = (out / "manifest.json", out / "true_source.csv", out / "boundary.csv")
        for path in (*earlier, *out.glob("source_*.csv")):
            path.unlink(missing_ok=True)
        # the cell,cx,cy fields are formatted once and shared by every cell file
        cells = list(map(",".join, zip(map(str, range(basis.n)), *map(_text, basis.cell_centers.T))))
        truth = coefficients_to_cell_field(basis, syn.truth_coeffs)
        _write_csv(out / "true_source.csv", "cell,cx,cy,value", cells, _text(truth))
        for name, outcome in result.outcomes.items():
            if outcome.error is None:
                values = coefficients_to_cell_field(basis, outcome.result.coeffs)
                _write_csv(out / f"source_{name}.csv", "cell,cx,cy,value", cells, _text(values))
        nodes = [str(int(i)) for i in mesh.boundary_nodes]
        boundary = (*mesh.nodes[mesh.boundary_nodes].T, syn.d, syn.d_noisy)
        _write_csv(out / "boundary.csv", "node,x,y,d,d_noisy", nodes, *map(_text, boundary))
        (out / "manifest.json").write_text(manifest_text)
    except OSError as exc:
        raise InvalidSpec(f"cannot write output {out}: {exc}") from exc
    return out / "manifest.json"


def builtin_presets() -> dict[str, ExperimentConfig]:
    """Named configurations reproducing the reference numerical studies;
    each changes a few fields of one shared setup."""
    all_methods = (
        Method.STANDARD_TIKHONOV,
        Method.METHOD_I,
        Method.METHOD_II,
        Method.METHOD_III,
    )

    def block(gx0: int, gy0: int, mx: int = 16, size: int = 2) -> tuple[tuple[int, float], ...]:
        return tuple(
            ((gy0 + dy) * mx + gx0 + dx, 1.0) for dy in range(size) for dx in range(size)
        )

    base = ExperimentConfig(
        name="base",
        domain=DomainSpec(Shape.UNIT_SQUARE, 64, 64),
        control_dims_forward=(16, 16),
        control_dims_inverse=(16, 16),
        epsilon=1e-3,
        sigma=SigmaSpec(),
        true_source=block(3, 3) + block(11, 11),
        methods=all_methods,
        alpha=1e-3,
    )
    coarse_8x8 = {"control_dims_forward": (8, 8), "control_dims_inverse": (8, 8)}
    morozov_ii_iii = {"methods": (Method.METHOD_II, Method.METHOD_III), "alpha": MorozovRule()}
    presets = (
        # single interior basis function, deliberate inverse crime
        replace(
            base,
            name="ex1",
            domain=DomainSpec(Shape.UNIT_SQUARE, 16, 16),
            true_source=((4 * 8 + 2, 1.0),),  # grid cell (2, 4)
            seed=101,
            inverse_crime=True,
            **coarse_8x8,
        ),
        # L-shaped geometry, nested-mesh data generation
        replace(
            base,
            name="ex2",
            domain=DomainSpec(Shape.L_SHAPE, 32, 32),
            true_source=((2 * 8 + 2, 1.0), (2 * 8 + 3, 1.0)),  # cells (2,2), (3,2)
            seed=102,
            **coarse_8x8,
        ),
        # source hugging the left boundary: cells (0,7), (0,8)
        replace(base, name="ex3", true_source=((7 * 16, 1.0), (8 * 16, 1.0)), alpha=1e-4, seed=103),
        # anisotropic diffusivity: mild rightward/upward gradients in the two components
        replace(
            base,
            name="ex4",
            sigma=SigmaSpec(kappa1=(1.0, 0.5, 0.0), kappa2=(1.0, 0.0, 0.25)),
            true_source=block(3, 7),
            alpha=1e-4,
            seed=104,
        ),
        # two well-separated sources
        replace(base, name="ex5a", seed=105),
        # three sources; the bottom-right one is the hardest to see
        replace(base, name="ex5b", true_source=base.true_source + block(11, 3), seed=106),
        # noisy data with the discrepancy rule, two noise levels
        replace(base, name="ex6a", noise_kappa=0.05, seed=107, **morozov_ii_iii),
        replace(base, name="ex6b", noise_kappa=0.20, seed=108, **morozov_ii_iii),
        # indefinite (Helmholtz) regime; same source location as ex1
        replace(base, name="ex7a", epsilon=-1.0, true_source=block(4, 8), seed=109),
        replace(base, name="ex7b", epsilon=-100.0, true_source=block(4, 8), seed=110),
    )
    return {cfg.name: cfg for cfg in presets}
