"""Command-line front end: run experiments, inspect spectra, verify theory.

Exit codes: 0 success, 1 solver failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, InvalidSpec, NullsrcError
from .experiments import (
    apply_overrides,
    build_setup,
    builtin_presets,
    config_to_dict,
    export_result,
    load_config,
    run_experiment,
)
from .spectral import analyze, build_forward_model
from .verify import run_all

USAGE_ERROR = 2
SOLVER_ERROR = 1


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    overrides = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"override must look like key=value, got {pair!r}")
        overrides[key.strip()] = value.strip()
    return overrides


def _resolve_config(args: argparse.Namespace):
    if getattr(args, "preset", None) is not None:
        presets = builtin_presets()
        if args.preset not in presets:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(presets))}"
            )
        cfg = presets[args.preset]
    else:
        cfg = load_config(args.config)
    overrides = _parse_overrides(getattr(args, "override", []) or [])
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    result = run_experiment(cfg)
    manifest = export_result(result, args.out)
    print(f"wrote {manifest.parent}")
    failed = [name for name, out in result.outcomes.items() if out.error]
    for name in failed:
        print(f"method {name} failed: {result.outcomes[name].error}", file=sys.stderr)
    return SOLVER_ERROR if failed else 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    setup = build_setup(cfg)
    fm = build_forward_model(setup.sys_inv, setup.basis_inv, setup.mesh_inv)
    sd = analyze(fm, cfg.rank_tol)
    print(
        json.dumps(
            {
                "config": config_to_dict(cfg),
                "singular_values": [float(v) for v in sd.s],
                "p_norms": [float(v) for v in sd.p_norms],
                "rank": sd.rank,
                "rank_tol": sd.rank_tol,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(quick=args.quick)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok &= r.passed
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    print(f"{'all checks passed' if ok else 'SOME CHECKS FAILED'}")
    return 0 if ok else SOLVER_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullsrc",
        description="Source identification for elliptic PDEs from boundary data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config file")
    run_p.add_argument("--config", required=True, help="path to the experiment config")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    run_p.set_defaults(func=_cmd_run)

    preset_p = sub.add_parser("preset", help="run a built-in experiment preset")
    preset_p.add_argument("preset", help="preset name, e.g. ex1")
    preset_p.add_argument("--out", required=True, help="output directory")
    preset_p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    preset_p.set_defaults(func=_cmd_run)

    spec_p = sub.add_parser("spectrum", help="print singular values and weights as JSON")
    group = spec_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="path to the experiment config")
    group.add_argument("--preset", help="built-in preset name")
    spec_p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    spec_p.set_defaults(func=_cmd_spectrum)

    verify_p = sub.add_parser("verify", help="run the recovery-guarantee property suite")
    verify_p.add_argument("--quick", action="store_true", help="coarse meshes, fewer trials")
    verify_p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidSpec as exc:  # configuration problems, incl. ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NullsrcError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
