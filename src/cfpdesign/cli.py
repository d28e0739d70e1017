"""Command-line front end.

Subcommands:
    design          build one point design, write it as JSON
    study cond      conditioning sweep, CSV
    study approx    surrogate accuracy sweep, CSV
    study elliptic  accuracy sweep on the elliptic benchmark, CSV
    verify oned     1D optimality report, CSV

Every option can also come from a config file of `key = value` lines
(`--config FILE`); explicit flags override the file, which overrides the
defaults. Keys match the long option names, e.g.

    # study setup
    family = uniform
    dimension = 2
    rule = TD
    degrees = 2:8
    trials = 50
    seed = 7
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .basis import ProductBasis
from .design import afp_select, candidate_set, cfp_select
from .lsq import solve_unweighted, solve_weighted
from .multiindex import enrich, hyperbolic_cross, total_degree
from .orthopoly import DensitySpec
from .studies import (
    RULES,
    STUDY_FIELDS,
    TARGETS,
    VERIFY_FIELDS,
    StudyConfig,
    config_echo,
    render_csv,
    resolve_target,
    study_approx,
    study_condition,
    verify_oned,
)

_INT_KEYS = {
    "dimension",
    "degree",
    "trials",
    "candidates",
    "seed",
    "samples",
    "validation-samples",
    "n-max",
    "elliptic-grid-points",
}
_FLOAT_KEYS = {"oversampling", "elliptic-sigma"}


def _parse_degrees(text: str) -> tuple[int, ...]:
    """"2:8" is an inclusive range, "2,4,6" a list, "5" a single degree."""
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(part) for part in text.split(",") if part)


def _parse_methods(text: str) -> tuple[str, ...]:
    return tuple(part.strip().upper() for part in text.split(",") if part.strip())


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip().replace("_", "-")] = value.strip()
    return values


def _apply_config_file(args: argparse.Namespace) -> argparse.Namespace:
    """Fill in options the command line left at None."""
    if not getattr(args, "config", None):
        return args
    values = _read_config_file(args.config)
    for key, raw in values.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, attr) is not None:
            continue  # explicit flag wins
        if key in _INT_KEYS:
            parsed = int(raw)
        elif key in _FLOAT_KEYS:
            parsed = float(raw)
        else:
            parsed = raw
        setattr(args, attr, parsed)
    return args


def _study_config(args: argparse.Namespace, **overrides) -> StudyConfig:
    kwargs = dict(
        family=args.family if args.family is not None else "uniform",
        dimension=args.dimension if args.dimension is not None else 2,
        rule=args.rule if args.rule is not None else "TD",
        oversampling=args.oversampling if args.oversampling is not None else 1.05,
        trials=args.trials if args.trials is not None else 50,
        candidates=args.candidates if args.candidates is not None else 10_000,
        seed=args.seed if args.seed is not None else 0,
        validation_samples=(
            args.validation_samples if args.validation_samples is not None else 1000
        ),
        elliptic_sigma=(
            args.elliptic_sigma if args.elliptic_sigma is not None else 1.0
        ),
        elliptic_grid_points=(
            args.elliptic_grid_points
            if args.elliptic_grid_points is not None
            else 1001
        ),
    )
    if args.degrees is not None:
        kwargs["degrees"] = _parse_degrees(args.degrees)
    if args.methods is not None:
        kwargs["methods"] = _parse_methods(args.methods)
    kwargs.update(overrides)
    return StudyConfig(**kwargs)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _add_common_study_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--family", choices=("uniform", "gaussian"))
    parser.add_argument("--dimension", type=int)
    parser.add_argument("--rule", choices=RULES)
    parser.add_argument("--degrees", help="e.g. 2:15 or 2,4,8")
    parser.add_argument("--oversampling", type=float)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--candidates", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--methods", help="comma list from CFP,AFP,MC")
    parser.add_argument("--validation-samples", type=int)
    parser.add_argument("--elliptic-sigma", type=float)
    parser.add_argument("--elliptic-grid-points", type=int)
    parser.add_argument("--output", "-o", help="output path, '-' for stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfpdesign",
        description="deterministic designs for weighted polynomial least squares",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="build one design, write JSON")
    p_design.add_argument("--config", help="key = value config file")
    p_design.add_argument("--family", choices=("uniform", "gaussian"))
    p_design.add_argument("--dimension", type=int)
    p_design.add_argument("--rule", choices=RULES)
    p_design.add_argument("--degree", type=int)
    p_design.add_argument("--samples", type=int, help="points to select")
    p_design.add_argument("--oversampling", type=float)
    p_design.add_argument("--candidates", type=int)
    p_design.add_argument("--seed", type=int)
    p_design.add_argument("--method", choices=("cfp", "afp"))
    p_design.add_argument("--fit", choices=TARGETS, help="also fit this target")
    p_design.add_argument("--surrogate-output", help="JSON path for the fit")
    p_design.add_argument("--output", "-o", help="output path, '-' for stdout")

    p_study = sub.add_parser("study", help="batch studies, CSV output")
    study_sub = p_study.add_subparsers(dest="study_kind", required=True)
    for kind in ("cond", "approx", "elliptic"):
        p_kind = study_sub.add_parser(kind)
        _add_common_study_options(p_kind)
        if kind == "approx":
            p_kind.add_argument("--target", choices=TARGETS)

    p_verify = sub.add_parser("verify", help="verification reports, CSV output")
    verify_sub = p_verify.add_subparsers(dest="verify_kind", required=True)
    p_oned = verify_sub.add_parser("oned")
    p_oned.add_argument("--config", help="key = value config file")
    p_oned.add_argument("--family", choices=("uniform", "gaussian"))
    p_oned.add_argument("--n-max", type=int)
    p_oned.add_argument("--output", "-o", help="output path, '-' for stdout")
    return parser


def _run_design(args: argparse.Namespace) -> int:
    family = args.family if args.family is not None else "uniform"
    dimension = args.dimension if args.dimension is not None else 2
    rule = args.rule if args.rule is not None else "TD"
    degree = args.degree if args.degree is not None else 4
    oversampling = args.oversampling if args.oversampling is not None else 1.05
    n_candidates = args.candidates if args.candidates is not None else 10_000
    seed = args.seed if args.seed is not None else 0
    method = args.method if args.method is not None else "cfp"

    build = total_degree if rule == "TD" else hyperbolic_cross
    lam = build(dimension, degree)
    m_points = (
        args.samples
        if args.samples is not None
        else int(math.ceil(oversampling * len(lam)))
    )
    lam_tilde = enrich(lam, m_points - len(lam)) if m_points > len(lam) else lam
    cands = candidate_set(
        DensitySpec(family), dimension, n_candidates, lam_tilde.max_degree, seed
    )
    select = cfp_select if method == "cfp" else afp_select
    result = select(cands, lam_tilde, m_points)
    payload = result.to_json()
    payload["config"].update(
        {
            "version": __version__,
            "family": family,
            "dimension": dimension,
            "rule": rule,
            "degree": degree,
            "method": method,
        }
    )
    _write(args.output, json.dumps(payload, indent=2) + "\n")

    if args.fit is not None:
        study_cfg = StudyConfig(
            family=family,
            dimension=dimension,
            rule=rule,
            degrees=(degree,),
            seed=seed,
        )
        target = resolve_target(study_cfg, args.fit)
        basis = ProductBasis.for_density(study_cfg.density, lam)
        solve = solve_weighted if method == "cfp" else solve_unweighted
        surrogate = solve(basis, result.points, target(result.points))
        fit_payload = surrogate.to_json()
        fit_payload["target"] = args.fit
        fit_payload["version"] = __version__
        _write(args.surrogate_output, json.dumps(fit_payload, indent=2) + "\n")
    return 0


def _run_study(args: argparse.Namespace) -> int:
    if args.study_kind == "cond":
        config = _study_config(args)
        records = study_condition(config)
        echo = config_echo(config, study="cond")
    elif args.study_kind == "approx":
        target = args.target if args.target is not None else "exp_negsumsq"
        config = _study_config(args)
        records = study_approx(config, target)
        echo = config_echo(config, study="approx", target=target)
    else:
        config = _study_config(args)
        records = study_approx(config, "elliptic")
        echo = config_echo(config, study="elliptic", target="elliptic")
    _write(args.output, render_csv(records, STUDY_FIELDS, echo))
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    family = args.family if args.family is not None else "uniform"
    n_max = args.n_max if args.n_max is not None else 10
    records = verify_oned(family, n_max)
    echo = {
        "version": __version__,
        "report": "oned",
        "family": family,
        "n_max": n_max,
    }
    _write(args.output, render_csv(records, VERIFY_FIELDS, echo))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args)
        if args.command == "design":
            return _run_design(args)
        if args.command == "study":
            return _run_study(args)
        return _run_verify(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
