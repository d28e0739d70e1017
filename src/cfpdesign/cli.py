"""Command-line front end.

Subcommands:
    design          build one point design, write it as JSON
    study cond      conditioning sweep, CSV
    study approx    surrogate accuracy sweep, CSV
    study elliptic  accuracy sweep on the elliptic benchmark, CSV
    verify oned     1D optimality report, CSV

Every option can also come from a config file of `key = value` lines
(`--config FILE`); explicit flags override the file, which overrides the
defaults. Keys match the long option names exactly, and values go through
the same type and choice checks as flags, e.g.

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
import functools
import json
import sys
from dataclasses import fields

from . import __version__
from .basis import ProductBasis
from .lsq import _check_samples
from .orthopoly import FAMILIES
from .studies import (
    _ANALYTIC_TARGETS,
    RULES,
    TARGETS,
    StudyConfig,
    _degree_setup,
    _select,
    _solver,
    config_echo,
    render_csv,
    resolve_target,
    study_approx,
    study_condition,
    verify_oned,
)


def _parse_degrees(text: str) -> tuple[int, ...]:
    """"2:8" is an inclusive range, "2,4,6" a list, "5" a single degree."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected e.g. 2:15 or 2,4,8, got {text!r}")


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


def _with_config_file(args: argparse.Namespace, argv: list[str]) -> list[str]:
    """argv with the file's `--key=value` tokens right after the subcommand
    words, so they meet the checks of their flags and explicit flags win.
    The file names only the command's own options: not the subcommand words,
    and not `config`, whose file would go unread."""
    options = vars(args).keys() - {"config", "command", "study_kind", "verify_kind"}
    tokens = []
    for key, value in _read_config_file(args.config).items():
        # exact names only: argparse alone would take `degree` for `--degrees`
        if key.replace("-", "_") not in options:
            raise ValueError(f"unknown config key {key!r}")
        tokens.append(f"--{key}={value}")
    words = 1 if args.command == "design" else 2
    return argv[:words] + tokens + argv[words:]


def _study_config(args: argparse.Namespace) -> StudyConfig:
    """StudyConfig from the options given; the dataclass holds the defaults."""
    given = {f.name: getattr(args, f.name, None) for f in fields(StudyConfig)}
    return StudyConfig(**{name: v for name, v in given.items() if v is not None})


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _add_shared_options(parser: argparse.ArgumentParser, sampling: bool = True) -> None:
    """Options of every subcommand; `sampling` adds the candidate-draw
    options that design and the studies share."""
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--family", choices=FAMILIES)
    if sampling:
        parser.add_argument("--dimension", type=int)
        parser.add_argument("--rule", choices=RULES)
        parser.add_argument("--oversampling", type=float)
        parser.add_argument("--candidates", type=int)
        parser.add_argument("--seed", type=int)
    parser.add_argument("--output", "-o", help="output path, '-' for stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process (it costs over ten parses); parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="cfpdesign",
        description="deterministic designs for weighted polynomial least squares",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="build one design, write JSON")
    _add_shared_options(p_design)
    p_design.add_argument("--degree", type=int, default=4)
    p_design.add_argument("--samples", type=int, help="points to select")
    p_design.add_argument(
        "--method", type=str.lower, choices=("cfp", "afp"), default="cfp"
    )
    p_design.add_argument("--fit", choices=TARGETS, help="also fit this target")
    p_design.add_argument("--surrogate-output", help="JSON path for the fit")

    p_study = sub.add_parser("study", help="batch studies, CSV output")
    study_sub = p_study.add_subparsers(dest="study_kind", required=True)
    for kind in ("cond", "approx", "elliptic"):
        p_kind = study_sub.add_parser(kind)
        _add_shared_options(p_kind)
        p_kind.add_argument("--degrees", type=_parse_degrees, help="e.g. 2:15 or 2,4,8")
        p_kind.add_argument("--trials", type=int)
        p_kind.add_argument(
            "--methods", type=_parse_methods, help="comma list from CFP,AFP,MC"
        )
        if kind != "cond":
            p_kind.add_argument("--validation-samples", type=int)
        if kind == "approx":
            # the elliptic target is `study elliptic`, with its own options
            analytic = tuple(_ANALYTIC_TARGETS)
            p_kind.add_argument("--target", choices=analytic, default="exp_negsumsq")
        if kind == "elliptic":
            p_kind.add_argument("--elliptic-sigma", type=float)
            p_kind.add_argument("--elliptic-grid-points", type=int)

    p_verify = sub.add_parser("verify", help="verification reports, CSV output")
    verify_sub = p_verify.add_subparsers(dest="verify_kind", required=True)
    p_oned = verify_sub.add_parser("oned")
    _add_shared_options(p_oned, sampling=False)
    p_oned.set_defaults(family=StudyConfig.family)
    p_oned.add_argument("--n-max", type=int, default=10)
    return parser


def _run_design(args: argparse.Namespace) -> int:
    config = _study_config(args)
    method = args.method.upper()
    lam, lam_tilde, m_points = _degree_setup(
        config, args.degree, args.samples, where=""
    )
    # a fit the family cannot take or with too few samples fails before a
    # candidate is drawn, and a fit that cannot run before anything is written
    target = None if args.fit is None else resolve_target(config, args.fit)
    if target is not None:
        _check_samples(m_points, len(lam))
    result = _select(config, method, lam_tilde, m_points, config.seed)
    if target is not None:
        basis = ProductBasis.for_density(config.density, lam)
        surrogate = _solver(method)(basis, result.points, target(result.points))
    payload = result.to_json()
    payload["config"].update(
        {
            "version": __version__,
            "family": config.family,
            "dimension": config.dimension,
            "rule": config.rule,
            "degree": args.degree,
            "method": args.method,
        }
    )
    _write(args.output, _json_text(payload))

    if target is not None:
        fit_payload = surrogate.to_json()
        fit_payload["target"] = args.fit
        fit_payload["version"] = __version__
        _write(args.surrogate_output, _json_text(fit_payload))
    return 0


def _run_study(args: argparse.Namespace) -> int:
    config = _study_config(args)
    if args.study_kind == "cond":
        records = study_condition(config)
        echo = config_echo(config, study="cond")
    else:
        target = "elliptic" if args.study_kind == "elliptic" else args.target
        records = study_approx(config, target)
        echo = config_echo(config, study=args.study_kind, target=target)
    _write(args.output, render_csv(records, echo))
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    records = verify_oned(args.family, args.n_max)
    echo = {
        "version": __version__,
        "report": "oned",
        "family": args.family,
        "n_max": args.n_max,
    }
    _write(args.output, render_csv(records, echo))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = parser.parse_args(_with_config_file(args, argv))
        if args.command == "design":
            return _run_design(args)
        if args.command == "study":
            return _run_study(args)
        return _run_verify(args)
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's allocation error names the size; a bare MemoryError is empty
        bare = isinstance(exc, MemoryError) and not str(exc)
        print(f"error: {'out of memory' if bare else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
