"""Batch studies: conditioning sweeps, surrogate accuracy, 1D verification.

Every study is deterministic in its seed: candidate draws, Monte Carlo
designs, and validation samples all use sub-seeds derived from
(seed, stream, method, degree, trial), so reruns are byte-identical and any
single cell can be reproduced in isolation. Results are long-format
records; render_csv turns them into text with the full configuration
echoed in comment lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import __version__, multiindex
from .basis import (
    ProductBasis,
    _det_and_cond,
    _unit_rows,
    condition_number,
    eval_rows,
)
from .design import (
    CandidateSet,
    DesignResult,
    _check_candidates,
    afp_select,
    candidate_set,
    cfp_select,
)
from .elliptic import EllipticConfig, solve_bvp_batch
from .lsq import solve_unweighted, solve_weighted, validation_error
from .multiindex import MAX_SET_SIZE, MultiIndexSet, enrich, total_degree
from .orthopoly import (
    DensitySpec,
    _sample_points,
    gauss_rule,
    level_set,
    quadrature_exactness_report,
    recurrence_coefficients,
)

__all__ = [
    "StudyConfig",
    "TARGETS",
    "study_condition",
    "study_approx",
    "verify_oned",
    "render_csv",
    "config_echo",
    "resolve_target",
]

# builder names, looked up in multiindex at each call so a wrapper bound there sees it
_INDEX_SETS = {"TD": "total_degree", "HC": "hyperbolic_cross"}
RULES = tuple(_INDEX_SETS)
METHODS = ("CFP", "AFP", "MC")

_METHOD_ID = {"CFP": 0, "AFP": 1, "MC": 2}
_STREAM_CANDIDATES = 10
_STREAM_MC = 11
_STREAM_VALIDATION = 12


@dataclass(frozen=True)
class StudyConfig:
    """Study settings; defaults match the reference setup. Both sweeps read
    family through methods; study_approx also reads validation_samples, and
    its elliptic target elliptic_sigma and elliptic_grid_points."""

    family: str = "uniform"
    dimension: int = 2
    rule: str = "TD"
    degrees: tuple[int, ...] = (2, 3, 4, 5)
    oversampling: float = 1.05
    trials: int = 50
    candidates: int = 10_000
    seed: int = 0
    methods: tuple[str, ...] = ("CFP", "AFP", "MC")
    validation_samples: int = 1000
    elliptic_sigma: float = EllipticConfig.sigma
    elliptic_grid_points: int = EllipticConfig.grid_points

    def __post_init__(self):
        # a list from a caller becomes a tuple, so the config hashes,
        # compares and echoes as the tuple config does
        for name in ("degrees", "methods"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        DensitySpec(self.family)  # the package's one family check
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if len(self.degrees) == 0 or any(k < 0 for k in self.degrees):
            raise ValueError("degrees must be a nonempty tuple of k >= 0")
        if not math.isfinite(self.oversampling):
            raise ValueError(
                f"oversampling factor must be finite, got {self.oversampling}"
            )
        if self.oversampling < 1.0:
            raise ValueError("oversampling factor must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.candidates < 2 or self.candidates % 2 != 0:
            raise ValueError("candidates must be even and at least 2")
        if self.validation_samples < 1:
            raise ValueError("validation_samples must be positive")
        bad = [m for m in self.methods if m not in METHODS]
        if bad or len(self.methods) == 0:
            raise ValueError(f"methods must be a nonempty subset of {METHODS}")
        # a repeated entry would compute the same cells again and write
        # their rows again
        for name, values in (("degrees", self.degrees), ("methods", self.methods)):
            repeated = [x for i, x in enumerate(values) if x in values[:i]]
            if repeated:
                raise ValueError(f"{name} has a duplicate: {repeated[0]!r}")

    @property
    def density(self) -> DensitySpec:
        return DensitySpec(self.family)


def _derive_seed(*parts: int) -> int:
    stream = np.random.SeedSequence(list(parts))
    return int(stream.generate_state(1, dtype=np.uint64)[0])


def _degree_setup(
    config: StudyConfig, degree: int, m_points: int | None = None, selects=False,
    where: str = "",
):
    """(lam, M) for one degree; M defaults to ceil(oversampling * N), and
    _select checks it against the candidates. A design that selects has M
    checked here first where it is known before lam is built: given, or from
    a total-degree set's size comb(degree + d, d), which at d = 200 degree 3
    spares a half-minute build of 1.4 million indices. where prefixes that
    refusal's message, as a study names the cell and trial that would select."""
    d = config.dimension
    size = math.comb(degree + d, d) if config.rule == "TD" and degree >= 0 else None
    # a size past the guard is left to its builder's own check
    if m_points is None and size is not None and size <= MAX_SET_SIZE:
        m_points = _oversampled(config, size)
    if selects and m_points is not None:
        _check_candidates(config.candidates, m_points, where)
    lam = getattr(multiindex, _INDEX_SETS[config.rule])(d, degree)
    if m_points is None:
        m_points = _oversampled(config, len(lam))
    return lam, m_points


def _oversampled(config: StudyConfig, size: int) -> int:
    """ceil(oversampling * size), after enrich's size guard, which is checked
    before math.ceil can meet inf."""
    wanted = config.oversampling * size
    if wanted > MAX_SET_SIZE:
        raise ValueError(
            f"oversampling {config.oversampling} asks for {wanted:.4g} points, "
            f"more than the size guard of {MAX_SET_SIZE}"
        )
    return math.ceil(wanted)


def _select(
    config: StudyConfig, method: str, lam: MultiIndexSet, m_points: int, seed: int
) -> DesignResult:
    """Greedy CFP or AFP pivots among config.candidates draws seeded by seed,
    in lam enriched to m_points indices when M > N."""
    # the selection's own check, made before enrich enumerates up to M indices
    _check_candidates(config.candidates, m_points)
    lam_tilde = enrich(lam, m_points - len(lam)) if m_points > len(lam) else lam
    cands = candidate_set(
        config.density, config.dimension, config.candidates, lam_tilde.max_degree, seed
    )
    select = cfp_select if method == "CFP" else afp_select
    return select(cands, lam_tilde, m_points)


def _solver(method: str):
    """CFP designs get the Christoffel-weighted solve, AFP and MC the plain one."""
    return solve_weighted if method == "CFP" else solve_unweighted


def _design_points(
    config: StudyConfig, method: str, lam: MultiIndexSet, m_points: int,
    degree: int, trial: int,
) -> np.ndarray:
    """One trial's sample points for a method, drawn from derived sub-seeds."""
    if method == "MC":
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, _STREAM_MC, degree, trial])
        )
        return _sample_points((config.density,) * config.dimension, rng, m_points)
    cand_seed = _derive_seed(
        config.seed, _STREAM_CANDIDATES, _METHOD_ID[method], degree, trial
    )
    return _select(config, method, lam, m_points, cand_seed).points


def _quantiles_20_80(values: np.ndarray) -> tuple[float, float]:
    """np.quantile(values, [0.2, 0.8]) bit for bit, NaN aside, without the
    np.unique call through which numpy's first quantile imports numpy.ma.

    numpy's default linear rule: at the virtual index h = (n - 1) q of the
    sorted values, i = floor(h) and t = h - i; numpy's lerp then takes
    a + (b - a) t below t = 1/2 and b - (b - a)(1 - t) from there. Only a
    single trial has no value above i, and it takes its one value for both
    ends. As in numpy, an end at inf gives nan, here without a
    floating-point warning.
    """
    ordered = np.sort(values)
    last = len(ordered) - 1
    out = []
    for q in (0.2, 0.8):
        h = last * q
        i = math.floor(h)
        t = h - i
        a, b = float(ordered[i]), float(ordered[min(i + 1, last)])
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return out[0], out[1]


def _trial_prefix(method: str, degree: int, trial: int) -> str:
    return f"{method} degree {degree} trial {trial}: "


def _sweep(config: StudyConfig, trial_value) -> list[dict]:
    """Mean and 20%/80% quantiles of trial_value over `trials` repetitions,
    one cell per (method, degree).

    trial_value(method, basis, points, degree, trial) scores one trial's
    design; basis spans the unenriched index set. A ValueError from a trial
    is raised again as the same type, its message prefixed with the cell
    and trial, such as "AFP degree 30 trial 0: "; a MemoryError is raised
    again as a plain MemoryError with the same prefix. Too few candidates for
    a CFP or AFP cell are refused under trial 0's prefix before the cell's
    index set is built, wherever M is known beforehand (see _degree_setup).
    """
    records = []
    for method in config.methods:
        for degree in config.degrees:
            lam, m_points = _degree_setup(
                config, degree, selects=method != "MC",
                where=_trial_prefix(method, degree, 0),
            )
            basis = ProductBasis.for_density(config.density, lam)
            values = np.empty(config.trials)
            for trial in range(config.trials):
                where = _trial_prefix(method, degree, trial)
                try:
                    points = _design_points(
                        config, method, lam, m_points, degree, trial
                    )
                    values[trial] = trial_value(method, basis, points, degree, trial)
                except ValueError as exc:
                    raise type(exc)(f"{where}{exc}") from exc
                except MemoryError as exc:  # numpy's subclass takes no message
                    cause = str(exc) or "out of memory"
                    raise MemoryError(f"{where}{cause}") from exc
            q20, q80 = _quantiles_20_80(values)
            record = {"method": method, "degree": degree, "N": len(lam), "M": m_points}
            for stat, value in (("mean", values.mean()), ("q20", q20), ("q80", q80)):
                records.append({**record, "stat": stat, "value": float(value)})
    return records


def study_condition(config: StudyConfig) -> list[dict]:
    """Condition numbers of the fitted system across methods and degrees.

    CFP designs are judged on the unit-norm-row matrix they are built for;
    AFP and MC on the plain one. Each cell aggregates `trials` repetitions
    into mean and 20%/80% quantiles.
    """

    def kappa(method, basis, points, degree, trial):
        space = "Q" if method == "CFP" else "P"
        return condition_number(eval_rows(basis, points, space))

    return _sweep(config, kappa)


# analytic targets by id, each a batch callable (n, d) -> (n,)
_ANALYTIC_TARGETS = {
    "exp_negsumsq": lambda y: np.exp(-np.sum(y * y, axis=1)),
    "exp_negsum": lambda y: np.exp(-np.sum(y, axis=1)),
}
TARGETS = (*_ANALYTIC_TARGETS, "elliptic")


def resolve_target(config: StudyConfig, target):
    """Map a target id to a batch callable (n, d) -> (n,)."""
    if callable(target):  # test hook: any batch callable works
        return target
    if target in _ANALYTIC_TARGETS:
        return _ANALYTIC_TARGETS[target]
    if target == "elliptic":
        if config.family != "uniform":
            raise ValueError(
                "the elliptic benchmark needs uniform parameters in [-1, 1]^d"
            )
        bvp = EllipticConfig(
            dimension=config.dimension,
            sigma=config.elliptic_sigma,
            grid_points=config.elliptic_grid_points,
        )
        return lambda y: solve_bvp_batch(bvp, y)
    raise ValueError(f"unknown target {target!r}; known ids: {TARGETS}")


def study_approx(config: StudyConfig, target) -> list[dict]:
    """Validation error of fitted surrogates across methods and degrees.

    CFP fits use the Christoffel-weighted solve; AFP and MC the plain one.
    Errors are discrete l2 norms over `validation_samples` fresh iid draws
    from an independent sub-seed stream.
    """
    f = resolve_target(config, target)

    def error(method, basis, points, degree, trial):
        surrogate = _solver(method)(basis, points, f(points))
        seed = _derive_seed(
            config.seed, _STREAM_VALIDATION, _METHOD_ID[method], degree, trial
        )
        return validation_error(surrogate, f, config.validation_samples, seed)

    return _sweep(config, error)


def _verify_record(
    family: str, n: int, start: str, check: str, value: float, threshold: float,
    ok: bool | None = None,
) -> dict:
    """One check; it passes when ok, by default when value <= threshold."""
    if ok is None:
        ok = value <= threshold
    return {
        "family": family,
        "N": n,
        "start": start,
        "check": check,
        "value": float(value),
        "threshold": threshold,
        "status": "PASS" if ok else "FAIL",
    }


_SWEEP_STARTS = {
    "uniform": (-0.97, -0.38, 0.11, 0.63, 1.55),
    "gaussian": (-2.31, -0.83, 0.21, 0.74, 1.92),
}

_RECOVERY_MESH = {
    "uniform": np.linspace(-1.0, 1.0, 41),
    "gaussian": np.linspace(-3.0, 3.0, 41),
}


def verify_oned(family: str, n_max: int) -> list[dict]:
    """Check the 1D optimality story for every order up to n_max.

    For each starting point: the level set contains the start, its unit-row
    matrix has condition number and determinant modulus 1, and its
    Christoffel weights are a positive quadrature rule exact through degree
    2N - 2. Starting from a root of phi_N additionally recovers the Gauss
    nodes, both spectrally and through the greedy selection with the root
    placed at candidate index 0.
    """
    density = DensitySpec(family)
    if n_max < 1:
        raise ValueError("n_max must be positive")
    table = recurrence_coefficients(density, max(2 * n_max - 2, 1))
    records = []
    for n in range(1, n_max + 1):
        lam = total_degree(1, n - 1)
        basis = ProductBasis((table,), lam)
        gauss_nodes, _ = gauss_rule(table, n)
        starts = [(repr(y), float(y)) for y in _SWEEP_STARTS[family]]
        starts.append(("gauss", float(gauss_nodes[-1])))
        for label, y in starts:
            nodes = level_set(table, n, y)
            rows, kvals = _unit_rows(basis, nodes[:, None])
            detmod, kappa = _det_and_cond(rows)
            weights = 1.0 / kvals
            report = quadrature_exactness_report(
                table, nodes, kvals, max(2 * n - 2, 0)
            )
            membership = float(np.min(np.abs(nodes - y)))
            min_weight = float(np.min(weights))
            checks = [
                ("condition_number", kappa, 1.0 + 1e-8),
                ("det_modulus", detmod, 1.0 - 1e-8, detmod >= 1.0 - 1e-8),
                ("start_in_set", membership, 1e-8 * max(1.0, abs(y))),
                ("min_weight", min_weight, 0.0, min_weight > 0.0),
                ("weight_sum_error", abs(float(np.sum(weights)) - 1.0), 1e-12),
                ("quadrature_max_error", float(np.max(report)), 1e-10),
            ]
            if label == "gauss":
                # greedy recovery: the root goes first, the rest of the level
                # set and a filler mesh follow
                others = nodes[np.abs(nodes - y) > 1e-8 * max(1.0, abs(y))]
                pool = np.concatenate(([y], others, _RECOVERY_MESH[family]))
                cands = CandidateSet(
                    points=pool[:, None],
                    densities=(density,),
                    degree_hint=n,
                    seed=0,
                )
                selected = np.sort(cfp_select(cands, lam, n).points[:, 0])
                gauss_dev = float(np.max(np.abs(nodes - gauss_nodes)))
                recovery_dev = float(np.max(np.abs(selected - nodes)))
                checks.append(("gauss_node_recovery", gauss_dev, 1e-10))
                checks.append(("greedy_recovery", recovery_dev, 1e-10))
            records.extend(_verify_record(family, n, label, *c) for c in checks)
    return records


def config_echo(config: StudyConfig, **extra) -> dict:
    """Flat mapping echoed into CSV headers: the version, then every
    StudyConfig field in declaration order, then extra."""
    echo = {"version": __version__}
    for field in fields(config):
        value = getattr(config, field.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        echo[field.name] = value
    echo.update(extra)
    return echo


def render_csv(records: list[dict], echo: dict) -> str:
    """`# key = value` lines, then a header of the first record's keys, then rows."""
    lines = [f"# {key} = {value}" for key, value in echo.items()]
    lines.append(",".join(records[0]))
    for record in records:
        lines.append(",".join(str(record[key]) for key in records[0]))
    return "\n".join(lines) + "\n"
