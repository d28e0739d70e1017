"""Candidate ensembles and deterministic point selection.

Selection is greedy determinant maximization, computed as lazy pivoted
Cholesky of the Gram matrix V V^T on a read-only V: each step picks the
candidate whose residual against the span of the selected rows is largest,
which multiplies the running determinant modulus by that residual norm, and
one matvec with V downdates every squared residual. Ties within a relative
window of 1e-12 go to the lowest candidate index; in the unit-norm row space
the first step is an exact mathematical tie, so the window is what keeps
the choice well defined.

The literal greedy reference and the brute-force subset oracle evaluate
their objectives from scratch at every step and exist to check the fast
path, so they must stay independent of it; they share only the row set-up
and the result build with it, and are not exported.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .basis import (
    ProductBasis,
    RankDeficientError,
    _cond_from_singular,
    _det_from_singular,
    condition_number,
    det_modulus,
    eval_rows,
)
from .multiindex import MultiIndexSet
from .orthopoly import GAUSSIAN, UNIFORM, DensitySpec, sample_density

__all__ = [
    "CandidateSet",
    "DesignResult",
    "candidate_set",
    "cfp_select",
    "afp_select",
]

TAG_IID = "iid"
TAG_CHEBYSHEV = "chebyshev"
TAG_BALL = "ball"

# relative window within which per-step objectives count as tied
TIE_RTOL = 1e-12
# a downdated squared residual below this share of its last exact value has
# lost half its digits to cancellation (the xGEQP3 test, on squares)
RECOMPUTE_RATIO = math.sqrt(np.finfo(float).eps)

REFERENCE_MAX_CANDIDATES = 1000
ORACLE_MAX_SUBSETS = 10**6


@dataclass(frozen=True)
class CandidateSet:
    """A finite stand-in for the sample domain.

    points has shape (m_total, d); ensemble_tags records which ensemble each
    point came from; densities and degree_hint keep enough provenance to
    rebuild bases and reproduce the draw from seed.
    """

    points: np.ndarray
    ensemble_tags: tuple[str, ...]
    densities: tuple[DensitySpec, ...]
    degree_hint: int
    seed: int

    def __post_init__(self):
        if self.points.ndim != 2:
            raise ValueError("points must have shape (m_total, d)")
        if len(self.ensemble_tags) != self.points.shape[0]:
            raise ValueError("one ensemble tag per point required")
        if len(self.densities) != self.points.shape[1]:
            raise ValueError("one density per coordinate required")
        bad = np.flatnonzero(~np.isfinite(self.points).all(axis=1))
        if bad.size:
            raise ValueError(f"candidate point {int(bad[0])} is not finite")
        self.points.setflags(write=False)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def _json_float(value) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class DesignResult:
    """Selected points plus the diagnostics of the selection run.

    points are in selection order; pivot_order holds the candidate indices;
    objective_trace holds the per-step objective (determinant modulus, or
    condition number for the cond-objective reference). det_modulus and
    condition_number describe the final selected matrix in the space the
    selection ran in.
    """

    points: np.ndarray
    pivot_order: tuple[int, ...]
    objective_trace: np.ndarray
    det_modulus: float
    condition_number: float
    space: str
    seed: int | None
    config: dict

    def __post_init__(self):
        self.points.setflags(write=False)
        self.objective_trace.setflags(write=False)

    def to_json(self) -> dict:
        """JSON-ready dict; an infinite determinant or trace entry (beyond the
        float range) or condition number (singular) becomes None."""
        return {
            "points": [list(row) for row in self.points],
            "pivot_order": list(self.pivot_order),
            "objective_trace": [_json_float(v) for v in self.objective_trace],
            "det_modulus": _json_float(self.det_modulus),
            "condition_number": _json_float(self.condition_number),
            "space": self.space,
            "seed": self.seed,
            "config": self.config,
        }


def _sample_ball(rng: np.random.Generator, d: int, degree: int, count: int) -> np.ndarray:
    """Draws from the density C (1 - |s|^2 / (2 n))^{d/2} on |s| <= sqrt(2 n).

    Radially, rho = |s|^2 / (2 n) follows Beta(d/2, d/2 + 1); directions are
    uniform on the sphere. This is exact: substituting rho in
    r^{d-1} (1 - r^2/(2n))^{d/2} dr gives the Beta density in rho.
    """
    radius = math.sqrt(2.0 * degree)
    rho = rng.beta(d / 2.0, d / 2.0 + 1.0, size=count)
    r = radius * np.sqrt(rho)
    x = rng.standard_normal((count, d))
    x /= np.linalg.norm(x, axis=1)[:, None]
    return x * r[:, None]


def candidate_set(
    density: DensitySpec | Sequence[DensitySpec],
    dimension: int,
    m_total: int,
    degree_hint: int,
    seed: int,
) -> CandidateSet:
    """Half iid draws from the density, half from its degree-asymptotic law.

    Uniform coordinates get tensor Chebyshev draws cos(pi U); Gaussian
    coordinates get the ball ensemble scaled by sqrt(2 * degree_hint). The
    two halves use sub-seeds split from `seed`, so either half is
    reproducible on its own.
    """
    if isinstance(density, DensitySpec):
        densities = (density,) * dimension
    else:
        densities = tuple(density)
    if len(densities) != dimension:
        raise ValueError("one density per coordinate required")
    if m_total < 2 or m_total % 2 != 0:
        raise ValueError("m_total must be even and at least 2")
    if degree_hint < 1:
        raise ValueError("degree_hint must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    kinds = {rho.kind for rho in densities}
    if len(kinds) != 1:
        raise ValueError(
            "mixed uniform/gaussian coordinates have no single asymptotic "
            "ensemble; unsupported"
        )

    half = m_total // 2
    rng_iid = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    rng_asym = np.random.default_rng(np.random.SeedSequence([seed, 1]))

    iid = np.column_stack(
        [sample_density(rho, rng_iid, half) for rho in densities]
    )
    if kinds == {UNIFORM}:
        asym = np.cos(np.pi * rng_asym.random((half, dimension)))
        tag = TAG_CHEBYSHEV
    else:
        asym = _sample_ball(rng_asym, dimension, degree_hint, half)
        tag = TAG_BALL

    points = np.vstack([iid, asym])
    tags = (TAG_IID,) * half + (tag,) * half
    return CandidateSet(
        points=points,
        ensemble_tags=tags,
        densities=densities,
        degree_hint=degree_hint,
        seed=seed,
    )


def _unique_rows(points: np.ndarray) -> np.ndarray:
    """Indices of first occurrences, in original order. The stable sort puts
    each first occurrence at the head of its run of equal rows."""
    order = np.lexsort(points.T[::-1])
    ranked = points[order]
    leads = np.ones(len(order), dtype=bool)
    leads[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return np.sort(order[leads])


def _tied_lowest(order: np.ndarray, values: np.ndarray, best: float, window: float) -> int:
    """Position of the lowest original index among values within the window."""
    mask = values >= best - window
    positions = np.flatnonzero(mask)
    return int(positions[np.argmin(order[positions])])


def _greedy_pivot_qr(v: np.ndarray, m_points: int) -> tuple[np.ndarray, np.ndarray]:
    """(pivots into v's rows, determinant-modulus trace) of m_points greedy
    steps; v is only read. Residuals that fail the cancellation test are
    recomputed 512 rows at a time, so no temporary the size of v appears.
    """
    sq = np.einsum("ij,ij->i", v, v)
    floor = RECOMPUTE_RATIO * sq
    rank_floor = (1e-12 * math.sqrt(float(np.max(sq)))) ** 2
    q = np.empty((m_points, v.shape[1]))
    pivots = np.empty(m_points, dtype=int)
    trace = np.empty(m_points)
    running_det = 1.0
    for k in range(m_points):
        best = float(np.max(sq))
        if best <= rank_floor:
            raise RankDeficientError(
                f"candidate rows reached rank {k} before {m_points} pivots"
            )
        # squared-norm window: a relative tie of TIE_RTOL on the residual
        # norm is 2 * TIE_RTOL on its square; argmax takes the lowest index
        j = int(np.argmax(sq >= best - 2.0 * TIE_RTOL * best))
        running_det *= math.sqrt(float(sq[j]))
        trace[k] = running_det
        pivots[k] = j
        if k == m_points - 1:
            break  # the residuals after the last pick are never read
        # classical Gram-Schmidt, two passes
        w = v[j] - (q[:k] @ v[j]) @ q[:k]
        w -= (q[:k] @ w) @ q[:k]
        q[k] = w / np.linalg.norm(w)
        c = v @ q[k]
        sq -= c * c
        sq[j] = floor[j] = -math.inf  # never picked nor recomputed again
        low = np.flatnonzero(sq < floor)
        for start in range(0, low.size, 512):
            rows = low[start : start + 512]
            res = v[rows] - (v[rows] @ q[: k + 1].T) @ q[: k + 1]
            sq[rows] = np.einsum("ij,ij->i", res, res)
        floor[low] = RECOMPUTE_RATIO * sq[low]
    return pivots, trace


def _selection_rows(
    candidates: CandidateSet,
    index_set: MultiIndexSet,
    m_points: int,
    space: str,
) -> tuple[np.ndarray, np.ndarray]:
    """(indices of the distinct candidates, their basis rows in space) for a
    selection of m_points; raises ValueError when that many cannot be picked."""
    if index_set.dimension != candidates.dimension:
        raise ValueError("index set and candidates disagree on dimension")
    if m_points < 1:
        raise ValueError("m_points must be positive")
    if m_points > len(index_set):
        raise ValueError(
            f"cannot select {m_points} points in a basis of size {len(index_set)}"
        )
    unique = _unique_rows(candidates.points)
    if m_points > len(unique):
        raise ValueError(
            f"only {len(unique)} distinct candidates for {m_points} points"
        )
    basis = ProductBasis.for_density(candidates.densities, index_set)
    return unique, eval_rows(basis, candidates.points[unique], space)


def _design_result(
    candidates: CandidateSet,
    index_set: MultiIndexSet,
    space: str,
    pivots: np.ndarray,
    selected: np.ndarray,
    trace: np.ndarray,
    **extra,
) -> DesignResult:
    """DesignResult for pivots into the candidate list; selected holds their
    rows, and m_points <= N, so both diagnostics come from one SVD. extra
    is appended to the config."""
    sigma = np.linalg.svd(selected, compute_uv=False)
    return DesignResult(
        points=candidates.points[pivots].copy(),
        pivot_order=tuple(int(i) for i in pivots),
        objective_trace=trace,
        det_modulus=_det_from_singular(sigma),
        condition_number=_cond_from_singular(sigma),
        space=space,
        seed=candidates.seed,
        config={
            "basis_size": len(index_set),
            "m_points": len(pivots),
            "m_candidates": len(candidates),
            "degree_hint": candidates.degree_hint,
            "densities": [rho.kind for rho in candidates.densities],
            **extra,
        },
    )


def _qr_select(
    candidates: CandidateSet,
    index_set: MultiIndexSet,
    m_points: int,
    space: str,
) -> DesignResult:
    unique, v = _selection_rows(candidates, index_set, m_points, space)
    local, trace = _greedy_pivot_qr(v, m_points)
    return _design_result(candidates, index_set, space, unique[local], v[local], trace)


def cfp_select(
    candidates: CandidateSet, index_set: MultiIndexSet, m_points: int
) -> DesignResult:
    """Greedy determinant-maximizing selection on unit-norm rows.

    Lazy pivoted Cholesky of the Gram matrix of the read-only
    Christoffel-scaled design matrix; the pivots are those of a column-
    pivoted QR of its transpose.
    """
    return _qr_select(candidates, index_set, m_points, "Q")


def afp_select(
    candidates: CandidateSet, index_set: MultiIndexSet, m_points: int
) -> DesignResult:
    """Same lazy Cholesky selection on plain rows (approximate Fekete points)."""
    return _qr_select(candidates, index_set, m_points, "P")


def _log_det_modulus(rows: np.ndarray) -> float:
    sigma = np.linalg.svd(rows, compute_uv=False)
    if np.any(sigma <= 0.0):
        return -math.inf
    return float(np.sum(np.log(sigma)))


def greedy_select_reference(
    candidates: CandidateSet,
    index_set: MultiIndexSet,
    m_points: int,
    space: str,
    objective: str,
) -> DesignResult:
    """Literal greedy selection: re-evaluate the objective for every
    remaining candidate at every step.

    objective "det" maximizes the determinant modulus, "cond" minimizes the
    condition number. Quadratic cost per step; candidate sets are capped at
    1000 points. This is the oracle the QR path is tested against.
    """
    if objective not in ("det", "cond"):
        raise ValueError("objective must be 'det' or 'cond'")
    if len(candidates) > REFERENCE_MAX_CANDIDATES:
        raise ValueError(
            f"reference selection capped at {REFERENCE_MAX_CANDIDATES} candidates"
        )
    unique, v = _selection_rows(candidates, index_set, m_points, space)

    chosen: list[int] = []
    remaining = list(range(len(unique)))
    trace = np.empty(m_points)
    for k in range(m_points):
        if objective == "det":
            values = np.array(
                [_log_det_modulus(v[chosen + [i]]) for i in remaining]
            )
            best = float(np.max(values))
            if math.isinf(best):
                raise RankDeficientError(
                    f"every candidate is rank deficient at step {k}"
                )
            # absolute window in log space is a relative window on the det
            pick = _tied_lowest(unique[remaining], values, best, TIE_RTOL)
        else:
            values = np.array(
                [-condition_number(v[chosen + [i]]) for i in remaining]
            )
            best = float(np.max(values))
            window = TIE_RTOL * abs(best) if math.isfinite(best) else 0.0
            pick = _tied_lowest(unique[remaining], values, best, window)
        chosen.append(remaining.pop(pick))
        rows = v[chosen]
        trace[k] = det_modulus(rows) if objective == "det" else condition_number(rows)

    return _design_result(
        candidates, index_set, space, unique[chosen], v[chosen], trace,
        objective=objective, reference=True,
    )


def global_select_oracle(
    candidates: CandidateSet,
    index_set: MultiIndexSet,
    m_points: int,
    space: str,
    objective: str,
) -> DesignResult:
    """Exhaustive search over all candidate subsets of the given size.

    Ties keep the first subset in index order. Guarded to at most 1e6
    subsets; strictly a test oracle.
    """
    if objective not in ("det", "cond"):
        raise ValueError("objective must be 'det' or 'cond'")
    unique, v = _selection_rows(candidates, index_set, m_points, space)
    n_subsets = math.comb(len(unique), m_points)
    if n_subsets > ORACLE_MAX_SUBSETS:
        raise ValueError(f"{n_subsets} subsets exceed the oracle guard")

    best_combo = None
    best_value = -math.inf
    for combo in itertools.combinations(range(len(unique)), m_points):
        rows = v[list(combo)]
        if objective == "det":
            value = _log_det_modulus(rows)
        else:
            kappa = condition_number(rows)
            value = -kappa if math.isfinite(kappa) else -math.inf
        if value > best_value:
            best_value = value
            best_combo = combo
    if best_combo is None or math.isinf(best_value) and best_value < 0:
        raise RankDeficientError("no subset of full rank exists")

    chosen = list(best_combo)
    trace = np.array(
        [det_modulus(v[chosen[: k + 1]]) for k in range(m_points)]
        if objective == "det"
        else [condition_number(v[chosen[: k + 1]]) for k in range(m_points)]
    )
    return _design_result(
        candidates, index_set, space, unique[chosen], v[chosen], trace,
        objective=objective, oracle=True,
    )
