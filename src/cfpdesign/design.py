"""Candidate ensembles and deterministic point selection.

Selection is greedy determinant maximization, computed as lazy pivoted
Cholesky of the Gram matrix V V^T of the plain rows: each step picks the
candidate whose downdated weighted squared residual against the span of the
selected rows is largest, orthogonalizes its row against the chosen
directions, which multiplies the running determinant modulus by that
weighted residual norm, and downdates every weighted square along the new
direction. AFP weighs every row by 1. CFP weighs it by 1/K, K the Christoffel
sum of the plain row, which gives unit-norm residuals.
The loop runs in blocks. Squared residuals never increase, so the rows with
the largest ones form a shortlist that no other row can overtake while the
next pick stays clear of the largest square left out; the steps of a block
read only the shortlist, and one matrix product per row block then
downdates every row by all of the block's directions. A row set no longer
than a shortlist is one block. In exact arithmetic every pick is the one a
step-by-step loop over all rows makes. Ties within a relative window of
1e-12 go to the lowest candidate index. CFP's weighted squares all start at
exactly 1, so its first pick is candidate 0. Equal candidates (-0.0 equal
to 0.0) tie, so the first occurrence is picked and its copies are left with
no residual.

The literal greedy reference and the brute-force subset oracle evaluate
their determinants from scratch at every step, on CFP's unit-norm rows, to
check the fast path, so they must stay independent of it; they share only
the basis set-up and the result build with it, and are not exported.
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
    _check_sums,
    _det_and_cond,
    _row_blocks,
    _rows,
    _sums,
    det_modulus,
    eval_rows,
)
from .multiindex import MultiIndexSet
from .orthopoly import UNIFORM, DensitySpec, _as_finite, _per_coordinate, _sample_points

__all__ = [
    "CandidateSet",
    "DesignResult",
    "candidate_set",
    "cfp_select",
    "afp_select",
]

# relative window within which per-step determinants count as tied
TIE_RTOL = 1e-12
# rank floor, relative: a pick whose residual norm is at most this share of
# the largest row norm, or rows whose smallest singular value is at most this
# share of their largest, are rank deficient
RANK_RTOL = 1e-12
# a downdated squared residual below this share of its last exact value has
# lost half its digits to cancellation (the xGEQP3 test, on squares)
RECOMPUTE_RATIO = math.sqrt(np.finfo(float).eps)
# the pivot loop picks from a shortlist of this many rows with the largest
# squared residuals: 1024 rows of the widest study rows (143 values) hold
# 1.2 MB, so each step's matvec reads them from L2
SHORTLIST_ROWS = 1024

REFERENCE_MAX_CANDIDATES = 1000
ORACLE_MAX_SUBSETS = 10**6


@dataclass(frozen=True)
class CandidateSet:
    """A finite stand-in for the sample domain.

    points is a read-only copy of the (m_total, d) array passed in; densities
    and degree_hint keep the provenance to rebuild bases and redraw from seed.
    """

    points: np.ndarray
    densities: tuple[DensitySpec, ...]
    degree_hint: int
    seed: int

    def __post_init__(self):
        points = _as_finite(self.points, "points", ("m_total", len(self.densities)))
        object.__setattr__(self, "points", np.array(points))
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
    objective_trace holds the running determinant modulus after each step.
    det_modulus and condition_number describe the final selected matrix in
    the space the selection ran in. points and objective_trace are read-only
    copies of the arrays passed in.
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
        for name in ("points", "objective_trace"):
            copy = np.array(getattr(self, name), dtype=float)
            copy.setflags(write=False)
            object.__setattr__(self, name, copy)

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
    densities = _per_coordinate(density, dimension)
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

    iid = _sample_points(densities, rng_iid, half)
    if kinds == {UNIFORM}:
        asym = np.cos(np.pi * rng_asym.random((half, dimension)))
    else:
        asym = _sample_ball(rng_asym, dimension, degree_hint, half)

    return CandidateSet(
        points=np.vstack([iid, asym]),
        densities=densities,
        degree_hint=degree_hint,
        seed=seed,
    )


def _window_pick(sq: np.ndarray) -> tuple[int, float]:
    """(pick, window floor): the pick is the lowest index whose square is
    within the tie window of the largest."""
    j = int(sq.argmax())
    best = float(sq[j])
    # squared-norm window: a relative tie of TIE_RTOL on the residual norm
    # is 2 * TIE_RTOL on its square; argmax takes the lowest index
    lo = best - 2.0 * TIE_RTOL * best
    return int(np.argmax(sq[: j + 1] >= lo)), lo


def _recompute_low(
    v: np.ndarray, w: np.ndarray, sq: np.ndarray, floor: np.ndarray, q: np.ndarray
) -> None:
    """Weighted squares below their floor recomputed from v's rows, weighted
    by w, against the directions q, one row block of v at a time."""
    low = sq < floor
    if low.any():
        rows = np.flatnonzero(low)
        for part in _row_blocks(rows.size, v.shape[1]):
            blk = rows[part]
            res = v[blk] - (v[blk] @ q.T) @ q
            sq[blk] = w[blk] * np.einsum("ij,ij->i", res, res)
        floor[rows] = RECOMPUTE_RATIO * sq[rows]


def _greedy_pivot_qr(
    v: np.ndarray, m_points: int, sq: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(pivots into v's rows, determinant-modulus trace) of m_points greedy
    steps, in blocks, on squared residuals weighted by w; sq holds their
    initial values, w_i |v_i|^2 (consumed).

    A block gathers the SHORTLIST_ROWS rows with the largest squares, plus
    the window pick, and takes the largest square left out as a bound on
    every other row: squares never increase, so while the next pick's tie
    window lies above that bound no other row can be picked or tie, and
    each step runs on the shortlist alone. When the bound is reached, one
    product per row block gives every row's components along the block's
    directions, and one subtraction per row downdates its square by w_i
    times their sum of squares, before the cancellation test runs on all
    rows. A row set no longer than a shortlist is one block. The picks
    follow the downdated squares; the rank test and the trace read
    w_j |g|^2 of the picked row's Gram-Schmidt residual g, which keeps its
    digits where a downdated square has lost them to cancellation. v is
    not written; weights of 1 change no bit.
    """
    floor = RECOMPUTE_RATIO * sq
    rank_floor = (RANK_RTOL * math.sqrt(float(np.max(sq)))) ** 2
    q = np.empty((m_points, v.shape[1]))
    k = 0
    pivots = np.empty(m_points, dtype=int)
    trace = np.empty(m_points)
    size = min(len(v), SHORTLIST_ROWS)
    # one buffer holds every block's shortlist rows, so two never coexist
    shortlist = np.empty((size + 1, v.shape[1]))
    running_det = 1.0
    while True:
        j = _window_pick(sq)[0]
        top = np.argpartition(sq, -size)[-size:]
        rows = np.sort(top if j in top else np.append(top, j))
        # the indices are in range; mode="raise" would buffer the out= copy
        vs = np.take(v, rows, axis=0, out=shortlist[: len(rows)], mode="clip")
        sqs, floors, ws = sq[rows], floor[rows], w[rows]
        sq[rows] = -math.inf
        outside = float(sq.max())
        start = k
        while True:
            j, lo = _window_pick(sqs)
            # a row outside the shortlist may be picked or tie; lo is nan
            # once every shortlist row is picked
            if k > start and not lo > outside:
                break
            # classical Gram-Schmidt, two passes
            g = vs[j] - (q[:k] @ vs[j]) @ q[:k]
            g -= (q[:k] @ g) @ q[:k]
            gg = float(g @ g)
            if ws[j] * gg <= rank_floor:
                raise RankDeficientError(
                    f"candidate rows reached rank {k} before {m_points} pivots"
                )
            running_det *= math.sqrt(ws[j] * gg)
            trace[k] = running_det
            pivots[k] = rows[j]
            q[k] = g / math.sqrt(gg)
            k += 1
            if k == m_points:  # the residuals after the last pick are never read
                return pivots, trace
            sqs -= np.square(vs @ q[k - 1]) * ws
            sqs[j] = floors[j] = -math.inf  # never picked nor recomputed again
            _recompute_low(vs, ws, sqs, floors, q[:k])
        # block end: the rows outside the shortlist catch up on its directions
        for blk in _row_blocks(len(v), k - start):
            cb = v[blk] @ q[start:k].T
            sq[blk] -= w[blk] * np.einsum("ij,ij->i", cb, cb)
        sq[rows] = sqs
        floor[rows] = floors
        _recompute_low(v, w, sq, floor, q[:k])


def _selection_basis(
    candidates: CandidateSet, index_set: MultiIndexSet, m_points: int
) -> ProductBasis:
    """The basis of index_set for a selection of m_points among the
    candidates; raises ValueError when the basis or the candidate list is
    too small. Equal candidates are not merged: their rows tie, the lowest
    index wins the tie, and once it is picked the others have no residual,
    so fewer distinct candidates than m_points raise the pivot loop's
    RankDeficientError."""
    if index_set.dimension != candidates.dimension:
        raise ValueError("index set and candidates disagree on dimension")
    if m_points < 1:
        raise ValueError("m_points must be positive")
    if m_points > len(index_set):
        raise ValueError(
            f"cannot select {m_points} points in a basis of size {len(index_set)}"
        )
    if m_points > len(candidates):
        raise ValueError(f"only {len(candidates)} candidates for {m_points} points")
    return ProductBasis.for_density(candidates.densities, index_set)


def _design_result(
    candidates: CandidateSet,
    basis: ProductBasis,
    space: str,
    pivots: np.ndarray,
    trace: np.ndarray,
) -> DesignResult:
    """DesignResult for pivots into the candidate list. Their rows in space
    are evaluated again, equal bit for bit to the rows of every candidate at
    those points, and m_points <= N, so both diagnostics come from one SVD."""
    points = candidates.points[pivots]
    det, cond = _det_and_cond(eval_rows(basis, points, space))
    return DesignResult(
        points=points,
        pivot_order=tuple(int(i) for i in pivots),
        objective_trace=trace,
        det_modulus=det,
        condition_number=cond,
        space=space,
        seed=candidates.seed,
        config={
            "basis_size": len(basis.index_set),
            "m_points": len(pivots),
            "m_candidates": len(candidates),
            "degree_hint": candidates.degree_hint,
            "densities": [rho.kind for rho in candidates.densities],
        },
    )


def _qr_select(
    candidates: CandidateSet,
    index_set: MultiIndexSet,
    m_points: int,
    space: str,
) -> DesignResult:
    basis = _selection_basis(candidates, index_set, m_points)
    v = _rows(basis, candidates.points)
    k = _sums(v)
    _check_sums(basis, candidates.points, k, positive=space == "Q")
    # CFP weighs rows by 1/K; its weighted squares are set to exactly 1, not
    # rounded from K * (1/K), so its first step is an exact tie
    w, sq = (1.0 / k, np.ones(len(v))) if space == "Q" else (np.ones(len(v)), k)
    pivots, trace = _greedy_pivot_qr(v, m_points, sq, w)
    return _design_result(candidates, basis, space, pivots, trace)


def cfp_select(
    candidates: CandidateSet, index_set: MultiIndexSet, m_points: int
) -> DesignResult:
    """Greedy determinant-maximizing selection on plain rows, each squared
    residual weighted by 1/K, K the row's Christoffel sum.

    The blocked lazy Cholesky loop of AFP with these weights gives the
    pivots of a column-pivoted QR of the transposed unit-norm rows, which
    the diagnostics describe. A Christoffel sum that overflows or vanishes
    raises ValueError naming the point.
    """
    return _qr_select(candidates, index_set, m_points, "Q")


def afp_select(
    candidates: CandidateSet, index_set: MultiIndexSet, m_points: int
) -> DesignResult:
    """The same selection with every weight 1 (approximate Fekete points);
    a squared row norm that overflows raises ValueError naming the point."""
    return _qr_select(candidates, index_set, m_points, "P")


def _log_det_modulus(rows: np.ndarray) -> float:
    """Log of the determinant modulus; -inf when the rows are rank deficient,
    with their smallest singular value at most RANK_RTOL of their largest,
    the relative floor of the fast path's rank test."""
    sigma = np.linalg.svd(rows, compute_uv=False)
    if sigma[-1] <= RANK_RTOL * sigma[0]:
        return -math.inf
    return float(np.sum(np.log(sigma)))


def greedy_select_reference(
    candidates: CandidateSet,
    index_set: MultiIndexSet,
    m_points: int,
    space: str,
) -> DesignResult:
    """Literal greedy selection: re-evaluate the determinant modulus for
    every remaining candidate at every step.

    Quadratic cost per step; candidate sets are capped at 1000 points. This
    is the oracle the QR path is tested against.
    """
    if len(candidates) > REFERENCE_MAX_CANDIDATES:
        raise ValueError(
            f"reference selection capped at {REFERENCE_MAX_CANDIDATES} candidates"
        )
    basis = _selection_basis(candidates, index_set, m_points)
    v = eval_rows(basis, candidates.points, space)

    chosen: list[int] = []
    remaining = list(range(len(v)))
    trace = np.empty(m_points)
    for k in range(m_points):
        values = np.array([_log_det_modulus(v[chosen + [i]]) for i in remaining])
        best = float(np.max(values))
        if math.isinf(best):
            raise RankDeficientError(f"every candidate is rank deficient at step {k}")
        # absolute window in log space is a relative window on the det; the
        # lowest candidate index inside it wins
        tied = np.flatnonzero(values >= best - TIE_RTOL)
        chosen.append(remaining.pop(int(tied[0])))
        trace[k] = det_modulus(v[chosen])

    return _design_result(candidates, basis, space, chosen, trace)


def global_select_oracle(
    candidates: CandidateSet,
    index_set: MultiIndexSet,
    m_points: int,
    space: str,
) -> DesignResult:
    """Exhaustive search for the subset of the given size with the largest
    determinant modulus.

    Ties keep the first subset in index order. Guarded to at most 1e6
    subsets; strictly a test oracle.
    """
    basis = _selection_basis(candidates, index_set, m_points)
    v = eval_rows(basis, candidates.points, space)
    n_subsets = math.comb(len(v), m_points)
    if n_subsets > ORACLE_MAX_SUBSETS:
        raise ValueError(f"{n_subsets} subsets exceed the oracle guard")

    best_combo = None
    best_value = -math.inf
    for combo in itertools.combinations(range(len(v)), m_points):
        value = _log_det_modulus(v[list(combo)])
        if value > best_value:
            best_value = value
            best_combo = combo
    if best_combo is None:
        raise RankDeficientError("no subset of full rank exists")

    chosen = list(best_combo)
    trace = np.array([det_modulus(v[chosen[: k + 1]]) for k in range(m_points)])
    return _design_result(candidates, basis, space, chosen, trace)
