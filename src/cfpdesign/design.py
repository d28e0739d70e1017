"""Candidate ensembles and deterministic point selection.

Selection is greedy determinant maximization, computed as lazy pivoted
Cholesky of the Gram matrix V V^T: each step picks the candidate whose
downdated squared residual against the span of the selected rows is
largest, orthogonalizes its row against the chosen directions, which
multiplies the running determinant modulus by that residual norm, and
downdates every squared residual by its component along the new direction.
The loop runs in blocks. Squared residuals never increase, so the rows with
the largest ones form a shortlist that no other row can overtake while the
next pick stays clear of the largest square left out; the steps of a block
read only the shortlist, and one matrix product per row block then
downdates every row by all of the block's directions. Rows that fit in L2
are their own shortlist. In exact arithmetic every pick is the one a
step-by-step loop over all rows makes. Ties within a relative window of
1e-12 go to the lowest candidate index; in the unit-norm row space the
first step is an exact mathematical tie, so the window is what keeps the
choice well defined. Equal candidates (-0.0 equal to 0.0) tie the same way,
so the first occurrence is picked and its copies are left with no residual.

The literal greedy reference and the brute-force subset oracle evaluate
their determinants from scratch at every step and exist to check the fast
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
    _det_and_cond,
    _row_blocks,
    det_modulus,
    eval_rows,
)
from .multiindex import MultiIndexSet
from .orthopoly import UNIFORM, DensitySpec, _per_coordinate, _sample_points

__all__ = [
    "CandidateSet",
    "DesignResult",
    "candidate_set",
    "cfp_select",
    "afp_select",
]

# relative window within which per-step determinants count as tied
TIE_RTOL = 1e-12
# a downdated squared residual below this share of its last exact value has
# lost half its digits to cancellation (the xGEQP3 test, on squares)
RECOMPUTE_RATIO = math.sqrt(np.finfo(float).eps)
# the pivot loop picks from a shortlist only while the rows hold more than
# this many float64 values, 2 MB, the per-core L2 size: rows that fit there
# already stream about twice as fast as from L3 (a single-thread matvec reads
# 38-41 GB/s from L2 and 17-20 GB/s from L3 on a 2-core Xeon), so they keep
# the step-by-step loop; with shortlists, the study's uniform d=2 TD 2-5
# loops at 10k candidates ran 1.2-3.1x slower (TD 2: 0.8 -> 1.3-2.6 ms,
# TD 4: 2.1-2.3 -> 3.2-4.0 ms; medians of 25, one thread)
SHORTLIST_MIN_VALUES = 2**18
# rows above that gate are picked from a shortlist of this many rows with the
# largest squared residuals: 1024 rows of the widest study rows (143 values)
# hold 1.2 MB, so each step's matvec reads them from L2
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
        object.__setattr__(self, "points", np.array(self.points, dtype=float))
        if self.points.ndim != 2:
            raise ValueError("points must have shape (m_total, d)")
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
    v: np.ndarray, sq: np.ndarray, floor: np.ndarray, q: np.ndarray, low: np.ndarray
) -> None:
    """Squares below their floor recomputed from v's rows against the
    directions q, 512 rows at a time, so no temporary the size of v
    appears; low is a bool buffer the size of sq."""
    if np.less(sq, floor, out=low).any():
        rows = np.flatnonzero(low)
        for start in range(0, rows.size, 512):
            blk = rows[start : start + 512]
            res = v[blk] - (v[blk] @ q.T) @ q
            sq[blk] = np.einsum("ij,ij->i", res, res)
        floor[rows] = RECOMPUTE_RATIO * sq[rows]


def _greedy_pivot_qr(v: np.ndarray, m_points: int) -> tuple[np.ndarray, np.ndarray]:
    """(pivots into v's rows, determinant-modulus trace) of m_points greedy
    steps, in blocks.

    A block gathers the SHORTLIST_ROWS rows with the largest squared
    residuals, plus the window pick, and takes the largest square left out
    as a bound on every other row: squares never increase, so while the
    next pick's tie window lies above that bound no other row can be
    picked or tie, and each step runs on the shortlist alone. When the
    bound is reached, one product per row block gives every row's
    components along the block's directions, and one subtraction per row
    downdates its square by their sum of squares, before the cancellation
    test runs on all rows. Rows that fit in L2 (at most SHORTLIST_MIN_VALUES
    values), and row sets no longer than a shortlist, are their own
    shortlist, as views: their one block is the whole selection. The
    picks follow the downdated squares; the rank test and the trace read
    the picked row's Gram-Schmidt residual, which keeps its digits where a
    downdated square has lost them to cancellation. v is not written.
    """
    sq = np.einsum("ij,ij->i", v, v)
    floor = RECOMPUTE_RATIO * sq
    rank_floor = (1e-12 * math.sqrt(float(np.max(sq)))) ** 2
    q = np.empty((m_points, v.shape[1]))
    k = 0
    pivots = np.empty(m_points, dtype=int)
    trace = np.empty(m_points)
    c = np.empty(len(v))
    low = np.empty(len(v), dtype=bool)
    running_det = 1.0
    whole = v.size <= SHORTLIST_MIN_VALUES or len(v) <= SHORTLIST_ROWS
    # one buffer holds every block's shortlist rows, so two never coexist
    shortlist = None if whole else np.empty((SHORTLIST_ROWS + 1, v.shape[1]))
    while True:
        if whole:
            rows, vs, sqs, floors, outside = None, v, sq, floor, -math.inf
        else:
            j = _window_pick(sq)[0]
            top = np.argpartition(sq, -SHORTLIST_ROWS)[-SHORTLIST_ROWS:]
            rows = np.sort(top if j in top else np.append(top, j))
            vs = np.take(v, rows, axis=0, out=shortlist[: len(rows)])
            sqs, floors = sq[rows], floor[rows]
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
            w = vs[j] - (q[:k] @ vs[j]) @ q[:k]
            w -= (q[:k] @ w) @ q[:k]
            ww = float(w @ w)
            if ww <= rank_floor:
                raise RankDeficientError(
                    f"candidate rows reached rank {k} before {m_points} pivots"
                )
            norm = math.sqrt(ww)
            running_det *= norm
            trace[k] = running_det
            pivots[k] = j if rows is None else rows[j]
            q[k] = w / norm
            k += 1
            if k == m_points:  # the residuals after the last pick are never read
                return pivots, trace
            cs = c[: len(vs)]
            np.matmul(vs, q[k - 1], out=cs)
            np.multiply(cs, cs, out=cs)
            sqs -= cs
            sqs[j] = floors[j] = -math.inf  # never picked nor recomputed again
            _recompute_low(vs, sqs, floors, q[:k], low[: len(vs)])
        # block end: the rows outside the shortlist catch up on its directions
        for blk in _row_blocks(len(v), k - start):
            cb = v[blk] @ q[start:k].T
            sq[blk] -= np.einsum("ij,ij->i", cb, cb)
        sq[rows] = sqs
        floor[rows] = floors
        _recompute_low(v, sq, floor, q[:k], low)


def _selection_rows(
    candidates: CandidateSet,
    index_set: MultiIndexSet,
    m_points: int,
    space: str,
) -> np.ndarray:
    """Rows of every candidate, in the given order, in space for a
    selection of m_points; raises ValueError when the basis or the
    candidate list is too small. Equal candidates are not merged: their
    rows tie, the lowest index wins the tie, and once it is picked the
    others have no residual, so fewer distinct candidates than m_points
    raise the pivot loop's RankDeficientError."""
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
    basis = ProductBasis.for_density(candidates.densities, index_set)
    return eval_rows(basis, candidates.points, space)


def _design_result(
    candidates: CandidateSet,
    index_set: MultiIndexSet,
    space: str,
    pivots: np.ndarray,
    selected: np.ndarray,
    trace: np.ndarray,
) -> DesignResult:
    """DesignResult for pivots into the candidate list; selected holds their
    rows, and m_points <= N, so both diagnostics come from one SVD."""
    det, cond = _det_and_cond(selected)
    return DesignResult(
        points=candidates.points[pivots],
        pivot_order=tuple(int(i) for i in pivots),
        objective_trace=trace,
        det_modulus=det,
        condition_number=cond,
        space=space,
        seed=candidates.seed,
        config={
            "basis_size": len(index_set),
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
    v = _selection_rows(candidates, index_set, m_points, space)
    pivots, trace = _greedy_pivot_qr(v, m_points)
    return _design_result(candidates, index_set, space, pivots, v[pivots], trace)


def cfp_select(
    candidates: CandidateSet, index_set: MultiIndexSet, m_points: int
) -> DesignResult:
    """Greedy determinant-maximizing selection on unit-norm rows.

    Lazy pivoted Cholesky of the Gram matrix of the Christoffel-scaled
    design matrix, run in blocks: each block picks from a shortlist of the
    rows with the largest residuals while no other row can overtake them,
    then downdates every row with one matrix product. The pivots are those
    of a column-pivoted QR of its transpose.
    """
    return _qr_select(candidates, index_set, m_points, "Q")


def afp_select(
    candidates: CandidateSet, index_set: MultiIndexSet, m_points: int
) -> DesignResult:
    """Same blocked lazy Cholesky selection on plain rows (approximate Fekete
    points)."""
    return _qr_select(candidates, index_set, m_points, "P")


def _log_det_modulus(rows: np.ndarray) -> float:
    """Log of the determinant modulus; -inf when the rows are rank deficient,
    with their smallest singular value at most 1e-12 of their largest, the
    relative floor of the fast path's rank test."""
    sigma = np.linalg.svd(rows, compute_uv=False)
    if sigma[-1] <= 1e-12 * sigma[0]:
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
    v = _selection_rows(candidates, index_set, m_points, space)

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

    return _design_result(candidates, index_set, space, chosen, v[chosen], trace)


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
    v = _selection_rows(candidates, index_set, m_points, space)
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
    return _design_result(candidates, index_set, space, chosen, v[chosen], trace)
