"""Tensor-product bases, Christoffel weights, and design-matrix diagnostics.

The product basis psi_alpha(y) = prod_j phi_{alpha_j}(y_j) spans the
polynomial space of a multi-index set. One kernel gives plain rows ("P"),
one sum their squared norms K (Christoffel sums) for the weighted paths,
and one check and one division by sqrt(K) give unit-norm rows ("Q"). All
determinant and conditioning diagnostics use singular values of (m, N) arrays.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .multiindex import MultiIndexSet
from .orthopoly import (
    DensitySpec,
    RecurrenceTable,
    _as_finite,
    _per_coordinate,
    eval_phi_sequence,
    recurrence_coefficients,
)

__all__ = [
    "ProductBasis",
    "RankDeficientError",
    "eval_rows",
    "christoffel",
    "det_modulus",
    "condition_number",
]

SPACES = ("P", "Q")

# singular values below this count as numerically zero
SINGULAR_FLOOR = 1e-300
# float64 values per row block of the batch kernels (basis rows here, the
# elliptic solve, and the pivot loop: its block-end products, b directions
# by the block's rows, and its recomputes): 256 KB, so a block's
# temporaries stay in the L2 cache and no temporary the size of the whole
# batch is allocated
ROW_BLOCK_VALUES = 2**15
# points per chunk of _rows's recurrence sequences, which are all that sits
# beside the rows. At 10k points (2-core Xeon, best median of four rounds)
# _rows took 4.4, 3.8 and 18.1 ms at uniform d=2 TD 15, Gaussian d=4 HC 8
# and 1-D Gaussian degree 300 (3.9, 3.2 and 22.7 ms with whole-batch
# sequences), and its tracemalloc peak was 1.12, 1.25 and 1.42 times the
# rows (1.26, 1.54 and 2.01); 2048 points took 4.6, 4.1 and 19.6 ms for
# 1.07, 1.15 and 1.22, and 1024 points were slower again
RECURRENCE_CHUNK_POINTS = 4096
# log of the largest finite float
LOG_FLOAT_MAX = math.log(np.finfo(float).max)


class RankDeficientError(ValueError):
    """A matrix had lower numerical rank than the operation requires."""


@dataclass(frozen=True)
class ProductBasis:
    """Per-coordinate recurrence tables plus the multi-index set they span."""

    tables: tuple[RecurrenceTable, ...]
    index_set: MultiIndexSet

    def __post_init__(self):
        if len(self.tables) != self.index_set.dimension:
            raise ValueError("one recurrence table per coordinate required")
        for j, needed in enumerate(self.index_set.degrees_by_coordinate()):
            if self.tables[j].n_max < needed:
                raise ValueError(
                    f"table for coordinate {j} covers degree "
                    f"{self.tables[j].n_max}, need {needed}"
                )

    @property
    def dimension(self) -> int:
        return self.index_set.dimension

    @property
    def densities(self) -> tuple[DensitySpec, ...]:
        return tuple(t.density for t in self.tables)

    @classmethod
    def for_density(
        cls,
        density: DensitySpec | Sequence[DensitySpec],
        index_set: MultiIndexSet,
    ) -> "ProductBasis":
        """Build tables sized exactly to the index set's per-coordinate degrees."""
        densities = _per_coordinate(density, index_set.dimension)
        degrees = index_set.degrees_by_coordinate()
        tables = tuple(
            recurrence_coefficients(rho, max(1, deg))
            for rho, deg in zip(densities, degrees)
        )
        return cls(tables=tables, index_set=index_set)


def _row_blocks(m: int, width: int):
    """Consecutive row slices covering range(m), each holding at most
    ROW_BLOCK_VALUES values of the given row width (one row at least)."""
    step = max(1, ROW_BLOCK_VALUES // width)
    for start in range(0, m, step):
        yield slice(start, min(start + step, m))


def _rows(basis: ProductBasis, pts: np.ndarray) -> np.ndarray:
    """Plain rows at checked (m, d) points, shape (m, N), C-ordered, built
    one chunk of RECURRENCE_CHUNK_POINTS points at a time, in row blocks.

    A chunk's recurrence values stay in the layout eval_phi_sequence
    returns, (deg+1, c) per coordinate, and are dropped before the next
    chunk's are evaluated, so the output is the one array of the whole
    batch. A row block gathers whole sequence rows, seqs[j][idx[:, j], blk],
    and multiplies them in coordinate order into an (N, b) product, built in
    the block's own memory of the one C-ordered (m, N) output; its transpose
    is copied back over it as the block's rows. The recurrence is
    elementwise, so a row's bits do not depend on the chunk it falls in.
    Christoffel row sums and the pivot matvec add in memory order, so layout
    sets bits.
    """
    idx = np.asarray(basis.index_set.indices, dtype=int)
    degrees = basis.index_set.degrees_by_coordinate()
    m, n = len(pts), len(idx)
    rows = np.empty((m, n))
    for start in range(0, m, RECURRENCE_CHUNK_POINTS):
        chunk = slice(start, start + RECURRENCE_CHUNK_POINTS)
        part = rows[chunk]
        seqs = [
            eval_phi_sequence(t, deg, pts[chunk, j])
            for j, (t, deg) in enumerate(zip(basis.tables, degrees))
        ]
        for blk in _row_blocks(len(part), n):
            prod = part[blk].reshape(n, blk.stop - blk.start)
            prod[...] = seqs[0][idx[:, 0], blk]
            for j in range(1, len(seqs)):
                prod *= seqs[j][idx[:, j], blk]
            part[blk] = prod.T.copy()
        del seqs  # before the next chunk's sequences, not after them
    return rows


def _sums(rows: np.ndarray) -> np.ndarray:
    """Christoffel sums K of plain rows, one row block at a time. A sum that
    overflows is inf, with no floating point warning; the callers check the
    sums they use with _check_sums."""
    sums = np.empty(len(rows))
    with np.errstate(over="ignore"):
        for blk in _row_blocks(*rows.shape):
            # pairwise per row, as np.sum adds; an einsum changes K's last bits
            sums[blk] = np.sum(np.square(rows[blk]), axis=1)
    return sums


def _check_sums(basis: ProductBasis, pts, sums: np.ndarray, positive=True):
    """Raise ValueError naming the first sum not finite (or not > 0, if
    positive) and its point among the checked pts."""
    bad = np.flatnonzero(~(np.isfinite(sums) & ((sums > 0.0) | (not positive))))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"Christoffel sum {sums[i]} at point {i} {pts[i].tolist()} is not "
            f"{'positive and ' if positive else ''}finite "
            f"(basis degree {basis.index_set.max_degree})"
        )


def _unit_rows(basis: ProductBasis, pts: np.ndarray):
    """(rows of unit norm, Christoffel sums) at checked points: the kernel's
    rows divided by sqrt(K)."""
    rows = _rows(basis, pts)
    sums = _sums(rows)
    _check_sums(basis, pts, sums)
    rows /= np.sqrt(sums)[:, None]
    return rows, sums


def eval_rows(basis: ProductBasis, points, space: str) -> np.ndarray:
    """Basis rows at many points, shape (m, N), C-ordered. space is "P" or "Q".

    Rows are evaluated in blocks sized by ROW_BLOCK_VALUES, from recurrences
    run on RECURRENCE_CHUNK_POINTS points at a time, and written into the
    one output array, so no other temporary of its size appears.
    Points of another width or a non-finite coordinate raise ValueError
    naming them. Q rows need a positive finite Christoffel sum at every
    point; a sum that overflowed or vanished raises ValueError naming the
    point.
    """
    if space not in SPACES:
        raise ValueError(f"space must be one of {SPACES}")
    pts = _as_finite(np.atleast_2d(points), "points", ("m", basis.dimension))
    return _unit_rows(basis, pts)[0] if space == "Q" else _rows(basis, pts)


def eval_row(basis: ProductBasis, y, space: str) -> np.ndarray:
    """Basis row at exactly one point y, (d,) or (1, d); Q rows have unit norm."""
    pts = _as_finite(np.atleast_2d(y), "y", (1, basis.dimension))
    return eval_rows(basis, pts, space)[0]


def christoffel(basis: ProductBasis, y):
    """K(y) = sum_alpha psi_alpha(y)^2; scalar in, float out.

    Summed one row block of points at a time, keeping no (m, N) array; K
    itself is not checked: an overflowed sum is inf, with no floating point warning.
    """
    pts = _as_finite(np.atleast_2d(y), "y", ("m", basis.dimension))
    k = np.empty(len(pts))
    for blk in _row_blocks(len(pts), len(basis.index_set)):
        k[blk] = _sums(_rows(basis, pts[blk]))
    return float(k[0]) if np.ndim(y) <= 1 else k


def vandermonde(basis: ProductBasis, points, space: str) -> np.ndarray:
    # kept only because perfbench/tracer.py wraps it by name; use eval_rows
    return eval_rows(basis, points, space)


def _det_and_cond(rows: np.ndarray) -> tuple[float, float]:
    """(det_modulus, condition_number) of a finite matrix, from one SVD."""
    sigma = np.linalg.svd(rows, compute_uv=False)
    with np.errstate(divide="ignore"):
        logs = np.log(sigma)
    # sigma is descending, so np.prod's running product peaks at the
    # product of the singular values above 1
    if float(np.sum(logs[logs > 0.0])) < LOG_FLOAT_MAX:
        det = float(np.prod(sigma))
    else:
        log_det = float(np.sum(logs))
        det = math.exp(log_det) if log_det < LOG_FLOAT_MAX else math.inf
    smin = float(sigma[-1]) if sigma.size else 0.0  # no rows: singular
    return det, math.inf if smin < SINGULAR_FLOOR else float(sigma[0]) / smin


def det_modulus(matrix) -> float:
    """sqrt(|det(V V^T)|) of an m x N matrix with m <= N.

    Computed as the product of singular values; for square V this is |det V|.
    A product beyond the float range returns math.inf without a floating
    point warning; one whose running product would overflow but whose value
    fits is taken as exp of the summed logarithms. A non-finite entry raises
    ValueError naming it.
    """
    vals = _as_finite(matrix, "matrix", ("m", "N"))
    m, n = vals.shape
    if m > n:
        raise ValueError(f"determinant modulus needs m <= N, got {m} x {n}")
    return _det_and_cond(vals)[0]


def condition_number(matrix) -> float:
    """Ratio of extreme singular values; +inf when numerically singular. A
    non-finite entry raises ValueError naming it."""
    return _det_and_cond(_as_finite(matrix, "matrix", ("m", "N")))[1]
