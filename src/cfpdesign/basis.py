"""Tensor-product bases, Christoffel weights, and design-matrix diagnostics.

The product basis psi_alpha(y) = prod_j phi_{alpha_j}(y_j) spans the
polynomial space of a multi-index set. Rows come in two flavors: plain
evaluations ("P") and rows scaled to unit Euclidean norm by the inverse
square root of the Christoffel function ("Q"). All determinant and
conditioning diagnostics run on singular values of plain (m, N) arrays.
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
    eval_phi_sequence,
    recurrence_coefficients,
)

__all__ = [
    "ProductBasis",
    "RankDeficientError",
    "eval_row",
    "eval_rows",
    "christoffel",
    "det_modulus",
    "condition_number",
]

SPACES = ("P", "Q")

# singular values below this count as numerically zero
SINGULAR_FLOOR = 1e-300
# float64 values per row block of the batch kernels (basis rows here, the
# elliptic solve): 256 KB, so a block's temporaries stay in the L2 cache and
# no temporary the size of the whole batch is allocated
ROW_BLOCK_VALUES = 2**15
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
        d = index_set.dimension
        if isinstance(density, DensitySpec):
            densities = (density,) * d
        else:
            densities = tuple(density)
        if len(densities) != d:
            raise ValueError("one density per coordinate required")
        degrees = index_set.degrees_by_coordinate()
        tables = tuple(
            recurrence_coefficients(rho, max(1, deg))
            for rho, deg in zip(densities, degrees)
        )
        return cls(tables=tables, index_set=index_set)


def _as_points(basis: ProductBasis, points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != basis.dimension:
        raise ValueError(
            f"points have dimension {pts.shape[1]}, basis has {basis.dimension}"
        )
    return pts


def _row_blocks(m: int, width: int):
    """Consecutive row slices covering range(m), each holding at most
    ROW_BLOCK_VALUES values of the given row width (one row at least)."""
    step = max(1, ROW_BLOCK_VALUES // width)
    for start in range(0, m, step):
        yield slice(start, min(start + step, m))


def _rows_and_sums(basis: ProductBasis, points, space: str | None):
    """(rows, Christoffel sums) in row blocks; space "P", "Q" or None.

    Each block of psi_alpha(y_i) is gathered and multiplied in coordinate
    order straight into its rows of the one C-ordered (m, N) output:
    Christoffel row sums and the pivot matvec add in memory order, so layout
    sets bits. "P" returns no sums; None keeps no rows, only the unchecked
    sums. "Q" checks each block's sums and scales its rows to unit norm; a
    sum that overflowed or vanished raises ValueError naming the point.
    """
    pts = _as_points(basis, points)
    idx = np.asarray(basis.index_set.indices, dtype=int)
    m, n = len(pts), len(idx)
    # (m, deg+1) per coordinate, so gathering along axis 1 gives C-ordered rows
    seqs = [
        np.ascontiguousarray(eval_phi_sequence(t, int(idx[:, j].max()), pts[:, j]).T)
        for j, t in enumerate(basis.tables)
    ]
    rows = None if space is None else np.empty((m, n))
    sums = None if space == "P" else np.empty(m)
    for blk in _row_blocks(m, n):
        out = None if rows is None else rows[blk]
        # the indices are in range, so "clip" only skips take's buffered copy
        psi = np.take(seqs[0][blk], idx[:, 0], axis=1, out=out, mode="clip")
        for j in range(1, len(seqs)):
            psi *= np.take(seqs[j][blk], idx[:, j], axis=1)
        if sums is not None:
            k = sums[blk] = np.sum(psi * psi, axis=1)
        if space == "Q":
            bad = np.flatnonzero(~(np.isfinite(k) & (k > 0.0)))
            if bad.size:
                i = blk.start + int(bad[0])
                raise ValueError(
                    f"Christoffel sum {float(sums[i])} at point {i} "
                    f"{pts[i].tolist()} is not positive and finite "
                    f"(basis degree {basis.index_set.max_degree})"
                )
            psi /= np.sqrt(k)[:, None]
    return rows, sums


def eval_rows(basis: ProductBasis, points, space: str) -> np.ndarray:
    """Basis rows at many points, shape (m, N), C-ordered. space is "P" or "Q".

    Rows are evaluated in blocks sized by ROW_BLOCK_VALUES and written
    into the one output array, so no other temporary of its size appears.
    Q rows need a positive finite Christoffel sum at every point; a sum that
    overflowed or vanished raises ValueError naming the point.
    """
    if space not in SPACES:
        raise ValueError(f"space must be one of {SPACES}")
    return _rows_and_sums(basis, points, space)[0]


def eval_row(basis: ProductBasis, y, space: str) -> np.ndarray:
    """Single basis row at y; Q rows have unit Euclidean norm."""
    return eval_rows(basis, y, space)[0]


def christoffel(basis: ProductBasis, y):
    """K(y) = sum_alpha psi_alpha(y)^2; scalar in, float out.

    Evaluated in row blocks without keeping the rows, and not checked: a
    sum that overflowed comes back as inf.
    """
    k = _rows_and_sums(basis, y, None)[1]
    if np.asarray(y).ndim <= 1:
        return float(k[0])
    return k


def vandermonde(basis: ProductBasis, points, space: str) -> np.ndarray:
    # kept only because perfbench/tracer.py wraps it by name; use eval_rows
    return eval_rows(basis, points, space)


def _as_matrix(matrix) -> np.ndarray:
    vals = np.asarray(matrix, dtype=float)
    if vals.ndim != 2:
        raise ValueError(f"matrix must be two-dimensional, got shape {vals.shape}")
    return vals


def det_modulus(matrix) -> float:
    """sqrt(|det(V V^T)|) of an m x N matrix with m <= N.

    Computed as the product of singular values; for square V this is |det V|.
    A product beyond the float range returns math.inf without a floating
    point warning; one whose running product would overflow but whose value
    fits is taken as exp of the summed logarithms.
    """
    vals = _as_matrix(matrix)
    m, n = vals.shape
    if m > n:
        raise ValueError(f"determinant modulus needs m <= N, got {m} x {n}")
    return _det_from_singular(np.linalg.svd(vals, compute_uv=False))


def condition_number(matrix) -> float:
    """Ratio of extreme singular values; +inf when numerically singular."""
    return _cond_from_singular(np.linalg.svd(_as_matrix(matrix), compute_uv=False))


def _det_from_singular(sigma: np.ndarray) -> float:
    """det_modulus from descending singular values."""
    with np.errstate(divide="ignore"):
        logs = np.log(sigma)
    # sigma is descending, so np.prod's running product peaks at the
    # product of the singular values above 1
    if float(np.sum(logs[logs > 0.0])) < LOG_FLOAT_MAX:
        return float(np.prod(sigma))
    log_det = float(np.sum(logs))
    return math.exp(log_det) if log_det < LOG_FLOAT_MAX else math.inf


def _cond_from_singular(sigma: np.ndarray) -> float:
    """condition_number from descending singular values."""
    smin = float(sigma[-1])
    if smin < SINGULAR_FLOOR:
        return math.inf
    return float(sigma[0]) / smin
