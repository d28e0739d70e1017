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
    _per_coordinate,
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
        densities = _per_coordinate(density, index_set.dimension)
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

    Each coordinate's recurrence values stay in the layout eval_phi_sequence
    returns, (deg+1, m). A row block gathers whole sequence rows,
    seqs[j][idx[:, j], blk], and multiplies them in coordinate order into an
    (N, b) product, built in the block's own memory of the one C-ordered
    (m, N) output; its transpose is copied back over it as the block's rows.
    Christoffel row sums and the pivot matvec add in memory order, so layout
    sets bits. "P" returns no sums. None keeps no rows, only the unchecked
    sums, from a product of its own per block. "Q" checks each block's sums
    and scales its rows to unit norm; a sum that overflowed or vanished
    raises ValueError naming the point.
    """
    pts = _as_points(basis, points)
    idx = np.asarray(basis.index_set.indices, dtype=int)
    m, n = len(pts), len(idx)
    seqs = [
        eval_phi_sequence(t, int(idx[:, j].max()), pts[:, j])
        for j, t in enumerate(basis.tables)
    ]
    rows = None if space is None else np.empty((m, n))
    sums = None if space == "P" else np.empty(m)
    for blk in _row_blocks(m, n):
        b = blk.stop - blk.start
        prod = np.empty((n, b)) if rows is None else rows[blk].reshape(n, b)
        prod[...] = seqs[0][idx[:, 0], blk]
        for j in range(1, len(seqs)):
            prod *= seqs[j][idx[:, j], blk]
        psi = prod.T.copy()
        if rows is not None:
            rows[blk] = psi
        if sums is not None:
            k = sums[blk] = np.sum(np.multiply(psi, psi, out=psi), axis=1)
        del psi  # so the Q scaling and the next gathers add no second block
        if space == "Q":
            bad = np.flatnonzero(~(np.isfinite(k) & (k > 0.0)))
            if bad.size:
                i = blk.start + int(bad[0])
                raise ValueError(
                    f"Christoffel sum {float(sums[i])} at point {i} "
                    f"{pts[i].tolist()} is not positive and finite "
                    f"(basis degree {basis.index_set.max_degree})"
                )
            rows[blk] /= np.sqrt(k)[:, None]
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
    finite = np.isfinite(vals)
    if not finite.all():
        i, j = (int(x) for x in np.argwhere(~finite)[0])
        raise ValueError(f"matrix entry ({i}, {j}) is {vals[i, j]}, not finite")
    return vals


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
    vals = _as_matrix(matrix)
    m, n = vals.shape
    if m > n:
        raise ValueError(f"determinant modulus needs m <= N, got {m} x {n}")
    return _det_and_cond(vals)[0]


def condition_number(matrix) -> float:
    """Ratio of extreme singular values; +inf when numerically singular. A
    non-finite entry raises ValueError naming it."""
    return _det_and_cond(_as_matrix(matrix))[1]
