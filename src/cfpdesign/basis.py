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


def _as_points(points, dimension: int, label: str = "point") -> np.ndarray:
    """points as an (m, dimension) float array; a point of another dimension
    or the first one with a non-finite coordinate raises ValueError."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != dimension:
        raise ValueError(f"{label}s have dimension {pts.shape[1]}, need {dimension}")
    if not np.isfinite(pts).all():  # a whole-array test; rows only to name one
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        raise ValueError(f"{label} {int(bad[0])} is not finite")
    return pts


def _row_blocks(m: int, width: int):
    """Consecutive row slices covering range(m), each holding at most
    ROW_BLOCK_VALUES values of the given row width (one row at least)."""
    step = max(1, ROW_BLOCK_VALUES // width)
    for start in range(0, m, step):
        yield slice(start, min(start + step, m))


def _rows(basis: ProductBasis, points) -> np.ndarray:
    """Plain rows, shape (m, N), C-ordered, built in row blocks.

    Each coordinate's recurrence values stay in the layout eval_phi_sequence
    returns, (deg+1, m). A row block gathers whole sequence rows,
    seqs[j][idx[:, j], blk], and multiplies them in coordinate order into an
    (N, b) product, built in the block's own memory of the one C-ordered
    (m, N) output; its transpose is copied back over it as the block's rows.
    Christoffel row sums and the pivot matvec add in memory order, so layout
    sets bits.
    """
    pts = _as_points(points, basis.dimension)
    idx = np.asarray(basis.index_set.indices, dtype=int)
    m, n = len(pts), len(idx)
    seqs = [
        eval_phi_sequence(t, int(idx[:, j].max()), pts[:, j])
        for j, t in enumerate(basis.tables)
    ]
    rows = np.empty((m, n))
    for blk in _row_blocks(m, n):
        prod = rows[blk].reshape(n, blk.stop - blk.start)
        prod[...] = seqs[0][idx[:, 0], blk]
        for j in range(1, len(seqs)):
            prod *= seqs[j][idx[:, j], blk]
        rows[blk] = prod.T.copy()
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


def _check_sums(basis: ProductBasis, points, sums: np.ndarray, positive=True):
    """Raise ValueError naming the first sum not finite (or not > 0, if positive)."""
    bad = np.flatnonzero(~(np.isfinite(sums) & ((sums > 0.0) | (not positive))))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"Christoffel sum {sums[i]} at point {i} "
            f"{_as_points(points, basis.dimension)[i].tolist()} is not "
            f"{'positive and ' if positive else ''}finite "
            f"(basis degree {basis.index_set.max_degree})"
        )


def _unit_rows(basis: ProductBasis, points):
    """(rows of unit norm, Christoffel sums): the kernel's rows divided by sqrt(K)."""
    rows = _rows(basis, points)
    sums = _sums(rows)
    _check_sums(basis, points, sums)
    rows /= np.sqrt(sums)[:, None]
    return rows, sums


def eval_rows(basis: ProductBasis, points, space: str) -> np.ndarray:
    """Basis rows at many points, shape (m, N), C-ordered. space is "P" or "Q".

    Rows are evaluated in blocks sized by ROW_BLOCK_VALUES and written
    into the one output array, so no other temporary of its size appears.
    A non-finite point raises ValueError naming it. Q rows need a positive
    finite Christoffel sum at every point; a sum that overflowed or vanished
    raises ValueError naming the point.
    """
    if space not in SPACES:
        raise ValueError(f"space must be one of {SPACES}")
    return _unit_rows(basis, points)[0] if space == "Q" else _rows(basis, points)


def eval_row(basis: ProductBasis, y, space: str) -> np.ndarray:
    """Single basis row at y; Q rows have unit Euclidean norm."""
    return eval_rows(basis, y, space)[0]


def christoffel(basis: ProductBasis, y):
    """K(y) = sum_alpha psi_alpha(y)^2; scalar in, float out.

    Summed one row block of points at a time, keeping no (m, N) array, and
    not checked: an overflowed sum is inf, with no floating point warning.
    """
    pts = _as_points(y, basis.dimension)
    k = np.empty(len(pts))
    for blk in _row_blocks(len(pts), len(basis.index_set)):
        k[blk] = _sums(_rows(basis, pts[blk]))
    return float(k[0]) if np.asarray(y).ndim <= 1 else k


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
