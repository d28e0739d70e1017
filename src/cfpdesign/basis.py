"""Tensor-product bases, Christoffel weights, and design matrices.

The product basis psi_alpha(y) = prod_j phi_{alpha_j}(y_j) spans the
polynomial space of a multi-index set. Rows come in two flavors: plain
evaluations ("P") and rows scaled to unit Euclidean norm by the inverse
square root of the Christoffel function ("Q"). All determinant and
conditioning diagnostics run on singular values.
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
    "DesignMatrix",
    "RankDeficientError",
    "eval_row",
    "eval_rows",
    "christoffel",
    "vandermonde",
    "det_modulus",
    "condition_number",
]

SPACES = ("P", "Q")

# singular values below this count as numerically zero
SINGULAR_FLOOR = 1e-300
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


def _psi_matrix(basis: ProductBasis, pts: np.ndarray) -> np.ndarray:
    """Plain evaluations psi_alpha(y_i), shape (m, N), C-ordered: Christoffel
    row sums and the pivot matvec add in memory order, so layout sets bits."""
    idx = np.asarray(basis.index_set.indices, dtype=int)
    out = None
    for j in range(basis.dimension):
        deg = int(idx[:, j].max())
        # (m, deg+1), so gathering along axis 1 gives a C-ordered (m, N)
        seq = np.ascontiguousarray(eval_phi_sequence(basis.tables[j], deg, pts[:, j]).T)
        factor = np.take(seq, idx[:, j], axis=1)
        if out is None:
            out = factor
        else:
            out *= factor
    return out


def eval_rows(basis: ProductBasis, points, space: str) -> np.ndarray:
    """Basis rows at many points, shape (m, N). space is "P" or "Q".

    Q rows need a positive finite Christoffel sum at every point; a sum that
    overflowed or vanished raises ValueError naming the point.
    """
    if space not in SPACES:
        raise ValueError(f"space must be one of {SPACES}")
    pts = _as_points(basis, points)
    psi = _psi_matrix(basis, pts)
    if space == "P":
        return psi
    k = np.sum(psi * psi, axis=1)
    bad = np.flatnonzero(~(np.isfinite(k) & (k > 0.0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"Christoffel sum {float(k[i])} at point {i} {pts[i].tolist()} is not "
            f"positive and finite (basis degree {basis.index_set.max_degree})"
        )
    return psi / np.sqrt(k)[:, None]


def eval_row(basis: ProductBasis, y, space: str) -> np.ndarray:
    """Single basis row at y; Q rows have unit Euclidean norm."""
    return eval_rows(basis, y, space)[0]


def christoffel(basis: ProductBasis, y):
    """K(y) = sum_alpha psi_alpha(y)^2; scalar in, float out."""
    pts = _as_points(basis, y)
    psi = _psi_matrix(basis, pts)
    k = np.sum(psi * psi, axis=1)
    if np.asarray(y).ndim <= 1:
        return float(k[0])
    return k


@dataclass(frozen=True)
class DesignMatrix:
    """A Vandermonde-type matrix tagged with the space it was built in."""

    values: np.ndarray
    space: str

    def __post_init__(self):
        if self.space not in SPACES:
            raise ValueError(f"space must be one of {SPACES}")
        if self.values.ndim != 2:
            raise ValueError("design matrix must be two-dimensional")
        if self.space == "Q":
            norms = np.linalg.norm(self.values, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-12):
                worst = float(np.max(np.abs(norms - 1.0)))
                raise ValueError(
                    f"Q rows must have unit norm; worst deviation {worst:.2e}"
                )
        self.values.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def vandermonde(basis: ProductBasis, points, space: str) -> DesignMatrix:
    """Stack basis rows at the given points into a DesignMatrix."""
    return DesignMatrix(values=eval_rows(basis, points, space), space=space)


def _values(matrix) -> np.ndarray:
    if isinstance(matrix, DesignMatrix):
        return matrix.values
    return np.asarray(matrix, dtype=float)


def det_modulus(matrix) -> float:
    """sqrt(|det(V V^T)|) of an m x N matrix with m <= N.

    Computed as the product of singular values; for square V this is |det V|.
    A product beyond the float range returns math.inf without a floating
    point warning; one whose running product would overflow but whose value
    fits is taken as exp of the summed logarithms.
    """
    vals = _values(matrix)
    m, n = vals.shape
    if m > n:
        raise ValueError(f"determinant modulus needs m <= N, got {m} x {n}")
    sigma = np.linalg.svd(vals, compute_uv=False)
    with np.errstate(divide="ignore"):
        logs = np.log(sigma)
    # sigma is descending, so np.prod's running product peaks at the
    # product of the singular values above 1
    if float(np.sum(logs[logs > 0.0])) < LOG_FLOAT_MAX:
        return float(np.prod(sigma))
    log_det = float(np.sum(logs))
    return math.exp(log_det) if log_det < LOG_FLOAT_MAX else math.inf


def condition_number(matrix) -> float:
    """Ratio of extreme singular values; +inf when numerically singular."""
    vals = _values(matrix)
    sigma = np.linalg.svd(vals, compute_uv=False)
    smin = float(sigma[-1])
    if smin < SINGULAR_FLOOR:
        return math.inf
    return float(sigma[0]) / smin
