"""Least-squares surrogate fitting on a design.

The weighted solve rescales both the rows and the data by the inverse
square root of the Christoffel function, so the system matrix is the
unit-norm-row design matrix; coefficients always refer to the plain
orthonormal product basis. Solves go through an orthogonal factorization
(SVD-backed lstsq), never the normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ProductBasis, RankDeficientError, _rows_and_sums, eval_rows
from .multiindex import MultiIndexSet
from .orthopoly import DensitySpec, _sample_points

__all__ = [
    "Surrogate",
    "solve_weighted",
    "solve_unweighted",
    "eval_surrogate",
    "validation_error",
]


@dataclass(frozen=True)
class Surrogate:
    """Coefficients of a polynomial surrogate in a product basis; coefficients
    is a read-only copy of the array passed in."""

    basis: ProductBasis
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", np.array(self.coefficients, dtype=float)
        )
        if self.coefficients.shape != (len(self.basis.index_set),):
            raise ValueError("one coefficient per basis function required")
        self.coefficients.setflags(write=False)

    def to_json(self) -> dict:
        return {
            "densities": [rho.kind for rho in self.basis.densities],
            "index_set": self.basis.index_set.to_json(),
            "coefficients": [float(c) for c in self.coefficients],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Surrogate":
        index_set = MultiIndexSet.from_json(data["index_set"])
        densities = tuple(DensitySpec(k) for k in data["densities"])
        basis = ProductBasis.for_density(densities, index_set)
        return cls(basis=basis, coefficients=data["coefficients"])


def _lstsq(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    m, n = matrix.shape
    if m < n:
        raise ValueError(f"need at least {n} samples, got {m}")
    solution, _, rank, sigma = np.linalg.lstsq(matrix, rhs, rcond=None)
    if rank < n:
        raise RankDeficientError(
            f"design matrix has rank {rank} < {n}; "
            f"smallest singular value {sigma[-1]:.3e}"
        )
    return solution


def solve_weighted(
    basis: ProductBasis, points: np.ndarray, values: np.ndarray
) -> Surrogate:
    """Fit with Christoffel weights: rows and data scaled by 1/sqrt(K)."""
    values = np.asarray(values, dtype=float)
    # one row pass gives the Q rows and the Christoffel sums that scale the data
    q, k = _rows_and_sums(basis, points, "Q")
    coeff = _lstsq(q, values / np.sqrt(k))
    return Surrogate(basis=basis, coefficients=coeff)


def solve_unweighted(
    basis: ProductBasis, points: np.ndarray, values: np.ndarray
) -> Surrogate:
    """Plain least squares on unscaled rows."""
    values = np.asarray(values, dtype=float)
    p = eval_rows(basis, points, "P")
    coeff = _lstsq(p, values)
    return Surrogate(basis=basis, coefficients=coeff)


def eval_surrogate(surrogate: Surrogate, y):
    """Evaluate the surrogate; scalar point in, float out; batch in, array out."""
    pts = np.asarray(y, dtype=float)
    rows = eval_rows(surrogate.basis, pts, "P")
    result = rows @ surrogate.coefficients
    if pts.ndim <= 1:
        return float(result[0])
    return result


def validation_error(
    surrogate: Surrogate, target, n_samples: int, seed: int
) -> float:
    """Discrete l2 error against the target on fresh iid draws.

    target maps an (n, d) array to an (n,) array. The draw comes from the
    surrogate's own densities and is independent of any design seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    z = _sample_points(surrogate.basis.densities, rng, n_samples)
    residual = np.asarray(target(z), dtype=float) - eval_surrogate(surrogate, z)
    return float(np.sqrt(np.mean(residual * residual)))
