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

from .basis import ProductBasis, RankDeficientError, _unit_rows, eval_rows
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
    is a read-only copy of the array passed in, one finite value per basis
    function."""

    basis: ProductBasis
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.shape != (len(self.basis.index_set),):
            raise ValueError("one coefficient per basis function required")
        coeffs = _as_values(coeffs, len(coeffs), "coefficients")
        object.__setattr__(self, "coefficients", coeffs)
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


def _as_values(values, m: int, name: str = "values") -> np.ndarray:
    """values as an (m,) float array; another shape or the first non-finite
    entry raises ValueError naming them."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (m,):
        raise ValueError(f"{name} has shape {vals.shape}, need ({m},), one per point")
    if not np.isfinite(vals).all():
        i = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError(f"{name} entry {i} is {vals[i]}, not finite")
    return vals


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
    """Fit with Christoffel weights: rows and data scaled by 1/sqrt(K).

    One finite value per point; another count, a non-finite value or point,
    or a Christoffel sum that overflows or vanishes raises ValueError
    naming it."""
    # one row pass gives the Q rows and the Christoffel sums that scale the data
    q, k = _unit_rows(basis, points)
    coeff = _lstsq(q, _as_values(values, len(q)) / np.sqrt(k))
    return Surrogate(basis=basis, coefficients=coeff)


def solve_unweighted(
    basis: ProductBasis, points: np.ndarray, values: np.ndarray
) -> Surrogate:
    """Plain least squares on unscaled rows; points and values are checked
    as in solve_weighted."""
    p = eval_rows(basis, points, "P")
    coeff = _lstsq(p, _as_values(values, len(p)))
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

    target maps an (n, d) array to an (n,) array of finite values; another
    shape or a non-finite value raises ValueError. The draw comes from the
    surrogate's own densities and is independent of any design seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    z = _sample_points(surrogate.basis.densities, rng, n_samples)
    values = _as_values(target(z), n_samples, "target output")
    residual = values - eval_surrogate(surrogate, z)
    return float(np.sqrt(np.mean(residual * residual)))
