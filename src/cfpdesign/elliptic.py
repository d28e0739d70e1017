"""Parametric elliptic two-point boundary value benchmark.

Solves -d/dx [ kappa(x, y) du/dx ] = 2 on (0, 1) with u(0) = u(1) = 0,
where the diffusivity is the truncated cosine expansion

    kappa(x, y) = 1 + sigma * sum_{k=1}^{d} cos(2 pi k x) y_k / (k^2 pi^2).

The quantity of interest is u(1/2, y). Since sum 1/(k^2 pi^2) < 1/6,
sigma = 1 keeps kappa positive for every y in [-1, 1]^d.

Discretization is conservative-flux second-order finite differences on
gp nodes x_j = j h, h = 1 / (gp - 1), with kappa at the cell midpoints
m_i = (i + 1/2) h. Row j of the scheme says that the discrete flux
F_i = kappa(m_i) (u_{i+1} - u_i) / h drops by 2h from cell j - 1 to cell j.
That system is solved in closed form, not by elimination:

- every mode cos(2 pi k x) is symmetric about x = 1/2, and m_i and
  1 - m_i = m_{gp-2-i} are both midpoints, so the midpoint kappas read the
  same backwards and the discrete solution is symmetric about x = 1/2;
- so the flux is odd about x = 1/2, which together with the constant drop
  fixes it: F_i = 1 - 2 m_i;
- summing u_{i+1} - u_i = h F_i / kappa(m_i) from u_0 = 0 over the
  (gp - 1) / 2 cells left of x = 1/2 gives

      u(1/2, y) = h * sum_{m_i < 1/2} (1 - 2 m_i) / kappa(m_i, y).

This is the exact solution of the discrete system, with no pivoting: per row
block, one matrix product gives kappa and one matrix-vector product the sum.
At y = 0 the continuous solution is x (1 - x) and the scheme reproduces
u(1/2) = 1/4 to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import _row_blocks
from .orthopoly import _as_finite

__all__ = ["EllipticConfig", "solve_bvp_batch"]


@dataclass(frozen=True)
class EllipticConfig:
    dimension: int
    sigma: float = 1.0
    grid_points: int = 1001

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.grid_points < 3 or self.grid_points % 2 == 0:
            raise ValueError("grid_points must be odd and at least 3")
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        # the cosine sum spans [-reach, reach] on [-1,1]^d whatever sigma's sign
        k = np.arange(1, self.dimension + 1, dtype=float)
        reach = abs(self.sigma) * float(np.sum(1.0 / (k * k * math.pi**2)))
        if reach >= 1.0:
            raise ValueError(
                f"sigma={self.sigma} allows kappa <= 0 on [-1,1]^d "
                f"(cosine reach {reach:.3f} >= 1)"
            )


def _grid(config: EllipticConfig, x: np.ndarray) -> np.ndarray:
    """kappa's grid factor: rows 1 and sigma cos(2 pi k x) / (k^2 pi^2), k <= d."""
    k = np.arange(1, config.dimension + 1, dtype=float)[:, None]
    modes = np.cos(2.0 * math.pi * k * x) / (k * k * math.pi**2)
    return np.vstack([np.ones(len(x)), config.sigma * modes])


def _kappa(grid: np.ndarray, y2: np.ndarray, out=None) -> np.ndarray:
    """kappa = [1, y2] @ grid for parameter rows y2 and a _grid, one matrix
    product written into out (shape (len(y2), len(x))) if given."""
    left = np.ones((len(y2), len(grid)))
    left[:, 1:] = y2
    return np.matmul(left, grid, out=out)


def diffusivity(config: EllipticConfig, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """kappa on a grid of x for a batch of parameters, shape (n, len(x)).

    x must be one-dimensional and y one point or n points of the config's
    dimension, all finite; anything else raises ValueError naming it."""
    x1 = _as_finite(x, "x", ("m",))
    y2 = _as_finite(np.atleast_2d(y), "y", ("n", config.dimension))
    return _kappa(_grid(config, x1), y2)


def solve_bvp_batch(config: EllipticConfig, y: np.ndarray) -> np.ndarray:
    """u(1/2, y) for a batch of parameter points, shape (n, d) -> (n,).

    The batch is solved in row blocks sized by ROW_BLOCK_VALUES (kappa
    values), each written into one kappa buffer of the first (largest)
    block, so no kappa array of the whole batch is allocated.
    """
    y2 = _as_finite(np.atleast_2d(y), "y", ("n", config.dimension))
    gp = config.grid_points
    h = 1.0 / (gp - 1)
    # the (gp - 1) / 2 cell midpoints left of x = 1/2; the flux there is 1 - 2x
    x = (np.arange((gp - 1) // 2) + 0.5) * h
    grid = _grid(config, x)
    flux = 1.0 - 2.0 * x
    u = np.empty(len(y2))
    blocks = list(_row_blocks(len(y2), len(x)))
    buf = np.empty((blocks[0].stop if blocks else 0, len(x)))
    # u's last bits follow ROW_BLOCK_VALUES, through each block's BLAS product shape
    for blk in blocks:
        kappa = _kappa(grid, y2[blk], out=buf[: blk.stop - blk.start])
        if kappa.min() <= 0.0:
            raise ValueError("kappa is not positive for some parameter point")
        np.dot(np.reciprocal(kappa, out=kappa), flux, out=u[blk])
    u *= h
    return u


def solve_bvp(config: EllipticConfig, y) -> float:
    """u(1/2, y) for exactly one parameter point, given as (d,) or (1, d)."""
    y2 = _as_finite(np.atleast_2d(y), "y", (1, config.dimension))
    return float(solve_bvp_batch(config, y2)[0])
