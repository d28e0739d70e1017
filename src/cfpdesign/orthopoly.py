"""Univariate orthonormal polynomial families and their level sets.

Supported weights are probability densities on the real line: the uniform
density on [-1, 1] and the Gaussian density proportional to exp(-y^2).
Every family follows the three-term recurrence

    y phi_n(y) = sqrt(b_n) phi_{n-1}(y) + a_n phi_n(y) + sqrt(b_{n+1}) phi_{n+1}(y)

with phi_0 = 1, so the phi_n are orthonormal with respect to the density.
Both supported densities are symmetric, so a_n = 0 for every n and only the
b_n are stored.
The ratio r_N = phi_N / phi_{N-1} is strictly increasing between its poles,
which makes its level sets A_N(y) = r_N^{-1}(r_N(y)) sets of exactly N
distinct points; those sets carry the induced quadrature rules used by the
design routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DensitySpec",
    "RecurrenceTable",
    "recurrence_coefficients",
    "eval_phi",
    "eval_phi_sequence",
    "gauss_rule",
    "r_ratio",
    "level_set",
    "quadrature_exactness_report",
    "sample_density",
]

UNIFORM = "uniform"
GAUSSIAN = "gaussian"
# the supported density kinds; recurrence_coefficients holds each one's b_n
FAMILIES = (UNIFORM, GAUSSIAN)

# |phi_{N-1}(y)| below this (relative) threshold marks y as a pole of r_N
POLE_RTOL = 1e-12


def _as_finite(array, name: str, shape=None) -> np.ndarray:
    """array as a float array: the package's one check of a caller's array.

    shape, if given, holds one entry per axis: a length, or a name (str)
    for a free length. Another shape raises ValueError "{name} has shape
    {got}, need {want}"; a non-finite entry raises ValueError naming the
    first in C order, "{name} entry {index} is {value}, not finite" ("{name}
    is {value}, not finite" for a scalar).
    """
    arr = np.asarray(array, dtype=float)
    if shape is not None and (
        arr.ndim != len(shape)
        or any(not isinstance(w, str) and g != w for g, w in zip(arr.shape, shape))
    ):
        want = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise ValueError(f"{name} has shape {arr.shape}, need ({want})")
    if not np.isfinite(arr).all():  # a whole-array test; the index only on failure
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        where = f" entry {index[0] if len(index) == 1 else index}" if index else ""
        raise ValueError(f"{name}{where} is {float(arr[index])}, not finite")
    return arr


def _set_read_only(frozen, **arrays) -> None:
    """Set each named field of a frozen dataclass to a read-only float copy."""
    for name, array in arrays.items():
        object.__setattr__(frozen, name, np.array(array, dtype=float))
        getattr(frozen, name).setflags(write=False)


@dataclass(frozen=True)
class DensitySpec:
    """One coordinate's marginal probability density."""

    kind: str

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.kind!r}")


def _per_coordinate(density, d: int) -> tuple[DensitySpec, ...]:
    """One density per coordinate: a single density repeated d times, or a
    sequence of d densities."""
    densities = (density,) * d if isinstance(density, DensitySpec) else tuple(density)
    if len(densities) != d:
        raise ValueError("one density per coordinate required")
    return densities


@dataclass(frozen=True)
class RecurrenceTable:
    """Recurrence coefficients of one orthonormal family.

    beta holds b_1 .. b_{n_max}, all positive; a_n = 0 is not stored. The
    table is immutable: it keeps a read-only copy of the beta passed in.
    """

    density: DensitySpec
    beta: np.ndarray

    def __post_init__(self):
        _set_read_only(self, beta=_as_finite(self.beta, "beta", ("n_max",)))
        if len(self.beta) < 1:
            raise ValueError("table must cover degree at least 1")
        if not np.all(self.beta > 0.0):
            raise ValueError("all recurrence weights b_n must be positive")

    @property
    def n_max(self) -> int:
        return len(self.beta)


def recurrence_coefficients(density: DensitySpec, n_max: int) -> RecurrenceTable:
    """Tabulate b_1..b_{n_max} for the given density.

    Uniform on [-1, 1]: a_n = 0, b_n = n^2 / (4 n^2 - 1).
    Gaussian exp(-y^2)/sqrt(pi): a_n = 0, b_n = n / 2.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    n = np.arange(1, n_max + 1, dtype=float)
    if density.kind == UNIFORM:
        beta = n * n / (4.0 * n * n - 1.0)
    else:
        beta = n / 2.0
    return RecurrenceTable(density=density, beta=beta)


def eval_phi_sequence(table: RecurrenceTable, n: int, y):
    """Evaluate phi_0 .. phi_n at y.

    y may be a scalar or a one-dimensional array; the result has shape
    (n + 1,) or (n + 1, len(y)). A non-finite y raises ValueError naming it.
    """
    if not 0 <= n <= table.n_max:
        raise ValueError(f"degree {n} outside tabulated range 0..{table.n_max}")
    y_arr = _as_finite(y, "y")
    out = np.empty((n + 1,) + y_arr.shape)
    out[0] = 1.0
    if n >= 1:
        sqb = np.sqrt(table.beta)
        out[1] = y_arr / sqb[0]
        for k in range(1, n):
            out[k + 1] = (y_arr * out[k] - sqb[k - 1] * out[k - 1]) / sqb[k]
    return out


def eval_phi(table: RecurrenceTable, n: int, y):
    """Evaluate phi_n at y (scalar in, float out; array in, array out)."""
    seq = eval_phi_sequence(table, n, y)
    return float(seq[n]) if np.ndim(y) == 0 else seq[n]


def _jacobi_eigvals(table: RecurrenceTable, n: int, shift: float) -> np.ndarray:
    """Ascending eigenvalues of the order-n Jacobi matrix, shift added at (n-1, n-1)."""
    if not 1 <= n <= table.n_max:
        raise ValueError(f"order {n} outside tabulated range 1..{table.n_max}")
    jacobi = np.diag(np.sqrt(table.beta[: n - 1]), -1)  # lower band only
    jacobi[-1, -1] = shift
    return np.linalg.eigvalsh(jacobi, UPLO="L")


def gauss_rule(table: RecurrenceTable, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the tabulated density.

    Nodes are the eigenvalues of the order-n Jacobi matrix, in ascending
    order; weights are the Christoffel weights 1 / sum_{k<n} phi_k(z)^2 at
    the nodes, the formula every level-set rule uses, and sum to one.
    """
    nodes = _jacobi_eigvals(table, n, 0.0)
    seq = eval_phi_sequence(table, n - 1, nodes)
    # where a sum overflows the true weight lies below 1 / DBL_MAX, under the
    # smallest normal double, and comes back as 0.0 (Gaussian n = 400 at its
    # 6 end nodes)
    with np.errstate(over="ignore"):
        return nodes, 1.0 / np.sum(seq * seq, axis=0)


def r_ratio(table: RecurrenceTable, n: int, y: float) -> float:
    """Ratio phi_n(y) / phi_{n-1}(y), an extended real.

    Returns math.inf at the poles (the roots of phi_{n-1}); r_n maps into
    the projective line, so the point at infinity is unsigned. Raises at a
    non-finite y, and where phi_n(y) or phi_{n-1}(y) is not finite in
    double precision.
    """
    if not 1 <= n <= table.n_max:
        raise ValueError(f"order {n} outside tabulated range 1..{table.n_max}")
    with np.errstate(over="ignore", invalid="ignore"):
        seq = eval_phi_sequence(table, n, float(y))
    top, bottom = float(seq[n]), float(seq[n - 1])
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValueError(
            f"r_{n}(y) is not finite at y={y!r}: phi_{n} or phi_{n - 1} overflows there"
        )
    if abs(bottom) < POLE_RTOL * max(1.0, abs(top)):
        return math.inf
    return top / bottom


def level_set(table: RecurrenceTable, n: int, y: float) -> np.ndarray:
    """The n distinct points z with r_n(z) = r_n(y), in ascending order.

    The set is computed as the eigenvalues of the order-n Jacobi matrix with
    its last diagonal entry shifted by r_n(y) * sqrt(b_n): appending the
    shifted row turns phi_n - r_n(y) phi_{n-1} into the order-n characteristic
    polynomial. y itself is always a member; a non-finite y or r_n(y) raises.
    """
    c = r_ratio(table, n, y)
    if math.isinf(c):
        raise ValueError(
            f"y={y!r} is a pole of r_{n} (root of phi_{n - 1}); no level set there"
        )
    return _jacobi_eigvals(table, n, c * math.sqrt(table.beta[n - 1]))


def level_set_bisection(table: RecurrenceTable, n: int, y: float) -> np.ndarray:
    """Level set of r_n through y by Sturm-count bisection, no eigensolves.

    g = phi_n - r_n(y) phi_{n-1} is det(zI - J) up to a positive factor, for
    J the order-n Jacobi matrix with s = r_n(y) sqrt(b_n) at (n-1, n-1). The
    pivots of zI - J = L D L^T are ratios of its consecutive leading minors,
    phi_0 .. phi_{n-1}, g up to positive factors, so the negative pivots
    count the roots of g above z (Barth, Martin and Wilkinson, Numer. Math.
    9, 1967). Each root is bisected on that count inside J's Gershgorin
    bound, all n at once. A test oracle only, not exported.
    """
    c = r_ratio(table, n, y)
    if math.isinf(c):
        raise ValueError(f"y={y!r} is a pole of r_{n}")
    beta = table.beta[: n - 1]
    shift = c * math.sqrt(table.beta[n - 1])
    # Gershgorin's bound plus one: every root lies strictly inside
    bound = abs(shift) + 2.0 * math.sqrt(beta.max(initial=0.0)) + 1.0

    def above(z: np.ndarray) -> np.ndarray:
        q, count = z, np.zeros(n, dtype=int)
        # a zero pivot and the infinite one after it differ in sign bit, so
        # the pair counts once, as the minors around a zero minor change sign
        with np.errstate(divide="ignore", over="ignore"):
            for b in beta:
                count += np.signbit(q)
                q = z - b / q
        return count + np.signbit(q - shift)

    lo, hi = np.full(n, -bound), np.full(n, bound)
    need = n - np.arange(n)  # root k (ascending) lies above z iff need[k] roots do
    # to 1e-15 of max(1, |lo|, |hi|), which is max(1, -lo, hi) as lo < hi
    while np.any(hi - lo > 1e-15 * np.maximum(1.0, np.maximum(-lo, hi))):
        mid = 0.5 * (lo + hi)
        right = above(mid) >= need
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def quadrature_exactness_report(
    table: RecurrenceTable,
    nodes: np.ndarray,
    christoffel_values: np.ndarray,
    max_degree: int,
) -> np.ndarray:
    """Errors |sum_z phi_m(z)/K(z) - delta_{m,0}| for m = 0 .. max_degree.

    The weights 1/K(z) of a level-set rule integrate every phi_m with
    m <= 2 N - 2 exactly (one degree more when the set is the Gauss rule);
    a Christoffel value that is not positive raises ValueError naming it.
    """
    nodes = _as_finite(nodes, "nodes", ("m",))
    kvals = _as_finite(christoffel_values, "christoffel_values", nodes.shape)
    if not (kvals > 0.0).all():
        i = int(np.argmax(kvals <= 0.0))
        raise ValueError(f"christoffel_values entry {i} is {kvals[i]}, not positive")
    if max_degree > table.n_max:
        raise ValueError("table too short for the requested report")
    weights = 1.0 / kvals
    seq = eval_phi_sequence(table, max_degree, nodes)  # (max_degree+1, len)
    integrals = seq @ weights
    exact = np.zeros(max_degree + 1)
    exact[0] = 1.0
    return np.abs(integrals - exact)


def sample_density(density: DensitySpec, rng: np.random.Generator, size) -> np.ndarray:
    """iid draws from the density. Gaussian exp(-y^2) has variance 1/2."""
    if density.kind == UNIFORM:
        return rng.uniform(-1.0, 1.0, size)
    return rng.normal(0.0, math.sqrt(0.5), size)


def _sample_points(densities, rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, d) iid product draws, one column per density, drawn column by
    column from rng."""
    return np.column_stack([sample_density(rho, rng, n) for rho in densities])
