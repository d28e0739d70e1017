"""Oracles for the tests: exact ones in rational arithmetic, and the
recursive grevlex enumerator the package's index sets once came from.

Every float is a dyadic rational, so the exact oracles compute with the
exact values of their float inputs and round nothing. They share no code
with the package: the recurrence weights are restated here, not read from
it.
"""

from fractions import Fraction


def abs_det(rows) -> Fraction:
    """|det| of a square matrix of floats, exactly.

    Each row is scaled by a power of two to integers, then the determinant
    of the integer matrix is found by Bareiss' fraction-free elimination,
    whose every division is exact.
    """
    a, scale = [], 1
    for row in rows:
        ratios = [float(x).as_integer_ratio() for x in row]
        den = max((d for _, d in ratios), default=1)
        a.append([n * (den // d) for n, d in ratios])
        scale *= den
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("abs_det needs a square matrix")
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        a[k], a[pivot] = a[pivot], a[k]  # a swap changes only the sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return Fraction(abs(prev), scale)


def _beta(kind: str, n: int) -> Fraction:
    """b_n of the orthonormal family: Legendre for the uniform density on
    [-1, 1], Hermite for exp(-y^2) / sqrt(pi)."""
    if kind == "uniform":
        return Fraction(n * n, 4 * n * n - 1)
    if kind == "gaussian":
        return Fraction(n, 2)
    raise ValueError(f"unknown density kind {kind!r}")


def _phi_squares(kind: str, degree: int, y: float) -> list[Fraction]:
    """phi_0(y)^2 .. phi_degree(y)^2 from the monic polynomials
    p_k = y p_{k-1} - b_{k-1} p_{k-2}, as phi_k^2 = p_k^2 / (b_1 ... b_k)."""
    y = Fraction(float(y))
    out, norm = [Fraction(1)], Fraction(1)
    p_prev, p = Fraction(1), y
    for k in range(1, degree + 1):
        norm *= _beta(kind, k)
        out.append(p * p / norm)
        p_prev, p = p, y * p - _beta(kind, k) * p_prev
    return out


def christoffel_exact(kind: str, index_set, y) -> Fraction:
    """K(y) = sum over alpha of prod_j phi_{alpha_j}(y_j)^2, exactly, for
    the product family of one density kind and the point y."""
    indices = list(index_set)
    squares = [
        _phi_squares(kind, max(alpha[j] for alpha in indices), y_j)
        for j, y_j in enumerate(y)
    ]
    total = Fraction(0)
    for alpha in indices:
        term = Fraction(1)
        for j, a in enumerate(alpha):
            term *= squares[j][a]
        total += term
    return total


def _grade(d: int, g: int, budget: int | None = None):
    """The multi-indices of total degree g, in grevlex order; with a budget,
    only those with prod(alpha_j + 1) <= budget.

    The smallest such product in grade g is g + 1, with all of g in one
    coordinate, so a grade with g >= budget is empty and returns at once;
    every call that goes on yields at least that index.
    """
    if budget is not None and g >= budget:
        return
    if d == 1:
        yield (g,)
        return
    for last in range(g + 1):
        rest = None if budget is None else budget // (last + 1)
        for head in _grade(d - 1, g - last, rest):
            yield head + (last,)
