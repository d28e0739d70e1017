"""Multi-index sets for multivariate polynomial spaces.

Sets are ordered: graded first by total degree, then reverse lexicographic
within each grade (alpha precedes beta when the last nonzero entry of
alpha - beta is negative). The ordering is part of the value; enrichment
appends to an existing set without re-sorting it. One stream, _grevlex,
yields every index in this order, at most min(d, g) + 1 generators deep at
grade g; every set is read from it, so none is sorted after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count, islice

__all__ = [
    "MultiIndexSet",
    "total_degree",
    "hyperbolic_cross",
    "is_downward_closed",
    "enrich",
]

MAX_SET_SIZE = 10**7


@dataclass(frozen=True)
class MultiIndexSet:
    """An ordered, duplicate-free tuple of d-dimensional multi-indices."""

    dimension: int
    indices: tuple[tuple[int, ...], ...]
    _members: frozenset = field(init=False, repr=False, compare=False)
    _degrees: tuple = field(init=False, repr=False, compare=False)
    max_degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if len(self.indices) == 0:
            raise ValueError("index set must be nonempty")
        members = frozenset(self.indices)
        if len(members) != len(self.indices):
            raise ValueError("duplicate multi-indices")
        for alpha in self.indices:
            if len(alpha) != self.dimension:
                raise ValueError(f"index {alpha} has wrong dimension")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative entry in index {alpha}")
        object.__setattr__(self, "_members", members)
        object.__setattr__(self, "_degrees", tuple(map(max, zip(*self.indices))))
        object.__setattr__(self, "max_degree", max(map(sum, self.indices)))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, alpha) -> bool:
        return tuple(alpha) in self._members

    def degrees_by_coordinate(self) -> tuple[int, ...]:
        """Largest entry per coordinate; sizes the univariate tables."""
        return self._degrees

    def to_json(self) -> dict:
        return {
            "dimension": int(self.dimension),
            "indices": [[int(v) for v in a] for a in self.indices],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiIndexSet":
        return cls(
            dimension=int(data["dimension"]),
            indices=tuple(tuple(int(v) for v in a) for a in data["indices"]),
        )


def _grevlex(d: int, budget: int | None = None):
    """Every multi-index in grevlex order, grade after grade; with a budget,
    those with prod(alpha_j + 1) <= budget, all below grade budget.

    One shared list is filled through its nonzero entries: the first
    coordinate takes the units left, and each level places one entry below
    its caller's, so a grade-g index is at most min(d, g) + 1 generators deep.
    share is the budget floor-divided by the products placed; left >= share
    cuts a branch, whose least product, left + 1, is its first index's. With
    no budget, grade g takes 2^g, which no product in it exceeds (a + 1 <= 2^a).
    """
    alpha = [0] * d

    def walk(limit, left, share):
        if left >= share:
            return
        alpha[0] = left
        yield tuple(alpha)
        for j in range(1, limit):
            for v in range(1, left + 1):
                alpha[j] = v
                yield from walk(j, left - v, share // (v + 1))
            alpha[j] = 0

    for g in count() if budget is None else range(budget):
        yield from walk(d, g, 2**g if budget is None else budget)


def total_degree(dimension: int, degree: int) -> MultiIndexSet:
    """All alpha with |alpha| <= degree, grevlex-ordered."""
    if dimension < 1 or degree < 0:
        raise ValueError("need dimension >= 1 and degree >= 0")
    size = math.comb(degree + dimension, dimension)
    if size > MAX_SET_SIZE:
        raise ValueError(f"total-degree set would have {size} indices")
    return MultiIndexSet(dimension, tuple(islice(_grevlex(dimension), size)))


def hyperbolic_cross(dimension: int, degree: int) -> MultiIndexSet:
    """All alpha with prod(alpha_j + 1) <= degree + 1, grevlex-ordered.

    They come from _grevlex with the budget degree + 1, so they arrive in
    order; more than MAX_SET_SIZE of them raise.
    """
    if dimension < 1 or degree < 0:
        raise ValueError("need dimension >= 1 and degree >= 0")
    indices = tuple(islice(_grevlex(dimension, degree + 1), MAX_SET_SIZE + 1))
    if len(indices) > MAX_SET_SIZE:
        raise ValueError("hyperbolic-cross set exceeds the size guard")
    return MultiIndexSet(dimension, indices)


def is_downward_closed(index_set: MultiIndexSet) -> bool:
    """True when every alpha keeps all its backward neighbors in the set."""
    for alpha in index_set:
        for j in range(index_set.dimension):
            if alpha[j] > 0:
                below = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
                if below not in index_set:
                    return False
    return True


def enrich(index_set: MultiIndexSet, extra: int) -> MultiIndexSet:
    """Append the first `extra` multi-indices in grevlex order that are not
    in the set.

    They are read from the grevlex stream until enough are found. Each
    total-degree set is a grevlex prefix of the next, so these are the
    grevlex-ordered members of the smallest total-degree superset that has
    `extra` indices outside the set.
    """
    if not is_downward_closed(index_set):
        raise ValueError("enrichment requires a downward-closed index set")
    if extra < 1:
        raise ValueError("extra must be positive")
    if len(index_set) + extra > MAX_SET_SIZE:
        raise ValueError(
            f"enriched set would have {len(index_set) + extra} indices, "
            f"more than the size guard of {MAX_SET_SIZE}"
        )
    outside = (a for a in _grevlex(index_set.dimension) if a not in index_set)
    indices = index_set.indices + tuple(islice(outside, extra))
    return MultiIndexSet(index_set.dimension, indices)
