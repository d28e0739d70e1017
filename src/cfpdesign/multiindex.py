"""Multi-index sets for multivariate polynomial spaces.

Sets are ordered: graded first by total degree, then reverse lexicographic
within each grade (alpha precedes beta when the last nonzero entry of
alpha - beta is negative). The ordering is part of the value; enrichment
appends to an existing set without re-sorting it. One enumerator, _grade,
yields each grade in this order; every set is built from its grades, so
none is sorted after the fact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, alpha) -> bool:
        return tuple(alpha) in self._members

    @property
    def max_degree(self) -> int:
        return max(sum(a) for a in self.indices)

    def degrees_by_coordinate(self) -> tuple[int, ...]:
        """Largest entry per coordinate; sizes the univariate tables."""
        return tuple(
            max(a[j] for a in self.indices) for j in range(self.dimension)
        )

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "indices": [list(a) for a in self.indices],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiIndexSet":
        return cls(
            dimension=int(data["dimension"]),
            indices=tuple(tuple(int(v) for v in a) for a in data["indices"]),
        )


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


def total_degree(dimension: int, degree: int) -> MultiIndexSet:
    """All alpha with |alpha| <= degree, grevlex-ordered."""
    if dimension < 1 or degree < 0:
        raise ValueError("need dimension >= 1 and degree >= 0")
    size = math.comb(degree + dimension, dimension)
    if size > MAX_SET_SIZE:
        raise ValueError(f"total-degree set would have {size} indices")
    return MultiIndexSet(
        dimension,
        tuple(a for g in range(degree + 1) for a in _grade(dimension, g)),
    )


def hyperbolic_cross(dimension: int, degree: int) -> MultiIndexSet:
    """All alpha with prod(alpha_j + 1) <= degree + 1, grevlex-ordered.

    Grades 0..degree come from _grade with the budget degree + 1, so the
    indices arrive in order; more than MAX_SET_SIZE of them raise.
    """
    if dimension < 1 or degree < 0:
        raise ValueError("need dimension >= 1 and degree >= 0")
    grades = itertools.chain.from_iterable(
        _grade(dimension, g, degree + 1) for g in range(degree + 1)
    )
    indices = tuple(itertools.islice(grades, MAX_SET_SIZE + 1))
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


def enrich(index_set: MultiIndexSet, extra: int | None = None) -> MultiIndexSet:
    """Append the first `extra` multi-indices in grevlex order that are not
    in the set.

    Grades are enumerated one at a time, lowest first, until enough are
    found. Each total-degree set is a grevlex prefix of the next, so these
    are the grevlex-ordered members of the smallest total-degree superset
    that has `extra` indices outside the set. extra defaults to
    max(1, floor(0.05 * N)).
    """
    if not is_downward_closed(index_set):
        raise ValueError("enrichment requires a downward-closed index set")
    if extra is None:
        extra = max(1, int(0.05 * len(index_set)))
    if extra < 1:
        raise ValueError("extra must be positive")
    found: list[tuple[int, ...]] = []
    grade = 0
    while len(found) < extra:
        found += [a for a in _grade(index_set.dimension, grade) if a not in index_set]
        grade += 1
    return MultiIndexSet(
        index_set.dimension, index_set.indices + tuple(found[:extra])
    )
