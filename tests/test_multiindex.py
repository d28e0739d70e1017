"""Multi-index set tests.

The constructors are checked against a brute-force oracle: filter the full
integer box with the defining inequality and sort with an independently
restated ordering rule. Enrichment is walked through by hand on small sets.
The grevlex stream and all three builders are also checked, index for
index, against the recursive grade enumerator they replaced.
"""

import itertools
import json
import math

import numpy as np
import pytest
from oracles import _grade

import cfpdesign.multiindex
from cfpdesign import (
    MultiIndexSet,
    enrich,
    hyperbolic_cross,
    total_degree,
)
from cfpdesign.multiindex import _grevlex, is_downward_closed


def _box_filter_oracle(dimension, degree, keep):
    """All indices of the [0, degree]^d box passing `keep`, graded then
    ordered by comparing reversed tuples."""
    out = [
        alpha
        for alpha in itertools.product(range(degree + 1), repeat=dimension)
        if keep(alpha)
    ]
    out.sort(key=lambda alpha: (sum(alpha), tuple(alpha[::-1])))
    return out


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
@pytest.mark.parametrize("degree", [0, 1, 2, 5, 8])
def test_total_degree_matches_enumeration(dimension, degree):
    got = total_degree(dimension, degree)
    expected = _box_filter_oracle(
        dimension, degree, lambda alpha: sum(alpha) <= degree
    )
    assert list(got) == expected
    assert len(got) == math.comb(degree + dimension, dimension)


# d = 6 and d = 10 are the widths where the budget prunes whole subtrees
@pytest.mark.parametrize(
    "degree,dimension",
    [(k, d) for k in (0, 1, 3, 7, 10) for d in (1, 2, 3, 4)]
    + [(k, 6) for k in range(4)]
    + [(k, 10) for k in range(3)],
)
def test_hyperbolic_cross_matches_enumeration(dimension, degree):
    got = hyperbolic_cross(dimension, degree)
    expected = _box_filter_oracle(
        dimension,
        degree,
        lambda alpha: math.prod(a + 1 for a in alpha) <= degree + 1,
    )
    assert list(got) == expected


ORACLE_BUDGETS = [None, 1, 2, 3, 4, 5, 8, 13, 30]


def _oracle_grades(dimension, top, budget=None):
    """Grades 0..top of the recursive enumerator, concatenated."""
    return [a for g in range(top + 1) for a in _grade(dimension, g, budget)]


def _oracle_enrich(index_set, extra):
    """The first `extra` indices of the recursive grades not in the set."""
    outside = (
        a
        for g in itertools.count()
        for a in _grade(index_set.dimension, g)
        if a not in index_set
    )
    return index_set.indices + tuple(itertools.islice(outside, extra))


@pytest.mark.parametrize("budget", ORACLE_BUDGETS)
@pytest.mark.parametrize("dimension", range(1, 8))
def test_stream_matches_recursive_grades(dimension, budget):
    """Grades 0..9 come in the recursive enumerator's order, and nothing of
    those grades follows; a budgeted stream ends after grade budget - 1."""
    expected = _oracle_grades(dimension, 9, budget)
    stream = _grevlex(dimension, budget)
    assert list(itertools.islice(stream, len(expected))) == expected
    after = next(stream, None)
    if budget is not None and budget <= 10:
        assert after is None
    else:
        assert sum(after) == 10


@pytest.mark.parametrize("dimension", range(1, 8))
def test_builders_match_recursive_grades(dimension):
    for degree in range(10):
        lam = total_degree(dimension, degree)
        assert lam.indices == tuple(_oracle_grades(dimension, degree))
        for extra in (1, 2, 7):
            assert enrich(lam, extra).indices == _oracle_enrich(lam, extra)
    for budget in ORACLE_BUDGETS[1:]:
        cross = hyperbolic_cross(dimension, budget - 1)
        assert cross.indices == tuple(_oracle_grades(dimension, budget - 1, budget))
        for extra in (1, 2, 7):
            assert enrich(cross, extra).indices == _oracle_enrich(cross, extra)


# d = 10 HC 12 is the widest study basis, enriched to W = 1199; d = 30 TD
# stops at degree 4, since degree 6 there has 1,947,792 indices
@pytest.mark.parametrize(
    "rule, dimension, degree, extra",
    [
        (hyperbolic_cross, 10, 12, 58),
        (total_degree, 20, 3, 89),
        (total_degree, 30, 4, 5),
        (hyperbolic_cross, 30, 6, 75),
    ],
)
def test_wide_sets_match_recursive_grades(rule, dimension, degree, extra):
    lam = rule(dimension, degree)
    budget = degree + 1 if rule is hyperbolic_cross else None
    assert lam.indices == tuple(_oracle_grades(dimension, degree, budget))
    assert enrich(lam, extra).indices == _oracle_enrich(lam, extra)


def test_sets_build_at_dimension_1000():
    """The stream is as deep as an index has nonzero entries, not as d."""

    def units(*coordinates):
        alpha = [0] * 1000
        for j in coordinates:
            alpha[j] += 1
        return tuple(alpha)

    line = total_degree(1000, 1)
    assert line.indices == (units(),) + tuple(units(j) for j in range(1000))
    assert len(hyperbolic_cross(1000, 2)) == 2001
    assert enrich(line, 5).indices[1001:] == (
        units(0, 0), units(0, 1), units(1, 1), units(0, 2), units(1, 2),
    )


def test_total_degree_hand_examples():
    assert list(total_degree(1, 3)) == [(0,), (1,), (2,), (3,)]
    assert list(total_degree(2, 2)) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
    ]
    assert len(total_degree(3, 2)) == 10


def test_hyperbolic_cross_hand_examples():
    assert list(hyperbolic_cross(2, 0)) == [(0, 0)]
    # prod(alpha_j + 1) <= 4 keeps exactly eight indices
    assert list(hyperbolic_cross(2, 3)) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (0, 3),
    ]
    cross = hyperbolic_cross(25, 1)
    assert len(cross) == 26  # origin plus the unit vectors
    assert all(sum(alpha) <= 1 for alpha in cross)


def test_ordering_is_deterministic():
    a = total_degree(3, 4)
    b = total_degree(3, 4)
    assert a == b
    assert list(a) == list(b)


def test_size_guard():
    with pytest.raises(ValueError):
        total_degree(100, 10)  # ~4.6e13 indices
    with pytest.raises(ValueError):
        total_degree(0, 2)
    with pytest.raises(ValueError):
        hyperbolic_cross(2, -1)


def test_hyperbolic_cross_size_guard(monkeypatch):
    monkeypatch.setattr(cfpdesign.multiindex, "MAX_SET_SIZE", 100)
    with pytest.raises(ValueError, match="size guard"):
        hyperbolic_cross(10, 8)  # 471 indices
    assert len(hyperbolic_cross(10, 3)) == 76


def test_enrich_size_guard(monkeypatch):
    monkeypatch.setattr(cfpdesign.multiindex, "MAX_SET_SIZE", 100)
    lam = total_degree(2, 2)
    message = "^enriched set would have 101 indices, more than the size guard of 100$"
    with pytest.raises(ValueError, match=message):
        enrich(lam, 95)
    assert len(enrich(lam, 94)) == 100


def test_set_validation():
    with pytest.raises(ValueError):
        MultiIndexSet(2, ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        MultiIndexSet(2, ((0, 0), (1,)))
    with pytest.raises(ValueError):
        MultiIndexSet(2, ((0, -1),))
    with pytest.raises(ValueError):
        MultiIndexSet(2, ())
    with pytest.raises(ValueError, match="^dimension must be positive$"):
        MultiIndexSet(0, ((),))


def test_membership_and_degrees():
    lam = total_degree(2, 3)
    assert (2, 1) in lam
    assert (3, 1) not in lam
    assert lam.max_degree == 3
    assert lam.degrees_by_coordinate() == (3, 3)
    assert hyperbolic_cross(3, 3).degrees_by_coordinate() == (3, 3, 3)


def _coordinate_max(lam):
    """Largest entry of each coordinate, from the indices laid out as an
    (N, d) integer array."""
    flat = np.fromiter(
        itertools.chain.from_iterable(lam.indices), dtype=np.int64,
        count=len(lam) * lam.dimension,
    )
    return tuple(int(v) for v in flat.reshape(len(lam), lam.dimension).max(axis=0))


# module scope: the d = 100 set takes seconds to build, so both tests below
# share one build of each set
@pytest.fixture(
    scope="module",
    params=[
        lambda: total_degree(3, 4),
        lambda: hyperbolic_cross(4, 8),
        lambda: enrich(hyperbolic_cross(2, 5), 7),
        lambda: MultiIndexSet(3, ((0, 0, 0), (2, 0, 0), (0, 0, 5))),
        lambda: total_degree(100, 3),
    ],
    ids=["TD", "HC", "enriched", "uneven", "d100-TD3"],
)
def built(request):
    return request.param()


def test_degrees_by_coordinate_are_stored_once(built):
    assert built._degrees == _coordinate_max(built)
    assert built.degrees_by_coordinate() is built._degrees


def test_max_degree_is_stored_once(built):
    # an instance attribute set at construction, not a property that walks
    # every index on each read
    assert vars(built)["max_degree"] == max(map(sum, built.indices))


def test_downward_closed():
    assert is_downward_closed(total_degree(3, 4))
    assert is_downward_closed(hyperbolic_cross(2, 5))
    assert not is_downward_closed(MultiIndexSet(2, ((0, 0), (1, 1))))


def test_enrich_hand_examples():
    lam = total_degree(2, 1)
    grown = enrich(lam, 2)
    assert list(grown) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]

    line = total_degree(1, 3)
    assert list(enrich(line, 1)) == [(0,), (1,), (2,), (3,), (4,)]


def test_enrich_preserves_prefix_and_grows():
    lam = hyperbolic_cross(3, 4)
    grown = enrich(lam, 5)
    assert list(grown)[: len(lam)] == list(lam)
    assert len(grown) == len(lam) + 5
    assert len(set(grown)) == len(grown)


def test_enrich_raises_degree_until_enough():
    # asking for more than one surrounding shell provides
    lam = total_degree(2, 1)
    grown = enrich(lam, 9)
    assert len(grown) == 12
    # shells of degree 2 (3 indices) then 3 (4) then 4 (first 2 of 5)
    assert list(grown)[3:] == [
        (2, 0), (1, 1), (0, 2),
        (3, 0), (2, 1), (1, 2), (0, 3),
        (4, 0), (3, 1),
    ]


def _enrich_box_and_filter(index_set, extra):
    """The box-and-filter enrichment rule: take the grevlex-ordered members
    of the smallest total-degree box around the set that are not in it,
    growing the box until there are `extra` of them."""
    d, n_points = index_set.dimension, len(index_set)

    def box(level):
        return _box_filter_oracle(d, level, lambda alpha: sum(alpha) <= level)

    level = index_set.max_degree
    candidates = box(level)
    if len(candidates) == n_points:  # the set is exactly that box
        level += 1
        candidates = box(level)
    surplus = [a for a in candidates if a not in index_set]
    while len(surplus) < extra:
        level += 1
        surplus = [a for a in box(level) if a not in index_set]
    return index_set.indices + tuple(surplus[:extra])


@pytest.mark.parametrize("rule", [total_degree, hyperbolic_cross])
@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_enrich_matches_box_and_filter_rule(rule, dimension):
    for degree in range(9):
        lam = rule(dimension, degree)
        top = lam.max_degree + 3
        grades = [
            sum(a)
            for a in _box_filter_oracle(dimension, top, lambda a: sum(a) <= top)
            if a not in lam
        ]
        # counts that end the first and second grades with missing indices;
        # the largest extra reaches into a third grade
        ends = [i for i in range(1, len(grades)) if grades[i] != grades[i - 1]][:2]
        largest = ends[1] + 1
        extras = {1, largest} | {e + s for e in ends for s in (-1, 0, 1)}
        for extra in sorted(e for e in extras if 1 <= e <= largest):
            assert enrich(lam, extra).indices == _enrich_box_and_filter(lam, extra)


def test_enrich_requires_downward_closed():
    with pytest.raises(ValueError):
        enrich(MultiIndexSet(2, ((0, 0), (1, 1))), 1)
    gap = MultiIndexSet(3, tuple(a for a in total_degree(3, 2) if a != (1, 0, 0)))
    with pytest.raises(ValueError, match="downward-closed"):
        enrich(gap, 1)
    with pytest.raises(ValueError):
        enrich(total_degree(2, 2), 0)


def test_json_round_trip():
    lam = hyperbolic_cross(3, 5)
    blob = json.dumps(lam.to_json())
    back = MultiIndexSet.from_json(json.loads(blob))
    assert back == lam
    assert list(back) == list(lam)
    # a set built from numpy integers writes the same JSON
    wide = MultiIndexSet(
        np.int64(3), tuple(tuple(np.int64(a) for a in alpha) for alpha in lam)
    )
    assert json.dumps(wide.to_json()) == blob
