"""Candidate ensembles and greedy selection tests.

The lazy pivoted Cholesky selection path is checked four ways: hand-worked
4-candidate examples with closed-form rows, exact pivot agreement with the
literal greedy reference on random instances, pivot agreement with an
in-test explicit-residual greedy at the 10k-candidate sizes the studies
use, and the brute-force subset oracle on cases small enough to enumerate.
Hypothesis properties cover the Hadamard-bounded trace and invariance under
candidate permutations. Ensemble draws are checked against their target
laws by KS statistics frozen for fixed seeds, plus an in-test rejection
sampler for the ball law.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from cfpdesign import (
    CandidateSet,
    DensitySpec,
    MultiIndexSet,
    ProductBasis,
    RankDeficientError,
    afp_select,
    candidate_set,
    cfp_select,
    condition_number,
    eval_rows,
    level_set,
    recurrence_coefficients,
    total_degree,
)
from cfpdesign.design import (
    _unique_rows,
    global_select_oracle,
    greedy_select_reference,
)

UNIFORM = DensitySpec.uniform()
GAUSSIAN = DensitySpec.gaussian()
LAM_01 = MultiIndexSet(1, ((0,), (1,)))


def manual_candidates(points, density):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return CandidateSet(
        points=pts,
        ensemble_tags=("iid",) * len(pts),
        densities=(density,) * pts.shape[1],
        degree_hint=1,
        seed=0,
    )


# ---------------------------------------------------------------- ensembles


def test_candidate_set_split_and_tags():
    c = candidate_set(UNIFORM, 2, 1000, 4, 0)
    assert len(c) == 1000
    assert c.dimension == 2
    assert c.ensemble_tags[:500] == ("iid",) * 500
    assert c.ensemble_tags[500:] == ("chebyshev",) * 500
    g = candidate_set(GAUSSIAN, 3, 100, 4, 0)
    assert g.ensemble_tags[50:] == ("ball",) * 50


def test_candidate_set_validation():
    with pytest.raises(ValueError):
        candidate_set(UNIFORM, 2, 999, 4, 0)
    with pytest.raises(ValueError):
        candidate_set(UNIFORM, 2, 0, 4, 0)
    with pytest.raises(ValueError):
        candidate_set(UNIFORM, 2, 100, 0, 0)
    with pytest.raises(ValueError):
        candidate_set(UNIFORM, 2, 100, 4, -1)
    with pytest.raises(ValueError):
        candidate_set((UNIFORM, GAUSSIAN), 2, 100, 4, 0)
    with pytest.raises(ValueError):
        candidate_set((UNIFORM,), 2, 100, 4, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_candidate_set_rejects_non_finite_points(bad):
    points = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, bad], [bad, 0.0]])
    with pytest.raises(ValueError, match="candidate point 2 is not finite"):
        manual_candidates(points, UNIFORM)


def test_candidate_points_read_only():
    c = candidate_set(UNIFORM, 1, 10, 1, 0)
    with pytest.raises(ValueError):
        c.points[0, 0] = 0.0


def test_chebyshev_half_matches_arcsine_law():
    c = candidate_set(UNIFORM, 1, 20000, 3, 5)
    cheb = c.points[10000:, 0]
    assert np.all(np.abs(cheb) <= 1.0)
    ks = stats.kstest(
        cheb, lambda x: 1.0 - np.arccos(np.clip(x, -1.0, 1.0)) / np.pi
    ).statistic
    # frozen draw gives 0.0114
    assert ks < 0.02
    ks_iid = stats.kstest(
        c.points[:10000, 0], stats.uniform(loc=-1.0, scale=2.0).cdf
    ).statistic
    assert ks_iid < 0.02


@pytest.mark.parametrize("dimension,ks_bound", [(2, 0.035), (5, 0.035)])
def test_ball_half_matches_radial_beta_law(dimension, ks_bound):
    degree = 4
    c = candidate_set(GAUSSIAN, dimension, 4000, degree, 11)
    ball = c.points[2000:]
    radii = np.linalg.norm(ball, axis=1)
    assert np.max(radii) <= math.sqrt(2.0 * degree) + 1e-12
    rho = radii * radii / (2.0 * degree)
    ks = stats.kstest(
        rho, stats.beta(dimension / 2.0, dimension / 2.0 + 1.0).cdf
    ).statistic
    # frozen draws give 0.0126 (d=2) and 0.0264 (d=5)
    assert ks < ks_bound
    ks_iid = stats.kstest(
        c.points[:2000].ravel(), stats.norm(scale=math.sqrt(0.5)).cdf
    ).statistic
    assert ks_iid < 0.03


def _rejection_ball_radii(rng, dimension, degree, count):
    """Independent route to the ball's radial law: propose uniformly on the
    ball, accept with probability (1 - r^2/(2 n))^(d/2)."""
    radius = math.sqrt(2.0 * degree)
    out = []
    while len(out) < count:
        u = rng.random(4 * count)
        r = radius * u ** (1.0 / dimension)
        keep = rng.random(4 * count) < (1.0 - r * r / (2.0 * degree)) ** (
            dimension / 2.0
        )
        out.extend(r[keep].tolist())
    return np.asarray(out[:count])


@pytest.mark.parametrize("dimension", [2, 5])
def test_ball_half_matches_rejection_sampler(dimension):
    c = candidate_set(GAUSSIAN, dimension, 4000, 4, 11)
    pkg = np.linalg.norm(c.points[2000:], axis=1)
    oracle = _rejection_ball_radii(np.random.default_rng(7), dimension, 4, 2000)
    # frozen draws give 0.025 (d=2) and 0.0215 (d=5)
    assert stats.ks_2samp(pkg, oracle).statistic < 0.04


def test_candidate_set_bitwise_deterministic():
    a = candidate_set(GAUSSIAN, 3, 400, 6, 9)
    b = candidate_set(GAUSSIAN, 3, 400, 6, 9)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.ensemble_tags == b.ensemble_tags
    c = candidate_set(GAUSSIAN, 3, 400, 6, 10)
    assert not np.array_equal(a.points, c.points)


# ---------------------------------------------------------------- selection


def test_cfp_worked_example():
    cands = manual_candidates([-1.0, -1.0 / 3.0, 0.2, 1.0], UNIFORM)
    result = cfp_select(cands, LAM_01, 2)
    # step 1 ties at unit norm, lowest index wins; step 2 residuals are
    # 1/2, sqrt(27/28), sqrt(3)/2 for candidates 1, 2, 3
    assert result.pivot_order == (0, 2)
    np.testing.assert_allclose(
        result.objective_trace, [1.0, math.sqrt(27.0 / 28.0)], rtol=1e-13
    )
    assert result.det_modulus == pytest.approx(math.sqrt(27.0 / 28.0), rel=1e-13)
    assert result.space == "Q"
    np.testing.assert_allclose(result.points[:, 0], [-1.0, 0.2])

    # independent route: explicit unit rows (1, sqrt(3) y) / sqrt(1 + 3 y^2)
    rows = np.array(
        [[1.0, math.sqrt(3.0) * y] / np.sqrt(1.0 + 3.0 * y * y) for y in (-1.0, 0.2)]
    )
    sigma = np.linalg.svd(rows, compute_uv=False)
    assert result.condition_number == pytest.approx(sigma[0] / sigma[1], rel=1e-12)


def test_afp_worked_examples():
    cands = manual_candidates([-1.0, -1.0 / 3.0, 0.2, 1.0], UNIFORM)
    result = afp_select(cands, LAM_01, 2)
    # plain row norms 2, sqrt(4/3), sqrt(1.12), 2: the 0-3 tie goes to 0,
    # then candidate 3 has the largest residual
    assert result.pivot_order == (0, 3)
    np.testing.assert_allclose(
        result.objective_trace, [2.0, 2.0 * math.sqrt(3.0)], rtol=1e-13
    )
    assert result.space == "P"

    other = manual_candidates([-1.0, 0.0, 0.5, 1.0], UNIFORM)
    assert afp_select(other, LAM_01, 2).pivot_order == (0, 3)


def test_global_oracle_finds_level_set_pair():
    cands = manual_candidates([-1.0, -1.0 / 3.0, 0.2, 1.0], UNIFORM)
    by_det = global_select_oracle(cands, LAM_01, 2, "Q", "det")
    assert by_det.pivot_order == (1, 3)
    assert by_det.det_modulus == pytest.approx(1.0, abs=1e-13)
    by_cond = global_select_oracle(cands, LAM_01, 2, "Q", "cond")
    assert by_cond.pivot_order == (1, 3)
    assert by_cond.condition_number == pytest.approx(1.0, abs=1e-13)


def test_greedy_reference_cond_objective():
    cands = manual_candidates([-1.0 / 3.0, 1.0, 0.5, -0.8], UNIFORM)
    result = greedy_select_reference(cands, LAM_01, 2, "Q", "cond")
    # singletons all tie at condition number 1; the level-set partner of
    # -1/3 is the only second point that keeps it there
    assert result.pivot_order == (0, 1)
    np.testing.assert_allclose(result.objective_trace, [1.0, 1.0], rtol=1e-12)


@pytest.mark.parametrize("family", [UNIFORM, GAUSSIAN])
@pytest.mark.parametrize("n", range(2, 9))
def test_cfp_captures_level_sets(family, n):
    """With a full level set among the candidates, greedy selection takes
    exactly those points and lands on determinant modulus 1 and condition
    number 1."""
    table = recurrence_coefficients(family, n)
    pts = level_set(table, n, 0.123456)
    rng = np.random.default_rng(40 + n)
    filler = (
        rng.uniform(-1.0, 1.0, 6)
        if family.kind == "uniform"
        else rng.normal(0.0, math.sqrt(0.5), 6)
    )
    cands = manual_candidates(np.concatenate([pts, filler]), family)
    result = cfp_select(cands, total_degree(1, n - 1), n)
    assert result.pivot_order == tuple(range(n))
    assert result.det_modulus == pytest.approx(1.0, abs=1e-8)
    assert result.condition_number == pytest.approx(1.0, abs=1e-8)


def test_qr_path_matches_greedy_reference():
    rng = np.random.default_rng(101)
    for trial in range(40):
        d = int(rng.integers(1, 3))
        k = int(rng.integers(1, 5))
        lam = total_degree(d, k)
        n_lam = int(rng.integers(1, len(lam) + 1))
        prefix = MultiIndexSet(d, tuple(lam.indices)[:n_lam])
        density = UNIFORM if rng.random() < 0.5 else GAUSSIAN
        m_total = int(rng.integers(10, 31)) * 2
        cands = candidate_set(density, d, m_total, max(1, k), trial)
        m_points = int(rng.integers(1, len(prefix) + 1))
        for select, space in ((cfp_select, "Q"), (afp_select, "P")):
            got = select(cands, prefix, m_points)
            ref = greedy_select_reference(cands, prefix, m_points, space, "det")
            assert got.pivot_order == ref.pivot_order
            np.testing.assert_allclose(
                got.objective_trace, ref.objective_trace, rtol=1e-9
            )


def _explicit_residual_greedy(v, m_points):
    """Greedy pivots that keep every residual row explicitly and recompute
    every squared norm from them at every step.

    Returns the pivots and, per step, the relative gap between the best
    squared residual and the runner-up.
    """
    r = v.copy()
    chosen, gaps = [], []
    for _ in range(m_points):
        sq = np.einsum("ij,ij->i", r, r)
        sq[chosen] = -np.inf
        best = float(np.max(sq))
        j = int(np.argmax(sq >= best - 2e-12 * best))
        gaps.append(1.0 - float(np.partition(sq, -2)[-2]) / best)
        chosen.append(j)
        q = r[j] / math.sqrt(sq[j])
        r -= np.outer(r @ q, q)
    return chosen, gaps


def _distinct_rows(candidates, index_set, space):
    _, first = np.unique(candidates.points, axis=0, return_index=True)
    unique = np.sort(first)
    basis = ProductBasis.for_density(candidates.densities, index_set)
    return unique, eval_rows(basis, candidates.points[unique], space)


@pytest.mark.parametrize(
    "density,dimension,degree", [(UNIFORM, 2, 12), (GAUSSIAN, 2, 10)]
)
@pytest.mark.parametrize("select,space", [(cfp_select, "Q"), (afp_select, "P")])
def test_selection_matches_explicit_residual_greedy_at_study_scale(
    density, dimension, degree, select, space
):
    lam = total_degree(dimension, degree)
    cands = candidate_set(density, dimension, 10_000, degree, 3)
    got = select(cands, lam, len(lam))
    unique, v = _distinct_rows(cands, lam, space)
    chosen, _ = _explicit_residual_greedy(v, len(lam))
    assert got.pivot_order == tuple(int(i) for i in unique[chosen])
    expected = [
        np.prod(np.linalg.svd(v[chosen[: k + 1]], compute_uv=False))
        for k in range(len(lam))
    ]
    np.testing.assert_allclose(got.objective_trace, expected, rtol=1e-8)


@st.composite
def selection_problems(draw):
    dimension = draw(st.integers(1, 2))
    degree = draw(st.integers(1, 5 if dimension == 2 else 12))
    density = draw(st.sampled_from([UNIFORM, GAUSSIAN]))
    lam = total_degree(dimension, degree)
    m_total = 2 * draw(st.integers(len(lam), 150))
    seed = draw(st.integers(0, 10**6))
    cands = candidate_set(density, dimension, m_total, degree, seed)
    return cands, lam, draw(st.integers(1, len(lam)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(selection_problems())
def test_cfp_trace_is_nonincreasing_and_hadamard_bounded(problem):
    cands, lam, m_points = problem
    trace = cfp_select(cands, lam, m_points).objective_trace
    assert np.all(trace <= 1.0 + 1e-12)
    assert np.all(np.diff(trace) <= 1e-12 * trace[:-1])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(selection_problems(), st.integers(0, 10**6), st.sampled_from(["Q", "P"]))
def test_selected_set_is_invariant_under_candidate_permutation(problem, seed, space):
    """Away from ties the chosen set depends only on the candidates, not
    their order. Candidate 0 stays first, so the unit-norm tie at the first
    Q step goes to the same point under both orders."""
    cands, lam, m_points = problem
    _, v = _distinct_rows(cands, lam, space)
    gaps = _explicit_residual_greedy(v, m_points)[1]
    assume(min(gaps[1:] if space == "Q" else gaps, default=1.0) > 1e-6)
    perm = np.r_[0, 1 + np.random.default_rng(seed).permutation(len(cands) - 1)]
    shuffled = manual_candidates(cands.points[perm], cands.densities[0])
    select = cfp_select if space == "Q" else afp_select
    original = select(cands, lam, m_points).points
    permuted = select(shuffled, lam, m_points).points
    assert sorted(map(tuple, original)) == sorted(map(tuple, permuted))


def test_cfp_trace_is_nonincreasing_and_bounded():
    cands = candidate_set(UNIFORM, 2, 600, 5, 2)
    result = cfp_select(cands, total_degree(2, 5), 21)
    trace = result.objective_trace
    assert np.all(trace <= 1.0 + 1e-12)
    assert np.all(np.diff(trace) <= 1e-12)
    assert result.det_modulus == pytest.approx(trace[-1], rel=1e-10)


def test_selection_is_bitwise_deterministic():
    cands = candidate_set(GAUSSIAN, 2, 400, 4, 3)
    lam = total_degree(2, 4)
    a = cfp_select(cands, lam, 15)
    b = cfp_select(cands, lam, 15)
    assert a.pivot_order == b.pivot_order
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
    assert a.det_modulus == b.det_modulus


def test_duplicate_candidates_are_ignored():
    cands = manual_candidates([-0.5, 0.3, -0.5, 0.9], UNIFORM)
    result = cfp_select(cands, total_degree(1, 2), 3)
    assert set(result.pivot_order) <= {0, 1, 3}
    assert len(set(result.pivot_order)) == 3


def _first_occurrences(points):
    _, first = np.unique(points, axis=0, return_index=True)
    return np.sort(first)


_DRAW = candidate_set(UNIFORM, 2, 10_000, 15, seed=9).points
_DEDUP_CASES = {
    "later-duplicates": [[0.1, 0.2], [0.3, 0.4], [0.1, 0.2], [0.5, 0.6], [0.3, 0.4]],
    "signed-zeros": [[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [-0.0, -0.0]],
    "one-row": [[0.7, -0.2]],
    "all-equal": [[0.25, -0.5]] * 6,
    "d1": [[0.3], [-0.1], [0.3], [-0.0], [0.0], [-0.1], [0.9]],
    "d4": np.vstack([np.eye(4), np.eye(4)[::-1], -np.eye(4)]),
    "draw-10k-plus-50-copies": np.vstack([_DRAW, _DRAW[:50]]),
}


@pytest.mark.parametrize("case", _DEDUP_CASES)
def test_unique_rows_match_np_unique(case):
    points = np.asarray(_DEDUP_CASES[case], dtype=float)
    np.testing.assert_array_equal(_unique_rows(points), _first_occurrences(points))


def test_rank_deficient_candidates_raise():
    t = np.linspace(-1.0, 1.0, 7)
    cands = manual_candidates(np.column_stack([t, t]), UNIFORM)
    with pytest.raises(RankDeficientError, match="rank 2"):
        cfp_select(cands, total_degree(2, 1), 3)


def test_selection_validation():
    cands = manual_candidates([-0.5, 0.3, 0.9, -0.1], UNIFORM)
    with pytest.raises(ValueError, match="cannot select"):
        cfp_select(cands, LAM_01, 3)
    with pytest.raises(ValueError, match="only 4 distinct"):
        cfp_select(cands, total_degree(1, 9), 5)
    with pytest.raises(ValueError):
        cfp_select(cands, LAM_01, 0)
    with pytest.raises(ValueError):
        cfp_select(cands, total_degree(2, 1), 2)


def test_reference_and_oracle_guards():
    big = candidate_set(UNIFORM, 1, 2000, 3, 0)
    with pytest.raises(ValueError, match="capped"):
        greedy_select_reference(big, LAM_01, 2, "Q", "det")
    with pytest.raises(ValueError, match="objective"):
        greedy_select_reference(candidate_set(UNIFORM, 1, 10, 1, 0), LAM_01, 2, "Q", "norm")
    wide = candidate_set(UNIFORM, 1, 60, 8, 0)
    with pytest.raises(ValueError, match="oracle guard"):
        global_select_oracle(wide, total_degree(1, 9), 8, "Q", "det")


def test_design_result_to_json():
    cands = candidate_set(UNIFORM, 2, 100, 3, 1)
    result = cfp_select(cands, total_degree(2, 3), 10)
    blob = result.to_json()
    assert sorted(blob) == [
        "condition_number",
        "config",
        "det_modulus",
        "objective_trace",
        "pivot_order",
        "points",
        "seed",
        "space",
    ]
    assert blob["space"] == "Q"
    assert blob["seed"] == 1
    assert len(blob["points"]) == 10
    assert blob["config"]["m_candidates"] == 100


def test_result_arrays_read_only():
    cands = candidate_set(UNIFORM, 1, 20, 2, 0)
    result = cfp_select(cands, total_degree(1, 2), 3)
    with pytest.raises(ValueError):
        result.points[0, 0] = 9.9
    with pytest.raises(ValueError):
        result.objective_trace[0] = 9.9


def test_gaussian_example_against_subset_oracle():
    cands = manual_candidates([-1.2, -0.4, 0.1, 0.7, 1.5], GAUSSIAN)
    lam = total_degree(1, 2)
    greedy = cfp_select(cands, lam, 3)
    exhaustive = global_select_oracle(cands, lam, 3, "Q", "det")
    # greedy is not guaranteed optimal, but it cannot beat the oracle
    assert greedy.det_modulus <= exhaustive.det_modulus + 1e-12
    basis = ProductBasis.for_density(GAUSSIAN, lam)
    recomputed = condition_number(eval_rows(basis, exhaustive.points, "Q"))
    assert exhaustive.condition_number == pytest.approx(recomputed, rel=1e-12)
