"""Candidate ensembles and greedy selection tests.

The lazy pivoted Cholesky selection path is checked four ways: hand-worked
4-candidate examples with closed-form rows, exact pivot agreement with the
literal greedy reference on random instances, pivot agreement with an
in-test explicit-residual greedy at the 2000- and 10k-candidate sizes the
studies use (there the loop picks in blocks from 512-row shortlists; a
built case has a row outside the shortlist overtake it, clustered candidates
test the cancellation recompute and the trace's digits, and a
rank-deficient curve tests the rank floor under several shortlist sizes),
and the brute-force subset oracle on cases small enough to enumerate.
CFP's first step is an exact tie that needs no tie window, both methods
select on one evaluation of plain rows and weigh them by the Christoffel
sums that christoffel returns, only the weighted paths sum K, overflowing
Christoffel sums are named, and pivots and traces do not depend on the
shortlist or row-block sizes, at W = 495 (uniform d=10 HC 8) too, where
the pivots also match LAPACK's column-pivoted QR. Repeated candidates are
checked against selection on the distinct ones.
Hypothesis properties cover the Hadamard-bounded trace and invariance under
candidate permutations. Ensemble draws are checked against their target
laws by KS statistics frozen for fixed seeds, plus an in-test rejection
sampler for the ball law.
"""

import io
import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg.lapack import dgeqp3

from cfpdesign import (
    CandidateSet,
    DesignResult,
    DensitySpec,
    MultiIndexSet,
    ProductBasis,
    RankDeficientError,
    afp_select,
    candidate_set,
    cfp_select,
    christoffel,
    condition_number,
    enrich,
    eval_rows,
    eval_surrogate,
    hyperbolic_cross,
    level_set,
    recurrence_coefficients,
    solve_unweighted,
    solve_weighted,
    total_degree,
)
from cfpdesign import basis as basis_module
from cfpdesign import design
from cfpdesign.design import (
    SHORTLIST_ROWS,
    _greedy_pivot_qr,
    global_select_oracle,
    greedy_select_reference,
)
from cfpdesign.studies import (
    _METHOD_ID,
    _STREAM_CANDIDATES,
    StudyConfig,
    _degree_setup,
    _derive_seed,
    _select,
)
from oracles import abs_det

UNIFORM = DensitySpec("uniform")
GAUSSIAN = DensitySpec("gaussian")
LAM_01 = MultiIndexSet(1, ((0,), (1,)))


def manual_candidates(points, density):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return CandidateSet(
        points=pts,
        densities=(density,) * pts.shape[1],
        degree_hint=1,
        seed=0,
    )


# ---------------------------------------------------------------- ensembles


def test_candidate_set_split():
    seed = 3
    c = candidate_set(UNIFORM, 2, 1000, 4, seed)
    assert len(c) == 1000
    assert c.dimension == 2
    # each half replays from its own sub-seed: iid coordinates one column
    # at a time, then Chebyshev draws cos(pi U)
    rng_iid = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    iid = np.column_stack([rng_iid.uniform(-1.0, 1.0, 500) for _ in range(2)])
    np.testing.assert_array_equal(c.points[:500], iid)
    rng_asym = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    np.testing.assert_array_equal(
        c.points[500:], np.cos(np.pi * rng_asym.random((500, 2)))
    )
    g = candidate_set(GAUSSIAN, 3, 100, 4, seed)
    assert np.all(np.linalg.norm(g.points[50:], axis=1) <= math.sqrt(2.0 * 4))


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
    message = rf"^points entry \(2, 1\) is {bad}, not finite$"
    with pytest.raises(ValueError, match=message):
        manual_candidates(points, UNIFORM)


def test_candidate_points_read_only():
    c = candidate_set(UNIFORM, 1, 10, 1, 0)
    with pytest.raises(ValueError):
        c.points[0, 0] = 0.0
    points = np.array([[0.1], [0.7]])
    c = manual_candidates(points, UNIFORM)
    assert points.flags.writeable
    assert not c.points.flags.writeable
    points[0, 0] = 0.5
    assert c.points[0, 0] == 0.1


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
    by_det = global_select_oracle(cands, LAM_01, 2, "Q")
    assert by_det.pivot_order == (1, 3)
    assert by_det.det_modulus == pytest.approx(1.0, abs=1e-13)
    assert by_det.condition_number == pytest.approx(1.0, abs=1e-13)


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
            ref = greedy_select_reference(cands, prefix, m_points, space)
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
        j = int(np.argmax(sq >= best - 2.0 * design.TIE_RTOL * best))
        gaps.append(1.0 - float(np.partition(sq, -2)[-2]) / best)
        chosen.append(j)
        q = r[j] / math.sqrt(sq[j])
        r -= np.outer(r @ q, q)
    return chosen, gaps


def _rows(candidates, index_set, space):
    basis = ProductBasis.for_density(candidates.densities, index_set)
    return eval_rows(basis, candidates.points, space)


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
    v = _rows(cands, lam, space)
    chosen, _ = _explicit_residual_greedy(v, len(lam))
    assert got.pivot_order == tuple(chosen)
    expected = [
        np.prod(np.linalg.svd(v[chosen[: k + 1]], compute_uv=False))
        for k in range(len(lam))
    ]
    np.testing.assert_allclose(got.objective_trace, expected, rtol=1e-8)


def _clustered_candidates():
    """42 clusters of 238 near-duplicate points each, 1e-3 wide."""
    rng = np.random.default_rng(1)
    centers = rng.uniform(-1.0, 1.0, 42)
    pts = (centers[:, None] + 1e-3 * rng.uniform(-1.0, 1.0, (42, 238))).ravel()
    return manual_candidates(pts, UNIFORM)


@pytest.mark.parametrize("select,space", [(afp_select, "P"), (cfp_select, "Q")])
def test_clustered_candidates_match_explicit_residual_greedy(select, space):
    """42 clusters of near-duplicate candidates, 1e-3 wide, for 60 Legendre
    rows: once each cluster has a pick, the residuals left are small
    differences of large downdated squares, so the later picks rest on the
    cancellation recompute. P rows keep every step's gap above 1e-9; Q rows
    of one cluster nearly tie (gaps down to 1e-12), so only P pivots are
    compared. The trace multiplies in each pick's Gram-Schmidt residual,
    not its downdated square, so its last entry keeps 8 digits of the
    exact determinant of the picked rows."""
    cands = _clustered_candidates()
    lam = total_degree(1, 59)
    assert len(cands) > SHORTLIST_ROWS
    got = select(cands, lam, len(lam))
    v = _rows(cands, lam, space)
    if space == "P":
        chosen, gaps = _explicit_residual_greedy(v, len(lam))
        assert min(gaps) > 1e-9
        assert got.pivot_order == tuple(chosen)
    rows = v[list(got.pivot_order)]
    expected = [
        np.prod(np.linalg.svd(rows[: k + 1], compute_uv=False))
        for k in range(len(lam))
    ]
    np.testing.assert_allclose(got.objective_trace, expected, rtol=1e-6)
    det = abs_det(rows)
    assert abs(Fraction(got.objective_trace[-1]) / det - 1) < 1e-8


@pytest.mark.parametrize(
    "density,dimension,degree,rule,m_total",
    [
        pytest.param(
            UNIFORM, 2, 12, total_degree, 10_000, id="density0-2-12-total_degree"
        ),
        pytest.param(
            GAUSSIAN, 4, 8, hyperbolic_cross, 10_000, id="density1-4-8-hyperbolic_cross"
        ),
        pytest.param(
            UNIFORM, 2, 3, total_degree, 10_000, id="density0-2-3-total_degree-10000"
        ),
        # the elliptic study's shape
        pytest.param(
            UNIFORM, 2, 8, total_degree, 2_000, id="density0-2-8-total_degree-2000"
        ),
    ],
)
@pytest.mark.parametrize("select,space", [(cfp_select, "Q"), (afp_select, "P")])
def test_shortlist_blocks_match_explicit_residual_greedy(
    density, dimension, degree, rule, m_total, select, space
):
    """Rows more numerous than a shortlist: every block picks from its
    shortlist, and the first Q step ties at unit norm across all rows, so
    the window pick must be in it."""
    lam = rule(dimension, degree)
    cands = candidate_set(density, dimension, m_total, degree, 5)
    v = _rows(cands, lam, space)
    assert len(v) > SHORTLIST_ROWS
    got = select(cands, lam, len(lam))
    chosen, _ = _explicit_residual_greedy(v, len(lam))
    assert got.pivot_order == tuple(chosen)


def test_row_outside_the_shortlist_overtakes_it():
    """1200 rows nearly along e_0, norms about 2, and 2800 random rows of
    norm 1: after the first pick the shortlist, all of it near e_0, holds
    only residuals of about 1e-3, and the next pick lies outside it."""
    rng = np.random.default_rng(4)
    v = rng.standard_normal((4000, 200))
    v /= np.linalg.norm(v, axis=1)[:, None]
    v[:1200] *= 1e-3
    v[:1200, 0] = 2.0 + rng.uniform(0.0, 0.1, 1200)
    expected, _ = _explicit_residual_greedy(v, 30)
    first_shortlist = np.argsort(np.einsum("ij,ij->i", v, v))[-SHORTLIST_ROWS:]
    assert expected[0] in first_shortlist and expected[1] not in first_shortlist
    sq, w = np.einsum("ij,ij->i", v, v), np.ones(len(v))
    pivots, _ = _greedy_pivot_qr(v, 30, sq, w)
    assert pivots.tolist() == expected


def test_shortlist_picked_out_starts_a_new_block(monkeypatch):
    """64 orthogonal rows of norm 2 and 536 random rows of norm 1, with a
    64-row shortlist: the first block picks every shortlist row while no
    other row comes near, and the next pick must come from a new block, not
    end the selection as rank deficient."""
    monkeypatch.setattr(design, "SHORTLIST_ROWS", 64)
    rng = np.random.default_rng(8)
    v = rng.standard_normal((600, 500))
    v /= np.linalg.norm(v, axis=1)[:, None]
    v[:64] = 2.0 * np.eye(500)[:64]
    expected, _ = _explicit_residual_greedy(v, 80)
    assert sorted(expected[:64]) == list(range(64))
    sq, w = np.einsum("ij,ij->i", v, v), np.ones(len(v))
    pivots, _ = _greedy_pivot_qr(v, 80, sq, w)
    assert pivots.tolist() == expected


def _study_space(config, degree):
    """The study's selection space and M at one degree, enriched as
    studies._select enriches it."""
    lam, m_points = _degree_setup(config, degree)
    lam_tilde = enrich(lam, m_points - len(lam)) if m_points > len(lam) else lam
    return lam_tilde, m_points


@pytest.mark.parametrize("method", ["CFP", "AFP"])
def test_selection_holds_little_beside_its_rows(method):
    """cond_sweep's peak cell, uniform d=2 TD 15 at 10k candidates (10.9 MiB
    of rows, W = M = 143). The largest array the pivot loop holds beside
    the rows is the shortlist copy, 0.56 MiB at 513 rows: the selection's
    tracemalloc peak is 1.62 (CFP) and 1.54 MiB (AFP) above the rows, and a
    1025-row copy (1.12 MiB) puts it at 2.20 and 2.12 MiB, above the bound."""
    config = StudyConfig()
    lam_tilde, m_points = _study_space(config, 15)
    seed = _derive_seed(0, _STREAM_CANDIDATES, _METHOD_ID[method], 15, 0)
    cands = candidate_set(UNIFORM, 2, 10_000, lam_tilde.max_degree, seed)
    select = cfp_select if method == "CFP" else afp_select
    tracemalloc.start()
    try:
        select(cands, lam_tilde, m_points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 8 * len(cands) * len(lam_tilde) <= 1.8 * 2**20


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


# shortlists of 1, 2, 3 and 16 rows split every drawn selection into many
# blocks, so the block end, the outside-row bound and the recompute of the
# outside rows all run; 512 is the default, one block for these sizes
SHORTLISTS = st.sampled_from([1, 2, 3, 16, 512])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(selection_problems(), SHORTLISTS)
def test_cfp_trace_is_nonincreasing_and_hadamard_bounded(problem, shortlist_rows):
    cands, lam, m_points = problem
    # monkeypatch is function-scoped: it is not undone between examples
    with mock.patch.object(design, "SHORTLIST_ROWS", shortlist_rows):
        trace = cfp_select(cands, lam, m_points).objective_trace
    assert np.all(trace <= 1.0 + 1e-12)
    assert np.all(np.diff(trace) <= 1e-12 * trace[:-1])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    selection_problems(),
    st.integers(0, 10**6),
    st.sampled_from(["Q", "P"]),
    SHORTLISTS,
)
def test_selected_set_is_invariant_under_candidate_permutation(
    problem, seed, space, shortlist_rows
):
    """Away from ties the chosen set depends only on the candidates, not
    their order, and its pivots are the explicit-residual greedy's.
    Candidate 0 stays first, so the unit-norm tie at the first Q step goes
    to the same point under both orders."""
    cands, lam, m_points = problem
    v = _rows(cands, lam, space)
    chosen, gaps = _explicit_residual_greedy(v, m_points)
    assume(min(gaps[1:] if space == "Q" else gaps, default=1.0) > 1e-6)
    perm = np.r_[0, 1 + np.random.default_rng(seed).permutation(len(cands) - 1)]
    shuffled = manual_candidates(cands.points[perm], cands.densities[0])
    select = cfp_select if space == "Q" else afp_select
    with mock.patch.object(design, "SHORTLIST_ROWS", shortlist_rows):
        original = select(cands, lam, m_points)
        permuted = select(shuffled, lam, m_points).points
    assert original.pivot_order == tuple(chosen)
    assert sorted(map(tuple, original.points)) == sorted(map(tuple, permuted))


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


_DRAW = candidate_set(UNIFORM, 2, 10_000, 15, seed=9).points
_X_ONLY = MultiIndexSet(2, ((0, 0), (1, 0), (2, 0)))
_Y_ONLY = MultiIndexSet(2, ((0, 0), (0, 1), (0, 2)))
_CONSTANT = MultiIndexSet(2, ((0, 0),))
# each case's index set is unisolvent on its distinct rows
_REPEAT_CASES = {
    # the distinct rows are collinear, along y = x + 0.1
    "later-duplicates": (
        [[0.1, 0.2], [0.3, 0.4], [0.1, 0.2], [0.5, 0.6], [0.3, 0.4]],
        _X_ONLY,
    ),
    "signed-zeros": (
        [[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [-0.0, -0.0]],
        total_degree(2, 1),
    ),
    "one-row": ([[0.7, -0.2]], _CONSTANT),
    "all-equal": ([[0.25, -0.5]] * 6, _CONSTANT),
    "d1": ([[0.3], [-0.1], [0.3], [-0.0], [0.0], [-0.1], [0.9]], total_degree(1, 3)),
    "d4": (np.vstack([np.eye(4), np.eye(4)[::-1], -np.eye(4)]), total_degree(4, 1)),
    # more rows than one 512-row shortlist, so the loop picks in blocks
    "draw-10k-plus-50-copies": (np.vstack([_DRAW, _DRAW[:50]]), total_degree(2, 10)),
    "interleaved-tie-group": (
        [[0.5, 1], [0.5, 2], [0.5, 1], [0.5, 3], [0.5, 2]],
        _Y_ONLY,
    ),
    # duplicates among rows that agree in column 0, and rows that agree
    # everywhere else but not in column 0 (0.0 and -0.0 among them);
    # column 1 is constant, so the index set leaves it out
    "d4-ties-in-column-0": (
        [
            [0.5, 0.1, 0.2, 0.3],
            [0.5, 0.1, 0.2, 0.4],
            [-0.2, 0.1, 0.2, 0.3],
            [0.5, 0.1, 0.2, 0.3],
            [0.5, 0.1, 0.9, 0.3],
            [0.5, 0.1, 0.2, 0.4],
            [-0.0, 0.1, 0.2, 0.3],
        ],
        MultiIndexSet(
            4, ((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        ),
    ),
    # the draw on a 0.01 grid: 1174 rows repeat, up to 9 times
    "draw-10k-rounded": (np.round(_DRAW, 2), total_degree(2, 10)),
}


@pytest.mark.parametrize("case", _REPEAT_CASES)
@pytest.mark.parametrize("select", [cfp_select, afp_select])
def test_repeated_candidates_resolve_to_first_occurrences(select, case):
    """Selecting among repeated candidates picks what selecting among the
    distinct ones picks, each pivot at the first occurrence of its row
    (-0.0 equal to 0.0), and never a second copy."""
    points, lam = _REPEAT_CASES[case]
    points = np.asarray(points, dtype=float)
    _, first = np.unique(points, axis=0, return_index=True)
    first = np.sort(first)
    m_points = len(lam)
    distinct = select(manual_candidates(points[first], UNIFORM), lam, m_points)
    got = select(manual_candidates(points, UNIFORM), lam, m_points)
    assert got.pivot_order == tuple(int(i) for i in first[list(distinct.pivot_order)])
    np.testing.assert_array_equal(got.objective_trace, distinct.objective_trace)


@pytest.mark.parametrize(
    "distinct,copies,degree",
    [([-0.5, 0.3, 0.9], 2, 4), (np.linspace(-0.9, 0.9, 30), 400, 39)],
    ids=["3-distinct-of-6", "30-distinct-of-12000"],
)
@pytest.mark.parametrize("select", [cfp_select, afp_select])
def test_too_few_distinct_candidates_raise(select, distinct, copies, degree):
    """Copies of picked rows have no residual, so the rank runs out at the
    distinct count; 400 copies of 30 points are more rows than one 512-row
    shortlist."""
    cands = manual_candidates(np.tile(distinct, copies), UNIFORM)
    lam = total_degree(1, degree)
    m_points = len(distinct) + 1
    with pytest.raises(
        RankDeficientError, match=f"rank {len(distinct)} before {m_points} pivots"
    ):
        select(cands, lam, m_points)


@pytest.mark.parametrize("space", ["Q", "P"])
def test_oracles_reject_rank_deficient_selections(space):
    """Three distinct points for four picks: any four candidates repeat a
    point, so every subset's determinant is rounding noise (about 1e-16),
    which the oracles must count as rank deficient, as the fast path does."""
    cands = manual_candidates([-0.5, 0.3, -0.5, 0.9, 0.3, 0.9], UNIFORM)
    lam = total_degree(1, 4)
    with pytest.raises(RankDeficientError, match="rank deficient at step 3"):
        greedy_select_reference(cands, lam, 4, space)
    with pytest.raises(RankDeficientError, match="no subset of full rank"):
        global_select_oracle(cands, lam, 4, space)
    select = cfp_select if space == "Q" else afp_select
    with pytest.raises(RankDeficientError, match="rank 3 before 4 pivots"):
        select(cands, lam, 4)


def test_rank_deficient_candidates_raise():
    t = np.linspace(-1.0, 1.0, 7)
    cands = manual_candidates(np.column_stack([t, t]), UNIFORM)
    with pytest.raises(RankDeficientError, match="rank 2"):
        cfp_select(cands, total_degree(2, 1), 3)


def _address_space(monkeypatch, limit, mapped_pages):
    """Patch the soft address-space limit to limit bytes and the mapped size
    that /proc/self/statm reports to mapped_pages."""
    def statm(path):
        assert path == "/proc/self/statm"
        return io.StringIO(f"{mapped_pages} 0 0 0 0 0 0\n")

    monkeypatch.setattr(design.resource, "getrlimit", lambda which: (limit, -1))
    monkeypatch.setattr(design, "open", statm, raising=False)


@pytest.mark.skipif(design.resource is None, reason="no address-space limit")
def test_memory_check_without_proc_counts_the_whole_limit(monkeypatch):
    """Where /proc/self/statm cannot be opened, nothing counts as mapped."""
    def no_proc(path):
        raise FileNotFoundError(path)

    monkeypatch.setattr(design.resource, "getrlimit", lambda which: (2 * 10**9, -1))
    monkeypatch.setattr(design, "open", no_proc, raising=False)
    design._check_memory(2 * 10**9)
    message = r"^the selection needs 2\.00 GB, more than the 2\.00 GB left "
    with pytest.raises(ValueError, match=message):
        design._check_memory(2 * 10**9 + 1)


@pytest.mark.skipif(design.resource is None, reason="no address-space limit")
@pytest.mark.parametrize("select", [cfp_select, afp_select])
def test_selection_checks_memory_before_any_row(select, monkeypatch):
    """Rows, directions and shortlist take 8 W (m + M + min(m, 512) + 1)
    bytes, one chunk of the rows' recurrence sequences 8 min(m, 4096)
    sum_j (deg_j + 1) more, and the BLAS buffer and row-block temporaries
    64 MB more. They must fit in the limit less the mapped size; one byte
    short, no row is evaluated."""
    cases = [
        # d=2 TD 4, M = W = 15, m = 200: sequences of degrees 4 and 4
        (candidate_set(UNIFORM, 2, 200, 4, seed=0), total_degree(2, 4),
         8 * 15 * (200 + 15 + 200 + 1) + 8 * 200 * (5 + 5) + 64 * 2**20),
        # 1-D degree 40, M = W = 41, m = 5000: one chunk of the sequence
        (candidate_set(UNIFORM, 1, 5000, 40, seed=0), total_degree(1, 40),
         8 * 41 * (5000 + 41 + 512 + 1) + 8 * 4096 * 41 + 64 * 2**20),
    ]
    page = design.resource.getpagesize()
    for cands, lam, need in cases:
        _address_space(monkeypatch, need + 3 * page, 3)
        assert len(select(cands, lam, len(lam)).points) == len(lam)
    monkeypatch.setattr(
        basis_module, "_rows", lambda *args: pytest.fail("rows evaluated")
    )
    for cands, lam, need in cases:
        _address_space(monkeypatch, need + 3 * page - 1, 3)
        gb = f"{need / 1e9:.2f}".replace(".", r"\.")
        message = (
            rf"^the selection needs {gb} GB, more than the {gb} GB left under "
            r"the process's address-space limit; use fewer candidates "
            r"\(--candidates\) or a lower degree \(--degree\)$"
        )
        with pytest.raises(ValueError, match=message):
            select(cands, lam, len(lam))


@pytest.mark.parametrize("shortlist_rows", [256, 1024, 2048])
@pytest.mark.parametrize("select", [cfp_select, afp_select])
def test_rank_deficiency_names_the_rank(select, shortlist_rows, monkeypatch):
    """On the curve y = x^3 the 28 TD 6 functions span the 18 powers t^e,
    e in 0..16 and 18, so the rank runs out after 18 picks. The 19th pick's
    downdated square can sit just above the rank floor while its true
    residual is rounding noise: the verdict must not depend on how the
    shortlist blocks fall."""
    monkeypatch.setattr(design, "SHORTLIST_ROWS", shortlist_rows)
    cands = _curve_candidates()
    lam = total_degree(2, 6)
    assert len(cands) > shortlist_rows
    with pytest.raises(RankDeficientError, match="rank 18 before 28 pivots"):
        select(cands, lam, len(lam))


def _curve_candidates():
    """10k points on the curve y = x^3."""
    t = np.random.default_rng(0).uniform(-1.0, 1.0, 10_000)
    return manual_candidates(np.column_stack([t, t**3]), UNIFORM)


def _study_trial0(config, degree, method):
    """The study's trial-0 selection at one degree, from its candidate seed."""
    lam, m_points = _degree_setup(config, degree)
    seed = _derive_seed(0, _STREAM_CANDIDATES, _METHOD_ID[method], degree, 0)
    return _select(config, method, lam, m_points, seed)


def _study_td15(density, method):
    """The study's trial-0 TD 15 selection (10k candidates, M = 143)."""
    return _study_trial0(StudyConfig(family=density.kind), 15, method)


@pytest.mark.parametrize("density", [UNIFORM, GAUSSIAN], ids=["uniform", "gaussian"])
def test_cfp_first_step_is_an_exact_tie(density, monkeypatch):
    """CFP's weighted squares all start at exactly 1, so candidate 0 is the
    first pick by the lowest-index rule alone, and no later pick of the
    study's TD 15 selection rests on the tie window either. The squares of
    unit-norm rows differ in their last bits: without the window their
    first pick is candidate 7241 (uniform) or 1914 (Gaussian)."""
    default = _study_td15(density, "CFP").pivot_order
    monkeypatch.setattr(design, "TIE_RTOL", 0.0)
    assert default[0] == 0
    assert _study_td15(density, "CFP").pivot_order == default


@pytest.mark.parametrize("select", [cfp_select, afp_select])
def test_overflowing_christoffel_sum_names_the_point(select, capfd):
    """`design --family gaussian --dimension 1 --degree 350` selects with
    Hermite rows of basis degree 368 among 10k draws. The rows are finite
    (up to 4.4e158), but the squared row norm at the outermost draw
    overflows: both methods name that point and the degree, before any
    numpy warning and not as a rank deficiency."""
    cands = candidate_set(GAUSSIAN, 1, 10_000, 368, 0)
    lam = total_degree(1, 368)
    message = r"Christoffel sum inf at point 5216 \[-26\.97\d*\] .*\(basis degree 368\)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            select(cands, lam, 369)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("select,space", [(cfp_select, "Q"), (afp_select, "P")])
def test_selection_evaluates_plain_rows_once(select, space, monkeypatch):
    """Both methods select on the plain rows of every candidate, read
    through eval_rows as the oracles read theirs and evaluated once by the
    row kernel; the diagnostics read the picked points' rows from them, and
    no row is evaluated again."""
    calls = []
    real_rows = basis_module._rows

    def kernel_spy(basis, points):
        calls.append((len(points), "rows"))
        return real_rows(basis, points)

    def spy(basis, points, row_space):
        calls.append((len(points), row_space))
        return eval_rows(basis, points, row_space)

    monkeypatch.setattr(basis_module, "_rows", kernel_spy)
    monkeypatch.setattr(design, "eval_rows", spy)
    lam = total_degree(2, 8)
    assert select(candidate_set(UNIFORM, 2, 2000, 8, 0), lam, len(lam)).space == space
    assert calls == [(2000, "P"), (2000, "rows")]


def test_only_the_weighted_paths_sum_christoffel(monkeypatch):
    """basis._sums is the one sum of K, and only the paths that weight by K
    call it: plain rows, surrogate evaluation and the plain solve never do.
    Each selection sums all its candidates once; CFP's diagnostics divide
    the picked rows by those sums."""
    calls = []
    real_sums = basis_module._sums

    def sums_spy(rows):
        calls.append(len(rows))
        return real_sums(rows)

    monkeypatch.setattr(basis_module, "_sums", sums_spy)
    monkeypatch.setattr(design, "_sums", sums_spy)
    lam = total_degree(2, 8)
    basis = ProductBasis.for_density(UNIFORM, lam)
    cands = candidate_set(UNIFORM, 2, 2000, 8, 0)
    pts = cands.points
    values = np.exp(-np.sum(pts, axis=1))
    eval_rows(basis, pts, "P")
    eval_surrogate(solve_unweighted(basis, pts, values), pts)
    assert calls == []
    eval_rows(basis, pts, "Q")
    solve_weighted(basis, pts, values)
    assert calls == [2000, 2000]
    calls.clear()
    afp_select(cands, lam, len(lam))
    assert calls == [2000]
    calls.clear()
    cfp_select(cands, lam, len(lam))
    assert calls == [2000]


class _Captured(Exception):
    pass


@pytest.mark.parametrize("method", ["CFP", "AFP"])
def test_selection_weights_are_the_christoffel_sums(method, monkeypatch):
    """The pivot loop reads the Christoffel sums of the row kernel, the ones
    christoffel returns: CFP's weights are 1/K bit for bit, AFP's initial
    squares are K. An einsum over the same rows adds in another order and
    differs in the last bit at 5886 (CFP draw) and 5942 (AFP draw) of
    these 10k candidates."""
    config = StudyConfig(family="uniform")
    lam_tilde, m_points = _study_space(config, 15)
    seed = _derive_seed(0, _STREAM_CANDIDATES, _METHOD_ID[method], 15, 0)
    cands = candidate_set(UNIFORM, 2, 10_000, lam_tilde.max_degree, seed)
    k = christoffel(ProductBasis.for_density(UNIFORM, lam_tilde), cands.points)
    seen = {}

    def capture(v, m, sq, w):
        seen.update(sq=sq.copy(), w=w.copy())
        raise _Captured

    monkeypatch.setattr(design, "_greedy_pivot_qr", capture)
    select = cfp_select if method == "CFP" else afp_select
    with pytest.raises(_Captured):
        select(cands, lam_tilde, m_points)
    if method == "CFP":
        assert seen["w"].tobytes() == (1.0 / k).tobytes()
        assert np.all(seen["sq"] == 1.0)
    else:
        assert seen["sq"].tobytes() == k.tobytes()
        assert np.all(seen["w"] == 1.0)


def _tuning_slice_outcomes():
    """Pivots and trace bytes, or the error message, of each selection in a
    slice that reaches every path of the pivot loop."""
    runs = [
        (_study_td15, (density, method))
        for density in (UNIFORM, GAUSSIAN)
        for method in ("CFP", "AFP")
    ]
    cases = [
        (_clustered_candidates(), total_degree(1, 59), 60),
        (manual_candidates(np.round(_DRAW, 2), UNIFORM), total_degree(2, 10), 66),
        (_curve_candidates(), total_degree(2, 6), 28),
    ]
    runs += [(select, case) for select in (cfp_select, afp_select) for case in cases]
    outcomes = []
    for run, args in runs:
        try:
            result = run(*args)
        except RankDeficientError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((result.pivot_order, result.objective_trace.tobytes()))
    return outcomes


@pytest.fixture(scope="module")
def default_tuning_outcomes():
    return _tuning_slice_outcomes()


@pytest.mark.parametrize("block_values", [2**10, 2**15, 2**21])
@pytest.mark.parametrize("shortlist_rows", [1, 2, 1024])
def test_selection_does_not_depend_on_tuning_constants(
    shortlist_rows, block_values, default_tuning_outcomes, monkeypatch
):
    """The shortlist size and the row-block budget set only how the work is
    cut up: pivots and traces are bit-equal, and the rank-deficient curve
    gives the same message. One shortlist row ends a block after every pick
    or two."""
    monkeypatch.setattr(design, "SHORTLIST_ROWS", shortlist_rows)
    monkeypatch.setattr(basis_module, "ROW_BLOCK_VALUES", block_values)
    outcomes = _tuning_slice_outcomes()
    assert outcomes == default_tuning_outcomes
    assert outcomes[-1] == "candidate rows reached rank 18 before 28 pivots"


# uniform d=10 HC 8, 10k candidates: W = M = 495, wider than the d = 2
# studies. Blocks end 26 (CFP) and 15 (AFP) times before the last pick at
# the default 512 shortlist rows, 43 and 28 times at 128 rows, 21 and 11 at
# 1024, and 17 and 8 at 2048
W495 = StudyConfig(dimension=10, rule="HC")


@pytest.fixture(scope="module")
def w495_selections():
    return {method: _study_trial0(W495, 8, method) for method in ("CFP", "AFP")}


@pytest.mark.parametrize("method", ["CFP", "AFP"])
def test_w495_pivots_match_lapack_pivoted_qr(method, w495_selections):
    """LAPACK's column-pivoted QR (xGEQP3) on the transposed rows is the same
    greedy with no tie window. AFP agrees from step 0. CFP's step 0 is an
    exact tie at unit norm, so its first pick is projected out of every Q
    row, and xGEQP3 on the rest gives the remaining picks."""
    result = w495_selections[method]
    lam_tilde, _ = _study_space(W495, 8)
    cands = candidate_set(UNIFORM, 10, 10_000, lam_tilde.max_degree, result.seed)
    basis = ProductBasis.for_density(UNIFORM, lam_tilde)
    v = eval_rows(basis, cands.points, result.space)
    pivots = np.array(result.pivot_order)
    if method == "CFP":
        u = v[pivots[0]] / np.linalg.norm(v[pivots[0]])
        v -= np.outer(v @ u, u)
        v[pivots[0]] = 0.0
        pivots = pivots[1:]
    # v.T is the F-ordered view of the C-ordered rows: LAPACK copies nothing
    _, jpvt, _, _, info = dgeqp3(v.T)
    assert info == 0
    np.testing.assert_array_equal(jpvt[: len(pivots)] - 1, pivots)


@pytest.mark.parametrize("shortlist_rows", [128, 1024, 2048])
@pytest.mark.parametrize("method", ["CFP", "AFP"])
def test_w495_selection_does_not_depend_on_the_shortlist(
    method, shortlist_rows, w495_selections, monkeypatch
):
    monkeypatch.setattr(design, "SHORTLIST_ROWS", shortlist_rows)
    got = _study_trial0(W495, 8, method)
    expected = w495_selections[method]
    assert got.pivot_order == expected.pivot_order
    assert got.objective_trace.tobytes() == expected.objective_trace.tobytes()


def test_selection_validation():
    cands = manual_candidates([-0.5, 0.3, 0.9, -0.1], UNIFORM)
    with pytest.raises(ValueError, match="cannot select"):
        cfp_select(cands, LAM_01, 3)
    with pytest.raises(ValueError, match="only 4 candidates for 5 points"):
        cfp_select(cands, total_degree(1, 9), 5)
    with pytest.raises(ValueError):
        cfp_select(cands, LAM_01, 0)
    with pytest.raises(ValueError):
        cfp_select(cands, total_degree(2, 1), 2)


def test_reference_and_oracle_guards():
    big = candidate_set(UNIFORM, 1, 2000, 3, 0)
    with pytest.raises(ValueError, match="capped"):
        greedy_select_reference(big, LAM_01, 2, "Q")
    wide = candidate_set(UNIFORM, 1, 60, 8, 0)
    with pytest.raises(ValueError, match="oracle guard"):
        global_select_oracle(wide, total_degree(1, 9), 8, "Q")


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
    # numpy integers for the seed and degree hint write the same JSON
    wide = candidate_set(UNIFORM, 2, 100, np.int64(3), np.int64(1))
    blob_wide = cfp_select(wide, total_degree(2, 3), 10).to_json()
    assert json.dumps(blob_wide) == json.dumps(blob)


def test_result_arrays_read_only():
    cands = candidate_set(UNIFORM, 1, 20, 2, 0)
    result = cfp_select(cands, total_degree(1, 2), 3)
    with pytest.raises(ValueError):
        result.points[0, 0] = 9.9
    with pytest.raises(ValueError):
        result.objective_trace[0] = 9.9
    # the result freezes copies, not the caller's arrays and config
    points = np.array([[0.1], [0.7]])
    trace = np.array([1.0, 0.5])
    config = {"densities": ["uniform"]}
    result = DesignResult(points, (0, 1), trace, 0.5, 2.0, "Q", None, config)
    assert points.flags.writeable and trace.flags.writeable
    assert not result.points.flags.writeable
    assert not result.objective_trace.flags.writeable
    points[0, 0] = 0.5
    trace[0] = 9.9
    config["densities"].append("gaussian")
    config["m_points"] = 2
    assert result.points[0, 0] == 0.1 and result.objective_trace[0] == 1.0
    assert result.config == {"densities": ("uniform",)}
    assert result.to_json()["config"] == {"densities": ["uniform"]}


def test_result_config_read_only():
    """to_json builds fresh containers, so editing what it returns, at any
    depth, changes neither the result's config nor the next to_json."""
    cands = candidate_set(UNIFORM, 1, 20, 2, 0)
    result = cfp_select(cands, total_degree(1, 2), 3)
    config = dict(result.config)
    blob = result.to_json()
    before = json.dumps(blob)
    blob["config"]["version"] = "x"
    blob["config"]["densities"].append("gaussian")
    blob["points"][0][0] = 9.9
    blob["pivot_order"].append(7)
    blob["objective_trace"][0] = 9.9
    assert dict(result.config) == config
    assert json.dumps(result.to_json()) == before
    with pytest.raises(TypeError):
        result.config["version"] = "x"


def test_gaussian_example_against_subset_oracle():
    cands = manual_candidates([-1.2, -0.4, 0.1, 0.7, 1.5], GAUSSIAN)
    lam = total_degree(1, 2)
    greedy = cfp_select(cands, lam, 3)
    exhaustive = global_select_oracle(cands, lam, 3, "Q")
    # greedy is not guaranteed optimal, but it cannot beat the oracle
    assert greedy.det_modulus <= exhaustive.det_modulus + 1e-12
    basis = ProductBasis.for_density(GAUSSIAN, lam)
    recomputed = condition_number(eval_rows(basis, exhaustive.points, "Q"))
    assert exhaustive.condition_number == pytest.approx(recomputed, rel=1e-12)
