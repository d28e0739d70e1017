"""The paper's claims at study scale, beyond the d = 2 sweeps.

CFP is "impartial to compactness of the domain": at 1-D degree 120 its
unit-norm rows are near-orthogonal for the Gaussian as for the uniform
density, while AFP's plain Gaussian rows span so many orders of magnitude
that the relative rank floor sees rank 18. It beats random and AFP designs
"when the domain is both low and high dimensional": d = 6 and d = 10
hyperbolic-cross sweeps. In 1-D it "almost always" finds an optimal design:
CFP's first pick is candidate 0 (every weighted square starts at 1), the
greedy then follows the level set of r_N through that point, and kappa is
near 1 whenever that level set lies inside the draw, or when the candidate
of largest Christoffel sum comes first.
"""

import math

import numpy as np
import pytest

from cfpdesign import (
    CandidateSet,
    DensitySpec,
    ProductBasis,
    RankDeficientError,
    StudyConfig,
    afp_select,
    candidate_set,
    cfp_select,
    christoffel,
    enrich,
    level_set,
    r_ratio,
    recurrence_coefficients,
    study_condition,
    total_degree,
)

FAMILIES = ["uniform", "gaussian"]


def _degree_120(family):
    """Candidates and enriched index set of `design --dimension 1 --degree
    120` at its defaults: 10k candidates, seed 0, M = 128."""
    lam = enrich(total_degree(1, 120), 7)
    return candidate_set(DensitySpec(family), 1, 10_000, lam.max_degree, 0), lam


@pytest.mark.parametrize("family", FAMILIES)
def test_cfp_is_well_conditioned_on_bounded_and_unbounded_domains(family):
    cands, lam = _degree_120(family)
    assert cfp_select(cands, lam, 128).condition_number <= 1.5


def test_afp_loses_rank_on_the_unbounded_domain():
    cands, lam = _degree_120("gaussian")
    with pytest.raises(
        RankDeficientError, match="^candidate rows reached rank 18 before 128 pivots$"
    ):
        afp_select(cands, lam, 128)


@pytest.mark.parametrize("dimension", [6, 10])
def test_cfp_beats_afp_and_mc_in_high_dimension(dimension):
    config = StudyConfig(dimension=dimension, rule="HC", degrees=(8,), trials=3)
    means = {
        r["method"]: r["value"] for r in study_condition(config) if r["stat"] == "mean"
    }
    assert means["CFP"] < min(means["AFP"], means["MC"])


def _first(cands: CandidateSet, i: int) -> CandidateSet:
    """The candidates with candidate i moved to index 0, the others in order."""
    order = np.r_[i, np.delete(np.arange(len(cands)), i)]
    points = cands.points[order]
    return CandidateSet(points, cands.densities, cands.degree_hint, cands.seed)


@pytest.mark.parametrize("n", [10, 20, 40])
@pytest.mark.parametrize("family", FAMILIES)
def test_one_dimensional_cfp_is_optimal_along_its_first_level_set(family, n):
    rho = DensitySpec(family)
    lam = total_degree(1, n - 1)
    table = recurrence_coefficients(rho, n)
    basis = ProductBasis.for_density(rho, lam)
    in_range = 0
    for seed in range(10):
        cands = candidate_set(rho, 1, 20_000, n - 1, seed)
        y = cands.points[:, 0]
        if not math.isinf(r_ratio(table, n, float(y[0]))):
            nodes = level_set(table, n, float(y[0]))
            if y.min() <= nodes[0] and nodes[-1] <= y.max():
                in_range += 1
                assert cfp_select(cands, lam, n).condition_number - 1.0 <= 0.05, seed
        outermost = _first(cands, int(np.argmax(christoffel(basis, cands.points))))
        assert cfp_select(outermost, lam, n).condition_number - 1.0 <= 0.05, seed
    assert in_range >= 1
