"""Surrogate fitting tests.

Coefficient recovery is the oracle here: fitting a function that already
lies in the span must return its exact coefficients in the orthonormal
basis, for both the weighted and the plain solver, on overdetermined and
square systems alike.
"""

import numpy as np
import pytest

from cfpdesign import (
    DensitySpec,
    MultiIndexSet,
    ProductBasis,
    RankDeficientError,
    Surrogate,
    candidate_set,
    cfp_select,
    christoffel,
    enrich,
    eval_rows,
    eval_surrogate,
    solve_unweighted,
    solve_weighted,
    total_degree,
    validation_error,
)

UNIFORM = DensitySpec("uniform")
GAUSSIAN = DensitySpec("gaussian")


def _design_points(density, lam, m_points, seed):
    # oversampled designs select in an enriched space, derived here on purpose
    space = lam if m_points <= len(lam) else enrich(lam, m_points - len(lam))
    cands = candidate_set(density, lam.dimension, 800, max(1, lam.max_degree), seed)
    return cfp_select(cands, space, m_points).points


def test_constant_function_hits_first_coefficient():
    lam = total_degree(2, 3)
    basis = ProductBasis.for_density(UNIFORM, lam)
    pts = _design_points(UNIFORM, lam, 15, 0)
    fit = solve_weighted(basis, pts, np.ones(len(pts)))
    expected = np.zeros(len(lam))
    expected[0] = 1.0
    np.testing.assert_allclose(fit.coefficients, expected, atol=1e-12)


def test_single_basis_function_recovery():
    lam = total_degree(2, 2)
    basis = ProductBasis.for_density(UNIFORM, lam)
    pts = _design_points(UNIFORM, lam, 9, 1)
    target = 3.0 * eval_rows(basis, pts, "P")[:, 2]
    fit = solve_weighted(basis, pts, target)
    expected = np.zeros(len(lam))
    expected[2] = 3.0
    np.testing.assert_allclose(fit.coefficients, expected, atol=1e-10)


@pytest.mark.parametrize("solver", [solve_weighted, solve_unweighted])
@pytest.mark.parametrize("density", [UNIFORM, GAUSSIAN])
def test_random_coefficient_recovery(solver, density):
    rng = np.random.default_rng(13)
    lam = total_degree(2, 4)
    basis = ProductBasis.for_density(density, lam)
    coeff = rng.standard_normal(len(lam))
    pts = _design_points(density, lam, 20, 2)
    values = eval_rows(basis, pts, "P") @ coeff
    fit = solver(basis, pts, values)
    np.testing.assert_allclose(fit.coefficients, coeff, rtol=1e-9, atol=1e-11)


def test_square_interpolation_on_level_set():
    lam = MultiIndexSet(1, ((0,), (1,)))
    basis = ProductBasis.for_density(UNIFORM, lam)
    pts = np.array([[-1.0 / 3.0], [1.0]])
    values = np.array([0.7, -0.4])
    fit = solve_weighted(basis, pts, values)
    np.testing.assert_allclose(eval_surrogate(fit, pts), values, rtol=1e-13)


def test_weighted_residual_orthogonality():
    """At the optimum the scaled residual is orthogonal to every column of
    the unit-row design matrix."""
    rng = np.random.default_rng(21)
    lam = total_degree(2, 3)
    basis = ProductBasis.for_density(UNIFORM, lam)
    pts = rng.uniform(-1.0, 1.0, (40, 2))
    values = np.exp(-np.sum(pts * pts, axis=1))
    fit = solve_weighted(basis, pts, values)
    q = eval_rows(basis, pts, "Q")
    scaled = values / np.sqrt(christoffel(basis, pts))
    residual = q @ fit.coefficients - scaled
    assert np.max(np.abs(q.T @ residual)) <= 1e-10 * np.linalg.norm(scaled)


def test_eval_surrogate_hand_values():
    lam = MultiIndexSet(1, ((0,), (1,)))
    basis = ProductBasis.for_density(UNIFORM, lam)
    zero = Surrogate(basis=basis, coefficients=np.zeros(2))
    assert eval_surrogate(zero, [0.3]) == 0.0
    const = Surrogate(basis=basis, coefficients=np.array([1.0, 0.0]))
    assert eval_surrogate(const, [-0.8]) == pytest.approx(1.0, rel=1e-15)
    slope = Surrogate(basis=basis, coefficients=np.array([0.0, 1.0]))
    # phi_1(0.5) = sqrt(3) / 2
    assert eval_surrogate(slope, [0.5]) == pytest.approx(
        0.8660254037844386, rel=1e-15
    )
    batch = eval_surrogate(slope, [[0.5], [-0.5]])
    np.testing.assert_allclose(batch, [0.8660254037844386, -0.8660254037844386])


def test_validation_error_on_representable_target():
    lam = total_degree(2, 3)
    basis = ProductBasis.for_density(UNIFORM, lam)
    pts = _design_points(UNIFORM, lam, 15, 3)
    coeff = np.linspace(-1.0, 1.0, len(lam))
    values = eval_rows(basis, pts, "P") @ coeff
    fit = solve_weighted(basis, pts, values)

    def target(z):
        return eval_rows(basis, z, "P") @ coeff

    assert validation_error(fit, target, 500, seed=0) < 1e-10


def test_validation_error_reproducible_and_seed_sensitive():
    lam = total_degree(1, 2)
    basis = ProductBasis.for_density(GAUSSIAN, lam)
    fit = Surrogate(basis=basis, coefficients=np.array([1.0, 0.0, 0.0]))

    def target(z):
        return np.sin(z[:, 0])

    a = validation_error(fit, target, 200, seed=5)
    b = validation_error(fit, target, 200, seed=5)
    c = validation_error(fit, target, 200, seed=6)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        validation_error(fit, target, 0, seed=5)


def test_underdetermined_fit_raises():
    lam = total_degree(2, 3)
    basis = ProductBasis.for_density(UNIFORM, lam)
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError, match="need at least 10 samples, got 4"):
        solve_weighted(basis, pts, np.zeros(4))


def test_rank_deficient_fit_raises():
    lam = total_degree(1, 2)
    basis = ProductBasis.for_density(UNIFORM, lam)
    pts = np.array([[0.2], [0.2], [0.7], [0.7]])
    with pytest.raises(RankDeficientError, match="singular value"):
        solve_unweighted(basis, pts, np.ones(4))


def test_surrogate_json_round_trip():
    lam = total_degree(2, 2)
    basis = ProductBasis.for_density((UNIFORM, GAUSSIAN), lam)
    fit = Surrogate(basis=basis, coefficients=np.arange(6.0))
    back = Surrogate.from_json(fit.to_json())
    np.testing.assert_array_equal(back.coefficients, fit.coefficients)
    assert back.basis.index_set.indices == basis.index_set.indices
    assert back.basis.densities == (UNIFORM, GAUSSIAN)
    pt = [[0.4, -0.2]]
    assert eval_surrogate(back, pt)[0] == pytest.approx(
        eval_surrogate(fit, pt)[0], rel=1e-15
    )


def test_surrogate_validates_coefficient_count():
    lam = total_degree(1, 2)
    basis = ProductBasis.for_density(UNIFORM, lam)
    with pytest.raises(ValueError):
        Surrogate(basis=basis, coefficients=np.zeros(2))
    coefficients = np.zeros(3)
    fit = Surrogate(basis=basis, coefficients=coefficients)
    with pytest.raises(ValueError):
        fit.coefficients[0] = 1.0
    # the surrogate freezes a copy, not the caller's array
    assert coefficients.flags.writeable
    coefficients[0] = 1.0
    assert fit.coefficients[0] == 0.0


def test_weighted_and_plain_agree_in_exact_arithmetic_case():
    # on a square well-conditioned system both solvers interpolate, so the
    # coefficients agree regardless of the weights
    lam = total_degree(1, 3)
    basis = ProductBasis.for_density(UNIFORM, lam)
    pts = np.array([[-0.9], [-0.3], [0.4], [0.95]])
    values = np.array([0.1, -0.7, 1.3, 0.8])
    a = solve_weighted(basis, pts, values)
    b = solve_unweighted(basis, pts, values)
    np.testing.assert_allclose(a.coefficients, b.coefficients, rtol=1e-10)
