"""Tensor basis, Christoffel function, and matrix diagnostic tests.

Orthonormality is cross-checked under tensor Gauss quadrature, the unit-row
and Hadamard properties on random point sets, and the determinant's
invariance under rotating the basis, all with hand examples pinned first.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cfpdesign import (
    DensitySpec,
    MultiIndexSet,
    ProductBasis,
    candidate_set,
    christoffel,
    condition_number,
    det_modulus,
    eval_phi_sequence,
    eval_rows,
    gauss_rule,
    hyperbolic_cross,
    level_set,
    recurrence_coefficients,
    sample_density,
    solve_weighted,
    total_degree,
)
from cfpdesign.basis import (
    RECURRENCE_CHUNK_POINTS,
    ROW_BLOCK_VALUES,
    eval_row,
    vandermonde,
)
from oracles import christoffel_exact

UNIFORM = DensitySpec("uniform")
GAUSSIAN = DensitySpec("gaussian")

LAM_01 = MultiIndexSet(1, ((0,), (1,)))
LEVEL_SET_2 = np.array([[-1.0 / 3.0], [1.0]])


def test_eval_row_hand_values():
    ones = ProductBasis.for_density(UNIFORM, MultiIndexSet(2, ((0, 0),)))
    np.testing.assert_array_equal(eval_row(ones, [0.3, -0.9], "P"), [1.0])

    basis = ProductBasis.for_density(UNIFORM, LAM_01)
    # psi = (1, sqrt(3)), K = 4, so the unit row is (1/2, sqrt(3)/2)
    np.testing.assert_allclose(
        eval_row(basis, [1.0], "Q"), [0.5, math.sqrt(3.0) / 2.0], rtol=1e-14
    )

    plane = ProductBasis.for_density(UNIFORM, total_degree(2, 1))
    np.testing.assert_allclose(eval_row(plane, [0.0, 0.0], "P"), [1.0, 0.0, 0.0], atol=1e-15)


def test_product_basis_needs_one_table_per_coordinate():
    table = recurrence_coefficients(UNIFORM, 1)
    message = "^one recurrence table per coordinate required$"
    with pytest.raises(ValueError, match=message):
        ProductBasis((table,), total_degree(2, 1))


def test_eval_rows_requires_known_space_and_dimension():
    basis = ProductBasis.for_density(UNIFORM, LAM_01)
    with pytest.raises(ValueError):
        eval_rows(basis, [[0.5]], "R")
    with pytest.raises(ValueError):
        eval_rows(basis, [[0.5, 0.5]], "P")


def test_q_rows_reject_overflowed_or_vanishing_christoffel_sums():
    # at degree 400 the Hermite sum at y = 30 overflows; unchecked, the row
    # came out as zeros and the selection quietly got worse
    hermite = ProductBasis.for_density(GAUSSIAN, total_degree(1, 400))
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match=r"point 1 \[30.0\].*basis degree 400"
    ):
        eval_rows(hermite, [[0.0], [30.0]], "Q")
    # phi_1 vanishes at 0, so a basis without the constant has K(0) = 0
    no_constant = ProductBasis.for_density(UNIFORM, MultiIndexSet(1, ((1,),)))
    with pytest.raises(ValueError, match="point 0"):
        eval_rows(no_constant, [[0.0]], "Q")
    assert eval_rows(no_constant, [[0.0]], "P")[0, 0] == 0.0


def _rows_in_coordinate_order(basis, pts, space):
    """Rows built from ones, one coordinate factor at a time, then Q-scaled."""
    idx = np.asarray(basis.index_set.indices)
    psi = np.ones((len(pts), len(idx)))
    for j, table in enumerate(basis.tables):
        seq = eval_phi_sequence(table, int(idx[:, j].max()), pts[:, j])
        psi *= seq[idx[:, j], :].T
    if space == "P":
        return psi
    k = np.sum(psi * psi, axis=1)
    return psi / np.sqrt(k)[:, None]


@pytest.mark.parametrize(
    "density, index_set",
    [
        (GAUSSIAN, total_degree(1, 30)),
        (UNIFORM, total_degree(2, 15)),
        (GAUSSIAN, hyperbolic_cross(4, 8)),
    ],
    ids=["gaussian-d1-TD30", "uniform-d2-TD15", "gaussian-d4-HC8"],
)
def test_eval_rows_are_c_ordered_and_bit_equal_at_study_size(density, index_set):
    # an F-ordered array of equal values sums each row in another order, so
    # the Q rows, and with them the selected points, change in the last bits
    basis = ProductBasis.for_density(density, index_set)
    degree = index_set.max_degree
    pts = candidate_set(density, index_set.dimension, 10_000, degree, seed=5).points
    for space in ("P", "Q"):
        rows = eval_rows(basis, pts, space)
        assert rows.flags.c_contiguous
        expected = _rows_in_coordinate_order(basis, pts, space)
        assert rows.tobytes() == expected.tobytes()


def test_eval_rows_bit_equal_across_block_boundaries():
    for density, index_set in (
        (UNIFORM, total_degree(2, 15)),
        (GAUSSIAN, hyperbolic_cross(4, 8)),
    ):
        basis = ProductBasis.for_density(density, index_set)
        rows_per_block = ROW_BLOCK_VALUES // len(index_set)
        degree = index_set.max_degree
        pts = candidate_set(density, index_set.dimension, 10_000, degree, seed=6).points
        chunk = RECURRENCE_CHUNK_POINTS
        for m in (1, rows_per_block - 1, rows_per_block + 1, chunk - 1, chunk + 1, 10_000):
            for space in ("P", "Q"):
                expected = _rows_in_coordinate_order(basis, pts[:m], space)
                assert eval_rows(basis, pts[:m], space).tobytes() == expected.tobytes()
            psi = _rows_in_coordinate_order(basis, pts[:m], "P")
            assert christoffel(basis, pts[:m]).tobytes() == np.sum(psi * psi, axis=1).tobytes()


@pytest.mark.parametrize("density", [UNIFORM, GAUSSIAN], ids=["uniform", "gaussian"])
@pytest.mark.parametrize("dimension, degree", [(1, 30), (2, 12), (4, 5)])
def test_rows_evaluated_at_a_subset_equal_the_full_rows(density, dimension, degree):
    # a point's rows do not depend on the other points evaluated with it, so
    # the rows of any subset are bit-equal to the matching full rows
    basis = ProductBasis.for_density(density, total_degree(dimension, degree))
    pts = candidate_set(density, dimension, 10_000, degree, seed=7).points
    rows_per_block = ROW_BLOCK_VALUES // len(basis.index_set)
    idx = np.random.default_rng(dimension).choice(len(pts), 150, replace=False)
    idx = np.r_[idx, 0, rows_per_block - 1, rows_per_block, len(pts) - 1]
    assert len(np.unique(idx // rows_per_block)) > 3
    for space in ("P", "Q"):
        full = eval_rows(basis, pts, space)
        assert eval_rows(basis, pts[idx], space).tobytes() == full[idx].tobytes()


def test_christoffel_failure_names_its_point_past_the_first_block():
    hermite = ProductBasis.for_density(GAUSSIAN, total_degree(1, 400))
    pts = np.zeros((10_000, 1))
    pts[5000] = 30.0
    pts[7000] = 40.0
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match=r"point 5000 \[30.0\]"
    ):
        eval_rows(hermite, pts, "Q")


def test_overflowing_christoffel_sum_is_named_without_a_warning(capfd):
    """The Hermite rows of degree 400 at y = 30 are finite (up to 6.2e189),
    but their squared norm overflows: Q rows and the weighted solve name the
    point from the one sums check, christoffel returns inf, and no numpy
    warning is raised or printed on the way."""
    hermite = ProductBasis.for_density(GAUSSIAN, total_degree(1, 400))
    pts = np.zeros((10_000, 1))
    pts[5000] = 30.0
    message = r"Christoffel sum inf at point 5000 \[30.0\] .*\(basis degree 400\)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            eval_rows(hermite, pts, "Q")
        with pytest.raises(ValueError, match=message):
            solve_weighted(hermite, pts, np.zeros(len(pts)))
        k = christoffel(hermite, pts)
    assert k[5000] == math.inf and np.isfinite(np.delete(k, 5000)).all()
    assert capfd.readouterr().err == ""


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("space", ["P", "Q"])
def test_eval_rows_allocates_no_second_output_sized_array(space):
    # beside the output only one chunk's recurrence sequences, 8 c sum(deg_j
    # + 1) bytes for c = RECURRENCE_CHUNK_POINTS, and one row block of
    # temporaries (256 KB); sequences of the whole batch peak at 1.26, 1.54,
    # 2.13 and 2.01 times the output, above every bound
    for density, index_set, bound in (
        # two (16, c) sequences, 1.0 MB beside 10.9 MB of rows: 1.12
        (UNIFORM, total_degree(2, 15), 1.15),
        # four (9, c) Hermite sequences, 1.2 MB beside 6.2 MB: 1.25
        (GAUSSIAN, hyperbolic_cross(4, 8), 1.3),
        # narrow rows, 0.8 MB: the sequences and the block are 0.33 each: 1.66
        (UNIFORM, total_degree(2, 3), 1.7),
        # one (301, c) Hermite sequence, 9.9 MB beside 24.1 MB: 1.42
        (GAUSSIAN, total_degree(1, 300), 1.45),
    ):
        basis = ProductBasis.for_density(density, index_set)
        degree = index_set.max_degree
        pts = candidate_set(density, index_set.dimension, 10_000, degree, seed=5).points
        rows, peak = _traced_peak(lambda: eval_rows(basis, pts, space))
        assert peak <= bound * rows.nbytes


def test_christoffel_keeps_no_row_array():
    basis = ProductBasis.for_density(UNIFORM, total_degree(2, 15))
    pts = candidate_set(UNIFORM, 2, 10_000, 15, seed=5).points
    _, peak = _traced_peak(lambda: christoffel(basis, pts))
    assert peak < 0.5 * len(pts) * len(basis.index_set) * 8


def test_christoffel_hand_values():
    ones = ProductBasis.for_density(GAUSSIAN, MultiIndexSet(1, ((0,),)))
    assert christoffel(ones, [0.77]) == 1.0

    basis = ProductBasis.for_density(UNIFORM, LAM_01)
    assert christoffel(basis, [1.0]) == pytest.approx(4.0, rel=1e-14)
    assert christoffel(basis, [-1.0 / 3.0]) == pytest.approx(4.0 / 3.0, rel=1e-14)
    batch = christoffel(basis, [[1.0], [-1.0 / 3.0]])
    np.testing.assert_allclose(batch, [4.0, 4.0 / 3.0], rtol=1e-14)


@pytest.mark.parametrize(
    "density,dimension,degree,rule",
    [
        (UNIFORM, 1, 60, total_degree),
        (GAUSSIAN, 1, 60, total_degree),
        (UNIFORM, 2, 10, total_degree),
        (GAUSSIAN, 2, 10, total_degree),
        (GAUSSIAN, 4, 8, hyperbolic_cross),
    ],
)
def test_christoffel_matches_exact_rational_sum(density, dimension, degree, rule):
    """At 20 candidates, half of them from the asymptotic ensemble where K
    is largest, the float sum keeps all but the last bits of the exact one
    (worst seen 3.5e-15)."""
    lam = rule(dimension, degree)
    cands = candidate_set(density, dimension, 20, degree, 0)
    got = christoffel(ProductBasis.for_density(density, lam), cands.points)
    exact = [float(christoffel_exact(density.kind, lam, y)) for y in cands.points]
    np.testing.assert_allclose(got, exact, rtol=1e-14)


def test_christoffel_sum_at_hermite_degree_368_overflows_exactly_too():
    """`design --family gaussian --dimension 1 --degree 350` stops at
    candidate 5216 of its 10k draws, where the Christoffel sum of basis
    degree 368 is inf. The exact sum is beyond the double range too
    (log K = 727.85 > log DBL_MAX = 709.78), so inf is its rounding and not
    an error of the float recurrence."""
    y = candidate_set(GAUSSIAN, 1, 10_000, 368, 0).points[5216]
    assert y[0] == -26.972091215997615
    lam = total_degree(1, 368)
    exact = christoffel_exact(GAUSSIAN.kind, lam, y)
    log_k = math.log(exact.numerator) - math.log(exact.denominator)
    assert log_k == pytest.approx(727.85, abs=0.01)
    assert log_k > math.log(np.finfo(float).max)
    assert christoffel(ProductBasis.for_density(GAUSSIAN, lam), y) == math.inf


@pytest.mark.parametrize(
    "density, n, start, lowest, log_k",
    [
        (UNIFORM, 69, -0.38, -265.74247835270575, 853.04),
        (GAUSSIAN, 82, 0.74, -359.62951269253284, 731.43),
    ],
    ids=["uniform-69", "gaussian-82"],
)
def test_christoffel_sum_at_verify_oned_overflow_points_is_beyond_doubles(
    density, n, start, lowest, log_k
):
    """`verify oned` stops at the lowest node of the level set of order n
    through `start` (n_max 69 uniform, 100 Gaussian), where the Christoffel
    sum of basis degree n - 1 is inf. The exact sum is beyond the double
    range too, so inf is its rounding and not an error of the float
    recurrence."""
    table = recurrence_coefficients(density, 2 * n - 2)  # verify_oned's table
    y = level_set(table, n, start)[0]
    assert y == lowest
    lam = total_degree(1, n - 1)
    exact = christoffel_exact(density.kind, lam, [y])
    got_log_k = math.log(exact.numerator) - math.log(exact.denominator)
    assert got_log_k == pytest.approx(log_k, abs=0.01)
    assert got_log_k > math.log(np.finfo(float).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert christoffel(ProductBasis.for_density(density, lam), [y]) == math.inf


def test_christoffel_at_least_one_with_constant_in_span():
    rng = np.random.default_rng(3)
    basis = ProductBasis.for_density(UNIFORM, total_degree(3, 2))
    pts = rng.uniform(-1.0, 1.0, (50, 3))
    k = christoffel(basis, pts)
    assert np.all(k >= 1.0 - 1e-14)


def test_vandermonde_hand_values():
    ones = ProductBasis.for_density(UNIFORM, MultiIndexSet(1, ((0,),)))
    column = eval_rows(ones, [[0.1], [0.5], [-0.2]], "P")
    np.testing.assert_array_equal(column, np.ones((3, 1)))

    basis = ProductBasis.for_density(UNIFORM, LAM_01)
    matrix = eval_rows(basis, LEVEL_SET_2, "Q")
    expected = np.array(
        [[math.sqrt(3.0) / 2.0, -0.5], [0.5, math.sqrt(3.0) / 2.0]]
    )
    np.testing.assert_allclose(matrix, expected, rtol=1e-13, atol=1e-15)
    # the rows are orthonormal, hence an orthogonal matrix
    np.testing.assert_allclose(
        matrix @ matrix.T, np.eye(2), atol=1e-14
    )
    # the alias perfbench/tracer.py wraps by name
    np.testing.assert_array_equal(vandermonde(basis, LEVEL_SET_2, "Q"), matrix)


def test_q_rows_unit_norm_everywhere():
    rng = np.random.default_rng(5)
    for density, lam in (
        (UNIFORM, total_degree(2, 4)),
        (GAUSSIAN, total_degree(3, 2)),
    ):
        basis = ProductBasis.for_density(density, lam)
        pts = np.column_stack(
            [sample_density(density, rng, 40) for _ in range(lam.dimension)]
        )
        rows = eval_rows(basis, pts, "Q")
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-13)


def test_det_modulus_hand_values():
    assert det_modulus(np.eye(2)) == pytest.approx(1.0, rel=1e-15)
    assert det_modulus(np.array([[3.0, 4.0]])) == pytest.approx(5.0, rel=1e-15)
    basis = ProductBasis.for_density(UNIFORM, LAM_01)
    assert det_modulus(eval_rows(basis, LEVEL_SET_2, "Q")) == pytest.approx(
        1.0, rel=1e-14
    )
    with pytest.raises(ValueError):
        det_modulus(np.ones((3, 2)))
    with pytest.raises(ValueError, match=r"^matrix has shape \(3,\), need \(m, N\)$"):
        det_modulus(np.ones(3))


def test_det_modulus_wide_matrix():
    # sqrt(det(V V^T)) for a 1 x 3 row is its norm
    assert det_modulus(np.array([[2.0, 3.0, 6.0]])) == pytest.approx(7.0, rel=1e-15)


def test_det_modulus_out_of_float_range():
    big = np.diag([1e200, 1e200, 1e200])
    spread = np.diag([1e200, 1e200, 1e-150])  # running product overflows
    sigma = np.array([3.0, 2.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert det_modulus(big) == math.inf
        assert det_modulus(spread) == pytest.approx(1e250, rel=1e-12)
        assert det_modulus(np.diag([2.0, 0.0])) == 0.0
        # in range, the value is np.prod's, bit for bit
        assert det_modulus(np.diag(sigma)) == float(np.prod(sigma))


def test_condition_number_hand_values():
    assert condition_number(np.eye(3)) == pytest.approx(1.0, rel=1e-14)
    assert condition_number(np.diag([2.0, 1.0])) == pytest.approx(2.0, rel=1e-14)
    basis = ProductBasis.for_density(UNIFORM, LAM_01)
    assert condition_number(eval_rows(basis, LEVEL_SET_2, "Q")) == pytest.approx(
        1.0, rel=1e-12
    )
    assert condition_number(np.array([[1.0, 0.0], [1.0, 0.0]])) == math.inf
    with pytest.raises(ValueError, match=r"^matrix has shape \(3,\), need \(m, N\)$"):
        condition_number(np.ones(3))


def test_empty_matrix_diagnostics():
    # no rows: det_modulus is the empty product, and the matrix is singular
    assert det_modulus(np.empty((0, 3))) == 1.0
    assert condition_number(np.empty((0, 3))) == math.inf


@pytest.mark.parametrize("diagnostic", [det_modulus, condition_number])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_matrices_raise_naming_the_entry(diagnostic, bad, capfd):
    matrix = np.eye(3)
    matrix[1, 2] = matrix[2, 0] = bad  # the first in row order is named
    message = rf"^matrix entry \(1, 2\) is {bad}, not finite$"
    with pytest.raises(ValueError, match=message):
        diagnostic(matrix)
    # the SVD never runs, so LAPACK prints no DLASCL complaint
    assert capfd.readouterr().err == ""


def test_hadamard_bound_on_random_square_q_matrices():
    rng = np.random.default_rng(17)
    cases = (
        (UNIFORM, total_degree(1, 5)),
        (UNIFORM, total_degree(2, 3)),
        (GAUSSIAN, total_degree(2, 2)),
        (GAUSSIAN, total_degree(3, 2)),
    )
    for density, lam in cases:
        basis = ProductBasis.for_density(density, lam)
        for _ in range(50):
            pts = np.column_stack(
                [
                    sample_density(density, rng, len(lam))
                    for _ in range(lam.dimension)
                ]
            )
            assert det_modulus(eval_rows(basis, pts, "Q")) <= 1.0 + 1e-12


def test_det_modulus_invariant_under_basis_rotation():
    """Rotating the orthonormal basis multiplies V by an orthogonal factor,
    which cannot change the determinant modulus."""
    rng = np.random.default_rng(23)
    lam = total_degree(2, 3)
    basis = ProductBasis.for_density(UNIFORM, lam)
    n = len(lam)
    for m in (n, n - 3):
        pts = rng.uniform(-1.0, 1.0, (m, 2))
        v = eval_rows(basis, pts, "P")
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        assert det_modulus(v @ u) == pytest.approx(det_modulus(v), rel=1e-10)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_orthonormality_under_tensor_gauss(dimension):
    lam = total_degree(dimension, 3)
    basis = ProductBasis.for_density(UNIFORM, lam)
    table = recurrence_coefficients(UNIFORM, 4)
    nodes, weights = gauss_rule(table, 4)  # exact through degree 7
    grids = np.meshgrid(*([nodes] * dimension), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    w = np.ones(len(pts))
    for axis in range(dimension):
        w *= np.meshgrid(*([weights] * dimension), indexing="ij")[axis].ravel()
    rows = eval_rows(basis, pts, "P")
    gram = rows.T @ (rows * w[:, None])
    np.testing.assert_allclose(gram, np.eye(len(lam)), atol=1e-10)


def test_gaussian_christoffel_rotation_invariant():
    # iid gaussian coordinates and a total-degree space: K only sees |y|
    rng = np.random.default_rng(29)
    basis = ProductBasis.for_density(GAUSSIAN, total_degree(2, 4))
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    pts = rng.normal(0.0, 0.7, (20, 2))
    np.testing.assert_allclose(
        christoffel(basis, pts @ u.T), christoffel(basis, pts), rtol=1e-11
    )


def test_product_basis_validation():
    lam = total_degree(2, 3)
    short = recurrence_coefficients(UNIFORM, 2)
    with pytest.raises(ValueError):
        ProductBasis(tables=(short, short), index_set=lam)
    with pytest.raises(ValueError):
        ProductBasis.for_density((UNIFORM,), lam)
    mixed = ProductBasis.for_density((UNIFORM, GAUSSIAN), lam)
    assert mixed.densities == (UNIFORM, GAUSSIAN)
    # constant-only sets still get usable degree-1 tables
    ones = ProductBasis.for_density(UNIFORM, MultiIndexSet(2, ((0, 0),)))
    assert all(t.n_max == 1 for t in ones.tables)
