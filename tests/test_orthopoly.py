"""Orthonormal family tests.

The recurrence coefficients are checked against an independent oracle:
Gram-Schmidt on monomials in exact Fraction arithmetic, starting from the
closed-form moments of each density. Everything downstream (evaluation,
Gauss rules, level sets) is then checked against the oracle polynomials,
hand-computed examples, numpy's Gauss-Legendre and Gauss-Hermite rules, and
the eigensolve-free bisection route.
"""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from cfpdesign import (
    DensitySpec,
    RecurrenceTable,
    eval_phi,
    eval_phi_sequence,
    gauss_rule,
    level_set,
    quadrature_exactness_report,
    r_ratio,
    recurrence_coefficients,
    sample_density,
)
from cfpdesign.orthopoly import level_set_bisection

UNIFORM = DensitySpec("uniform")
GAUSSIAN = DensitySpec("gaussian")
FAMILIES = (UNIFORM, GAUSSIAN)

ORACLE_N_MAX = 8


def _exact_moments(kind: str, up_to: int) -> list[Fraction]:
    """Monomial moments of the density, exact.

    uniform on [-1, 1]: m_k = 1/(k+1) for even k;
    gaussian exp(-y^2)/sqrt(pi): m_{2j} = (2j-1)!! / 2^j = (2j)!/(4^j j!).
    """
    out = []
    for k in range(up_to + 1):
        if k % 2 == 1:
            out.append(Fraction(0))
        elif kind == "uniform":
            out.append(Fraction(1, k + 1))
        else:
            j = k // 2
            out.append(Fraction(math.factorial(2 * j), 4**j * math.factorial(j)))
    return out


def _inner(p, q, moments):
    # coefficient lists, lowest degree first
    total = Fraction(0)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            total += pi * qj * moments[i + j]
    return total


def _shift(p):  # multiply by y
    return [Fraction(0)] + list(p)


def _add(p, q):
    n = max(len(p), len(q))
    p = list(p) + [Fraction(0)] * (n - len(p))
    q = list(q) + [Fraction(0)] * (n - len(q))
    return [a + b for a, b in zip(p, q)]


def _scale(c, p):
    return [c * v for v in p]


def _oracle_recurrence(kind: str, n_max: int):
    """Monic three-term recurrence by exact Gram-Schmidt.

    Returns (a_0..a_{n_max}, b_1..b_{n_max}, monic pi_0..pi_{n_max}) as
    Fractions. pi_{k+1} = (y - a_k) pi_k - b_k pi_{k-1}.
    """
    moments = _exact_moments(kind, 2 * n_max + 2)
    pis = [[Fraction(1)]]
    norms = [Fraction(1)]
    alphas: list[Fraction] = []
    betas: list[Fraction] = []
    for k in range(n_max + 1):
        pk = pis[k]
        alphas.append(_inner(_shift(pk), pk, moments) / norms[k])
        if k < n_max:
            nxt = _add(_shift(pk), _scale(-alphas[k], pk))
            if k >= 1:
                nxt = _add(nxt, _scale(-betas[k - 1], pis[k - 1]))
            pis.append(nxt)
            norms.append(_inner(nxt, nxt, moments))
            betas.append(norms[k + 1] / norms[k])
    return alphas, betas, pis


def _oracle_phi(kind: str, n: int, y: Fraction, pis, betas) -> float:
    """Orthonormal phi_n at a rational point from the oracle polynomials."""
    value = sum(c * y**i for i, c in enumerate(pis[n]))
    norm_sq = Fraction(1)
    for b in betas[:n]:
        norm_sq *= b
    return float(value) / math.sqrt(float(norm_sq))


@pytest.mark.parametrize("density", FAMILIES, ids=lambda d: d.kind)
def test_recurrence_matches_exact_gram_schmidt(density):
    alphas, betas, _ = _oracle_recurrence(density.kind, ORACLE_N_MAX)
    table = recurrence_coefficients(density, ORACLE_N_MAX)
    # symmetric densities: diagonal terms vanish exactly, which is why the
    # table stores no a_n
    assert all(a == 0 for a in alphas)
    # both routes are single correctly-rounded divisions of small integers
    expected = np.array([float(b) for b in betas])
    np.testing.assert_array_equal(table.beta, expected)


def test_recurrence_hand_values():
    uni = recurrence_coefficients(UNIFORM, 3)
    assert uni.beta[0] == 1.0 / 3.0
    assert uni.beta[1] == 4.0 / 15.0
    gau = recurrence_coefficients(GAUSSIAN, 3)
    assert gau.beta[0] == 0.5
    assert gau.beta[2] == 1.5


def test_recurrence_validation():
    with pytest.raises(ValueError):
        recurrence_coefficients(UNIFORM, 0)
    with pytest.raises(ValueError):
        DensitySpec("lognormal")
    table = recurrence_coefficients(UNIFORM, 4)
    assert table.n_max == 4
    with pytest.raises(ValueError, match="positive"):
        RecurrenceTable(UNIFORM, np.array([0.5, -0.1]))
    with pytest.raises(ValueError, match="^beta entry 0 is nan, not finite$"):
        RecurrenceTable(UNIFORM, np.array([math.nan, 0.5]))
    with pytest.raises(ValueError, match="at least 1"):
        RecurrenceTable(UNIFORM, np.empty(0))
    with pytest.raises(ValueError, match=r"^beta has shape \(2, 2\), need \(n_max,\)$"):
        RecurrenceTable(UNIFORM, np.full((2, 2), 0.5))


@pytest.mark.parametrize("density", FAMILIES, ids=lambda d: d.kind)
def test_eval_phi_matches_oracle_polynomials(density):
    _, betas, pis = _oracle_recurrence(density.kind, ORACLE_N_MAX)
    table = recurrence_coefficients(density, ORACLE_N_MAX)
    for y in (Fraction(0), Fraction(1, 3), Fraction(-7, 8), Fraction(2), Fraction(-19, 16)):
        for n in range(ORACLE_N_MAX + 1):
            expected = _oracle_phi(density.kind, n, y, pis, betas)
            got = eval_phi(table, n, float(y))
            assert got == pytest.approx(expected, rel=1e-13, abs=1e-13)


def _general_recurrence(beta: np.ndarray, n: int, y) -> np.ndarray:
    """phi_0 .. phi_n from the general three-term recurrence, with an
    explicit a_k = 0 subtracted at every step."""
    alpha = np.zeros(n + 1)
    sqb = np.sqrt(beta)
    y = np.asarray(y, dtype=float)
    out = np.empty((n + 1,) + y.shape)
    out[0] = 1.0
    out[1] = (y - alpha[0]) / sqb[0]
    for k in range(1, n):
        out[k + 1] = ((y - alpha[k]) * out[k] - sqb[k - 1] * out[k - 1]) / sqb[k]
    return out


@pytest.mark.parametrize("density", FAMILIES, ids=lambda d: d.kind)
def test_eval_phi_sequence_bit_equals_general_recurrence(density):
    n = 60
    table = recurrence_coefficients(density, n)
    rng = np.random.default_rng(3)
    y = np.concatenate(([0.0, -0.0, 1.0, -1.0], rng.uniform(-2.5, 2.5, 40)))
    for point in (y, -0.0, 0.37):
        got = eval_phi_sequence(table, n, point)
        expected = _general_recurrence(table.beta, n, point)
        assert got.shape == expected.shape
        # tobytes also tells -0.0 from 0.0
        assert got.tobytes() == expected.tobytes()


def test_eval_phi_hand_values():
    table = recurrence_coefficients(UNIFORM, 2)
    assert eval_phi(table, 0, 0.7) == 1.0
    assert eval_phi(table, 1, 0.5) == pytest.approx(math.sqrt(3.0) * 0.5, rel=1e-15)
    # phi_2(y) = sqrt(5) (3 y^2 - 1) / 2
    assert eval_phi(table, 2, 1.0) == pytest.approx(math.sqrt(5.0), rel=1e-14)


def test_eval_phi_sequence_shapes_and_range():
    table = recurrence_coefficients(GAUSSIAN, 5)
    seq = eval_phi_sequence(table, 4, np.array([0.0, 1.0, -2.0]))
    assert seq.shape == (5, 3)
    assert np.all(seq[0] == 1.0)
    scalar = eval_phi_sequence(table, 4, 1.0)
    assert scalar.shape == (5,)
    np.testing.assert_allclose(scalar, seq[:, 1])
    with pytest.raises(ValueError):
        eval_phi_sequence(table, 6, 0.0)
    with pytest.raises(ValueError):
        eval_phi(table, -1, 0.0)


def test_gauss_rule_hand_values():
    uni = recurrence_coefficients(UNIFORM, 3)
    nodes, weights = gauss_rule(uni, 1)
    np.testing.assert_allclose(nodes, [0.0], atol=1e-15)
    np.testing.assert_allclose(weights, [1.0], rtol=1e-14)

    nodes, weights = gauss_rule(uni, 2)
    np.testing.assert_allclose(nodes, [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], rtol=1e-14)
    np.testing.assert_allclose(weights, [0.5, 0.5], rtol=1e-14)
    # cross-check the second moment: int y^2 / 2 dy = 1/3
    assert float(weights @ nodes**2) == pytest.approx(1.0 / 3.0, rel=1e-14)

    gau = recurrence_coefficients(GAUSSIAN, 3)
    nodes, weights = gauss_rule(gau, 2)
    np.testing.assert_allclose(nodes, [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], rtol=1e-14)
    np.testing.assert_allclose(weights, [0.5, 0.5], rtol=1e-14)
    with pytest.raises(ValueError, match=r"^order 5 outside tabulated range 1\.\.3$"):
        gauss_rule(uni, 5)


@pytest.mark.parametrize(
    ("density", "oracle", "mass"),
    [(UNIFORM, leggauss, 2.0), (GAUSSIAN, hermgauss, math.sqrt(math.pi))],
    ids=["uniform", "gaussian"],
)
def test_gauss_rule_matches_numpy_oracles(density, oracle, mass):
    """numpy's Legendre/Hermite rules integrate against dy and exp(-y^2) dy,
    so their weights carry the total mass 2 and sqrt(pi)."""
    table = recurrence_coefficients(density, 100)
    for n in range(1, 101):
        nodes, weights = gauss_rule(table, n)
        ref_nodes, ref_weights = oracle(n)
        ref_weights = ref_weights / mass
        assert np.all(
            np.abs(nodes - ref_nodes) <= 1e-12 * np.maximum(1.0, np.abs(ref_nodes))
        ), n
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-10, atol=0.0)


def test_gauss_rule_underflowed_weights_are_zero_without_a_warning():
    """At Gaussian n = 400 the Christoffel sum overflows at the 3 outermost
    nodes on each side, so their weights lie below 1 / DBL_MAX, under the
    smallest normal double; they come back as 0.0 with no numpy warning (the
    suite turns RuntimeWarnings into errors). Up to n = 300 no sum
    overflows, and the weights keep the bits of the plain formula."""
    table = recurrence_coefficients(GAUSSIAN, 400)
    _, weights = gauss_rule(table, 400)
    assert np.all(weights >= 0.0)
    np.testing.assert_array_equal(np.flatnonzero(weights == 0.0), [0, 1, 2, 397, 398, 399])
    assert abs(math.fsum(weights) - 1.0) <= 1e-12
    for density in FAMILIES:
        table = recurrence_coefficients(density, 300)
        for n in (150, 300):
            nodes, weights = gauss_rule(table, n)
            seq = eval_phi_sequence(table, n - 1, nodes)
            assert weights.tobytes() == (1.0 / np.sum(seq * seq, axis=0)).tobytes()


@pytest.mark.parametrize("density", FAMILIES, ids=lambda d: d.kind)
def test_orthonormality_under_gauss_quadrature(density):
    n_max = 8
    table = recurrence_coefficients(density, n_max + 1)
    nodes, weights = gauss_rule(table, n_max + 1)  # exact through degree 2 n_max + 1
    seq = eval_phi_sequence(table, n_max, nodes)
    gram = (seq * weights) @ seq.T
    np.testing.assert_allclose(gram, np.eye(n_max + 1), atol=1e-12)


@pytest.mark.parametrize("density", FAMILIES, ids=lambda d: d.kind)
def test_christoffel_darboux_identity(density):
    table = recurrence_coefficients(density, 8)
    rng = np.random.default_rng(42)
    for n in range(1, 9):
        for _ in range(10):
            x, z = rng.uniform(-1.5, 1.5, 2)
            if abs(x - z) < 0.1:
                z = x + 0.5
            sx = eval_phi_sequence(table, n, x)
            sz = eval_phi_sequence(table, n, z)
            lhs = float(sx[:n] @ sz[:n])
            rhs = (
                math.sqrt(table.beta[n - 1])
                * (sx[n] * sz[n - 1] - sz[n] * sx[n - 1])
                / (x - z)
            )
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-10 * scale


def test_r_ratio_values_and_poles():
    table = recurrence_coefficients(UNIFORM, 3)
    for y in (-0.8, 0.3, 1.7):
        assert r_ratio(table, 1, y) == pytest.approx(math.sqrt(3.0) * y, rel=1e-14)
    # r_2(1) = phi_2(1) / phi_1(1) = sqrt(5) / sqrt(3)
    assert r_ratio(table, 2, 1.0) == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-14)
    assert r_ratio(table, 2, 0.0) == math.inf  # phi_1(0) = 0

    gau = recurrence_coefficients(GAUSSIAN, 2)
    assert r_ratio(gau, 2, 0.0) == math.inf
    with pytest.raises(ValueError):
        r_ratio(table, 4, 0.5)


def test_level_set_hand_example():
    # 3 z^2 - 2 z - 1 = 0 has roots 1 and -1/3
    table = recurrence_coefficients(UNIFORM, 2)
    nodes = level_set(table, 2, 1.0)
    np.testing.assert_allclose(nodes, [-1.0 / 3.0, 1.0], atol=1e-12)


def test_level_set_single_point_and_pole():
    table = recurrence_coefficients(UNIFORM, 2)
    np.testing.assert_allclose(level_set(table, 1, 0.37), [0.37], atol=1e-14)
    with pytest.raises(ValueError):
        level_set(table, 2, 0.0)  # pole of r_2
    with pytest.raises(ValueError, match=r"^y=0\.0 is a pole of r_2$"):
        level_set_bisection(table, 2, 0.0)


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_level_set_rejects_nonfinite_start(y):
    table = recurrence_coefficients(UNIFORM, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^y is {y}, not finite$"):
            level_set(table, 3, y)


@pytest.mark.parametrize("y", [1e200, -1e155])
def test_level_set_rejects_start_where_r_n_overflows(y):
    table = recurrence_coefficients(UNIFORM, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = re.escape(f"r_5(y) is not finite at y={y!r}")
        with pytest.raises(ValueError, match=message):
            level_set(table, 5, y)


@pytest.mark.parametrize("density", FAMILIES, ids=lambda d: d.kind)
def test_level_set_properties(density):
    table = recurrence_coefficients(density, 8)
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        y = float(sample_density(density, rng, 1)[0])
        if math.isinf(r_ratio(table, n, y)):
            y += 0.05
        nodes = level_set(table, n, y)
        assert len(nodes) == n
        assert np.all(np.diff(nodes) > 1e-10)  # distinct, ascending
        assert np.min(np.abs(nodes - y)) < 1e-10 * max(1.0, abs(y))
        ratios = [r_ratio(table, n, z) for z in nodes]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-7, atol=1e-8)
        # idempotence: restarting from any member reproduces the set
        again = level_set(table, n, float(nodes[0]))
        np.testing.assert_allclose(again, nodes, atol=1e-9)


@pytest.mark.parametrize("density", FAMILIES, ids=lambda d: d.kind)
def test_level_set_against_bisection_oracle(density):
    table = recurrence_coefficients(density, 8)
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        for _ in range(3):
            y = float(sample_density(density, rng, 1)[0])
            if abs(eval_phi(table, n - 1, y)) < 1e-6:
                y += 0.1
            spectral = level_set(table, n, y)
            bisected = level_set_bisection(table, n, y)
            np.testing.assert_allclose(bisected, spectral, atol=1e-9)
    # high orders, one start each: the Gaussian level sets reach past |z| = 10
    table = recurrence_coefficients(density, 100)
    for n in (60, 100):
        y = float(sample_density(density, rng, 1)[0])
        if abs(eval_phi(table, n - 1, y)) < 1e-6:
            y += 0.1
        bisected = level_set_bisection(table, n, y)
        np.testing.assert_allclose(bisected, level_set(table, n, y), atol=1e-9)


@pytest.mark.parametrize("density", FAMILIES, ids=lambda d: d.kind)
def test_level_set_through_gauss_node_recovers_gauss_nodes(density):
    table = recurrence_coefficients(density, 8)
    for n in range(2, 9):
        nodes, _ = gauss_rule(table, n)
        recovered = level_set(table, n, float(nodes[-1]))
        np.testing.assert_allclose(recovered, nodes, atol=1e-10)


def test_quadrature_exactness_hand_example():
    """Level set {-1/3, 1}: weights 3/4 and 1/4, exact through degree 2."""
    table = recurrence_coefficients(UNIFORM, 4)
    nodes = np.array([-1.0 / 3.0, 1.0])
    kvals = np.array([4.0 / 3.0, 4.0])
    report = quadrature_exactness_report(table, nodes, kvals, 3)
    assert report[0] < 1e-15  # weights sum to one
    assert report[1] < 1e-15  # mean of phi_1 vanishes
    assert report[2] < 1e-15  # degree 2 N - 2 still exact
    assert report[3] > 1e-3  # and the bound is sharp: phi_3 is missed
    # monomial cross-check by hand: sum w z^2 = 1/12 + 3/12 = 1/3
    weights = 1.0 / kvals
    assert float(weights @ nodes**2) == pytest.approx(1.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("density", FAMILIES, ids=lambda d: d.kind)
def test_gauss_nodes_exact_one_degree_further(density):
    n = 4
    table = recurrence_coefficients(density, 2 * n)
    nodes, _ = gauss_rule(table, n)
    seq = eval_phi_sequence(table, n - 1, nodes)
    kvals = np.sum(seq * seq, axis=0)
    report = quadrature_exactness_report(table, nodes, kvals, 2 * n - 1)
    assert np.all(report[: 2 * n] < 1e-12)  # through degree 2 N - 1


def test_quadrature_report_validates_shapes():
    table = recurrence_coefficients(UNIFORM, 4)
    with pytest.raises(ValueError):
        quadrature_exactness_report(table, np.zeros(3), np.ones(2), 2)
    with pytest.raises(ValueError):
        quadrature_exactness_report(table, np.zeros(2), np.ones(2), 9)


def test_sample_density_ranges():
    rng = np.random.default_rng(0)
    u = sample_density(UNIFORM, rng, 2000)
    assert np.all(np.abs(u) <= 1.0)
    assert abs(float(np.mean(u))) < 0.05
    g = sample_density(GAUSSIAN, rng, 4000)
    # variance of exp(-y^2)/sqrt(pi) is 1/2
    assert float(np.var(g)) == pytest.approx(0.5, abs=0.05)


def test_tables_are_immutable():
    table = recurrence_coefficients(UNIFORM, 3)
    with pytest.raises(ValueError):
        table.beta[0] = 9.9
    beta = np.array([0.5, 1.0])
    table = RecurrenceTable(GAUSSIAN, beta)
    assert beta.flags.writeable
    assert not table.beta.flags.writeable
    beta[0] = 9.9
    assert table.beta[0] == 0.5
