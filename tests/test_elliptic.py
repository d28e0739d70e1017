"""Elliptic benchmark tests.

In one parametric dimension the problem has a closed-form flux integral:
kappa u' = c - 2x with c fixed by the boundary conditions, so u(1/2) is a
ratio of three one-dimensional integrals. Adaptive quadrature of that form
is the oracle; the frozen values below were produced by it and the in-test
recomputation must agree before they are used.

The discrete solution itself is checked against the full tridiagonal
system of the conservative-flux scheme, solved by scipy's banded LU. Both
that oracle and the unblocked flux sum take kappa from its formula, written
out here, not from elliptic.diffusivity, which shares the solve's code.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_banded

from cfpdesign import basis as basis_module
from cfpdesign import EllipticConfig, solve_bvp_batch
from cfpdesign.basis import ROW_BLOCK_VALUES
from cfpdesign.cli import main
from cfpdesign.elliptic import diffusivity, solve_bvp

# flux-integral values for d = 1, sigma = 1 (quad, epsabs 1e-14)
EXACT_MID = {
    1.0: 0.2409445377894699,
    -0.7: 0.25784559802558943,
    0.4: 0.24609392657988965,
}


def _flux_integral_mid(y1: float) -> float:
    def kappa(t):
        return 1.0 + math.cos(2.0 * math.pi * t) * y1 / math.pi**2

    inv = quad(lambda t: 1.0 / kappa(t), 0.0, 1.0, epsabs=1e-14)[0]
    tinv = quad(lambda t: 2.0 * t / kappa(t), 0.0, 1.0, epsabs=1e-14)[0]
    c = tinv / inv
    return quad(lambda t: (c - 2.0 * t) / kappa(t), 0.0, 0.5, epsabs=1e-14)[0]


def test_frozen_oracle_values_reproduce():
    for y1, frozen in EXACT_MID.items():
        assert _flux_integral_mid(y1) == pytest.approx(frozen, abs=1e-12)


def test_flat_parameter_recovers_parabola():
    cfg = EllipticConfig(dimension=2, sigma=1.0, grid_points=1001)
    assert solve_bvp(cfg, [0.0, 0.0]) == pytest.approx(0.25, abs=1e-9)
    off = EllipticConfig(dimension=2, sigma=0.0, grid_points=1001)
    # sigma = 0 zeroes the expansion, so any parameter gives the same system
    assert solve_bvp(off, [0.9, -0.3]) == solve_bvp(cfg, [0.0, 0.0])
    tiny = EllipticConfig(dimension=1, sigma=0.0, grid_points=3)
    assert solve_bvp(tiny, [0.0]) == 0.25


@pytest.mark.parametrize("y1", [1.0, -0.7, 0.4])
def test_solver_matches_flux_integral(y1):
    exact = EXACT_MID[y1]
    cfg = EllipticConfig(dimension=1, sigma=1.0, grid_points=2001)
    assert solve_bvp(cfg, [y1]) == pytest.approx(exact, abs=5e-9)
    fine = EllipticConfig(dimension=1, sigma=1.0, grid_points=4001)
    assert abs(solve_bvp(fine, [y1]) - exact) < abs(solve_bvp(cfg, [y1]) - exact)


def test_convergence_order_against_exact():
    exact = EXACT_MID[1.0]
    err = {}
    for gp in (251, 501, 1001, 2001):
        cfg = EllipticConfig(dimension=1, sigma=1.0, grid_points=gp)
        err[gp] = solve_bvp(cfg, [1.0]) - exact
    assert math.log2(abs(err[251] / err[501])) == pytest.approx(2.0, abs=0.2)
    assert math.log2(abs(err[1001] / err[2001])) == pytest.approx(2.0, abs=0.2)


def test_self_convergence_order_multidim():
    y = [0.7, -0.4, 0.9]
    u = {
        gp: solve_bvp(EllipticConfig(dimension=3, grid_points=gp), y)
        for gp in (251, 501, 1001)
    }
    order = math.log2(abs((u[251] - u[501]) / (u[501] - u[1001])))
    assert order == pytest.approx(2.0, abs=0.2)


def test_richardson_extrapolation():
    u = {
        gp: solve_bvp(EllipticConfig(dimension=1, grid_points=gp), [1.0])
        for gp in (2001, 4001, 8001)
    }
    rich = (4.0 * u[4001] - u[2001]) / 3.0
    assert abs(u[8001] - rich) < 1e-8
    assert abs(u[8001] - rich) < abs(u[4001] - rich)
    # eliminating the h^2 term lands on the flux-integral value
    assert rich == pytest.approx(EXACT_MID[1.0], abs=1e-10)


def _kappa_formula(
    config: EllipticConfig, x: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """1 + sigma * sum_k y_k cos(2 pi k x) / (k^2 pi^2) for each row of ys,
    one mode at a time, shape (len(ys), len(x))."""
    total = np.zeros((len(ys), len(x)))
    for k in range(1, config.dimension + 1):
        mode = np.cos(2.0 * math.pi * k * x) / (k * k * math.pi**2)
        total += np.outer(ys[:, k - 1], mode)
    return 1.0 + config.sigma * total


def _banded_midpoint(config: EllipticConfig, y: np.ndarray) -> float:
    """u(1/2) from the full (gp - 2)-unknown flux-form system."""
    gp = config.grid_points
    h = 1.0 / (gp - 1)
    kappa = _kappa_formula(config, (np.arange(gp - 1) + 0.5) * h, y[None, :])[0]
    bands = np.zeros((3, gp - 2))
    bands[0, 1:] = -kappa[1:-1]  # superdiagonal
    bands[1] = kappa[:-1] + kappa[1:]
    bands[2, :-1] = -kappa[1:-1]  # subdiagonal
    u = solve_banded((1, 1), bands, np.full(gp - 2, 2.0 * h * h))
    return float(u[(gp - 3) // 2])


def _assert_matches_banded_system(cfg: EllipticConfig) -> None:
    ys = np.random.default_rng(cfg.dimension * cfg.grid_points).uniform(
        -1.0, 1.0, (4, cfg.dimension)
    )
    ys[0] = 0.0
    oracle = [_banded_midpoint(cfg, y) for y in ys]
    np.testing.assert_allclose(solve_bvp_batch(cfg, ys), oracle, rtol=1e-10)


@pytest.mark.parametrize("dimension", [1, 2, 8])
@pytest.mark.parametrize("grid_points", [3, 5, 101, 1001])
def test_solver_matches_banded_system(dimension, grid_points):
    _assert_matches_banded_system(
        EllipticConfig(dimension=dimension, grid_points=grid_points)
    )


@pytest.mark.parametrize("sigma", [0.37, -1.5])
@pytest.mark.parametrize("dimension", [1, 2, 8])
@pytest.mark.parametrize("grid_points", [3, 101, 1001])
def test_solver_matches_banded_system_at_other_sigmas(dimension, grid_points, sigma):
    _assert_matches_banded_system(
        EllipticConfig(dimension=dimension, sigma=sigma, grid_points=grid_points)
    )


def test_solver_matches_banded_system_at_study_size():
    # the validation batch of the elliptic study: 1000 points, d = 2, gp = 1001
    cfg = EllipticConfig(dimension=2, grid_points=1001)
    ys = np.random.default_rng(9).uniform(-1.0, 1.0, (1000, 2))
    oracle = [_banded_midpoint(cfg, y) for y in ys]
    np.testing.assert_allclose(solve_bvp_batch(cfg, ys), oracle, rtol=1e-10)


def test_batch_matches_scalar():
    rng = np.random.default_rng(0)
    ys = rng.uniform(-1.0, 1.0, (5, 3))
    cfg = EllipticConfig(dimension=3, grid_points=251)
    batch = solve_bvp_batch(cfg, ys)
    single = np.array([solve_bvp(cfg, row) for row in ys])
    np.testing.assert_allclose(batch, single, rtol=1e-12)
    np.testing.assert_array_equal(batch, solve_bvp_batch(cfg, ys))


STUDY_BVP = EllipticConfig(dimension=2, grid_points=1001)
# parameter rows per solve block at the study grid: 500 midpoints each
BLOCK_ROWS = max(1, ROW_BLOCK_VALUES // ((STUDY_BVP.grid_points - 1) // 2))


def _unblocked_flux_sum(config: EllipticConfig, ys: np.ndarray) -> np.ndarray:
    """The half-grid flux sum over the whole batch in one matrix product."""
    gp = config.grid_points
    h = 1.0 / (gp - 1)
    x = (np.arange((gp - 1) // 2) + 0.5) * h
    return h * ((1.0 / _kappa_formula(config, x, ys)) @ (1.0 - 2.0 * x))


@pytest.mark.parametrize(
    "n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 10_000]
)
def test_blocked_solve_matches_unblocked_sum(n):
    ys = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 2))
    u = solve_bvp_batch(STUDY_BVP, ys)
    assert u.shape == (n,)
    # BLAS may sum each row's product in another order for another block size
    np.testing.assert_allclose(u, _unblocked_flux_sum(STUDY_BVP, ys), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("block_values", [2**10, 2**12, 2**21])
def test_solve_depends_on_the_row_block_size_only_in_rounding(
    block_values, monkeypatch
):
    """The one output whose bits follow ROW_BLOCK_VALUES: each block's
    product sums its rows in an order the BLAS picks for that shape. At 2^10
    4088 of the 5000 values move, by at most 1.5e-15 relative."""
    ys = np.random.default_rng(0).uniform(-1.0, 1.0, (5000, 2))
    default = solve_bvp_batch(STUDY_BVP, ys)
    monkeypatch.setattr(basis_module, "ROW_BLOCK_VALUES", block_values)
    np.testing.assert_allclose(
        solve_bvp_batch(STUDY_BVP, ys), default, rtol=1e-14, atol=0.0
    )


def test_bad_points_past_the_first_block_rejected():
    ys = np.zeros((3 * BLOCK_ROWS, 2))
    ys[2 * BLOCK_ROWS + 5, 0] = -12.0
    with pytest.raises(ValueError, match="not positive"):
        solve_bvp_batch(STUDY_BVP, ys)
    ys[BLOCK_ROWS + 3, 1] = math.nan
    message = rf"^y entry \({BLOCK_ROWS + 3}, 1\) is nan, not finite$"
    with pytest.raises(ValueError, match=message):
        solve_bvp_batch(STUDY_BVP, ys)


def test_solve_allocates_no_batch_sized_temporary():
    """The (n, 500) kappa of 10k points is 40 MB; the solve holds one kappa
    buffer of at most ROW_BLOCK_VALUES values (256 KiB) beside its 80 KB
    output, and under 64 KB of grid vectors and input-check mask."""
    ys = np.random.default_rng(8).uniform(-1.0, 1.0, (10_000, 2))
    tracemalloc.start()
    try:
        u = solve_bvp_batch(STUDY_BVP, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - u.nbytes <= 8 * ROW_BLOCK_VALUES + 64_000


def test_config_validation():
    with pytest.raises(ValueError):
        EllipticConfig(dimension=2, grid_points=1000)
    with pytest.raises(ValueError):
        EllipticConfig(dimension=2, grid_points=1)
    with pytest.raises(ValueError):
        EllipticConfig(dimension=0)
    with pytest.raises(ValueError, match="kappa <= 0"):
        EllipticConfig(dimension=1, sigma=10.0)
    # the full cosine series reaches sum 1/(k pi)^2 = 1/6 < 1
    EllipticConfig(dimension=50, sigma=1.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_nonfinite_sigma_rejected(sigma):
    with pytest.raises(ValueError, match="sigma must be finite"):
        EllipticConfig(dimension=2, sigma=sigma)


def test_negative_sigma_reach_rejected():
    # |sigma| * (1 + 1/4) / pi^2 = 1.140 at d = 2: some parameter in
    # [-1,1]^2 drives kappa below zero, whichever sign sigma has
    with pytest.raises(ValueError, match=r"kappa <= 0 .*reach 1\.140"):
        EllipticConfig(dimension=2, sigma=-9.0)
    with pytest.raises(ValueError, match="kappa <= 0"):
        EllipticConfig(dimension=2, sigma=9.0)
    EllipticConfig(dimension=2, sigma=0.0)
    EllipticConfig(dimension=2, sigma=1.0)
    EllipticConfig(dimension=2, sigma=-1.0)


def test_cli_nan_sigma_is_a_usage_error(capsys):
    argv = ["study", "elliptic", "--degrees", "1", "--trials", "1",
            "--candidates", "200", "--elliptic-sigma", "nan", "-o", "-"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: sigma must be finite" in captured.err


def test_nonpositive_kappa_rejected_at_solve():
    cfg = EllipticConfig(dimension=1, sigma=1.0, grid_points=101)
    with pytest.raises(ValueError, match="not positive"):
        solve_bvp(cfg, [-12.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_parameters_rejected(bad):
    cfg = EllipticConfig(dimension=2, grid_points=101)
    ys = np.zeros((4, 2))
    ys[2, 1] = bad
    ys[3, 0] = bad
    with pytest.raises(ValueError, match=rf"^y entry \(2, 1\) is {bad}, not finite$"):
        solve_bvp_batch(cfg, ys)


def test_parameter_dimension_mismatch():
    cfg = EllipticConfig(dimension=2, grid_points=101)
    with pytest.raises(ValueError, match=r"^y has shape \(4, 3\), need \(n, 2\)$"):
        solve_bvp_batch(cfg, np.zeros((4, 3)))


@pytest.mark.parametrize("sigma", [1.0, 0.37, -1.5])
@pytest.mark.parametrize("dimension", [1, 2, 8])
def test_diffusivity_matches_its_formula(dimension, sigma):
    cfg = EllipticConfig(dimension=dimension, sigma=sigma)
    rng = np.random.default_rng(dimension)
    x = rng.random(40)
    ys = rng.uniform(-1.0, 1.0, (7, dimension))
    np.testing.assert_allclose(
        diffusivity(cfg, x, ys), _kappa_formula(cfg, x, ys), rtol=1e-14, atol=0.0
    )


def test_diffusivity_values_and_symmetry():
    cfg = EllipticConfig(dimension=1)
    k0 = diffusivity(cfg, np.array([0.0]), np.array([[1.0]]))
    assert float(k0[0, 0]) == 1.0 + 1.0 / math.pi**2
    quarter = diffusivity(cfg, np.array([0.25]), np.array([[1.0]]))
    assert float(quarter[0, 0]) == pytest.approx(1.0, abs=1e-15)
    # every cosine mode is symmetric about x = 1/2
    rng = np.random.default_rng(4)
    cfg3 = EllipticConfig(dimension=3)
    x = rng.random(50)
    y = rng.uniform(-1.0, 1.0, (6, 3))
    np.testing.assert_allclose(
        diffusivity(cfg3, x, y), diffusivity(cfg3, 1.0 - x, y), rtol=1e-12
    )
    # the cell midpoints of every odd grid mirror onto each other, so the
    # midpoint kappas read the same backwards
    for gp in (3, 5, 101, 1001):
        mid = (np.arange(gp - 1) + 0.5) / (gp - 1)
        np.testing.assert_allclose(mid[::-1], 1.0 - mid, rtol=0.0, atol=1e-15)
        kappa = diffusivity(cfg3, mid, y)
        np.testing.assert_allclose(kappa, kappa[:, ::-1], rtol=1e-12)
