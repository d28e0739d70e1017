"""Acceptance gate.

Ten criteria, one test and one printed PASS/FAIL line each. Configurations
and tolerances are fixed; do not loosen them to make a failing criterion
pass. Where a criterion needs an external truth (best-projection errors,
greedy references), the oracle is computed here from independent routes:
numpy Legendre evaluations, literal greedy selection, and closed-form
values established in the module tests.
"""

import math
import time

import numpy as np
import numpy.polynomial.legendre as npleg

from cfpdesign import (
    DensitySpec,
    EllipticConfig,
    MultiIndexSet,
    ProductBasis,
    StudyConfig,
    afp_select,
    candidate_set,
    cfp_select,
    christoffel,
    condition_number,
    det_modulus,
    enrich,
    eval_rows,
    level_set,
    quadrature_exactness_report,
    r_ratio,
    recurrence_coefficients,
    sample_density,
    solve_weighted,
    study_approx,
    study_condition,
    total_degree,
    validation_error,
    verify_oned,
)
from cfpdesign.cli import main as cli_main
from cfpdesign.design import greedy_select_reference
from cfpdesign.elliptic import solve_bvp

UNIFORM = DensitySpec("uniform")
GAUSSIAN = DensitySpec("gaussian")


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {num:02d} {status} {label}"
    if detail:
        line = f"{line} ({detail})"
    print(line)
    assert ok, line


def test_01_one_dimensional_optimality():
    t0 = time.perf_counter()
    records = verify_oned("uniform", 10) + verify_oned("gaussian", 10)
    elapsed = time.perf_counter() - t0
    gauss_checks = (
        "condition_number",
        "det_modulus",
        "gauss_node_recovery",
        "greedy_recovery",
    )
    core = [
        r
        for r in records
        if r["start"] == "gauss" and 2 <= r["N"] <= 10 and r["check"] in gauss_checks
    ]
    ok = (
        len(core) == 2 * 9 * 4
        and all(r["status"] == "PASS" for r in core)
        and all(r["status"] == "PASS" for r in records)
        and elapsed < 5.0
    )
    _report(
        1,
        "1D optimality with Gauss-root starts",
        ok,
        f"{len(records)} checks, {elapsed:.2f}s",
    )


def test_02_quadrature_exactness_random_starts():
    rng = np.random.default_rng(2024)
    worst_quad = 0.0
    worst_sum = 0.0
    min_weight = math.inf
    for family in (UNIFORM, GAUSSIAN):
        for n in range(1, 9):
            table = recurrence_coefficients(family, max(2 * n - 2, n))
            lam = MultiIndexSet(1, tuple((k,) for k in range(n)))
            basis = ProductBasis.for_density(family, lam)
            done = 0
            while done < 20:
                y = float(sample_density(family, rng, 1)[0])
                if not math.isfinite(r_ratio(table, n, y)):
                    continue  # resample: y is a pole of the ratio
                nodes = level_set(table, n, y)
                kvals = np.atleast_1d(christoffel(basis, nodes[:, None]))
                weights = 1.0 / kvals
                report = quadrature_exactness_report(
                    table, nodes, kvals, max(2 * n - 2, 0)
                )
                worst_quad = max(worst_quad, float(np.max(report)))
                worst_sum = max(worst_sum, abs(float(np.sum(weights)) - 1.0))
                min_weight = min(min_weight, float(np.min(weights)))
                done += 1
    ok = worst_quad < 1e-10 and worst_sum <= 1e-12 and min_weight > 0.0
    _report(
        2,
        "level-set quadrature exactness through 2N-2",
        ok,
        f"max error {worst_quad:.1e}, weight sum dev {worst_sum:.1e}",
    )


def test_03_greedy_matches_reference():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    mismatches = 0
    for trial in range(200):
        d = int(rng.integers(1, 3))
        k = int(rng.integers(1, 7))
        lam = total_degree(d, k)
        n_lam = int(rng.integers(1, min(len(lam), 10) + 1))
        prefix = MultiIndexSet(d, tuple(lam.indices)[:n_lam])
        density = UNIFORM if rng.random() < 0.5 else GAUSSIAN
        m_total = 2 * int(rng.integers(10, 101))
        cands = candidate_set(
            density, d, m_total, max(1, prefix.max_degree), trial
        )
        m_points = int(rng.integers(1, len(prefix) + 1))
        for select, space in ((cfp_select, "Q"), (afp_select, "P")):
            got = select(cands, prefix, m_points)
            ref = greedy_select_reference(cands, prefix, m_points, space)
            if got.pivot_order != ref.pivot_order:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _report(
        3,
        "QR pivots equal literal greedy on 200 instances",
        ok,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_04_det_and_condition_equivalence():
    rng = np.random.default_rng(44)
    lam = total_degree(2, 2)
    basis = ProductBasis.for_density(UNIFORM, lam)
    random_ok = True
    for _ in range(100):
        pts = rng.uniform(-1.0, 1.0, (len(lam), 2))
        matrix = eval_rows(basis, pts, "Q")
        det_dev = abs(det_modulus(matrix) - 1.0)
        kap_dev = abs(condition_number(matrix) - 1.0)
        if (det_dev <= 1e-3 or kap_dev <= 1e-3) and not (
            det_dev <= 1e-2 and kap_dev <= 1e-2
        ):
            random_ok = False
    level_worst = 0.0
    count = 0
    for family in (UNIFORM, GAUSSIAN):
        for n in range(2, 7):
            table = recurrence_coefficients(family, n)
            lam1 = MultiIndexSet(1, tuple((k,) for k in range(n)))
            basis1 = ProductBasis.for_density(family, lam1)
            for y in (0.05 + 0.11 * count, -0.4 - 0.07 * count):
                nodes = level_set(table, n, y)
                matrix = eval_rows(basis1, nodes[:, None], "Q")
                level_worst = max(
                    level_worst,
                    abs(det_modulus(matrix) - 1.0),
                    abs(condition_number(matrix) - 1.0),
                )
                count += 1
    ok = random_ok and count == 20 and level_worst <= 1e-8
    _report(
        4,
        "unit determinant iff unit condition number",
        ok,
        f"level-set dev {level_worst:.1e} over {count} designs",
    )


def test_05_hadamard_bound():
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(1000):
        d = int(rng.integers(1, 3))
        k = int(rng.integers(1, 5)) if d == 2 else int(rng.integers(1, 9))
        lam = total_degree(d, k)
        density = UNIFORM if trial % 2 == 0 else GAUSSIAN
        basis = ProductBasis.for_density(density, lam)
        pts = np.column_stack(
            [sample_density(density, rng, len(lam)) for _ in range(d)]
        )
        worst = max(worst, det_modulus(eval_rows(basis, pts, "Q")))
    ok = worst <= 1.0 + 1e-12
    _report(5, "Hadamard bound on 1000 square designs", ok, f"max det {worst:.6f}")


def test_06_condition_study():
    t0 = time.perf_counter()
    config = StudyConfig(
        family="uniform",
        dimension=2,
        rule="TD",
        degrees=tuple(range(2, 16)),
        oversampling=1.05,
        trials=50,
        candidates=10_000,
        seed=0,
        methods=("CFP", "AFP", "MC"),
    )
    records = study_condition(config)
    elapsed = time.perf_counter() - t0
    means: dict[int, dict[str, float]] = {}
    for r in records:
        if r["stat"] == "mean":
            means.setdefault(r["degree"], {})[r["method"]] = r["value"]
    ordered = all(
        cell["CFP"] <= cell["AFP"] and cell["CFP"] <= cell["MC"]
        for cell in means.values()
    )
    finite = all(math.isfinite(cell["CFP"]) for cell in means.values())
    ok = ordered and finite and len(means) == 14 and elapsed < 600.0
    worst_ratio = max(cell["CFP"] / cell["MC"] for cell in means.values())
    _report(
        6,
        "mean condition numbers ordered CFP <= AFP, MC",
        ok,
        f"14 degrees, 50 trials, worst CFP/MC {worst_ratio:.3f}, {elapsed:.0f}s",
    )


def test_07_exact_recovery_in_span():
    lam = total_degree(2, 6)
    basis = ProductBasis.for_density(UNIFORM, lam)
    coeff = np.random.default_rng(7).standard_normal(len(lam))

    def target(z):
        return eval_rows(basis, z, "P") @ coeff

    m_points = math.ceil(1.05 * len(lam))
    # the enriched space, derived from the library on purpose, not through the CLI
    lam_tilde = enrich(lam, m_points - len(lam))
    cands = candidate_set(UNIFORM, 2, 10_000, lam_tilde.max_degree, 0)
    points = cfp_select(cands, lam_tilde, m_points).points
    fit = solve_weighted(basis, points, target(points))
    err = validation_error(fit, target, 1000, seed=0)
    ok = err < 1e-9
    _report(7, "polynomial target recovered through the noise floor", ok, f"error {err:.1e}")


def _legendre_best_projection_errors(degrees):
    """Best-L2 errors for f = exp(-|y|^2) on [-1,1]^2 from order-20 tensor
    Gauss and numpy Legendre evaluations (independent of the package basis)."""
    nodes, weights = npleg.leggauss(20)
    weights = weights / 2.0
    gx, gy = np.meshgrid(nodes, nodes, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    w = np.outer(weights, weights).ravel()
    fvals = np.exp(-np.sum(pts * pts, axis=1))
    second_moment = float(w @ (fvals * fvals))

    def psi(alpha):
        out = np.ones(len(pts))
        for j, a in enumerate(alpha):
            coef = np.zeros(a + 1)
            coef[a] = 1.0
            out *= npleg.legval(pts[:, j], coef) * math.sqrt(2 * a + 1)
        return out

    errors = {}
    for k in degrees:
        lam = total_degree(2, k)
        projected = sum(float(w @ (fvals * psi(a))) ** 2 for a in lam)
        errors[k] = math.sqrt(max(second_moment - projected, 0.0))
    return errors


def test_08_smooth_target_convergence():
    degrees = tuple(range(2, 13))
    best = _legendre_best_projection_errors(degrees)
    config = StudyConfig(
        degrees=degrees,
        trials=1,
        candidates=10_000,
        seed=0,
        methods=("CFP",),
        validation_samples=1000,
    )
    records = study_approx(config, "exp_negsumsq")
    errors = {r["degree"]: r["value"] for r in records if r["stat"] == "mean"}
    ratios = {k: errors[k] / best[k] for k in degrees}
    within_factor = all(0.1 <= ratios[k] <= 10.0 for k in degrees)
    decrease = errors[degrees[0]] / errors[degrees[-1]]
    ok = within_factor and decrease >= 1e3
    _report(
        8,
        "CFP error tracks the best projection",
        ok,
        f"ratio range [{min(ratios.values()):.2f}, {max(ratios.values()):.2f}], "
        f"decrease {decrease:.1e}",
    )


def test_09_elliptic_benchmark():
    flat = solve_bvp(EllipticConfig(dimension=2, sigma=1.0, grid_points=1001), [0.0, 0.0])
    flat_ok = abs(flat - 0.25) <= 1e-6

    config = StudyConfig(
        degrees=tuple(range(1, 9)),
        trials=5,
        candidates=2000,
        seed=0,
        methods=("CFP", "MC"),
        validation_samples=1000,
        elliptic_sigma=1.0,
        elliptic_grid_points=1001,
    )
    records = study_approx(config, "elliptic")
    means: dict[int, dict[str, float]] = {}
    for r in records:
        if r["stat"] == "mean":
            means.setdefault(r["degree"], {})[r["method"]] = r["value"]
    ordered = all(cell["CFP"] <= cell["MC"] for cell in means.values())

    u = {
        gp: solve_bvp(EllipticConfig(dimension=1, grid_points=gp), [1.0])
        for gp in (501, 1001, 2001)
    }
    order = math.log2(abs((u[501] - u[1001]) / (u[1001] - u[2001])))
    order_ok = abs(order - 2.0) <= 0.2
    ok = flat_ok and ordered and len(means) == 8 and order_ok
    _report(
        9,
        "elliptic benchmark accuracy and convergence",
        ok,
        f"u(1/2,0) dev {abs(flat - 0.25):.1e}, order {order:.3f}",
    )


def test_10_byte_identical_reruns(tmp_path):
    runs = {
        "cond": ["study", "cond", "--degrees", "2", "--trials", "2",
                 "--candidates", "100"],
        "approx": ["study", "approx", "--degrees", "1", "--trials", "2",
                   "--candidates", "100", "--validation-samples", "50",
                   "--methods", "CFP"],
        "elliptic": ["study", "elliptic", "--degrees", "1", "--trials", "2",
                     "--candidates", "100", "--validation-samples", "20",
                     "--elliptic-grid-points", "101", "--methods", "CFP,MC"],
        "verify": ["verify", "oned", "--n-max", "3"],
    }
    identical = True
    for name, argv in runs.items():
        first = tmp_path / f"{name}_1.csv"
        second = tmp_path / f"{name}_2.csv"
        assert cli_main(argv + ["-o", str(first)]) == 0
        assert cli_main(argv + ["-o", str(second)]) == 0
        if first.read_bytes() != second.read_bytes():
            identical = False
    _report(10, "same seed gives byte-identical CSV", identical, f"{len(runs)} studies")
