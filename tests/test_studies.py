"""Study driver tests.

The drivers are exercised on deliberately small configurations; statistical
content is pinned against independent routes (numpy Gauss-Legendre moments
for the trivial-degree band) and the 1D verification sweep is required to
pass wholesale. CSV rendering is checked character by character.
"""

import math
import sys

import numpy as np
import pytest

from cfpdesign import (
    StudyConfig,
    config_echo,
    hyperbolic_cross,
    render_csv,
    resolve_target,
    study_approx,
    study_condition,
    total_degree,
    verify_oned,
)
from cfpdesign import __version__, multiindex, studies
from cfpdesign.studies import _quantiles_20_80


def test_study_config_validation():
    bad = [
        dict(family="triangular"),
        dict(rule="TP"),
        dict(dimension=0),
        dict(degrees=()),
        dict(degrees=(2, -1)),
        dict(oversampling=0.99),
        dict(trials=0),
        dict(candidates=101),
        dict(candidates=0),
        dict(validation_samples=0),
        dict(methods=("CFP", "QMC")),
        dict(methods=()),
        dict(degrees=(3, 5, 4, 5)),
        dict(methods=("MC", "AFP", "MC")),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            StudyConfig(**kwargs)
    assert StudyConfig(family="gaussian").density.kind == "gaussian"


@pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
def test_study_config_rejects_nonfinite_oversampling(factor):
    with pytest.raises(ValueError, match="oversampling factor must be finite"):
        StudyConfig(oversampling=factor)


def test_condition_study_schema():
    cfg = StudyConfig(degrees=(2, 3), trials=3, candidates=200)
    records = study_condition(cfg)
    # three stats per (method, degree) cell
    assert len(records) == 3 * 3 * 2
    for r in records:
        assert tuple(r) == ("method", "degree", "N", "M", "stat", "value")
        k = r["degree"]
        assert r["N"] == len(total_degree(2, k))
        assert r["M"] == math.ceil(1.05 * r["N"])
        assert math.isfinite(r["value"])
        assert r["value"] >= 1.0  # condition numbers
    by_cell = {}
    for r in records:
        by_cell.setdefault((r["method"], r["degree"]), {})[r["stat"]] = r["value"]
    for cell in by_cell.values():
        assert set(cell) == {"mean", "q20", "q80"}
        assert cell["q20"] <= cell["q80"]


def test_list_fields_act_as_the_tuple_config():
    """degrees and methods given as lists: the config equals, hashes and
    writes the same CSV bytes as the tuple config."""
    common = dict(trials=2, candidates=200)
    listed = StudyConfig(degrees=[2, 3], methods=["CFP", "MC"], **common)
    tupled = StudyConfig(degrees=(2, 3), methods=("CFP", "MC"), **common)
    assert listed == tupled
    assert hash(listed) == hash(tupled)
    texts = [
        render_csv(study_condition(cfg), config_echo(cfg, study="cond"))
        for cfg in (listed, tupled)
    ]
    assert texts[0] == texts[1]
    assert "# degrees = 2,3\n# oversampling" in texts[0]


def test_sweep_quantiles_equal_numpy_bit_for_bit():
    """The sweep's q20/q80 are numpy's default linear quantiles, float64
    bytes and all, for every trial count up to 60: seeded draws over
    sixteen decades, draws with repeated values, and an infinite
    condition number at the top, where numpy's lerp gives nan."""
    rng = np.random.default_rng(26)
    for n in range(1, 61):
        spread = 10.0 ** rng.uniform(-8.0, 8.0, size=(40, n))
        repeated = rng.choice(spread[0, : max(1, n // 4)], size=(20, n))
        singular = spread[:5].copy()
        singular[:, -1] = math.inf
        for values in (*spread, *repeated, *singular):
            with np.errstate(invalid="ignore"):
                expected = np.quantile(values, [0.2, 0.8])
            got = np.array(_quantiles_20_80(values))
            assert got.tobytes() == expected.tobytes(), (n, values)


def test_trivial_degree_error_is_the_target_sd():
    """A constant surrogate's l2 error is the standard deviation of the
    target, computed here from numpy Gauss-Legendre moments."""
    nodes, w = np.polynomial.legendre.leggauss(20)
    w = w / 2.0
    g1 = float(np.sum(w * np.exp(-(nodes**2))))
    g2 = float(np.sum(w * np.exp(-2.0 * nodes**2)))
    sd = math.sqrt(g2 * g2 - (g1 * g1) ** 2)
    assert sd == pytest.approx(0.21609103147044678, rel=1e-12)

    cfg = StudyConfig(
        degrees=(0,), trials=8, seed=3, methods=("CFP",), candidates=200,
        validation_samples=1000,
    )
    records = study_approx(cfg, "exp_negsumsq")
    mean = [r for r in records if r["stat"] == "mean"][0]["value"]
    assert 0.9 * sd <= mean <= 2.0 * sd


def test_polynomial_target_is_fit_exactly():
    cfg = StudyConfig(
        degrees=(1,), trials=3, seed=2, methods=("CFP", "AFP"),
        candidates=200, validation_samples=500,
    )
    records = study_approx(cfg, lambda y: 1.5 + 0.5 * y[:, 0] - 0.25 * y[:, 1])
    for r in records:
        if r["stat"] == "mean":
            assert r["value"] < 1e-9


def test_gaussian_family_study_runs():
    cfg = StudyConfig(
        family="gaussian", degrees=(2,), trials=2, candidates=200,
        validation_samples=200,
    )
    records = study_approx(cfg, "exp_negsum")
    assert len(records) == 3 * 3
    assert all(math.isfinite(r["value"]) for r in records)


def test_hyperbolic_cross_study_runs():
    cfg = StudyConfig(rule="HC", degrees=(3,), trials=2, candidates=200)
    records = study_condition(cfg)
    assert records[0]["N"] == len(hyperbolic_cross(2, 3))


@pytest.mark.parametrize("rule", ["TD", "HC"])
def test_index_set_builds_reach_wrappers_bound_in_their_modules(monkeypatch, rule):
    """A tracer wraps a builder at every module attribute bound to it; the
    sweep's index-set build goes through such a wrapper."""
    calls = []
    for name in ("total_degree", "hyperbolic_cross"):
        builder = getattr(multiindex, name)

        def counted(*args, _name=name, _builder=builder):
            calls.append(_name)
            return _builder(*args)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("cfpdesign"):
                if getattr(module, name, None) is builder:
                    monkeypatch.setattr(module, name, counted)
    lam, _, m_points = studies._degree_setup(StudyConfig(rule=rule), 3)
    expected = "total_degree" if rule == "TD" else "hyperbolic_cross"
    assert calls == [expected]
    assert lam == getattr(multiindex, expected)(2, 3)


def test_candidate_budget_guard():
    """_degree_setup checks M against the candidates; the sweep names the cell."""
    cfg = StudyConfig(degrees=(5,), trials=1, candidates=10)
    message = "^CFP degree 5 trial 0: only 10 candidates for 23 points$"
    with pytest.raises(ValueError, match=message):
        study_condition(cfg)


def test_mc_only_study_needs_no_candidate_budget(monkeypatch):
    """Monte Carlo cells draw their points directly, with no candidates and
    no enriched index set."""
    monkeypatch.setattr(studies, "enrich", lambda *args: pytest.fail("enriched"))
    cfg = StudyConfig(degrees=(4,), trials=1, candidates=10, methods=("MC",))
    records = study_condition(cfg)
    assert [(r["method"], r["M"], r["stat"]) for r in records] == [
        ("MC", 16, "mean"), ("MC", 16, "q20"), ("MC", 16, "q80"),
    ]


def test_resolve_target():
    cfg = StudyConfig()
    f = resolve_target(cfg, "exp_negsumsq")
    np.testing.assert_allclose(f(np.zeros((2, 2))), [1.0, 1.0])
    np.testing.assert_allclose(
        f(np.array([[1.0, 1.0]])), [math.exp(-2.0)], rtol=1e-15
    )
    g = resolve_target(cfg, "exp_negsum")
    np.testing.assert_allclose(
        g(np.array([[0.5, 0.5]])), [math.exp(-1.0)], rtol=1e-15
    )
    own = lambda y: y[:, 0]
    assert resolve_target(cfg, own) is own
    bvp = resolve_target(cfg, "elliptic")
    out = bvp(np.zeros((3, 2)))
    np.testing.assert_allclose(out, 0.25, atol=1e-9)
    with pytest.raises(ValueError, match="unknown target"):
        resolve_target(cfg, "sine")
    with pytest.raises(ValueError, match="uniform"):
        resolve_target(StudyConfig(family="gaussian"), "elliptic")


@pytest.mark.parametrize("family", ["uniform", "gaussian"])
def test_verify_oned_passes_everywhere(family):
    records = verify_oned(family, 4)
    # per order: six starts with six checks each, plus two gauss extras
    assert len(records) == 4 * (6 * 6 + 2)
    for r in records:
        assert tuple(r) == (
            "family", "N", "start", "check", "value", "threshold", "status"
        )
        assert r["status"] == "PASS", r
    starts = {r["start"] for r in records if r["N"] == 3}
    assert "gauss" in starts
    assert len(starts) == 6
    checks = {r["check"] for r in records}
    assert checks == {
        "condition_number",
        "det_modulus",
        "start_in_set",
        "min_weight",
        "weight_sum_error",
        "quadrature_max_error",
        "gauss_node_recovery",
        "greedy_recovery",
    }


def test_verify_oned_validation():
    with pytest.raises(ValueError):
        verify_oned("weibull", 3)
    with pytest.raises(ValueError):
        verify_oned("uniform", 0)


def test_render_csv_format():
    records = [
        {"method": "CFP", "degree": 2, "N": 6, "M": 7, "stat": "mean", "value": 1.0 / 3.0},
    ]
    echo = {"version": "9.9.9", "flag": True, "ratio": 1.5}
    text = render_csv(records, echo)
    assert text == (
        "# version = 9.9.9\n"
        "# flag = True\n"
        "# ratio = 1.5\n"
        "method,degree,N,M,stat,value\n"
        "CFP,2,6,7,mean,0.3333333333333333\n"
    )
    # a numpy scalar is written as its number, not as numpy's repr
    records[0]["value"] = np.float64(1.5)
    echo["ratio"] = np.float64(1.5)
    assert render_csv(records, echo) == (
        "# version = 9.9.9\n"
        "# flag = True\n"
        "# ratio = 1.5\n"
        "method,degree,N,M,stat,value\n"
        "CFP,2,6,7,mean,1.5\n"
    )


def test_config_echo_layout():
    cfg = StudyConfig(degrees=(2, 3), methods=("CFP", "MC"))
    echo = config_echo(cfg, target="exp_negsum")
    keys = list(echo)
    assert keys[0] == "version"
    assert echo["version"] == __version__
    assert echo["degrees"] == "2,3"
    assert echo["methods"] == "CFP,MC"
    assert keys[-1] == "target"


def test_studies_are_byte_identical_across_reruns():
    cfg = StudyConfig(degrees=(2,), trials=2, candidates=100, methods=("CFP", "MC"))
    first = render_csv(study_condition(cfg), config_echo(cfg))
    second = render_csv(study_condition(cfg), config_echo(cfg))
    assert first == second
    moved = StudyConfig(
        degrees=(2,), trials=2, candidates=100, methods=("CFP", "MC"), seed=1
    )
    assert render_csv(study_condition(moved), config_echo(moved)) != first


def test_approx_study_byte_identical_with_elliptic_target():
    cfg = StudyConfig(
        degrees=(1,), trials=2, candidates=100, methods=("CFP",),
        validation_samples=50, elliptic_grid_points=101,
    )
    a = render_csv(study_approx(cfg, "elliptic"), config_echo(cfg))
    b = render_csv(study_approx(cfg, "elliptic"), config_echo(cfg))
    assert a == b
