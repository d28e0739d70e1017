"""Bad input table: non-finite points, values, coefficients, recurrence
weights, 1-D arguments, nodes and Christoffel values, value counts that do
not match the points, arrays of another shape, and Christoffel values that
are not positive.

Every case raises ValueError naming the argument and its first bad index
("{name} entry {index} is {value}, not finite", or "not positive"), or its
shape and the one it needs ("{name} has shape {got}, need {want}"), before
any numpy warning or LAPACK message: stderr stays empty. All but the
positivity cases go through one check, orthopoly._as_finite. Without the
checks a NaN point came back as a NaN row, a NaN value as all-NaN
coefficients, solve_unweighted printed two DLASCL lines before a
LinAlgError, a surrogate with a NaN coefficient (built directly or read
back from JSON) evaluated to NaN, eval_phi, eval_phi_sequence,
quadrature_exactness_report and diffusivity returned NaN, r_ratio blamed
an overflowing phi for a non-finite y, and a three-dimensional point array
failed inside numpy with a broadcast or dimension message. A zero
Christoffel value in quadrature_exactness_report made numpy warn of a
division by zero, and a negative one went through.
"""

import json
import math
import warnings

import numpy as np
import pytest

from cfpdesign import (
    CandidateSet,
    DensitySpec,
    EllipticConfig,
    ProductBasis,
    RecurrenceTable,
    Surrogate,
    christoffel,
    condition_number,
    det_modulus,
    diffusivity,
    eval_phi,
    eval_phi_sequence,
    eval_row,
    eval_rows,
    eval_surrogate,
    gauss_rule,
    level_set,
    quadrature_exactness_report,
    r_ratio,
    recurrence_coefficients,
    solve_bvp_batch,
    solve_unweighted,
    solve_weighted,
    total_degree,
    validation_error,
)

UNIFORM = DensitySpec("uniform")
BASIS = ProductBasis.for_density(UNIFORM, total_degree(2, 2))
POINTS = np.stack(np.meshgrid(np.linspace(-0.9, 0.9, 5), [-0.5, 0.5, 0.1, 0.8]), -1)
POINTS = POINTS.reshape(-1, 2)
VALUES = np.exp(-np.sum(POINTS, axis=1))
SURROGATE = solve_weighted(BASIS, POINTS, VALUES)
TABLE = recurrence_coefficients(UNIFORM, 8)
NODES, WEIGHTS = gauss_rule(TABLE, 5)
BVP = EllipticConfig(dimension=2)
GRID = np.linspace(0.0, 1.0, 7)
BAD = 3
# the first non-finite value, as the messages print it
VALUE = "-?(nan|inf)"
# a three-dimensional point array, rejected by its shape
CUBE = np.zeros((2, 1, 2))


def _with(array, bad):
    copy = np.array(array, dtype=float)
    copy[BAD] = bad
    return copy


def _surrogate_json(bad):
    """The surrogate's JSON text, read back, with one coefficient set to bad."""
    data = SURROGATE.to_json()
    data["coefficients"][BAD] = bad
    return json.loads(json.dumps(data))


def _target(bad):
    def target(z):
        return _with(np.exp(-np.sum(z, axis=1)), bad)

    return target


# (call, argument name): each call takes one (m, 2) point array
POINT_CASES = {
    "eval_rows-P": (lambda pts: eval_rows(BASIS, pts, "P"), "points"),
    "eval_rows-Q": (lambda pts: eval_rows(BASIS, pts, "Q"), "points"),
    "christoffel": (lambda pts: christoffel(BASIS, pts), "y"),
    "eval_surrogate": (lambda pts: eval_surrogate(SURROGATE, pts), "y"),
    "solve_weighted": (lambda pts: solve_weighted(BASIS, pts, VALUES), "points"),
    "solve_unweighted": (lambda pts: solve_unweighted(BASIS, pts, VALUES), "points"),
}

# (call taking the bad value, id, the message without its value and anchors)
ENTRY_CASES = [
    (
        lambda bad: eval_row(BASIS, [0.1, bad], "P"),
        "eval_row-point",
        r"y entry \(0, 1\)",
    ),
    (
        lambda bad: eval_surrogate(SURROGATE, [bad, 0.1]),
        "eval_surrogate-single-point",
        r"y entry \(0, 0\)",
    ),
    (
        lambda bad: CandidateSet(_with(POINTS, bad), (UNIFORM, UNIFORM), 2, 0),
        "CandidateSet-point",
        rf"points entry \({BAD}, 0\)",
    ),
    (
        lambda bad: solve_bvp_batch(BVP, _with(POINTS, bad)),
        "solve_bvp_batch-point",
        rf"y entry \({BAD}, 0\)",
    ),
    (
        lambda bad: solve_weighted(BASIS, POINTS, _with(VALUES, bad)),
        "solve_weighted-value",
        f"values entry {BAD}",
    ),
    (
        lambda bad: solve_unweighted(BASIS, POINTS, _with(VALUES, bad)),
        "solve_unweighted-value",
        f"values entry {BAD}",
    ),
    (
        lambda bad: validation_error(SURROGATE, _target(bad), 50, 0),
        "validation_error-target",
        f"target output entry {BAD}",
    ),
    (
        lambda bad: Surrogate(BASIS, _with(SURROGATE.coefficients, bad)),
        "Surrogate-coefficient",
        f"coefficients entry {BAD}",
    ),
    (
        lambda bad: Surrogate.from_json(_surrogate_json(bad)),
        "Surrogate.from_json-coefficient",
        f"coefficients entry {BAD}",
    ),
    (
        lambda bad: eval_phi_sequence(TABLE, 4, _with(NODES, bad)),
        "eval_phi_sequence-y",
        f"y entry {BAD}",
    ),
    (lambda bad: eval_phi(TABLE, 4, bad), "eval_phi-y", "y"),
    (lambda bad: r_ratio(TABLE, 4, bad), "r_ratio-y", "y"),
    (lambda bad: level_set(TABLE, 4, bad), "level_set-y", "y"),
    (
        lambda bad: quadrature_exactness_report(
            TABLE, _with(NODES, bad), 1.0 / WEIGHTS, 8
        ),
        "quadrature_exactness_report-nodes",
        f"nodes entry {BAD}",
    ),
    (
        lambda bad: quadrature_exactness_report(
            TABLE, NODES, _with(1.0 / WEIGHTS, bad), 8
        ),
        "quadrature_exactness_report-christoffel_values",
        f"christoffel_values entry {BAD}",
    ),
    (
        lambda bad: diffusivity(BVP, _with(GRID, bad), POINTS),
        "diffusivity-x",
        f"x entry {BAD}",
    ),
    (
        lambda bad: diffusivity(BVP, GRID, _with(POINTS, bad)),
        "diffusivity-y",
        rf"y entry \({BAD}, 0\)",
    ),
    (
        lambda bad: RecurrenceTable(UNIFORM, _with(TABLE.beta, bad)),
        "RecurrenceTable-beta",
        f"beta entry {BAD}",
    ),
]

CASES = [
    pytest.param(
        lambda bad, call=call: call(_with(POINTS, bad)),
        rf"^{name} entry \({BAD}, 0\) is {VALUE}, not finite$",
        id=f"{case}-point",
    )
    for case, (call, name) in POINT_CASES.items()
] + [
    pytest.param(call, f"^{where} is {VALUE}, not finite$", id=case)
    for call, case, where in ENTRY_CASES
]

LENGTH_CASES = [
    pytest.param(
        lambda: solve_weighted(BASIS, POINTS, VALUES[:-1]),
        r"^values has shape \(19,\), need \(20,\)$",
        id="solve_weighted-short",
    ),
    pytest.param(
        lambda: solve_unweighted(BASIS, POINTS, np.append(VALUES, 0.0)),
        r"^values has shape \(21,\), need \(20,\)$",
        id="solve_unweighted-long",
    ),
    pytest.param(
        lambda: solve_weighted(BASIS, POINTS, VALUES[:, None]),
        r"^values has shape \(20, 1\), need \(20,\)$",
        id="solve_weighted-column",
    ),
    pytest.param(
        lambda: validation_error(SURROGATE, lambda z: np.zeros(len(z) - 1), 50, 0),
        r"^target output has shape \(49,\), need \(50,\)$",
        id="validation_error-short-target",
    ),
]

SHAPE_CASES = [
    pytest.param(
        lambda: eval_rows(BASIS, CUBE, "P"),
        r"^points has shape \(2, 1, 2\), need \(m, 2\)$",
        id="eval_rows-P-cube",
    ),
    pytest.param(
        lambda: eval_rows(BASIS, CUBE, "Q"),
        r"^points has shape \(2, 1, 2\), need \(m, 2\)$",
        id="eval_rows-Q-cube",
    ),
    pytest.param(
        lambda: christoffel(BASIS, CUBE),
        r"^y has shape \(2, 1, 2\), need \(m, 2\)$",
        id="christoffel-cube",
    ),
    pytest.param(
        lambda: eval_surrogate(SURROGATE, CUBE),
        r"^y has shape \(2, 1, 2\), need \(m, 2\)$",
        id="eval_surrogate-cube",
    ),
    pytest.param(
        lambda: solve_bvp_batch(BVP, CUBE),
        r"^y has shape \(2, 1, 2\), need \(n, 2\)$",
        id="solve_bvp_batch-cube",
    ),
    pytest.param(
        lambda: eval_rows(BASIS, POINTS[:, :1], "P"),
        r"^points has shape \(20, 1\), need \(m, 2\)$",
        id="eval_rows-narrow",
    ),
    pytest.param(
        lambda: CandidateSet(POINTS[:, 0], (UNIFORM, UNIFORM), 2, 0),
        r"^points has shape \(20,\), need \(m_total, 2\)$",
        id="CandidateSet-vector",
    ),
    pytest.param(
        lambda: Surrogate(BASIS, SURROGATE.coefficients[:-1]),
        r"^coefficients has shape \(5,\), need \(6,\)$",
        id="Surrogate-short",
    ),
    pytest.param(
        lambda: RecurrenceTable(UNIFORM, np.full((2, 2), 0.5)),
        r"^beta has shape \(2, 2\), need \(n_max,\)$",
        id="RecurrenceTable-square",
    ),
    pytest.param(
        lambda: quadrature_exactness_report(TABLE, NODES, 1.0 / WEIGHTS[:-1], 8),
        r"^christoffel_values has shape \(4,\), need \(5,\)$",
        id="quadrature_exactness_report-short",
    ),
    pytest.param(
        lambda: det_modulus(np.ones(3)),
        r"^matrix has shape \(3,\), need \(m, N\)$",
        id="det_modulus-vector",
    ),
    pytest.param(
        lambda: condition_number(np.ones((2, 2, 2))),
        r"^matrix has shape \(2, 2, 2\), need \(m, N\)$",
        id="condition_number-cube",
    ),
]


def _raises_quietly(call, message, capfd):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("call, message", CASES)
def test_non_finite_input_is_named(call, message, bad, capfd):
    _raises_quietly(lambda: call(bad), message, capfd)


@pytest.mark.parametrize("call, message", LENGTH_CASES)
def test_value_count_must_match_the_points(call, message, capfd):
    _raises_quietly(call, message, capfd)


@pytest.mark.parametrize("call, message", SHAPE_CASES)
def test_array_of_another_shape_is_named(call, message, capfd):
    _raises_quietly(call, message, capfd)


@pytest.mark.parametrize("value", [0.0, -1.0], ids=str)
def test_christoffel_value_that_is_not_positive_is_named(value, capfd):
    kvals = _with(1.0 / WEIGHTS, value)
    _raises_quietly(
        lambda: quadrature_exactness_report(TABLE, NODES, kvals, 8),
        rf"^christoffel_values entry {BAD} is {value}, not positive$",
        capfd,
    )
