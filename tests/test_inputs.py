"""Bad input table: non-finite points and values, and value counts that do
not match the points.

Every case raises ValueError naming the argument and its first bad index,
or the two lengths, before any numpy warning or LAPACK message: stderr
stays empty. Without the checks a NaN point came back as a NaN row, a NaN
value as all-NaN coefficients, and solve_unweighted printed two DLASCL
lines before a LinAlgError.
"""

import math
import warnings

import numpy as np
import pytest

from cfpdesign import (
    CandidateSet,
    DensitySpec,
    EllipticConfig,
    ProductBasis,
    christoffel,
    eval_row,
    eval_rows,
    eval_surrogate,
    solve_bvp_batch,
    solve_unweighted,
    solve_weighted,
    total_degree,
    validation_error,
)

UNIFORM = DensitySpec.uniform()
BASIS = ProductBasis.for_density(UNIFORM, total_degree(2, 2))
POINTS = np.stack(np.meshgrid(np.linspace(-0.9, 0.9, 5), [-0.5, 0.5, 0.1, 0.8]), -1)
POINTS = POINTS.reshape(-1, 2)
VALUES = np.exp(-np.sum(POINTS, axis=1))
SURROGATE = solve_weighted(BASIS, POINTS, VALUES)
BAD = 3


def _with(array, bad):
    copy = np.array(array, dtype=float)
    copy[BAD] = bad
    return copy


def _target(bad):
    def target(z):
        return _with(np.exp(-np.sum(z, axis=1)), bad)

    return target


POINT_CASES = {
    "eval_rows-P": lambda pts: eval_rows(BASIS, pts, "P"),
    "eval_rows-Q": lambda pts: eval_rows(BASIS, pts, "Q"),
    "christoffel": lambda pts: christoffel(BASIS, pts),
    "eval_surrogate": lambda pts: eval_surrogate(SURROGATE, pts),
    "solve_weighted": lambda pts: solve_weighted(BASIS, pts, VALUES),
    "solve_unweighted": lambda pts: solve_unweighted(BASIS, pts, VALUES),
}

CASES = [
    pytest.param(
        lambda bad, call=call: call(_with(POINTS, bad)),
        f"^point {BAD} is not finite$",
        id=f"{name}-point",
    )
    for name, call in POINT_CASES.items()
] + [
    pytest.param(
        lambda bad: eval_row(BASIS, [0.1, bad], "P"),
        "^point 0 is not finite$",
        id="eval_row-point",
    ),
    pytest.param(
        lambda bad: eval_surrogate(SURROGATE, [bad, 0.1]),
        "^point 0 is not finite$",
        id="eval_surrogate-single-point",
    ),
    pytest.param(
        lambda bad: CandidateSet(_with(POINTS, bad), (UNIFORM, UNIFORM), 2, 0),
        f"^candidate point {BAD} is not finite$",
        id="CandidateSet-point",
    ),
    pytest.param(
        lambda bad: solve_bvp_batch(EllipticConfig(dimension=2), _with(POINTS, bad)),
        f"^parameter point {BAD} is not finite$",
        id="solve_bvp_batch-point",
    ),
    pytest.param(
        lambda bad: solve_weighted(BASIS, POINTS, _with(VALUES, bad)),
        f"^values entry {BAD} is -?(nan|inf), not finite$",
        id="solve_weighted-value",
    ),
    pytest.param(
        lambda bad: solve_unweighted(BASIS, POINTS, _with(VALUES, bad)),
        f"^values entry {BAD} is -?(nan|inf), not finite$",
        id="solve_unweighted-value",
    ),
    pytest.param(
        lambda bad: validation_error(SURROGATE, _target(bad), 50, 0),
        f"^target output entry {BAD} is -?(nan|inf), not finite$",
        id="validation_error-target",
    ),
]

LENGTH_CASES = [
    pytest.param(
        lambda: solve_weighted(BASIS, POINTS, VALUES[:-1]),
        r"^values has shape \(19,\), need \(20,\), one per point$",
        id="solve_weighted-short",
    ),
    pytest.param(
        lambda: solve_unweighted(BASIS, POINTS, np.append(VALUES, 0.0)),
        r"^values has shape \(21,\), need \(20,\), one per point$",
        id="solve_unweighted-long",
    ),
    pytest.param(
        lambda: solve_weighted(BASIS, POINTS, VALUES[:, None]),
        r"^values has shape \(20, 1\), need \(20,\), one per point$",
        id="solve_weighted-column",
    ),
    pytest.param(
        lambda: validation_error(SURROGATE, lambda z: np.zeros(len(z) - 1), 50, 0),
        r"^target output has shape \(49,\), need \(50,\), one per point$",
        id="validation_error-short-target",
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
