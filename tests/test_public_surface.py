"""The package's exported names, the names perfbench's tracer wraps, the
fields of its value types and the README's library example.

The package exports exactly its modules' `__all__` lists, in pipeline
order, and the set of those names is pinned here.

`perfbench/tracer.py` looks up every function it times by module and name,
so a surface cut that drops one of them breaks `perfbench/run.py --trace 1`.
The tracer file is only read here, never changed.
"""

import dataclasses
import re
from pathlib import Path

import cfpdesign
import cfpdesign.cli  # noqa: F401  the tracer wraps cfpdesign.cli.main

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# test oracles, the eval_rows alias, and five conveniences that no other
# module calls (two scalar forks of batch entry points, row n of
# eval_phi_sequence, the solve's kappa and enrich's precondition): importable
# from their modules only, not exported from the package, and wrapped by name
# in perfbench/tracer.py
NOT_EXPORTED = (
    "vandermonde",
    "greedy_select_reference",
    "global_select_oracle",
    "level_set_bisection",
    "eval_row",
    "eval_phi",
    "solve_bvp",
    "diffusivity",
    "is_downward_closed",
)


def _tracer_rows():
    """WRAPPED from the tracer's source, run without writing any bytecode."""
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["WRAPPED"]


def test_every_traced_function_resolves():
    rows = _tracer_rows()
    assert rows
    for module, name, _group, _counter in rows:
        assert callable(getattr(getattr(cfpdesign, module), name)), (module, name)


def test_exported_names_resolve_and_oracles_stay_private():
    for name in cfpdesign.__all__:
        assert hasattr(cfpdesign, name), name
    assert len(set(cfpdesign.__all__)) == len(cfpdesign.__all__)
    for name in NOT_EXPORTED:
        assert name not in cfpdesign.__all__
        assert name not in vars(cfpdesign)


# the package's modules, in pipeline order
MODULES = ("orthopoly", "multiindex", "basis", "design", "lsq", "elliptic", "studies")

# the package surface; a name added to a module's __all__ shows up here
SURFACE = {
    "__version__",
    "DensitySpec", "RecurrenceTable", "recurrence_coefficients",
    "eval_phi_sequence", "gauss_rule", "r_ratio", "level_set",
    "quadrature_exactness_report", "sample_density",
    "MultiIndexSet", "total_degree", "hyperbolic_cross", "enrich",
    "ProductBasis", "RankDeficientError", "eval_rows",
    "christoffel", "det_modulus", "condition_number",
    "CandidateSet", "DesignResult", "candidate_set", "cfp_select", "afp_select",
    "Surrogate", "solve_weighted", "solve_unweighted", "eval_surrogate",
    "validation_error",
    "EllipticConfig", "solve_bvp_batch",
    "StudyConfig", "TARGETS",
    "study_condition", "study_approx", "verify_oned", "render_csv",
    "config_echo", "resolve_target",
}


def test_package_exports_exactly_its_modules_names():
    expected = ["__version__"]
    for module in MODULES:
        expected += getattr(cfpdesign, module).__all__
    assert cfpdesign.__all__ == expected
    assert set(cfpdesign.__all__) == SURFACE
    assert len(SURFACE) == 40


def test_value_type_fields():
    def names(cls):
        return tuple(field.name for field in dataclasses.fields(cls))

    assert names(cfpdesign.CandidateSet) == ("points", "densities", "degree_hint", "seed")
    assert names(cfpdesign.RecurrenceTable) == ("density", "beta")


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
