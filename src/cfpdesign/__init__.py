"""Deterministic sample designs for weighted polynomial least squares.

Construction pipeline: univariate orthonormal families (orthopoly), ordered
multi-index sets (multiindex), tensor-product bases and Christoffel weights
(basis), greedy determinant-maximizing point selection (design), surrogate
fitting (lsq), a parametric elliptic benchmark (elliptic), and batch study
drivers (studies) behind the `cfpdesign` command line.
"""

__version__ = "0.1.0"

from .basis import (
    ProductBasis,
    RankDeficientError,
    christoffel,
    condition_number,
    det_modulus,
    eval_row,
    eval_rows,
)
from .design import (
    CandidateSet,
    DesignResult,
    afp_select,
    candidate_set,
    cfp_select,
)
from .elliptic import EllipticConfig, diffusivity, solve_bvp, solve_bvp_batch
from .lsq import (
    Surrogate,
    eval_surrogate,
    solve_unweighted,
    solve_weighted,
    validation_error,
)
from .multiindex import (
    MultiIndexSet,
    enrich,
    hyperbolic_cross,
    is_downward_closed,
    total_degree,
)
from .orthopoly import (
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
from .studies import (
    STUDY_FIELDS,
    TARGETS,
    VERIFY_FIELDS,
    StudyConfig,
    config_echo,
    render_csv,
    resolve_target,
    study_approx,
    study_condition,
    verify_oned,
)

__all__ = [
    "__version__",
    "DensitySpec",
    "RecurrenceTable",
    "recurrence_coefficients",
    "eval_phi",
    "eval_phi_sequence",
    "gauss_rule",
    "r_ratio",
    "level_set",
    "quadrature_exactness_report",
    "sample_density",
    "MultiIndexSet",
    "total_degree",
    "hyperbolic_cross",
    "is_downward_closed",
    "enrich",
    "ProductBasis",
    "RankDeficientError",
    "eval_row",
    "eval_rows",
    "christoffel",
    "det_modulus",
    "condition_number",
    "CandidateSet",
    "DesignResult",
    "candidate_set",
    "cfp_select",
    "afp_select",
    "Surrogate",
    "solve_weighted",
    "solve_unweighted",
    "eval_surrogate",
    "validation_error",
    "EllipticConfig",
    "diffusivity",
    "solve_bvp",
    "solve_bvp_batch",
    "StudyConfig",
    "TARGETS",
    "STUDY_FIELDS",
    "VERIFY_FIELDS",
    "study_condition",
    "study_approx",
    "verify_oned",
    "render_csv",
    "config_echo",
    "resolve_target",
]
