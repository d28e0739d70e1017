"""Deterministic sample designs for weighted polynomial least squares.

Construction pipeline: univariate orthonormal families (orthopoly), ordered
multi-index sets (multiindex), tensor-product bases and Christoffel weights
(basis), greedy determinant-maximizing point selection (design), surrogate
fitting (lsq), a parametric elliptic benchmark (elliptic), and batch study
drivers (studies) behind the `cfpdesign` command line.

The package exports exactly the names in its modules' `__all__` lists.
"""

__version__ = "0.1.0"

from . import basis, design, elliptic, lsq, multiindex, orthopoly, studies
from .basis import *  # noqa: F403
from .design import *  # noqa: F403
from .elliptic import *  # noqa: F403
from .lsq import *  # noqa: F403
from .multiindex import *  # noqa: F403
from .orthopoly import *  # noqa: F403
from .studies import *  # noqa: F403

__all__ = ["__version__"] + [
    name
    for module in (orthopoly, multiindex, basis, design, lsq, elliptic, studies)
    for name in module.__all__
]
