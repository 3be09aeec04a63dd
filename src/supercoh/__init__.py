"""Exact cochain-level cohomology operations, superline Picard groupoids,
and graded Brauer groups of finite simplicial complexes."""

from .exact_linalg import (
    AbelianGroupPresentation,
    IntMatrix,
    cokernel,
    solve_mod,
)
from .simplicial import (
    Cochain,
    CohomologyClass,
    SimplicialComplex,
    SimplicialMap,
    coboundary_matrix,
    cohomology,
    is_cohomologous,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupPresentation",
    "IntMatrix",
    "Cochain",
    "CohomologyClass",
    "SimplicialComplex",
    "SimplicialMap",
    "coboundary_matrix",
    "cohomology",
    "cokernel",
    "is_cohomologous",
    "solve_mod",
    "__version__",
]
