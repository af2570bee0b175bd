"""Constructive similarity of complex symmetric tridiagonal operators to
rank-one perturbations of restrictions of normal operators."""

from .core import (
    AtomicMeasure,
    ConjugationMap,
    GramReport,
    InputError,
    PreconditionError,
    ConsistencyError,
    TridiagonalSymmetric,
    bilinear_gram,
    gram_det,
)
from .classify import (
    CanonicalForm,
    canonicalize,
    gram_condition_check,
    is_class_matrix,
    verify_j_symmetric,
)
from .moments import (
    CircleSolution,
    MomentSequence,
    RadiusSchedule,
    algorithm1,
    extend_matrix,
    solve_gap_moments,
    solve_rho1,
    spectral_moments,
    toeplitz_solvability,
    verify_measure,
)
from .similarity import (
    PolynomialFamily,
    SimilarityData,
    build_polynomials,
    build_transform,
    check_invertible,
    poly_of_operator_vector,
    verify_similarity,
)

__version__ = "0.1.0"
