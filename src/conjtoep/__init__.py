"""Conjugations, canonical factorization, and complex-symmetry criteria for
truncated Toeplitz operators, in one variable, on the polydisc, and exactly
in finite dimensions."""

from .core import (
    ConjtoepError,
    ExactnessError,
    Tolerance,
    is_unitary_on_window,
)
from .hardy import (
    LaurentSymbol,
    TruncatedOperator,
    is_toeplitz,
    toeplitz_matrix,
)
from .conjugation import (
    AlphaDiagonal,
    BasisSpec,
    CanonicalJ,
    Composition,
    Conjugation,
    FromBasis,
    ThetaXi,
    canonical_factorization,
    conjugation_from_fixed_basis,
    intertwine_lambda,
    is_conjugation,
    materialize,
    parse_family_spec,
)
from .composition import (
    CompositionParams,
    TrigpolyGrid,
    check_w_symmetry_conditions,
    composition_matrix,
    scan_trigpoly_theorem,
)
from .symmetry import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    CheckConfig,
    CriterionDisagreement,
    SymmetryReport,
    check_coefficient_equations,
    check_conjugated_toeplitz,
    check_definition,
    check_s_toeplitz_necessary,
    check_transpose_basis,
    check_xy,
    run_all,
)
from .polydisc import (
    BoxTruncation,
    PolySymbol,
    check_poly_criterion,
    doubly_commuting_residual,
    poly_check_definition,
    poly_conjugation,
    poly_toeplitz,
)
from .finite import (
    FiniteToeplitz,
    finite_symmetry_criterion,
    general_symmetry,
    toeplitz_conjugation,
)

__version__ = "0.1.0"
