"""Endomorphisms of semidirect products as 2x2 matrices of maps.

A finite group H acted on by K through automorphisms yields the product
group H x| K.  Its endomorphisms correspond to matrices (alpha, beta;
gamma, delta) of maps between the factors, multiplied by a twisted
analogue of the usual row-by-column rule.  This package builds the
products, enumerates the matrices, computes both one-sided determinants
with their closed-form inverses, factors automorphisms into four
elementary families, and verifies all of it against brute force.
"""

from .catalog import (
    DEFAULT_INSTANCES,
    build_instance,
    cyclic_group,
    group_from_dict,
    group_to_dict,
    load_action,
    load_group,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    save_group,
    save_matrix,
    trivial_group,
)
from .cli import cli_main
from .determinant import (
    InvertibilityResult,
    det_h,
    det_k,
    dual_det_inverses,
    invert_combined,
    invert_via_det_h,
    invert_via_det_k,
    is_invertible,
)
from .errors import (
    BoundExceeded,
    ConditionsViolated,
    DomainMismatch,
    GroupValidationError,
    InvalidInstance,
    NotAssociative,
    NotAutomorphism,
    NotBijective,
    NotHomomorphic,
    PreconditionFailed,
    SdmatError,
    VerificationFailed,
)
from .factorization import (
    ABCDFactors,
    SubsetTag,
    classify,
    factor_abcd,
    unit_diagonal_a_factor,
    unit_diagonal_b_factor,
)
from .groups import (
    FiniteGroup,
    enumerate_autos,
    enumerate_homs,
    make_group,
)
from .maps import (
    FMap,
    identity_map,
    is_crossed_hom,
    map_act,
    map_add,
    map_compose,
    map_inverse,
    map_neg,
    twisted_hom_witness,
    zero_map,
)
from .matrices import (
    CONDITION_NAMES,
    EndoMatrix,
    check_conditions,
    endo_to_matrix,
    enumerate_matrices,
    identity_matrix,
    is_automorphism_matrix,
    mat_mul,
    matrix_to_endo,
)
from .oracle import EndCensus, compose_endos, enumerate_endos, invert_endo
from .semidirect import (
    GroupAction,
    SdProduct,
    make_action,
    semidirect,
    trivial_action,
)
from .verify import CHECK_NAMES, CheckResult, VerifyReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "ABCDFactors",
    "BoundExceeded",
    "CHECK_NAMES",
    "CONDITION_NAMES",
    "CheckResult",
    "ConditionsViolated",
    "DEFAULT_INSTANCES",
    "DomainMismatch",
    "EndCensus",
    "EndoMatrix",
    "FMap",
    "FiniteGroup",
    "GroupAction",
    "GroupValidationError",
    "InvalidInstance",
    "InvertibilityResult",
    "NotAssociative",
    "NotAutomorphism",
    "NotBijective",
    "NotHomomorphic",
    "PreconditionFailed",
    "SdProduct",
    "SdmatError",
    "SubsetTag",
    "VerificationFailed",
    "VerifyReport",
    "build_instance",
    "check_conditions",
    "classify",
    "cli_main",
    "compose_endos",
    "cyclic_group",
    "det_h",
    "det_k",
    "dual_det_inverses",
    "endo_to_matrix",
    "enumerate_autos",
    "enumerate_endos",
    "enumerate_homs",
    "enumerate_matrices",
    "factor_abcd",
    "group_from_dict",
    "group_to_dict",
    "identity_map",
    "identity_matrix",
    "invert_combined",
    "invert_endo",
    "invert_via_det_h",
    "invert_via_det_k",
    "is_automorphism_matrix",
    "is_crossed_hom",
    "is_invertible",
    "load_action",
    "load_group",
    "load_matrix",
    "make_action",
    "make_group",
    "map_act",
    "map_add",
    "map_compose",
    "map_inverse",
    "map_neg",
    "matrix_from_dict",
    "matrix_to_dict",
    "matrix_to_endo",
    "run_verification",
    "save_group",
    "save_matrix",
    "semidirect",
    "trivial_action",
    "trivial_group",
    "twisted_hom_witness",
    "unit_diagonal_a_factor",
    "unit_diagonal_b_factor",
    "zero_map",
]
