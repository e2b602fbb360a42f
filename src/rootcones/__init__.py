"""Exact rational toolkit for root systems, parabolic subset
combinatorics, and polyhedral cone certificates."""

from .errors import (
    BranchMismatch,
    CertificateFailure,
    DimensionMismatch,
    DivergenceFailure,
    InfeasibleSelection,
    InvalidRank,
    InvariantViolation,
    NotIrreducible,
    NotProportional,
    PreconditionViolated,
    RootconesError,
    SingularMatrix,
    SubsetViolation,
    UnknownRoot,
)
from .linalg import (
    QMatrix,
    Subspace,
    block_coefficient_matrix,
    contains,
    determinant,
    intersect,
    invert,
    kernel,
    span,
)
from .roots import (
    RootSystem,
    WeightTable,
    build,
    check_2d_identity,
    connected_to,
    parabolic_character,
    parse_spec,
    rescale_components,
    subsystem,
    weight_table,
)
from .parabolic import (
    ParabolicDatum,
    make_datum,
    relative_torus,
    relative_weight_table,
    verify_discon,
    verify_inc,
    verify_tori,
    verify_trivial,
)
from .cones import ConeSpec, RayEnumeration, extreme_rays
from .certify import (
    Certificate,
    CoefficientExpansion,
    expand_coefficients,
    theorem_cone,
    validate_certificate,
    verify_lemma65,
    verify_lemma66,
    verify_theorem61_constructive,
    verify_theorem61_rays,
)
from .simulate import (
    SimTrace,
    assert_divergence,
    check_admissibility,
    generate_trace,
    make_trace,
    replay_induction,
    selection_is_feasible,
    trace_from_dict,
    trace_to_dict,
)

__version__ = "0.1.0"
