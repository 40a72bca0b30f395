"""Exact computations in the cohomological Hall algebra of an ADE quiver."""

from .quiver import (
    CheckFailed,
    NotADE,
    NotATree,
    Quiver,
    euler_form,
    lambda_form,
    validate_dynkin,
)
from .roots import (
    CyclicConstraints,
    NoUnitCoordinate,
    admissible_root_order,
    choose_i,
    positive_roots,
)
from .modrep import (
    ConstructionFailed,
    NegativeExt,
    Representation,
    RootData,
    codim,
    direct_sum,
    ext_dim,
    generic_point,
    hom_dim,
    indecomposable,
    orbits_for,
    root_data,
    stabilizer_dims,
)
from .qseries import (
    QRat,
    QTruncSeries,
    f_rational,
    f_series,
    gl_betti_identity_check,
    kazarian_betti_check,
    kazarian_betti_check_exact,
)
from .qalg import (
    QAlgElement,
    QMonomial,
    dilog_series,
    mono_mul,
    normal_form_exponent,
    reineke_identity_check,
    verify_codim_lemma,
)
from .polyblock import MPoly, NotDivisible, Var, exact_div_linear, symmetrize_check
from .coha import (
    CohaElement,
    euler_class,
    euler_class_from_weights,
    multi_mul,
    one,
    quiver_polynomial,
    restriction,
    shuffle_mul,
    structure_factor_image,
    structure_rank_check,
)
from .residue import (
    LaurentPoly,
    TruncationTooLow,
    c_series,
    ddelta_transform,
    delta_schur,
    residue_mul,
)

__version__ = "0.1.0"
