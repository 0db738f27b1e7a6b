"""Spherical-harmonic coefficient calculus.

Graded coefficient norms, the ten-generator ladder algebra, structural
multiplication/derivative operators built from degree recurrences,
quadrature transforms between samples and coefficients, and numerical
verification of the continuity bounds tying them together.
"""

from .algebra import (
    DomainError,
    GENERATOR_NAMES,
    Operator,
    boundary_vanishing_check,
    closure_check,
    commutator,
    derive_structure_constants,
    generator,
    so3_casimir_check,
)
from .bounds import (
    bound_point_functional,
    claim_margins,
    continuity_criterion_check,
    continuity_criterion_checks,
    functional_constant,
    random_expansion,
    substream,
    weak_eigen_cos,
)
from .expansions import (
    BASIS_TAG,
    CoefficientFileError,
    DecayEstimate,
    HarmonicExpansion,
    HarmonicIndex,
    SpherePoint,
    estimate_decay,
    graded_norm,
    graded_norms,
    hilbert_norm,
    load_expansion,
    save_expansion,
)
from .legendre import (
    SH_SUP_BOUND,
    orthonormal_legendre_table,
    orthonormal_sh_values,
    sh_eval,
    table_row,
    uniform_bound_check,
)
from .report import BoundReport
from .structural import (
    OPERATORS,
    clebsch_gordan,
    clebsch_gordan_array,
    cos_theta_op,
    dphi_op,
    dtheta_op_literal,
    exp_iphi_composite,
    inv_sin_op_literal,
    pde_residual,
    pointwise_multiply_oracle,
    product_weights,
    sh_product,
    sin_exp_op,
)
from .transform import (
    FieldFileError,
    GridTooCoarseError,
    SampledField,
    SphereGrid,
    analyze,
    completeness_kernel,
    gauss_legendre,
    inner_product,
    load_field,
    make_grid,
    orthonormality_check,
    point_eval,
    quadrature_inner_product,
    quadrature_integral,
    save_field,
    synthesize,
)

__version__ = "0.1.0"
