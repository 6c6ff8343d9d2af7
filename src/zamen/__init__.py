"""Amenability constants of centres of finite group algebras, from scratch.

The package computes character tables of finite groups by simultaneous
diagonalization of class-sum matrices, evaluates the amenability constant
of the centre of the group algebra from its unique diagonal, checks the
structural properties that constant satisfies (multiplicativity, quotient
monotonicity, the gap above 1 for nonabelian groups), and runs the two
companion numerical studies on compact hypergroups plus an exact rational
verification of an identity measure on T semidirect Z2.
"""

from .amenability import (
    NONABELIAN_GAP,
    AmenabilityConstant,
    amenability_constant,
    diagonal,
    hilbert_schmidt_lower_bound,
    nonabelian_gap_check,
    product_multiplicativity_check,
    quotient_monotonicity_check,
    snap_rational,
    verify_diagonal,
)
from .central import ClassFunction, convolve, gelfand_transform, inverse_gelfand
from .characters import (
    CertificationError,
    CharacterTable,
    canonical_form,
    character_table,
    class_constants,
    tensor_table,
    verify_orthogonality,
)
from .groups import (
    ConjugacyStructure,
    FiniteGroup,
    SizeLimitError,
    ValidationError,
    alternating,
    center,
    conjugacy_structure,
    cyclic,
    dihedral,
    direct_product,
    from_cayley_table,
    from_permutation_generators,
    parse_permutation,
    quaternion_group,
    quotient_group,
    semidirect_product,
    symmetric,
)
from .hypergroups import (
    CoefficientScheme,
    HypergroupModel,
    QuadratureConfig,
    bai_norm,
    character_decay_probe,
    chebyshev_model,
    diagonal_norm,
    dirichlet_scheme,
    divergence_bound_check,
    fejer_scheme,
    fejer_smoothed_scheme,
    su2_divergence_lower_bound,
    su2_model,
)
from .tz2 import verify_identity_measure
from .zoo import build, zoo_names

__version__ = "0.1.0"
