"""Amenability constants of centres of finite group algebras, from scratch.

The package computes character tables of finite groups by simultaneous
diagonalization of class-sum matrices, evaluates the amenability constant
of the centre of the group algebra from its unique diagonal, checks the
structural properties that constant satisfies (multiplicativity, quotient
monotonicity, the gap above 1 for nonabelian groups), and runs the two
companion numerical studies on compact hypergroups plus an exact rational
verification of an identity measure on T semidirect Z2.

The public names below, and the package's modules, resolve on first use
(PEP 562), so ``import zamen`` loads no layer and no numpy; ``zamen.cli``
imports the layers a command runs.
"""

import importlib

# Each public name and the module that defines it.  The error types come from
# ``base``, the numpy-free leaf, which the layers that raise them re-export.
_EXPORTS = {
    name: module
    for module, names in {
        "amenability": (
            "NONABELIAN_GAP AmenabilityConstant amenability_constant diagonal hilbert_schmidt_lower_bound "
            "nonabelian_gap_check product_multiplicativity_check quotient_monotonicity_check snap_rational "
            "verify_diagonal"
        ),
        "base": "CertificationError SizeLimitError ValidationError",
        "central": "ClassFunction convolve gelfand_transform inverse_gelfand",
        "characters": "CharacterTable canonical_form character_table class_constants tensor_table verify_orthogonality",
        "groups": (
            "ConjugacyStructure FiniteGroup alternating center conjugacy_structure cyclic dihedral direct_product "
            "from_cayley_table from_permutation_generators parse_permutation quaternion_group quotient_group "
            "semidirect_product symmetric"
        ),
        "hypergroups": (
            "HypergroupModel QuadratureConfig bai_norm character_decay_probe coefficients diagonal_norm "
            "divergence_bound_check su2_divergence_lower_bound"
        ),
        "tz2": "verify_identity_measure",
        "zoo": "build zoo_names",
    }.items()
    for name in names.split()
}

# The package's modules, each loaded when it is first asked for as ``zamen.<module>``.
_MODULES = frozenset({*_EXPORTS.values(), "cache", "cli", "specio"})

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *_MODULES})
