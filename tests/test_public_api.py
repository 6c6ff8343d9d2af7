"""The package's public names resolve on first use to the objects their modules define."""

import importlib
from pathlib import Path

import pytest

import zamen
from zamen import base, characters, groups, specio, tz2

# The public names of ``zamen``, each under a module that exports it.
EXPORTS = {
    "amenability": (
        "NONABELIAN_GAP AmenabilityConstant amenability_constant diagonal hilbert_schmidt_lower_bound "
        "nonabelian_gap_check product_multiplicativity_check quotient_monotonicity_check snap_rational "
        "verify_diagonal"
    ),
    "central": "ClassFunction convolve gelfand_transform inverse_gelfand",
    "characters": (
        "CertificationError CharacterTable canonical_form character_table class_constants tensor_table "
        "verify_orthogonality"
    ),
    "groups": (
        "ConjugacyStructure FiniteGroup SizeLimitError ValidationError alternating center conjugacy_structure "
        "cyclic dihedral direct_product from_cayley_table from_permutation_generators parse_permutation "
        "quaternion_group quotient_group semidirect_product symmetric"
    ),
    "hypergroups": (
        "HypergroupModel QuadratureConfig bai_norm character_decay_probe coefficients diagonal_norm "
        "divergence_bound_check su2_divergence_lower_bound"
    ),
    "tz2": "verify_identity_measure",
    "zoo": "build zoo_names",
}
NAMES = {name for names in EXPORTS.values() for name in names.split()}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_modules_object(module):
    defining = importlib.import_module(f"zamen.{module}")
    for name in EXPORTS[module].split():
        assert getattr(zamen, name) is getattr(defining, name), name


def test_star_import_and_dir_give_the_public_names():
    namespace = {}
    exec("from zamen import *", namespace)
    assert len(NAMES) == 49
    assert set(namespace) - {"__builtins__"} == NAMES
    assert set(zamen.__all__) == NAMES
    assert NAMES <= set(dir(zamen))


@pytest.mark.parametrize("name", ["no_such_name", "Build", "_EXPORT"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(zamen, name)
    assert not hasattr(zamen, name)


def test_error_types_keep_their_bases_and_are_one_object_everywhere():
    assert issubclass(zamen.ValidationError, ValueError) and issubclass(specio.SpecError, ValueError)
    assert issubclass(zamen.SizeLimitError, RuntimeError) and issubclass(zamen.CertificationError, RuntimeError)
    assert groups.ValidationError is base.ValidationError
    assert groups.SizeLimitError is characters.SizeLimitError is base.SizeLimitError
    assert characters.CertificationError is base.CertificationError
    assert specio.SpecError is base.SpecError
    assert specio.stable_json is base.stable_json and specio.sha256_hex is base.sha256_hex
    assert tz2.MAX_MODE == base.MAX_MODE


def test_every_module_of_the_package_is_an_attribute_of_it():
    package = Path(zamen.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert modules == set(zamen._MODULES)
    for name in sorted(modules):
        assert getattr(zamen, name) is importlib.import_module(f"zamen.{name}"), name
        assert name in dir(zamen)
