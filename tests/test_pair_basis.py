"""The certificate, the diagonal and AM in the pair basis, against the complex class-basis formulas.

``CharacterTable.pair_basis`` pairs each class with its inverse so that a
table's values become real; ``residual``, ``verify_orthogonality``,
``diagonal`` and ``amenability_constant`` are formed there from real products.
The oracles in ``oracles.py`` are the same quantities as complex k x k
products, so the two agree up to the rounding of a sum taken in another
order: 16 k eps times max(1, oracle) for a residual.  Tables come from the
zoo, the class ladder, tensor products, and mutated copies that take the
B != 0 terms.
"""

from __future__ import annotations

import dataclasses
from functools import cache, reduce

import numpy as np
import pytest

from oracles import complex_amenability_constant, complex_diagonal, complex_orthogonality, formula_residual
from zamen.amenability import amenability_constant, diagonal
from zamen.characters import character_table, tensor_table, verify_orthogonality
from zamen.groups import conjugacy_structure, cyclic, dihedral, direct_product, quaternion_group, symmetric
from zamen.specio import character_table_payload, load_character_table
from zamen.zoo import build, zoo_names

EPS = np.finfo(np.float64).eps
CERT_TOL = 1e-9

LADDER = {
    "Z300": lambda: cyclic(300),
    "Q8xZ40": lambda: direct_product(quaternion_group(), cyclic(40)),
    "D10xZ16": lambda: direct_product(dihedral(10), cyclic(16)),
    "S3xS3xS3": lambda: reduce(direct_product, [symmetric(3)] * 3),
    "D60": lambda: dihedral(60),
    "D120": lambda: dihedral(120),
}
GROUPS = {**{name: (lambda name=name: build(name)) for name in zoo_names()}, **LADDER}
TENSORS = {"S4xS4": (lambda: symmetric(4), lambda: symmetric(4)), "D8xQ8": (lambda: dihedral(8), quaternion_group)}

@cache
def table_of(name):
    """The computed (or tensor) table of a named group, made once per session."""
    if name in TENSORS:
        left, right = TENSORS[name]
        return tensor_table(character_table(left()), character_table(right()))
    return character_table(GROUPS[name]())


def noise(t, scale, seed=0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(t.values.shape) + 1j * rng.standard_normal(t.values.shape))


def paired_noise(t, scale):
    """Noise that keeps chi(C^-1) = conj chi(C) exactly: real on self-inverse classes, conjugate on pairs."""
    e = noise(t, scale)
    own = t.inverse_class == np.arange(t.num_classes)
    e[:, own] = e[:, own].real
    lows = np.flatnonzero(np.arange(t.num_classes) < t.inverse_class)
    e[:, t.inverse_class[lows]] = np.conj(e[:, lows])
    return e


def broken_pair(t):
    values = t.values.copy()
    low = int(np.flatnonzero(np.arange(t.num_classes) < t.inverse_class)[0])
    values[:, t.inverse_class[low]] = values[:, low]
    return values


def imaginary_self_inverse(t):
    values = t.values.copy()
    own = np.flatnonzero(t.inverse_class == np.arange(t.num_classes))
    values[1:, own[own != t.identity_class][0]] += 1e-7j
    return values


MUTATIONS = {
    "perturbed-1e-10": lambda t: {"values": t.values + noise(t, 1e-10)},
    "perturbed-1e-6": lambda t: {"values": t.values + noise(t, 1e-6)},
    "paired-perturbed-1e-6": lambda t: {"values": t.values + paired_noise(t, 1e-6)},
    "pair-broken": lambda t: {"values": broken_pair(t)},
    "self-inverse-imaginary": lambda t: {"values": imaginary_self_inverse(t)},
    "degrees-permuted": lambda t: {"degrees": np.roll(t.degrees, 1)},
}
MUTATED = [
    (base, mutation)
    for base in ("Z12", "A4", "S4", "Q8xZ40")
    for mutation in MUTATIONS
    if not (mutation == "pair-broken" and base == "S4")
    and not (mutation == "degrees-permuted" and base == "Z12")
]


def assert_matches_the_oracles(t):
    k = t.num_classes
    report = verify_orthogonality(t)
    row, col = complex_orthogonality(t)
    expected = formula_residual(t)
    for name, got, want in (("row", report.row_residual, row), ("column", report.column_residual, col),
                            ("residual", t.residual, expected)):
        assert abs(got - want) <= 16 * k * EPS * max(1.0, want), (name, got, want)
    assert (t.residual <= CERT_TOL) == (expected <= CERT_TOL)
    am = complex_amenability_constant(t)
    assert abs(amenability_constant(t).value - am) <= 1e-12 * am
    c = complex_diagonal(t)
    assert np.abs(diagonal(t) - c).max() <= 1e-12 * max(1.0, float(np.abs(c).max()))


@pytest.mark.parametrize("name", [*GROUPS, *TENSORS])
def test_computed_tables_match_the_oracles_with_a_real_pair_basis(name):
    t = table_of(name)
    assert t.pair_basis[3] is None  # chi(C^-1) = conj chi(C) bit for bit
    assert_matches_the_oracles(t)
    assert t.residual <= CERT_TOL


@pytest.mark.parametrize("base, mutation", MUTATED, ids=[f"{b}-{m}" for b, m in MUTATED])
def test_mutated_tables_match_the_oracles(base, mutation):
    t = table_of(base)
    mutated = dataclasses.replace(t, **MUTATIONS[mutation](t))
    assert (mutated.pair_basis[3] is None) == (mutation in ("paired-perturbed-1e-6", "degrees-permuted"))
    assert_matches_the_oracles(mutated)
    assert mutated.residual > CERT_TOL or mutation == "perturbed-1e-10"


@pytest.mark.parametrize("name", ["Z12", "A4", "Q8xZ40"])
def test_exported_and_reloaded_tables_keep_a_real_pair_basis(name):
    # The export rounds real and imaginary parts alike, so conjugate columns stay conjugate.
    t = table_of(name)
    loaded = load_character_table(character_table_payload(t), conjugacy_structure(GROUPS[name]()))
    assert loaded.pair_basis[3] is None
    assert_matches_the_oracles(loaded)


def test_the_pair_basis_orders_self_inverse_then_lower_then_upper_classes():
    t = table_of("Z12")
    order, s, a, b = t.pair_basis
    inverse = t.inverse_class
    assert s == 2 and b is None
    assert (inverse[order[:s]] == order[:s]).all()
    lows, highs = order[s : s + 5], order[s + 5 :]
    assert (lows < highs).all() and (inverse[lows] == highs).all()
    root = np.sqrt(0.5)
    assert np.allclose(a[:, s : s + 5], (t.values[:, lows] + t.values[:, highs]).real * root, atol=1e-15)
    assert np.allclose(a[:, s + 5 :], (t.values[:, lows] - t.values[:, highs]).imag * root, atol=1e-15)
