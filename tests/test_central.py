"""Central algebra: spectral convolution and transform, checked against the
elementwise oracles (projection, direct convolution, pushforward) of ``oracles``."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (
    central_projection,
    conjugate,
    convolve_direct,
    expand_to_elements,
    indicator,
    l1_norm,
    quotient_pushforward,
)
from zamen.central import ClassFunction, convolve, gelfand_transform, inverse_gelfand
from zamen.characters import character_table
from zamen.groups import (
    center,
    conjugacy_structure,
    cyclic,
    dihedral,
    direct_product,
    quaternion_group,
    quotient_group,
    symmetric,
)


def character_function(table, p):
    return ClassFunction(group_hash=table.group_hash, coeffs=table.values[p].copy())


def brute_central_projection(values, group):
    """P f(s) = (1/|G|) sum_t f(t s t^{-1}), computed literally."""
    n = group.order
    out = np.zeros(n, dtype=np.complex128)
    for s in range(n):
        out[s] = sum(values[conjugate(group, t, s)] for t in range(n)) / n
    return out


def test_central_projection_is_class_average():
    g = symmetric(3)
    cs = conjugacy_structure(g)
    # Indicator of a single transposition (element 1).
    values = np.zeros(6)
    values[1] = 1.0
    proj = central_projection(values, g, cs)
    assert proj.coeffs.tolist() == pytest.approx([0.0, 1.0 / 3.0, 0.0])

    brute = brute_central_projection(values, g)
    assert np.abs(expand_to_elements(proj, cs) - brute).max() < 1e-12


def test_central_projection_random_agrees_with_definition():
    rng = np.random.default_rng(3)
    for g in (dihedral(4), quaternion_group(), symmetric(4)):
        cs = conjugacy_structure(g)
        values = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        proj = central_projection(values, g, cs)
        brute = brute_central_projection(values, g)
        assert np.abs(expand_to_elements(proj, cs) - brute).max() < 1e-12
        # Idempotent: projecting a central function changes nothing.
        again = central_projection(expand_to_elements(proj, cs), g, cs)
        assert np.abs(again.coeffs - proj.coeffs).max() < 1e-12


def test_character_convolution_identity():
    # chi_pi * chi_sigma = delta d_pi^{-1} chi_pi under normalized Haar.
    g = symmetric(3)
    cs = conjugacy_structure(g)
    t = character_table(g)
    for p in range(3):
        for q in range(3):
            fp, fq = character_function(t, p), character_function(t, q)
            conv = convolve(fp, fq, t)
            expected = t.values[p] / t.degrees[p] if p == q else np.zeros(3)
            assert np.abs(conv.coeffs - expected).max() < 1e-10
            direct = convolve_direct(fp, fq, g, cs)
            assert np.abs(direct.coeffs - expected).max() < 1e-10


@pytest.mark.parametrize(
    "builder",
    [lambda: symmetric(4), lambda: dihedral(5), lambda: cyclic(6), lambda: quaternion_group()],
)
def test_convolution_routes_agree(builder):
    g = builder()
    cs = conjugacy_structure(g)
    t = character_table(g)
    rng = np.random.default_rng(11)
    for _ in range(4):
        f = ClassFunction(t.group_hash, rng.standard_normal(cs.num_classes) + 1j * rng.standard_normal(cs.num_classes))
        h = ClassFunction(t.group_hash, rng.standard_normal(cs.num_classes) + 1j * rng.standard_normal(cs.num_classes))
        spectral = convolve(f, h, t)
        direct = convolve_direct(f, h, g, cs)
        assert np.abs(spectral.coeffs - direct.coeffs).max() < 1e-9


def test_convolution_is_commutative_on_centre():
    g = symmetric(4)
    cs = conjugacy_structure(g)
    t = character_table(g)
    rng = np.random.default_rng(5)
    f = ClassFunction(t.group_hash, rng.standard_normal(cs.num_classes))
    h = ClassFunction(t.group_hash, rng.standard_normal(cs.num_classes))
    assert np.abs(convolve(f, h, t).coeffs - convolve(h, f, t).coeffs).max() < 1e-10


def test_gelfand_roundtrip_and_multiplicativity():
    g = dihedral(6)
    cs = conjugacy_structure(g)
    t = character_table(g)
    rng = np.random.default_rng(2)
    f = ClassFunction(t.group_hash, rng.standard_normal(cs.num_classes) + 1j * rng.standard_normal(cs.num_classes))
    h = ClassFunction(t.group_hash, rng.standard_normal(cs.num_classes))
    # Round trip.
    back = inverse_gelfand(gelfand_transform(f, t), t)
    assert np.abs(back.coeffs - f.coeffs).max() < 1e-10
    # Transform of a convolution is the pointwise product.
    lhs = gelfand_transform(convolve(f, h, t), t)
    rhs = gelfand_transform(f, t) * gelfand_transform(h, t)
    assert np.abs(lhs - rhs).max() < 1e-10
    # Characters transform to scaled basis vectors.
    for p in range(t.num_classes):
        e = gelfand_transform(character_function(t, p), t)
        expected = np.zeros(t.num_classes)
        expected[p] = 1.0 / t.degrees[p]
        assert np.abs(e - expected).max() < 1e-10


def test_convolution_unit():
    g = symmetric(3)
    cs = conjugacy_structure(g)
    t = character_table(g)
    unit = np.zeros(cs.num_classes, dtype=np.complex128)
    unit[cs.class_of[g.identity]] = g.order
    u = ClassFunction(cs.group_hash, unit)
    assert np.abs(gelfand_transform(u, t) - 1.0).max() < 1e-10
    rng = np.random.default_rng(9)
    f = ClassFunction(t.group_hash, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    assert np.abs(convolve(u, f, t).coeffs - f.coeffs).max() < 1e-10


def test_l1_norm():
    g = symmetric(3)
    cs = conjugacy_structure(g)
    f = ClassFunction(cs.group_hash, np.array([6.0, -1.0, 2.0]))
    # (1/6) (1*6 + 3*1 + 2*2) = 13/6
    assert l1_norm(f, cs) == pytest.approx(13.0 / 6.0)


def test_group_mismatch_rejected():
    t3 = character_table(symmetric(3))
    t4 = character_table(symmetric(4))
    f = ClassFunction(t3.group_hash, np.ones(3))
    with pytest.raises(ValueError, match="group mismatch"):
        gelfand_transform(f, t4)


def test_quotient_pushforward_s3():
    g = symmetric(3)
    cs = conjugacy_structure(g)
    a3 = [0] + cs.classes[2].tolist()
    quo = quotient_group(g, a3)
    qcs = conjugacy_structure(quo.group)
    # Push the sign character down: constant 1 on A3 cosets -> wait, the sign
    # character is constant on cosets of A3, so it descends exactly.
    t = character_table(g)
    sign = character_function(t, 1)
    pushed = quotient_pushforward(sign, cs, quo, qcs)
    tq = character_table(quo.group)
    assert np.abs(np.sort(pushed.coeffs.real) - np.array([-1.0, 1.0])).max() < 1e-10
    # Norm decreases (here: is preserved, sign descends exactly).
    assert l1_norm(pushed, qcs) <= l1_norm(sign, cs) + 1e-12


def test_quotient_pushforward_contracts_norm():
    g = dihedral(4)
    cs = conjugacy_structure(g)
    quo = quotient_group(g, center(g))
    qcs = conjugacy_structure(quo.group)
    rng = np.random.default_rng(21)
    for _ in range(6):
        f = ClassFunction(cs.group_hash, rng.standard_normal(cs.num_classes) + 1j * rng.standard_normal(cs.num_classes))
        pushed = quotient_pushforward(f, cs, quo, qcs)
        assert l1_norm(pushed, qcs) <= l1_norm(f, cs) + 1e-12


def test_pushforward_of_indicator():
    # The identity-class indicator pushes to (1/|N|) x indicator of identity coset.
    g = dihedral(4)
    cs = conjugacy_structure(g)
    quo = quotient_group(g, center(g))
    qcs = conjugacy_structure(quo.group)
    f = indicator(cs, 0)
    pushed = quotient_pushforward(f, cs, quo, qcs)
    e_coset_class = int(qcs.class_of[quo.group.identity])
    expected = np.zeros(qcs.num_classes)
    expected[e_coset_class] = 0.5
    assert np.abs(pushed.coeffs - expected).max() < 1e-12
