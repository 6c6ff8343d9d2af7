"""Amenability constants: frozen desk derivations, diagonal checks, theorem checks.

The S3 and D4 values are re-derived here from hand-written standard character
tables with plain Python loops, independently of the package's linear algebra:

    S3 (classes e, transpositions, 3-cycles; sizes 1, 3, 2):
      c(e,e) = 1 + 1 + 4*4 = 18
      c(e,C3) = 1 + 1 + 4*2*(-1) = -6,  c(e,Ct) = 1 - 1 + 0 = 0
      c(Ct,Ct) = 1 + 1 + 0 = 2,         c(C3,C3) = 1 + 1 + 4 = 6
      AM = (18*1 + 6*2*2 + 2*9 + 6*4) / 36 = 84/36 = 7/3
    D4/Q8: diagonal entries (20, 20, 4, 4, 4), off-diagonal -12 between the
      two central classes; AM = (20 + 20 + 24 + 3*16) / 64 = 112/64 = 7/4.
"""

from __future__ import annotations

import inspect
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import indicator, outer_module_residuals, special_linear
import zamen
from zamen.amenability import (
    NONABELIAN_GAP,
    amenability_constant,
    diagonal,
    hilbert_schmidt_lower_bound,
    nonabelian_gap_check,
    product_multiplicativity_check,
    quotient_monotonicity_check,
    snap_rational,
    verify_diagonal,
)
from zamen.central import ClassFunction, convolve, gelfand_transform
from zamen.characters import character_table, tensor_table
from zamen.groups import (
    alternating,
    center,
    conjugacy_structure,
    cyclic,
    dihedral,
    direct_product,
    quotient_group,
    symmetric,
)
from zamen.zoo import abelian_zoo_names, build, nonabelian_zoo_names, zoo_names

S3_VALUES = [[1, 1, 1], [1, -1, 1], [2, 0, -1]]  # classes: e, transpositions, 3-cycles
S3_SIZES = [1, 3, 2]
S3_DEGREES = [1, 1, 2]

D4_VALUES = [  # classes: e, {r, r^3}, axes, r^2, diagonals
    [1, 1, 1, 1, 1],
    [1, 1, -1, 1, -1],
    [1, -1, 1, 1, -1],
    [1, -1, -1, 1, 1],
    [2, 0, 0, -2, 0],
]
D4_SIZES = [1, 2, 2, 1, 2]
D4_DEGREES = [1, 1, 1, 1, 2]


def brute_am(values, degrees, sizes):
    """The norm formula evaluated with plain loops on a literal table."""
    order = sum(sizes)
    k = len(sizes)
    total = 0.0
    for ci in range(k):
        for cj in range(k):
            coeff = sum(
                degrees[p] ** 2 * complex(values[p][ci]).conjugate() * values[p][cj]
                for p in range(len(degrees))
            )
            total += abs(coeff) * sizes[ci] * sizes[cj]
    return total / order**2


def test_brute_force_rederivation_s3():
    assert brute_am(S3_VALUES, S3_DEGREES, S3_SIZES) == pytest.approx(7.0 / 3.0, abs=1e-12)


def test_brute_force_rederivation_d4():
    assert brute_am(D4_VALUES, D4_DEGREES, D4_SIZES) == pytest.approx(7.0 / 4.0, abs=1e-12)


def test_am_s3():
    t = character_table(symmetric(3))
    am = amenability_constant(t)
    assert am.value == pytest.approx(7.0 / 3.0, abs=1e-10)
    assert am.rational == Fraction(7, 3)


def test_am_takes_no_diagonal_from_another_table():
    # The diagonal has one correct value, the table's own: a Z3 diagonal gave S3 the value 7/6.
    s3, z3 = character_table(symmetric(3)), character_table(cyclic(3))
    with pytest.raises(TypeError):
        amenability_constant(s3, diagonal(z3))
    assert amenability_constant(s3).rational == Fraction(7, 3)


def test_s3_diagonal_frozen_coefficients():
    t = character_table(symmetric(3))
    c = diagonal(t)
    assert np.abs(c.imag).max() < 1e-10
    c = c.real
    # Classes in order e, transpositions, 3-cycles.
    assert c[0, 0] == pytest.approx(18.0, abs=1e-10)
    assert c[0, 2] == pytest.approx(-6.0, abs=1e-10)
    assert c[2, 0] == pytest.approx(-6.0, abs=1e-10)
    assert c[0, 1] == pytest.approx(0.0, abs=1e-10)
    assert c[1, 1] == pytest.approx(2.0, abs=1e-10)
    assert c[2, 2] == pytest.approx(6.0, abs=1e-10)


def test_d4_q8_constants_and_diagonal():
    for name in ("D4", "Q8"):
        t = character_table(build(name))
        am = amenability_constant(t)
        assert am.value == pytest.approx(7.0 / 4.0, abs=1e-10)
        assert am.rational == Fraction(7, 4)
        c = diagonal(t)
        diag = sorted(np.round(np.diag(c).real, 8).tolist(), reverse=True)
        assert diag == [20, 20, 4, 4, 4]
        off = c.copy()
        np.fill_diagonal(off, 0)
        nonzero = np.argwhere(np.abs(off) > 1e-9)
        assert len(nonzero) == 2  # the (e, central) pair and its transpose
        assert off[tuple(nonzero[0])].real == pytest.approx(-12.0, abs=1e-9)


def test_abelian_zoo_is_exactly_one():
    for name in abelian_zoo_names():
        t = character_table(build(name))
        am = amenability_constant(t)
        assert abs(am.value - 1.0) <= 1e-9, name
        assert am.rational == Fraction(1)


def test_hermitian_symmetry_of_diagonal_matrix():
    for name in ("S3", "Z6", "S4", "Q8", "Z12"):
        c = diagonal(character_table(build(name)))
        assert np.abs(c - c.conj().T).max() < 1e-9
        d4 = (character_table(build(name)).degrees.astype(float) ** 4).sum()
        assert c[0, 0].real == pytest.approx(d4, abs=1e-8)


def test_verify_diagonal_passes():
    for name in ("S3", "D4", "Q8", "Z6", "A4", "S4", "Z12", "S3xS3"):
        t = character_table(build(name))
        report = verify_diagonal(t)
        assert report.passed, (name, report.module_residual, report.unit_residual)
        assert report.failing == ()


def test_verify_diagonal_detects_perturbation():
    for name in ("S3", "D4"):
        t = character_table(build(name))
        c = diagonal(t)
        for entry in ((0, 0), (0, 1), (1, 1)):
            bad = c.copy()
            bad[entry] += 0.01
            report = verify_diagonal(t, bad)
            assert not report.passed, (name, entry)
            assert report.max_residual >= 1e-3, (name, entry, report.max_residual)


@pytest.mark.parametrize(
    "name, source, passes",
    [("Z4", "Z2xZ2", True), ("D4", "Q8", False), ("D5", "Z4", False)],
    ids=["Z4 given Z2xZ2", "D4 given Q8", "D5 given Z4"],
)
def test_any_matrix_that_verifies_is_the_unique_diagonal(name, source, passes):
    # The identities alone decide: Z2xZ2's matrix is 4 I, which is Z4's diagonal too, while Q8's
    # matrix orders its classes unlike D4's and misses at residual 6.
    table = character_table(build(name))
    report = verify_diagonal(table, diagonal(character_table(build(source))))
    assert report.passed is passes, report
    if not passes:
        assert report.max_residual >= 1.0 and report.failing, report


def test_a_matrix_of_another_shape_is_refused():
    table = character_table(build("S3"))
    with pytest.raises(ValueError, match="expected a 3 x 3 coefficient matrix"):
        verify_diagonal(table, np.eye(4, dtype=np.complex128))


def loop_verify_diagonal(table, matrix, tol=1e-9):
    """verify_diagonal by O(k^2) spectral convolutions per check (the oracle), O(k^5) in all."""
    k = table.num_classes
    c_fun = matrix[table.inverse_class]
    failing = []
    module_residual = 0.0
    basis = [ClassFunction(table.group_hash, table.values[p].copy()) for p in range(k)]
    indicators = [indicator(table, j) for j in range(k)]
    for p, f in enumerate(basis):
        leg = np.empty((k, k), dtype=np.complex128)
        for j, one_c in enumerate(indicators):
            leg[:, j] = convolve(f, one_c, table).coeffs
        residual = float(np.abs(leg @ c_fun - c_fun @ leg.T).max())
        if residual > tol:
            failing.append(p)
        module_residual = max(module_residual, residual)

    m_mu = np.zeros(k, dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            m_mu += c_fun[i, j] * convolve(indicators[i], indicators[j], table).coeffs
    m_fun = ClassFunction(table.group_hash, m_mu)
    unit_residual = float(np.abs(gelfand_transform(m_fun, table) - 1.0).max())
    for p, f in enumerate(basis):
        diff = float(np.abs(convolve(m_fun, f, table).coeffs - f.coeffs).max())
        if diff > tol and p not in failing:
            failing.append(p)
        unit_residual = max(unit_residual, diff)
    return module_residual, unit_residual, tuple(sorted(failing))


@pytest.mark.parametrize(
    "make_group",
    [lambda: build("Q8"), lambda: build("Z12"), lambda: dihedral(60), lambda: dihedral(120)],
    ids=["Q8", "Z12", "D60", "D120"],
)
def test_verify_diagonal_matches_the_loop_oracle(make_group):
    t = character_table(make_group())
    c = diagonal(t)
    values = t.values
    k = t.num_classes
    q, r = k - 1, k // 2
    cases = {
        # A clean diagonal passes everywhere.
        "clean": c,
        # Changing one Gelfand coefficient breaks only the unit property at q.
        "weight": c + 1e-3 * np.outer(values[q].conj(), values[q]),
        # A cross term between q and r breaks only the module property there.
        "cross": c + 1e-3 * np.outer(values[q].conj(), values[r]),
        # One entry off breaks both properties broadly.
        "entry": c + 1e-2 * (np.arange(k * k).reshape(k, k) == 1),
    }
    expected = {"clean": (), "weight": (q,), "cross": tuple(sorted({q, r}))}
    for name, matrix in cases.items():
        report = verify_diagonal(t, matrix)
        module, unit, failing = loop_verify_diagonal(t, matrix)
        assert abs(report.module_residual - module) <= 1e-12, name
        assert abs(report.unit_residual - unit) <= 1e-12, name
        assert report.failing == failing, name
        if name in expected:
            assert failing == expected[name], name


@pytest.mark.parametrize(
    "make_group",
    [lambda: build("Z12"), lambda: dihedral(60), lambda: cyclic(130)],
    ids=["Z12", "D60", "Z130"],
)
def test_the_blocked_module_residual_is_the_per_character_one(make_group):
    # Blocks of characters (one for Z12, 15 + 15 + 3 for D60, one each for Z130) form the same
    # products as one np.outer pair per character, so the residual is equal, not just close.
    t = character_table(make_group())
    c = diagonal(t)
    for matrix in (c, c + 1e-3 * np.outer(t.values[-1].conj(), t.values[0])):
        assert verify_diagonal(t, matrix).module_residual == outer_module_residuals(t, matrix).max()


def test_verify_diagonal_of_d500_within_a_second():
    # k = 253: the rank-one form is O(k^3), where the per-class products it replaced were O(k^4).
    t = character_table(dihedral(500))
    assert t.num_classes == 253
    c = diagonal(t)
    start = time.perf_counter()
    report = verify_diagonal(t, c)
    elapsed = time.perf_counter() - start
    assert report.passed and report.failing == (), report
    assert elapsed < 1.0, elapsed
    bad = c.copy()
    bad[126, 126] += 1e-2
    report = verify_diagonal(t, bad)
    assert not report.passed and report.failing, report


def test_hilbert_schmidt_bound():
    t3 = character_table(symmetric(3))
    hs = hilbert_schmidt_lower_bound(t3)
    # (1/36) [1*(1+9+4) + 1*(1+9+4) + 4*(4 + 0 + 4)] = 60/36
    assert hs == pytest.approx(5.0 / 3.0, abs=1e-10)
    for name in zoo_names():
        t = character_table(build(name))
        bound = hilbert_schmidt_lower_bound(t)
        am = amenability_constant(t).value
        assert bound <= am + 1e-9, name
        if name in nonabelian_zoo_names():
            assert bound > 1.0 + 1e-6, name
        else:
            assert bound == pytest.approx(1.0, abs=1e-9)


MULTIPLICATIVITY_PAIRS = [
    ("S3", "Z4"),
    ("D4", "Z3"),
    ("Q8", "S3"),
    ("S3", "S3"),
    ("Z6", "D5"),
]


@pytest.mark.parametrize("left,right", MULTIPLICATIVITY_PAIRS)
def test_product_multiplicativity(left, right):
    tl = character_table(build(left))
    tr = character_table(build(right))
    report = product_multiplicativity_check(tl, tr)
    assert report.passed, report
    assert report.relative_error <= 1e-8


def test_tensor_route_matches_true_product_group():
    a, b = symmetric(3), cyclic(4)
    am_tensor = amenability_constant(tensor_table(character_table(a), character_table(b))).value
    am_direct = amenability_constant(character_table(direct_product(a, b))).value
    assert am_tensor == pytest.approx(am_direct, rel=1e-10)


def test_quotient_monotonicity():
    cases = []
    d6 = dihedral(6)
    cases.append((d6, center(d6)))  # D6 / Z2 is S3
    d4 = dihedral(4)
    cases.append((d4, center(d4)))
    s3 = symmetric(3)
    cs = conjugacy_structure(s3)
    cases.append((s3, [0] + cs.classes[2].tolist()))  # S3 / A3
    q8 = build("Q8")
    cases.append((q8, center(q8)))
    s4 = symmetric(4)
    cs4 = conjugacy_structure(s4)
    klein = [0] + cs4.classes[int(np.nonzero(cs4.sizes == 3)[0][0])].tolist()
    cases.append((s4, klein))  # S4 / V4 is S3
    for group, sub in cases:
        report = quotient_monotonicity_check(group, sub)
        assert report.passed, (group.label, report)

    # D6 / center realizes S3, so the quotient constant is exactly 7/3.
    report = quotient_monotonicity_check(d6, center(d6))
    assert report.am_quotient == pytest.approx(7.0 / 3.0, abs=1e-9)
    assert report.am_group >= 7.0 / 3.0 - 1e-9


def test_psl_2_5_is_a5_and_sl_2_5_passes_monotonicity():
    # SL(2,5) / {+-I} = PSL(2,5), which is isomorphic to A5.
    sl25 = special_linear(5)
    quo = quotient_group(sl25, center(sl25))
    am_a5 = amenability_constant(character_table(alternating(5))).value
    assert amenability_constant(character_table(quo.group)).value == pytest.approx(am_a5, rel=1e-12)
    assert am_a5 == pytest.approx(1699 / 75, rel=1e-12)  # 22.65333...
    report = quotient_monotonicity_check(sl25, center(sl25))
    assert report.passed
    assert report.am_group == pytest.approx(1757 / 60, rel=1e-12)
    assert report.am_quotient == pytest.approx(1699 / 75, rel=1e-12)


def test_nonabelian_gap():
    for name in zoo_names():
        t = character_table(build(name))
        report = nonabelian_gap_check(t)
        assert report.passed, (name, report)
        if name in nonabelian_zoo_names():
            assert report.am >= 1.0 + NONABELIAN_GAP - 1e-9
    # Empirical over this zoo: AM == 1 exactly for the abelian members only.
    for name in zoo_names():
        t = character_table(build(name))
        am = amenability_constant(t).value
        assert (abs(am - 1.0) <= 1e-9) == (name in abelian_zoo_names())


def test_s7_above_the_old_table_cap():
    g = symmetric(7)
    table = character_table(g)
    assert table.num_classes == 15
    assert amenability_constant(table).value == pytest.approx(842.9821428571445, rel=1e-9)


def test_s8_above_the_old_closure_cap_certifies_within_two_seconds():
    # S8 (40 320 elements) was refused by the 20 000-element closure cap of the Cayley-table
    # representation; from columns and a tree, build and certified table take about 0.2 s on a
    # 2-vCPU x86-64 VM.
    start = time.perf_counter()
    g = symmetric(8)
    table = character_table(g)
    elapsed = time.perf_counter() - start
    assert (g.order, table.num_classes) == (40320, 22) and table.residual <= 1e-9
    assert amenability_constant(table).value == pytest.approx(257262949 / 53760, rel=1e-9)
    assert "table" not in vars(g)
    assert elapsed < 2.0, f"S8 took {elapsed:.2f} s"


def test_checks_take_no_tolerance():
    # The tolerances are the module constants TOL, SNAP_DENOMINATOR and PRODUCT_REL_TOL.
    assert list(inspect.signature(snap_rational).parameters) == ["value"]
    assert list(inspect.signature(verify_diagonal).parameters) == ["table", "matrix"]
    assert list(inspect.signature(nonabelian_gap_check).parameters) == ["table"]
    assert list(inspect.signature(product_multiplicativity_check).parameters) == ["left", "right"]
    assert list(inspect.signature(quotient_monotonicity_check).parameters) == ["group", "subgroup"]
    assert not hasattr(zamen, "DiagonalCoefficients")


def test_snap_rational():
    assert snap_rational(7.0 / 3.0) == Fraction(7, 3)
    assert snap_rational(1.75) == Fraction(7, 4)
    assert snap_rational(0.3333333) is None  # off by 3e-8, outside tolerance
    assert snap_rational(1.0 / 65.0) is None  # denominator too large
    assert snap_rational(2.0) == Fraction(2)
