"""Acceptance suite: twelve go/no-go criteria with tolerances and budgets.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints its measured numbers and wall time.
Every criterion asserts both its mathematical claim and its runtime budget.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from zamen.amenability import (
    NONABELIAN_GAP,
    amenability_constant,
    diagonal,
    hilbert_schmidt_lower_bound,
    product_multiplicativity_check,
    quotient_monotonicity_check,
    verify_diagonal,
)
from oracles import convolve_direct, unitary_matrix
from zamen.central import ClassFunction, convolve, gelfand_transform, inverse_gelfand
from zamen.characters import canonical_form, character_table, verify_orthogonality
from zamen.groups import center, conjugacy_structure, direct_product, quotient_group
from zamen.hypergroups import HypergroupModel, QuadratureConfig, bai_norm, diagonal_norm, su2_divergence_lower_bound
from zamen.tz2 import verify_identity_measure
from zamen.zoo import abelian_zoo_names, build, nonabelian_zoo_names, zoo_names


class _Clock:
    def __init__(self, budget: float):
        self.budget = budget
        self.start = time.perf_counter()

    def done(self, number: int, message: str) -> None:
        elapsed = time.perf_counter() - self.start
        print(f"criterion {number:2d}: {message} [{elapsed:.2f}s < {self.budget:g}s]")
        assert elapsed < self.budget, f"criterion {number} exceeded {self.budget}s ({elapsed:.2f}s)"


_TABLES = {}


def table_for(name: str):
    if name not in _TABLES:
        group = build(name)
        _TABLES[name] = character_table(group)
    return _TABLES[name]


def brute_rational_am(table) -> Fraction:
    """Re-derive AM with plain loops and exact arithmetic.

    Each character value is snapped to the nearest integer (valid for the
    integer-valued tables this is applied to), then the diagonal
    coefficients and the constant are accumulated with Fractions, with no
    numpy reductions involved.
    """
    k = table.num_classes
    values = [[None] * k for _ in range(k)]
    for p in range(k):
        for j in range(k):
            v = table.values[p, j]
            nearest = round(v.real)
            assert abs(v - nearest) < 1e-9, "table is not integer-valued"
            values[p][j] = int(nearest)
    degrees = [int(d) for d in table.degrees]
    sizes = [int(s) for s in table.class_sizes]
    order = sum(sizes)
    total = Fraction(0)
    for i in range(k):
        for j in range(k):
            c = sum(degrees[p] ** 2 * values[p][i] * values[p][j] for p in range(k))
            total += abs(Fraction(c)) * sizes[i] * sizes[j]
    return total / order**2


def test_criterion_01_abelian_constants_are_one():
    clock = _Clock(budget=1.0)
    worst = 0.0
    for name in abelian_zoo_names():
        am = amenability_constant(table_for(name))
        worst = max(worst, abs(am.value - 1.0))
        assert abs(am.value - 1.0) <= 1e-9, (name, am.value)
    clock.done(1, f"AM = 1 on {len(abelian_zoo_names())} abelian groups, worst dev {worst:.1e}")


def test_criterion_02_landmark_rationals():
    clock = _Clock(budget=1.0)
    expected = {"S3": Fraction(7, 3), "D4": Fraction(7, 4), "Q8": Fraction(7, 4)}
    for name, target in expected.items():
        table = table_for(name)
        am = amenability_constant(table)
        assert abs(am.value - float(target)) <= 1e-9, (name, am.value)
        assert am.rational == target
        assert brute_rational_am(table) == target, name
    clock.done(2, "AM(S3) = 7/3 and AM(D4) = AM(Q8) = 7/4, re-derived exactly by brute force")


def test_criterion_03_nonabelian_gap():
    clock = _Clock(budget=10.0)
    checked = []
    for name in nonabelian_zoo_names():
        group = build(name)
        if group.order > 24:
            continue
        am = amenability_constant(table_for(name))
        assert am.value >= 1.0 + NONABELIAN_GAP - 1e-9, (name, am.value)
        checked.append(name)
    assert len(checked) >= 8
    clock.done(3, f"AM >= 1 + 1/700 on {len(checked)} nonabelian groups of order <= 24")


def test_criterion_04_diagonal_verification():
    clock = _Clock(budget=30.0)
    worst = 0.0
    for name in zoo_names():
        table = table_for(name)
        report = verify_diagonal(table, diagonal(table))
        assert report.passed, (name, report)
        worst = max(worst, report.max_residual)
    clock.done(4, f"diagonal verified on all {len(zoo_names())} groups, worst residual {worst:.1e}")


def test_criterion_05_multiplicativity():
    clock = _Clock(budget=10.0)
    pairs = (("S3", "S3"), ("S3", "D4"), ("S3", "Z4"))
    worst = 0.0
    for left, right in pairs:
        report = product_multiplicativity_check(table_for(left), table_for(right))
        assert report.relative_error <= 1e-8, (left, right, report)
        worst = max(worst, report.relative_error)
    clock.done(5, f"AM(GxH) = AM(G) AM(H) on {len(pairs)} pairs, worst rel err {worst:.1e}")


def test_criterion_06_quotient_monotonicity():
    clock = _Clock(budget=10.0)
    cases = []
    for name in ("D4", "D6"):
        group = build(name)
        cases.append((name + "/center", group, center(group)))
    s3 = build("S3")
    prod = direct_product(s3, s3)
    factor = [i * s3.order for i in range(s3.order)]
    cases.append(("S3xS3/factor", prod, factor))
    for label, group, subgroup in cases:
        report = quotient_monotonicity_check(group, subgroup)
        assert report.am_group >= report.am_quotient - 1e-9, (label, report)
    clock.done(6, f"AM(G) >= AM(G/N) on {len(cases)} quotients")


def test_criterion_07_hilbert_schmidt_bound():
    clock = _Clock(budget=10.0)
    for name in zoo_names():
        table = table_for(name)
        hs = hilbert_schmidt_lower_bound(table)
        am = amenability_constant(table).value
        assert hs <= am + 1e-9, (name, hs, am)
        if name in nonabelian_zoo_names():
            assert hs > 1.0 + 1e-6, (name, hs)
        else:
            assert abs(hs - 1.0) <= 1e-9, (name, hs)
    clock.done(7, f"HS lower bound <= AM on all {len(zoo_names())} groups, > 1 iff nonabelian")


def test_criterion_08_fejer_unit_norms():
    clock = _Clock(budget=60.0)
    model = HypergroupModel("chebyshev")
    scheme = "fejer"
    worst = 0.0
    for n in (4, 8, 16, 32):
        result = diagonal_norm(model, scheme, n)
        worst = max(worst, abs(result.value - 1.0))
        assert abs(result.value - 1.0) <= 1e-6, (n, result.value)
    clock.done(8, f"circle-quotient Fejer diagonal norm = 1 at n = 4..32, worst dev {worst:.1e}")


def test_criterion_09_su2_divergence():
    clock = _Clock(budget=300.0)
    model = HypergroupModel("su2")
    quad = QuadratureConfig()

    dirichlet = "dirichlet"
    crossing = next(
        (n for n in range(1, 101) if su2_divergence_lower_bound(dirichlet, n) > 5.0), None
    )
    assert crossing is not None, "sharp-truncation bound never exceeded 5 for n <= 100"

    for n in (8, 16, 32):
        result = diagonal_norm(model, dirichlet, n, quad)
        bound = su2_divergence_lower_bound(dirichlet, n)
        tol = max(quad.tolerance, result.error_estimate)
        assert result.value >= bound - tol, (n, result.value, bound)

    smoothed = "fejer-smoothed"
    norms = {}
    for n in (8, 16, 32):
        norms[n] = diagonal_norm(model, smoothed, n, quad).value
        kernel = bai_norm(model, smoothed, n, quad).value
        assert kernel <= 3.0, (n, kernel)
    r1 = norms[16] / norms[8]
    r2 = norms[32] / norms[16]
    assert r1 >= 1.5 and r2 >= 1.5, norms
    clock.done(
        9,
        "SU(2) bound > 5 at n = "
        f"{crossing}, tapered diagonal norms grow x{r1:.2f}, x{r2:.2f} per doubling",
    )


def test_criterion_10_exact_identity_measure():
    clock = _Clock(budget=1.0)
    report = verify_identity_measure(max_mode=20)
    assert report.pairs_checked == 484
    assert report.passed, report.failures
    clock.done(10, "identity measure on T x| Z2 exact on all 484 character pairs")


def test_criterion_11_convolution_and_transform():
    clock = _Clock(budget=30.0)
    rng = np.random.default_rng(20260817)
    names = ("S3", "D4", "S4")
    counts = (34, 33, 33)
    worst_conv = 0.0
    worst_round = 0.0
    for name, count in zip(names, counts):
        group = build(name)
        cs = conjugacy_structure(group)
        table = table_for(name)
        for _ in range(count):
            f = ClassFunction(cs.group_hash, rng.standard_normal(cs.num_classes))
            g = ClassFunction(cs.group_hash, rng.standard_normal(cs.num_classes))
            spectral = convolve(f, g, table)
            direct = convolve_direct(f, g, group, cs)
            worst_conv = max(worst_conv, float(np.abs(spectral.coeffs - direct.coeffs).max()))
            back = inverse_gelfand(gelfand_transform(f, table), table)
            worst_round = max(worst_round, float(np.abs(back.coeffs - f.coeffs).max()))
    assert worst_conv <= 1e-10, worst_conv
    assert worst_round <= 1e-10, worst_round
    clock.done(
        11,
        "spectral = direct convolution on 100 random pairs "
        f"(worst {worst_conv:.1e}), transform roundtrip {worst_round:.1e}",
    )


def test_criterion_12_table_certification():
    clock = _Clock(budget=10.0)
    for name in zoo_names():
        table = table_for(name)
        report = verify_orthogonality(table)
        assert report.max_residual <= 1e-9, (name, report)
        u = unitary_matrix(table)
        unitarity = float(np.abs(u @ u.conj().T - np.eye(u.shape[0])).max())
        assert unitarity <= 1e-9, (name, unitarity)
    d4_values, d4_degrees, d4_sizes = canonical_form(table_for("D4"))
    q8_values, q8_degrees, q8_sizes = canonical_form(table_for("Q8"))
    assert np.array_equal(d4_degrees, q8_degrees)
    assert np.array_equal(d4_sizes, q8_sizes)
    assert np.allclose(d4_values, q8_values, atol=1e-9)
    clock.done(
        12,
        f"orthogonality and unitarity <= 1e-9 on all {len(zoo_names())} groups; "
        "D4 and Q8 canonical tables identical",
    )
