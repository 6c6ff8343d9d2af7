"""Tests for the exact identity-measure verification on T semidirect Z2.

Frozen hand values: the atomic pairing table is -1 at (trivial, trivial)
and (sign, sign), -2 at the mixed trivial/sign pairs, 0 whenever an induced
character is involved; the circle pairing is 2 at all four trivial/sign
pairs and 1 at matching induced pairs; the sum is the Kronecker delta.
"""

import fractions
import inspect
from fractions import Fraction

import pytest

from zamen import tz2
from zamen.tz2 import (
    Character,
    atom_pairing,
    characters_up_to,
    haar_inner,
    measure_coefficient,
    torus_pairing,
    verify_identity_measure,
)


class TestCharacters:
    def test_components(self):
        assert Character.trivial().component(1) == {0: 1}
        assert Character.trivial().component(-1) == {0: 1}
        assert Character.sign().component(-1) == {0: -1}
        assert Character.induced(3).component(1) == {3: Fraction(1, 2), -3: Fraction(1, 2)}
        assert Character.induced(3).component(-1) == {}

    def test_induced_requires_positive_mode(self):
        with pytest.raises(ValueError, match="mode >= 1"):
            Character.induced(0)

    def test_enumeration(self):
        chars = characters_up_to(3)
        assert [c.label for c in chars] == ["trivial", "sign", "ind(1)", "ind(2)", "ind(3)"]

    def test_haar_inner_orthogonality(self):
        chars = characters_up_to(4)
        # Normalized characters: the one-dimensional ones have norm 1, the
        # induced ones have squared norm 1/4 (degree 2, normalized by it).
        for i, chi in enumerate(chars):
            for j, rho in enumerate(chars):
                got = haar_inner(chi, rho)
                if i != j:
                    assert got == 0, (chi.label, rho.label, got)
                elif chi.kind == "induced":
                    assert got == Fraction(1, 4)
                else:
                    assert got == 1


class TestPairingTables:
    def test_atom_pairing_table(self):
        one = Character.trivial()
        sgn = Character.sign()
        ind = Character.induced(2)
        assert atom_pairing(one, one) == -1
        assert atom_pairing(sgn, sgn) == -1
        assert atom_pairing(one, sgn) == -2
        assert atom_pairing(sgn, one) == -2
        assert atom_pairing(ind, ind) == 0
        assert atom_pairing(one, ind) == 0
        assert atom_pairing(ind, sgn) == 0

    def test_torus_pairing_table(self):
        one = Character.trivial()
        sgn = Character.sign()
        for left in (one, sgn):
            for right in (one, sgn):
                assert torus_pairing(left, right) == 2
        assert torus_pairing(Character.induced(5), Character.induced(5)) == 1
        assert torus_pairing(Character.induced(5), Character.induced(6)) == 0
        assert torus_pairing(one, Character.induced(1)) == 0

    def test_measure_coefficient_is_kronecker_delta(self):
        chars = characters_up_to(6)
        for chi in chars:
            for rho in chars:
                expected = 1 if chi == rho else 0
                assert measure_coefficient(chi, rho) == expected

    def test_symmetry(self):
        chars = characters_up_to(5)
        for chi in chars:
            for rho in chars:
                assert measure_coefficient(chi, rho) == measure_coefficient(rho, chi)


class TestVerification:
    def test_small_truncation(self):
        report = verify_identity_measure(max_mode=1)
        assert report.pairs_checked == 9
        assert report.passed
        assert report.failures == ()

    def test_default_truncation(self):
        report = verify_identity_measure()
        assert report.max_mode == 20
        assert report.pairs_checked == 484
        assert report.passed

    def test_values_do_not_depend_on_truncation(self):
        small = {
            (chi.label, rho.label): measure_coefficient(chi, rho)
            for chi in characters_up_to(3)
            for rho in characters_up_to(3)
        }
        for (left, right), value in small.items():
            assert value == (1 if left == right else 0)
        # Enumerating more characters cannot change any pair's value.
        report = verify_identity_measure(max_mode=40)
        assert report.passed

    def test_wrong_cross_weight_fails_on_exactly_four_pairs(self):
        report = verify_identity_measure(max_mode=20, cross_weight=Fraction(-1))
        assert not report.passed
        failing = {(left, right) for left, right, _, _ in report.failures}
        assert failing == {
            ("trivial", "trivial"),
            ("trivial", "sign"),
            ("sign", "trivial"),
            ("sign", "sign"),
        }
        got = {(left, right): value for left, right, value, _ in report.failures}
        assert got[("trivial", "trivial")] == 2
        assert got[("trivial", "sign")] == 1

    @pytest.mark.parametrize("cross_weight", [Fraction(-2), Fraction(-1), Fraction(3, 7)])
    def test_report_matches_pairwise_measure_coefficient(self, cross_weight):
        # The report pairs precomputed Haar legs; measure_coefficient pairs
        # each character pair from scratch.
        chars = characters_up_to(6)
        expected = tuple(
            (chi.label, rho.label, got, Fraction(int(chi == rho)))
            for chi in chars
            for rho in chars
            if (got := measure_coefficient(chi, rho, cross_weight)) != int(chi == rho)
        )
        assert verify_identity_measure(max_mode=6, cross_weight=cross_weight).failures == expected

    def test_results_are_exact_rationals(self):
        chars = characters_up_to(4)
        for chi in chars:
            for rho in chars:
                assert isinstance(measure_coefficient(chi, rho), fractions.Fraction)

    def test_module_has_no_floats(self):
        source = inspect.getsource(tz2)
        assert "float(" not in source
        assert "numpy" not in source
        assert "math." not in source
        # No float literals: every number in the module is an int or a
        # Fraction built from ints.
        import ast

        tree = ast.parse(source)
        literals = [
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
        ]
        assert literals == []
