"""Exact identity-measure verification on the compact group T semidirect Z2.

The group is the circle T acted on by Z2 through inversion.  Its irreducible
characters, normalized by degree, are

- the trivial character,
- the sign character (s, a) -> a,
- for each mode n >= 1 an induced character with value
  (s^n + s^{-n})/2 = cos(n theta) on the circle component and 0 on the
  flipped component.

A candidate identity measure for the central convolution algebra is a
combination of four atoms at the two central points with a cross weight of
-2, plus arc-length measures on the diagonal and anti-diagonal circles of
the product group.  Pairing this measure against every tensor pair of
normalized characters must give exactly the Kronecker delta.

Characters are stored as Fourier-mode dictionaries {mode: Fraction} per
Z2 component, and every integral reduces to the rule that the integral of
s^m over the circle is 1 for m = 0 and 0 otherwise.  The per-pair functions
(haar_inner, atom_pairing, torus_pairing, measure_coefficient) pair one
character pair in Fraction arithmetic.  verify_identity_measure pairs every
pair exactly too, but in integers: it scales each character's Haar legs and
circle modes once by one common denominator, writes the cross weight as p/q,
and compares each pair's integer numerator with the common scale times the
Kronecker delta, building a Fraction only for a pair that fails.  No
floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .base import MAX_MODE

__all__ = [
    "MAX_MODE",
    "Character",
    "characters_up_to",
    "haar_inner",
    "atom_pairing",
    "torus_pairing",
    "measure_coefficient",
    "VerificationReport",
    "verify_identity_measure",
]

HALF = Fraction(1, 2)
CROSS_WEIGHT = Fraction(-2)


@dataclass(frozen=True)
class Character:
    """A degree-normalized irreducible character of T semidirect Z2."""

    kind: str
    mode: int = 0

    @classmethod
    def trivial(cls) -> "Character":
        return cls(kind="trivial")

    @classmethod
    def sign(cls) -> "Character":
        return cls(kind="sign")

    @classmethod
    def induced(cls, mode: int) -> "Character":
        if mode < 1:
            raise ValueError(f"induced characters need mode >= 1, got {mode}")
        return cls(kind="induced", mode=mode)

    @property
    def label(self) -> str:
        if self.kind == "induced":
            return f"ind({self.mode})"
        return self.kind

    def component(self, a: int) -> dict[int, Fraction]:
        """Fourier modes of the restriction to the component indexed by a.

        a = 1 is the circle itself, a = -1 the flipped coset.  All three
        character families are real.
        """
        if a not in (1, -1):
            raise ValueError(f"component index must be +1 or -1, got {a}")
        if self.kind == "trivial":
            return {0: Fraction(1)}
        if self.kind == "sign":
            return {0: Fraction(1) if a == 1 else Fraction(-1)}
        if self.kind == "induced":
            if a == 1:
                return {self.mode: HALF, -self.mode: HALF}
            return {}
        raise ValueError(f"unknown character kind {self.kind!r}")


def characters_up_to(max_mode: int) -> tuple[Character, ...]:
    """Trivial, sign, and induced characters for modes 1..max_mode."""
    if max_mode < 0:
        raise ValueError("max_mode must be nonnegative")
    return (
        Character.trivial(),
        Character.sign(),
        *(Character.induced(n) for n in range(1, max_mode + 1)),
    )


def _circle_integral(f: dict[int, Fraction], g: dict[int, Fraction]) -> Fraction:
    """Integral over the circle of f * g, via mode cancellation."""
    return sum((c * g[-m] for m, c in f.items() if -m in g), start=Fraction(0))


def haar_inner(chi: Character, rho: Character) -> Fraction:
    """Integral of chi * rho against normalized Haar measure on the group."""
    total = Fraction(0)
    for a in (1, -1):
        total += _circle_integral(chi.component(a), rho.component(a))
    return total * HALF


def _legs(chi: Character) -> tuple[Fraction, Fraction]:
    """chi's Haar inner products with the trivial and the sign character."""
    return haar_inner(chi, Character.trivial()), haar_inner(chi, Character.sign())


def atom_pairing(chi: Character, rho: Character, cross_weight: Fraction = CROSS_WEIGHT) -> Fraction:
    """Pairing against the atomic part of the measure.

    The atomic part is trivial (x) trivial + sign (x) sign plus
    cross_weight * (trivial + sign) (x) (trivial + sign), each tensor atom
    paired leg by leg through the Haar inner product.
    """
    (chi_one, chi_sgn), (rho_one, rho_sgn) = _legs(chi), _legs(rho)
    return chi_one * rho_one + chi_sgn * rho_sgn + cross_weight * (chi_one + chi_sgn) * (rho_one + rho_sgn)


def torus_pairing(chi: Character, rho: Character) -> Fraction:
    """Pairing against arc length on the diagonal and anti-diagonal circles.

    The diagonal circle contributes the circle integral of
    chi(s, 1) rho(s, 1); the anti-diagonal one the circle integral of
    chi(s, 1) rho(s^{-1}, 1).
    """
    f = chi.component(1)
    g = rho.component(1)
    diagonal = _circle_integral(f, g)
    reflected = {-m: c for m, c in g.items()}
    antidiagonal = _circle_integral(f, reflected)
    return diagonal + antidiagonal


def measure_coefficient(
    chi: Character, rho: Character, cross_weight: Fraction = CROSS_WEIGHT
) -> Fraction:
    """Total pairing of the candidate identity measure with chi (x) rho."""
    return atom_pairing(chi, rho, cross_weight) + torus_pairing(chi, rho)


@dataclass(frozen=True)
class VerificationReport:
    max_mode: int
    pairs_checked: int
    failures: tuple[tuple[str, str, Fraction, Fraction], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _over(x: Fraction, den: int) -> int:
    """x * den for a den that x's denominator divides."""
    return x.numerator * (den // x.denominator)


def verify_identity_measure(
    max_mode: int = 20, cross_weight: Fraction | int = CROSS_WEIGHT
) -> VerificationReport:
    """Check measure_coefficient == Kronecker delta over all character pairs.

    Every pair drawn from {trivial, sign, induced(1..max_mode)} is paired
    exactly; failures list (label, label, got, expected) in row-major order.
    The default cross weight -2 passes on every pair at every truncation
    level; the pair values do not depend on max_mode, it only bounds the
    enumeration.

    With every Haar leg and circle mode scaled by one common denominator D,
    and the cross weight written as p/q, the pair (chi, rho) has the value
    num / (q D^2), where

        num = q (a1 b1 + as bs + sum_m F_m (G_m + G_-m)) + p (a1 + as)(b1 + bs),

    (a1, as), (b1, bs) being the scaled legs and F, G the scaled circle
    modes of chi and rho.  The sum runs over the modes the two characters
    share up to sign, found through an index of G_m + G_-m by m.
    """
    chars = characters_up_to(max_mode)
    legs = [_legs(chi) for chi in chars]
    modes = [chi.component(1) for chi in chars]
    den = lcm(*(x.denominator for pair in legs for x in pair), *(c.denominator for f in modes for c in f.values()))
    p, q = Fraction(cross_weight).as_integer_ratio()
    scale = q * den**2
    int_legs = [(_over(one, den), _over(sgn, den)) for one, sgn in legs]
    reflected: dict[int, list[tuple[int, int]]] = {}  # m -> [(j, part of G_m + G_-m of chars[j])]
    for j, g in enumerate(modes):
        for m, c in g.items():
            c = _over(c, den)
            reflected.setdefault(m, []).append((j, c))
            reflected.setdefault(-m, []).append((j, c))
    failures = []
    for i, ((a_one, a_sgn), f) in enumerate(zip(int_legs, modes)):
        cross = p * (a_one + a_sgn)
        c_one, c_sgn = q * a_one + cross, q * a_sgn + cross
        row = [c_one * b_one + c_sgn * b_sgn for b_one, b_sgn in int_legs]
        for m, c in f.items():
            c = q * _over(c, den)
            for j, d in reflected.get(m, ()):
                row[j] += c * d
        row[i] -= scale  # a pair passes when its numerator is scale times the delta
        for j, miss in enumerate(row):
            if miss:
                expected = Fraction(int(i == j))
                failures.append((chars[i].label, chars[j].label, expected + Fraction(miss, scale), expected))
    return VerificationReport(max_mode=max_mode, pairs_checked=len(chars) ** 2, failures=tuple(failures))
