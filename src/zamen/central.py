"""The centre of L1(G): class functions under normalized-Haar convolution.

Conventions, fixed once here and used everywhere downstream:

- Haar integral: (1/|G|) * sum over elements; the L1 norm of a class
  function is (1/|G|) * sum_C |C| |f(C)|.
- Convolution: (f * g)(s) = (1/|G|) sum_t f(t) g(t^{-1} s).  Under these
  normalizations the irreducible characters satisfy
  chi_pi * chi_sigma = delta_{pi,sigma} chi_pi / d_pi.
- Gelfand transform: fhat(pi) = (1/|G|) sum_C |C| f(C) conj(chi_pi(C)/d_pi),
  with inverse f = sum_pi d_pi fhat(pi) chi_pi; the transform turns
  convolution into pointwise multiplication.

The spectral route (transform, multiply, invert) is the production
convolution; ``convolve_direct`` keeps the quadratic elementwise definition
as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import CharacterTable
from .groups import ConjugacyStructure, FiniteGroup, Quotient

__all__ = [
    "ClassFunction",
    "indicator",
    "convolution_unit",
    "expand_to_elements",
    "central_projection",
    "l1_norm",
    "gelfand_transform",
    "inverse_gelfand",
    "convolve",
    "convolve_direct",
    "quotient_pushforward",
]


@dataclass(frozen=True)
class ClassFunction:
    """Values of a central function, one per conjugacy class."""

    group_hash: str
    coeffs: np.ndarray

    @property
    def num_classes(self) -> int:
        return int(self.coeffs.size)


def _check_binding(f: ClassFunction, holder_hash: str, what: str) -> None:
    if f.group_hash != holder_hash:
        raise ValueError(f"group mismatch: class function is not bound to this {what}")


def indicator(holder: ConjugacyStructure | CharacterTable, cls: int) -> ClassFunction:
    """The indicator function of class ``cls`` of a conjugacy structure or character table."""
    coeffs = np.zeros(holder.num_classes, dtype=np.complex128)
    coeffs[cls] = 1.0
    return ClassFunction(group_hash=holder.group_hash, coeffs=coeffs)


def convolution_unit(table: CharacterTable) -> ClassFunction:
    """The unit of convolution, |G| times the indicator of the identity class."""
    # The identity class is the one where every character equals its degree.
    matches = np.nonzero(
        (np.abs(table.values - table.degrees[:, None]) < 1e-8).all(axis=0)
    )[0]
    if matches.size != 1:
        raise ValueError("table does not expose a unique identity class")
    e_class = int(matches[0])
    coeffs = np.zeros(table.num_classes, dtype=np.complex128)
    coeffs[e_class] = table.order
    return ClassFunction(group_hash=table.group_hash, coeffs=coeffs)


def expand_to_elements(f: ClassFunction, cs: ConjugacyStructure) -> np.ndarray:
    _check_binding(f, cs.group_hash, "conjugacy structure")
    return f.coeffs[cs.class_of]


def central_projection(values: np.ndarray, group: FiniteGroup, cs: ConjugacyStructure | None = None) -> ClassFunction:
    """Project a function on elements onto the centre.

    P f(s) = (1/|G|) sum_t f(t s t^{-1}); for s in class C this is exactly
    the average of f over C, which is how it is computed.
    """
    from .groups import conjugacy_structure

    cs = cs or conjugacy_structure(group)
    vals = np.asarray(values, dtype=np.complex128)
    if vals.shape != (group.order,):
        raise ValueError(f"expected {group.order} element values, got shape {vals.shape}")
    acc = np.zeros(cs.num_classes, dtype=np.complex128)
    np.add.at(acc, cs.class_of, vals)
    return ClassFunction(group_hash=cs.group_hash, coeffs=acc / cs.sizes)


def l1_norm(f: ClassFunction, table_or_cs: CharacterTable | ConjugacyStructure) -> float:
    """Normalized-Haar L1 norm: (1/|G|) sum_C |C| |f(C)|."""
    if isinstance(table_or_cs, CharacterTable):
        sizes, order, ghash = table_or_cs.class_sizes, table_or_cs.order, table_or_cs.group_hash
    else:
        sizes, order, ghash = table_or_cs.sizes, table_or_cs.order, table_or_cs.group_hash
    _check_binding(f, ghash, "group")
    return float((sizes * np.abs(f.coeffs)).sum() / order)


def gelfand_transform(f: ClassFunction, table: CharacterTable) -> np.ndarray:
    """fhat(pi) = (1/|G|) sum_C |C| f(C) conj(psi_pi(C)), psi_pi = chi_pi/d_pi."""
    _check_binding(f, table.group_hash, "character table")
    return table.gelfand_matrix @ f.coeffs


def inverse_gelfand(transform: np.ndarray, table: CharacterTable) -> ClassFunction:
    """Reconstruct f = sum_pi d_pi fhat(pi) chi_pi from its transform."""
    vec = np.asarray(transform, dtype=np.complex128)
    if vec.shape != (table.num_classes,):
        raise ValueError(f"expected {table.num_classes} transform values, got shape {vec.shape}")
    coeffs = (table.degrees * vec) @ table.values
    return ClassFunction(group_hash=table.group_hash, coeffs=coeffs)


def convolve(f: ClassFunction, g: ClassFunction, table: CharacterTable) -> ClassFunction:
    """Spectral convolution: transform both, multiply pointwise, invert."""
    return inverse_gelfand(
        gelfand_transform(f, table) * gelfand_transform(g, table), table
    )


def convolve_direct(
    f: ClassFunction, g: ClassFunction, group: FiniteGroup, cs: ConjugacyStructure
) -> ClassFunction:
    """Elementwise convolution (f*g)(s) = (1/|G|) sum_t f(t) g(t^{-1}s).

    O(|G|^2); kept as the independent oracle for the spectral route.
    """
    fe = expand_to_elements(f, cs)
    ge = expand_to_elements(g, cs)
    out = np.zeros(group.order, dtype=np.complex128)
    invs = group.inverses
    for t in range(group.order):
        out += fe[t] * ge[group.table[invs[t], :]]
    out /= group.order
    return central_projection(out, group, cs)


def quotient_pushforward(
    f: ClassFunction,
    cs: ConjugacyStructure,
    quotient: Quotient,
    quotient_cs: ConjugacyStructure,
) -> ClassFunction:
    """Push a central function down to G/N: (T f)(sN) = (1/|N|) sum_n f(sn).

    Since the coset sN has exactly |N| elements, this is the average of f
    over the fiber of the projection.  The result of averaging a central
    function is central again; the function checks that and returns the
    class function on the quotient.  The pushforward is norm-decreasing:
    ||T f||_1 <= ||f||_1.
    """
    _check_binding(f, cs.group_hash, "conjugacy structure")
    values = expand_to_elements(f, cs)
    q = quotient.group
    sums = np.zeros(q.order, dtype=np.complex128)
    np.add.at(sums, quotient.projection, values)
    coset_values = sums / quotient.subgroup.size

    spread = 0.0
    for cls in quotient_cs.classes:
        block = coset_values[cls]
        spread = max(spread, float(np.abs(block - block[0]).max()))
    if spread > 1e-9:
        raise ValueError(f"pushforward of a central function is not central (spread {spread:.2e})")
    return central_projection(coset_values, q, quotient_cs)
