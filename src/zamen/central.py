"""The centre of L1(G): class functions under normalized-Haar convolution.

Conventions, fixed once here and used everywhere downstream:

- Haar integral: (1/|G|) * sum over elements; the L1 norm of a class
  function is (1/|G|) * sum_C |C| |f(C)|.
- Convolution: (f * g)(s) = (1/|G|) sum_t f(t) g(t^{-1} s).  Under these
  normalizations the irreducible characters satisfy
  chi_pi * chi_sigma = delta_{pi,sigma} chi_pi / d_pi, and the unit is
  |G| times the indicator of the identity class.
- Gelfand transform: fhat(pi) = (1/|G|) sum_C |C| f(C) conj(chi_pi(C)/d_pi),
  with inverse f = sum_pi d_pi fhat(pi) chi_pi; the transform turns
  convolution into pointwise multiplication.

Convolution is spectral only: transform, multiply, invert.  Its cross-check
against the class constants, (f * g)_k = sum_ij a[i, j, k] f_i g_j / |G| with
a from ``characters.class_constants``, needs no second route here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import CharacterTable

__all__ = ["ClassFunction", "gelfand_transform", "inverse_gelfand", "convolve"]


@dataclass(frozen=True)
class ClassFunction:
    """Values of a central function, one per conjugacy class."""

    group_hash: str
    coeffs: np.ndarray

    @property
    def num_classes(self) -> int:
        return int(self.coeffs.size)


def gelfand_transform(f: ClassFunction, table: CharacterTable) -> np.ndarray:
    """fhat(pi) = (1/|G|) sum_C |C| f(C) conj(psi_pi(C)), psi_pi = chi_pi/d_pi."""
    if f.group_hash != table.group_hash:
        raise ValueError("group mismatch: class function is not bound to this character table")
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
