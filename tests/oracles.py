"""Brute-force definitions the production code is checked against.

Each helper follows its mathematical definition literally, element by element,
with no shortcut that the package itself takes:

- ``conjugate`` and ``brute_classes``: conjugation t s t^{-1} read off the
  Cayley table, and the classes as its orbits;
- ``closure_perms`` and ``composition_table``: a permutation group closed
  breadth first in the documented discovery order, and the Cayley table of
  composing its permutations;
- ``convolve_direct``, ``central_projection`` and ``quotient_pushforward``:
  the elementwise convolution, class averaging and fiber averaging on the
  centre of L1(G), with ``indicator``, ``expand_to_elements`` and ``l1_norm``
  as their small helpers.
"""

from __future__ import annotations

import numpy as np

from zamen.central import ClassFunction
from zamen.groups import ConjugacyStructure, FiniteGroup, Quotient, conjugacy_structure


def conjugate(group: FiniteGroup, t: int, s: int) -> int:
    """t s t^{-1}, two table lookups."""
    return int(group.table[group.table[t, s], group.inverses[t]])


def brute_classes(group: FiniteGroup) -> list[list[int]]:
    """The conjugacy partition by scalar loops, classes in least-element order."""
    seen: set[int] = set()
    classes = []
    for s in range(group.order):
        if s in seen:
            continue
        orbit = {conjugate(group, t, s) for t in range(group.order)}
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


def closure_perms(generators) -> list[tuple[int, ...]]:
    """The closure of permutations of 0..d-1, one per element in discovery order.

    Breadth first: the identity, then each word times each generator
    (p[i] = w[g[i]]), in word-then-generator order.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    elements = [tuple(range(len(gens[0])))]
    seen = set(elements)
    frontier = list(elements)
    while frontier:
        found = []
        for w in frontier:
            for g in gens:
                p = tuple(w[i] for i in g)
                if p not in seen:
                    seen.add(p)
                    elements.append(p)
                    found.append(p)
        frontier = found
    return elements


def composition_table(perms) -> np.ndarray:
    """table[a, b] is the index of perms[a] o perms[b], looked up among ``perms``."""
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(pa[j] for j in pb)] for pb in perms] for pa in perms])


def indicator(holder, cls: int) -> ClassFunction:
    """The indicator of class ``cls`` of a conjugacy structure or character table."""
    coeffs = np.zeros(holder.num_classes, dtype=np.complex128)
    coeffs[cls] = 1.0
    return ClassFunction(holder.group_hash, coeffs)


def expand_to_elements(f: ClassFunction, cs: ConjugacyStructure) -> np.ndarray:
    assert f.group_hash == cs.group_hash, "class function of another group"
    return f.coeffs[cs.class_of]


def l1_norm(f: ClassFunction, cs: ConjugacyStructure) -> float:
    """Normalized-Haar L1 norm: (1/|G|) sum_C |C| |f(C)|."""
    assert f.group_hash == cs.group_hash, "class function of another group"
    return float((cs.sizes * np.abs(f.coeffs)).sum() / cs.order)


def central_projection(values, group: FiniteGroup, cs: ConjugacyStructure | None = None) -> ClassFunction:
    """Project a function on elements onto the centre.

    P f(s) = (1/|G|) sum_t f(t s t^{-1}); for s in class C this is the
    average of f over C, which is how it is computed.
    """
    cs = cs or conjugacy_structure(group)
    vals = np.asarray(values, dtype=np.complex128)
    assert vals.shape == (group.order,), vals.shape
    acc = np.zeros(cs.num_classes, dtype=np.complex128)
    np.add.at(acc, cs.class_of, vals)
    return ClassFunction(cs.group_hash, acc / cs.sizes)


def convolve_direct(f: ClassFunction, g: ClassFunction, group: FiniteGroup, cs: ConjugacyStructure) -> ClassFunction:
    """Elementwise convolution (f*g)(s) = (1/|G|) sum_t f(t) g(t^{-1}s), O(|G|^2)."""
    fe = expand_to_elements(f, cs)
    ge = expand_to_elements(g, cs)
    out = np.zeros(group.order, dtype=np.complex128)
    for t in range(group.order):
        out += fe[t] * ge[group.table[group.inverses[t], :]]
    out /= group.order
    return central_projection(out, group, cs)


def quotient_pushforward(
    f: ClassFunction, cs: ConjugacyStructure, quotient: Quotient, quotient_cs: ConjugacyStructure
) -> ClassFunction:
    """Push a central function down to G/N: (T f)(sN) = (1/|N|) sum_n f(sn).

    The coset sN has exactly |N| elements, so this averages f over the fiber
    of the projection.  Averaging a central function gives a central one,
    which is checked before it is returned as a class function on G/N.
    """
    values = expand_to_elements(f, cs)
    sums = np.zeros(quotient.group.order, dtype=np.complex128)
    np.add.at(sums, quotient.projection, values)
    coset_values = sums / quotient.subgroup.size
    for members in quotient_cs.classes:
        block = coset_values[members]
        assert np.abs(block - block[0]).max() <= 1e-9, "pushforward of a central function is not central"
    return central_projection(coset_values, quotient.group, quotient_cs)
