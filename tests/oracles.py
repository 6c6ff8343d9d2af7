"""Brute-force definitions the production code is checked against.

Each helper follows its mathematical definition literally, element by element,
with no shortcut that the package itself takes:

- ``conjugate`` and ``brute_classes``: conjugation t s t^{-1} read off the
  Cayley table, and the classes as its orbits; ``loop_conjugacy_structure``:
  the same classes one orbit at a time, with the arrays of a
  ``ConjugacyStructure``;
- ``scan_inverses``: each a's inverse found by scanning row a for the identity;
- ``greedy_generators``: each generator the least element outside the subgroup
  the earlier ones generate, that subgroup closed by multiplying until nothing
  new appears; ``table_from_generator_columns``: a table rebuilt breadth
  first from the identity and its generators' columns, the bytes
  ``FiniteGroup.content_hash`` hashes;
- ``group_v3_hash``: the documented ``group-v3`` content hash, byte by byte;
- ``pair_classes_loop``: the class of x^-1 z for each class representative z
  and each element x, one lookup at a time;
- ``latin_failure``: the first row, then column, of a table that sorted is not
  0..n-1;
- ``associativity_failure``: (a*b)*c against a*(b*c) over every triple, and
  ``swap_intercalate``, which exchanges x and y in a 2 x 2 subsquare
  ab = cd = x, ad = cb = y of a table, keeping it a Latin square;
- ``closure_perms`` and ``composition_table``: a permutation group closed
  breadth first in the documented discovery order, and the Cayley table of
  composing its permutations;
- ``quotient_loop`` and ``semidirect_table_loop``: the quotient G/N by
  conjugating every element of N by every g, numbering cosets as they are
  met, and the semidirect table row by row from (a, h)(b, k) = (a*h(b), hk);
- ``special_linear``: SL(2, p) as the 2 x 2 matrices of determinant 1 over
  F_p acting on the p^2 - 1 nonzero vectors, closed from two transvections;
- ``convolve_direct``, ``central_projection`` and ``quotient_pushforward``:
  the elementwise convolution, class averaging and fiber averaging on the
  centre of L1(G), with ``indicator``, ``expand_to_elements`` and ``l1_norm``
  as their small helpers;
- ``paired_coefficients`` and ``hermitian_character_table``: the character
  table from one complex Hermitian combination of the class operators,
  c[C^-1] = conj(c[C]), solved by a single complex eigh and put in canonical
  row order by Python tuple keys; the package solves the real symmetric
  combination's even and odd blocks instead.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from zamen.central import ClassFunction
from zamen.characters import COLLISION_TOL, MAX_RETRIES, SEED
from zamen.groups import ConjugacyStructure, FiniteGroup, Quotient, conjugacy_structure, from_permutation_generators


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


def loop_conjugacy_structure(group):
    """The classes one orbit {t s t^-1 : t} at a time, for each s not yet classed,
    as (class_of, classes, sizes, reps, inverse_class)."""
    n = group.order
    class_of = np.full(n, -1, dtype=np.int64)
    classes = []
    for s in range(n):
        if class_of[s] >= 0:
            continue
        orbit = np.unique(group.table[group.table[:, s], group.inverses]).astype(np.int64)
        class_of[orbit] = len(classes)
        classes.append(orbit)
    sizes = np.array([c.size for c in classes], dtype=np.int64)
    reps = np.array([int(c[0]) for c in classes], dtype=np.int64)
    inverse_class = np.array([class_of[group.inverses[r]] for r in reps], dtype=np.int64)
    return class_of, classes, sizes, reps, inverse_class


def scan_inverses(group: FiniteGroup) -> np.ndarray:
    """inverses[a] is the b with a*b = e, searched in row blocks of about 2^20 entries."""
    rows = max(1, (1 << 20) // group.order)
    blocks = [np.argmax(group.table[i : i + rows] == group.identity, axis=1) for i in range(0, group.order, rows)]
    return np.concatenate(blocks).astype(np.int64)


def greedy_generators(group: FiniteGroup) -> list[int]:
    """Each generator the least element outside the subgroup generated by the earlier ones."""
    gens: list[int] = []
    inside = {group.identity}
    while len(inside) < group.order:
        gens.append(min(set(range(group.order)) - inside))
        inside.add(gens[-1])
        grown = True
        while grown:
            products = {int(group.table[a, b]) for a in inside for b in gens}
            grown = not products <= inside
            inside |= products
    return gens


def table_from_generator_columns(n: int, e: int, gens, cols) -> np.ndarray:
    """The table whose identity is e and whose column gens[i] is cols[:, i], or -1 where unreached.

    Column e is 0..n-1.  Breadth first from e, column b*s = cols_s[b] is cols_s gathered at
    column b, because a*(b*s) = (a*b)*s.
    """
    table = np.full((n, n), -1, dtype=np.int64)
    table[:, e] = np.arange(n)
    frontier = [e]
    while frontier:
        found = []
        for b in frontier:
            for col in np.asarray(cols, dtype=np.int64).T:
                c = int(col[b])
                if table[0, c] < 0:
                    table[:, c] = col[table[:, b]]
                    found.append(c)
        frontier = found
    return table


def group_v3_hash(order, identity, gens, entries) -> str:
    """The documented formula, byte by byte: tag, order, identity, generators, their columns as little-endian int32."""
    gens = np.asarray(gens, dtype=np.int64)
    digest = hashlib.sha256()
    digest.update(b"group-v3")
    digest.update(struct.pack("<Q", order))
    digest.update(struct.pack("<Q", identity))
    digest.update(gens.astype("<i4").tobytes())
    digest.update(np.asarray(entries, dtype=np.int64)[:, gens].astype("<i4").tobytes(order="C"))
    return digest.hexdigest()


def pair_classes_loop(table, inverses, class_of, reps) -> np.ndarray:
    """pair[m, x] = class_of[x^-1 * reps[m]], one table lookup per entry."""
    return np.array([[class_of[table[inverses[x], z]] for x in range(len(table))] for z in reps], dtype=np.int64)


def latin_failure(table) -> tuple[str, int] | None:
    """("row", i) for the first row that sorted is not 0..n-1, else ("column", j) likewise, else None."""
    table = np.asarray(table)
    expect = np.arange(table.shape[0])
    for word, lines in (("row", table), ("column", table.T)):
        for i, line in enumerate(lines):
            if not np.array_equal(np.sort(line), expect):
                return word, i
    return None


def associativity_failure(table) -> tuple[int, int, int] | None:
    """The first triple (a, b, c) with (a*b)*c != a*(b*c), in row order of a, or None."""
    table = np.asarray(table)
    for a in range(table.shape[0]):
        left = table[table[a], :]
        right = table[a][table]
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            return a, int(b), int(c)
    return None


def swap_intercalate(table, rows, cols) -> np.ndarray:
    """A copy of ``table`` with x and y exchanged in rows (a, c) x columns (b, d), where ab = cd = x and ad = cb = y."""
    (a, c), (b, d) = rows, cols
    swapped = np.array(table, dtype=np.int64)
    x, y = swapped[a, b], swapped[a, d]
    assert swapped[c, d] == x and swapped[c, b] == y and x != y, "not an intercalate"
    swapped[a, b] = swapped[c, d] = y
    swapped[a, d] = swapped[c, b] = x
    return swapped


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


def quotient_loop(group: FiniteGroup, subgroup) -> tuple[np.ndarray, np.ndarray]:
    """(table, projection) of G/N, or ValueError("not normal ...") at the first g with gNg^-1 != N.

    Cosets sN are numbered in the order their first element s is met, s = 0, 1, ...
    """
    nset = np.unique(np.asarray(list(subgroup), dtype=np.int64))
    inside = np.zeros(group.order, dtype=bool)
    inside[nset] = True
    for g in range(group.order):
        if not inside[group.table[group.table[g, nset], group.inverses[g]]].all():
            raise ValueError(f"not normal: some element of N conjugated by {g} falls outside N")
    coset_of = np.full(group.order, -1, dtype=np.int64)
    reps: list[int] = []
    for s in range(group.order):
        if coset_of[s] < 0:
            coset_of[group.table[s, nset]] = len(reps)
            reps.append(s)
    table = np.empty((len(reps), len(reps)), dtype=np.int64)
    for i, r in enumerate(reps):
        table[i] = coset_of[group.table[r, reps]]
    return table, coset_of


def semidirect_table_loop(normal: FiniteGroup, acting: FiniteGroup, maps) -> np.ndarray:
    """The table of N x| H on packed indices (a, h) -> a*|H| + h, one row per pair (a, h)."""
    n, m = normal.order, acting.order
    table = np.empty((n * m, n * m), dtype=np.int64)
    for a in range(n):
        for h in range(m):
            row = normal.table[a, np.asarray(maps[h])][:, None] * m + acting.table[h][None, :]
            table[a * m + h, :] = row.reshape(-1)
    return table


def special_linear(p: int) -> FiniteGroup:
    """SL(2, p), p prime, closed from [[1, 1], [0, 1]] and [[1, 0], [1, 1]] acting on vectors (x, y) != 0.

    The vector (x, y) is point x*p + y - 1, and -I is the one central involution.
    """
    x, y = np.divmod(np.arange(1, p * p), p)
    upper = ((x + y) % p) * p + y - 1
    lower = x * p + (x + y) % p - 1
    return from_permutation_generators([upper, lower], label=f"SL(2,{p})")


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


def paired_coefficients(rng: np.random.Generator, inverse_class: np.ndarray) -> np.ndarray:
    """Random coefficients with c[ibar] = conj(c[i]), making the combination Hermitian."""
    k = inverse_class.size
    c = np.zeros(k, dtype=np.complex128)
    for i in range(k):
        j = int(inverse_class[i])
        if i == j:
            c[i] = rng.standard_normal()
        elif i < j:
            z = rng.standard_normal() + 1j * rng.standard_normal()
            c[i] = z
            c[j] = np.conj(z)
    return c


def hermitian_character_table(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """(values, degrees) from the Hermitian combination h = sum_i c[i] D^-1/2 M_i D^1/2, one complex eigh.

    (M_i)[j, m] counts the x in class i with x^-1 z_m in class j, accumulated
    element by element with ``np.add.at`` (the k^3 structure-constant tensor
    of Z300 would take 216 MB).  Attempt a draws ``paired_coefficients`` from
    ``default_rng([SEED, a])`` and is skipped when two eigenvalues lie closer
    than COLLISION_TOL times the spectral diameter or a degree is not an
    integer.  Each eigenvector is turned so its identity-class entry is
    positive, scaled by sqrt(|G|/|C|), and the rows are sorted by degree and
    then by descending (real, imag) values rounded to 9 digits.
    """
    cs = conjugacy_structure(group)
    n, k = group.order, cs.num_classes
    sizes = cs.sizes.astype(np.float64)
    # x^-1 z_m is the inverse of z_m^-1 x, read off the rows of the z_m^-1.
    classes = cs.class_of[group.inverses[group.rows(group.inverses[cs.reps])]]
    columns = np.broadcast_to(np.arange(k)[:, None], (k, n))
    for attempt in range(MAX_RETRIES):
        c = paired_coefficients(np.random.default_rng([SEED, attempt]), cs.inverse_class)
        h = np.zeros((k, k), dtype=np.complex128)
        np.add.at(h, (classes, columns), np.broadcast_to(c[cs.class_of], (k, n)))
        h *= np.sqrt(sizes[None, :] / sizes[:, None])
        eigvals, eigvecs = np.linalg.eigh((h + h.conj().T) / 2.0)
        if k > 1 and np.diff(eigvals).min() < COLLISION_TOL * max(1.0, eigvals[-1] - eigvals[0]):
            continue
        pivot = eigvecs[cs.identity_class]
        eigvecs = eigvecs * (np.conj(pivot) / np.abs(pivot))
        d = np.sqrt(n) * eigvecs[cs.identity_class].real
        degrees = np.rint(d).astype(np.int64)
        if np.abs(d - degrees).max() > 1e-6:
            continue
        values = (eigvecs * np.sqrt(n / sizes)[:, None]).T
        order = sorted(
            range(k),
            key=lambda p: (degrees[p], *((-round(v.real, 9), -round(v.imag, 9)) for v in values[p].tolist())),
        )
        return values[order], degrees[order]
    raise AssertionError(f"no attempt of the Hermitian path separated the characters of {group.label!r}")
