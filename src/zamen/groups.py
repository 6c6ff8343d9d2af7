"""Finite groups on integer indices, with the structure needed downstream.

Elements of a group of order n are the indices 0..n-1 and multiplication is
a dense int32 Cayley table, ``table[a, b] = a*b``, whatever the construction.
Groups closed from permutation generators build that table from the Schreier
graph of the closure (Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, ch. 4): each generator's left-multiplication row costs n lookups and
every other row is one gather of an earlier row.  Everything downstream
(conjugacy data, characters, class functions) works in terms of these indices,
so construction order fixes all later orderings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "SizeLimitError",
    "FiniteGroup",
    "ConjugacyStructure",
    "Quotient",
    "parse_permutation",
    "from_permutation_generators",
    "from_cayley_table",
    "cyclic",
    "dihedral",
    "symmetric",
    "alternating",
    "quaternion_group",
    "direct_product",
    "semidirect_product",
    "conjugacy_structure",
    "center",
    "quotient_group",
]

# Exhaustive associativity checking is cubic; above this order sample triples.
EXHAUSTIVE_ASSOC_CAP = 512
ASSOC_SAMPLE_TRIPLES = 10_000

DEFAULT_CLOSURE_CAP = 20_000

# Every Cayley table is stored with this dtype: half the memory of int64, and
# indices up to DEFAULT_CLOSURE_CAP fit with room to spare.
TABLE_DTYPE = np.int32


class ValidationError(ValueError):
    """Raised when input data fails a structural group axiom."""


class SizeLimitError(RuntimeError):
    """Raised when a construction exceeds its configured element cap."""


def parse_permutation(spec: Sequence[int] | str, degree: int | None = None) -> np.ndarray:
    """Parse a permutation given in one-line or cycle notation.

    One-line notation is a sequence of images on points 0..d-1.  Cycle
    notation is a string such as ``"(1 2)(3 4 5)"`` on points 1..d (the usual
    textbook convention); points not mentioned are fixed and ``degree``, when
    given, is the total number of points and bounds the points mentioned.
    """
    if isinstance(spec, str):
        text = spec.replace(",", " ")
        if text.count("(") != text.count(")"):
            raise ValidationError(f"unbalanced parentheses in cycle notation: {spec!r}")
        cycles: list[list[int]] = []
        for chunk in text.split("(")[1:]:
            body = chunk.split(")")[0].strip()
            if not body:
                continue
            try:
                points = [int(tok) - 1 for tok in body.split()]
            except ValueError:
                raise ValidationError(f"non-integer point in cycle notation: {spec!r}") from None
            if any(p < 0 for p in points):
                raise ValidationError(f"cycle points must be >= 1: {spec!r}")
            cycles.append(points)
        top = max((p for cyc in cycles for p in cyc), default=-1) + 1
        if degree is not None and top > degree:
            raise ValidationError(f"cycle point {top} exceeds the degree {degree}: {spec!r}")
        perm = np.arange(top if degree is None else degree, dtype=np.int64)
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise ValidationError(f"repeated point inside a cycle: {spec!r}")
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                perm[a] = b
        return perm

    perm = np.asarray(list(spec), dtype=np.int64)
    if degree is not None and perm.size != degree:
        raise ValidationError(f"one-line permutation has {perm.size} entries, expected {degree}")
    if perm.size == 0 or sorted(perm.tolist()) != list(range(perm.size)):
        raise ValidationError(f"not a permutation of 0..{perm.size - 1}: {spec!r}")
    return perm


def _hash_table(order: int, table: np.ndarray) -> str:
    """sha256 of b"group-v2", the order as 8 little-endian bytes, then the table as <i4.

    A ``TABLE_DTYPE`` table on a little-endian machine is hashed in place, in one pass.
    """
    digest = hashlib.sha256(b"group-v2")
    digest.update(int(order).to_bytes(8, "little"))
    digest.update(np.ascontiguousarray(table, dtype="<i4"))
    return digest.hexdigest()


@dataclass
class FiniteGroup:
    """A finite group on indices 0..order-1.

    ``table`` is the Cayley table, ``table[a, b] = a*b``, stored as
    ``TABLE_DTYPE``.  Groups closed from permutation generators also keep
    ``perms``, one permutation per element in index order.  Inverses, the
    content hash and the conjugacy classes are computed on first use and kept.
    """

    order: int
    identity: int
    label: str
    table: np.ndarray
    perms: np.ndarray | None = None
    _inv: np.ndarray | None = field(default=None, repr=False)
    _hash: str | None = field(default=None, repr=False)
    _classes: ConjugacyStructure | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.table = np.ascontiguousarray(self.table, dtype=TABLE_DTYPE)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    @property
    def inverses(self) -> np.ndarray:
        if self._inv is None:
            self._inv = np.argmax(self.table == self.identity, axis=1).astype(np.int64)
        return self._inv

    @property
    def is_abelian(self) -> bool:
        """True when every conjugacy class is a single element."""
        return conjugacy_structure(self).num_classes == self.order

    @property
    def content_hash(self) -> str:
        """sha256 of the multiplication structure; labels do not enter."""
        if self._hash is None:
            self._hash = _hash_table(self.order, self.table)
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FiniteGroup({self.label!r}, order={self.order})"


def _validate_table(table: np.ndarray, rng: np.random.Generator) -> int:
    """Check the group axioms for a candidate Cayley table; return identity."""
    n = table.shape[0]
    if table.shape != (n, n):
        raise ValidationError(f"Cayley table must be square, got shape {table.shape}")
    if table.min() < 0 or table.max() >= n:
        raise ValidationError("Cayley table entries must be indices into 0..n-1")

    # Latin square: every row and column is a permutation.
    expect = np.arange(n)
    for axis, word in ((1, "row"), (0, "column")):
        sorted_lines = np.sort(table, axis=axis)
        bad = np.nonzero((sorted_lines != (expect[None, :] if axis == 1 else expect[:, None])).any(axis=axis))[0]
        if bad.size:
            raise ValidationError(f"{word} {bad[0]} of the Cayley table is not a permutation")

    two_sided = np.nonzero(
        (table == expect[None, :]).all(axis=1) & (table.T == expect[None, :]).all(axis=1)
    )[0]
    if two_sided.size != 1:
        raise ValidationError(f"expected exactly one two-sided identity, found {two_sided.size}")
    identity = int(two_sided[0])

    if n <= EXHAUSTIVE_ASSOC_CAP:
        # (a*b)*c == a*(b*c) for all triples, row chunked to bound memory.
        for a in range(n):
            left = table[table[a], :]
            right = table[a][table]
            if not np.array_equal(left, right):
                b, c = np.argwhere(left != right)[0]
                raise ValidationError(
                    f"associativity fails at triple ({a}, {int(b)}, {int(c)}): "
                    f"({a}*{int(b)})*{int(c)} = {int(left[b, c])} but "
                    f"{a}*({int(b)}*{int(c)}) = {int(right[b, c])}"
                )
    else:
        abc = rng.integers(0, n, size=(ASSOC_SAMPLE_TRIPLES, 3))
        left = table[table[abc[:, 0], abc[:, 1]], abc[:, 2]]
        right = table[abc[:, 0], table[abc[:, 1], abc[:, 2]]]
        bad = np.nonzero(left != right)[0]
        if bad.size:
            a, b, c = (int(x) for x in abc[bad[0]])
            raise ValidationError(f"associativity fails at sampled triple ({a}, {b}, {c})")
    return identity


def from_cayley_table(table: Iterable[Iterable[int]], label: str = "G", *, seed: int = 0) -> FiniteGroup:
    """Build a group from an explicit Cayley table, validating the axioms.

    Validation is exhaustive for order <= 512 and falls back to 10^4 sampled
    triples above that (rows/columns and the identity are always checked in
    full).
    """
    arr = np.asarray([list(row) for row in table], dtype=np.int64)
    identity = _validate_table(arr, np.random.default_rng(seed))
    return FiniteGroup(order=arr.shape[0], identity=identity, label=label, table=arr)


def from_permutation_generators(
    generators: Sequence[Sequence[int] | str],
    label: str = "G",
    *,
    max_order: int = DEFAULT_CLOSURE_CAP,
) -> FiniteGroup:
    """Close a set of permutations under composition, breadth first.

    The element order is the BFS discovery order (identity first, then
    products ``word * generator`` in word-then-generator order), which makes
    every downstream ordering reproducible.  Raises SizeLimitError when the
    closure exceeds ``max_order``.

    The BFS records each new element as x = w*g (its Schreier-graph edge).
    Since (w*g)*b = w*(g*b), row x of the Cayley table is row w gathered at
    the left-multiplication map of g, so only those maps need lookups.
    """
    if not generators:
        raise ValidationError("at least one generator is required")
    parsed = [parse_permutation(g) for g in generators]
    degree = max(p.size for p in parsed)
    gens = [np.concatenate([p, np.arange(p.size, degree)]) if p.size < degree else p for p in parsed]

    ident = np.arange(degree, dtype=np.int64)
    elements: list[np.ndarray] = [ident]
    index: dict[bytes, int] = {ident.tobytes(): 0}
    edges: list[tuple[int, int]] = []  # edges[x - 1] = (w, i): element x was found as w * gens[i]
    frontier = [0]
    while frontier:
        next_frontier: list[int] = []
        for w in frontier:
            for i, g in enumerate(gens):
                p = elements[w][g]
                key = p.tobytes()
                if key not in index:
                    if len(elements) >= max_order:
                        raise SizeLimitError(
                            f"closure of {label!r} exceeded the cap of {max_order} elements"
                        )
                    index[key] = len(elements)
                    elements.append(p)
                    edges.append((w, i))
                    next_frontier.append(index[key])
        frontier = next_frontier

    perms = np.array(elements, dtype=np.int64)
    n = perms.shape[0]
    # left[i][b] = index of gens[i] * b.
    left = [np.array([index[p.tobytes()] for p in g[perms]], dtype=np.intp) for g in gens]
    table = np.empty((n, n), dtype=TABLE_DTYPE)
    table[0] = np.arange(n)
    for x, (w, i) in enumerate(edges, start=1):
        table[x] = table[w][left[i]]
    return FiniteGroup(order=n, identity=0, label=label, table=table, perms=perms)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError(f"cyclic group order must be >= 1, got {n}")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroup(order=n, identity=0, label=f"Z{n}", table=table)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of the n-gon, order 2n."""
    if n < 3:
        raise ValidationError(f"dihedral index must be >= 3, got {n}")
    rot = np.roll(np.arange(n), -1)
    refl = (-np.arange(n)) % n
    return from_permutation_generators([rot, refl], label=f"D{n}")


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError(f"symmetric group degree must be >= 1, got {n}")
    if n == 1:
        return from_cayley_table([[0]], label="S1")
    swap = np.arange(n)
    swap[[0, 1]] = [1, 0]
    cyc = np.roll(np.arange(n), -1)
    return from_permutation_generators([swap, cyc], label=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    if n < 3:
        raise ValidationError(f"alternating group degree must be >= 3, got {n}")
    three = np.arange(n)
    three[[0, 1, 2]] = [1, 2, 0]
    if n % 2:
        second = np.roll(np.arange(n), -1)  # odd n: the n-cycle is even
    else:
        second = np.concatenate([[0], np.roll(np.arange(1, n), -1)])
    return from_permutation_generators([three, second], label=f"A{n}")


def quaternion_group() -> FiniteGroup:
    """The quaternion group Q8 = {1, -1, i, -i, j, -j, k, -k}."""
    # Encode q = (sign, axis) with axis 0..3 for 1, i, j, k.
    axis_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    idx = {(1, 0): 0, (-1, 0): 1, (1, 1): 2, (-1, 1): 3, (1, 2): 4, (-1, 2): 5, (1, 3): 6, (-1, 3): 7}
    elems = list(idx)
    table = np.empty((8, 8), dtype=np.int64)
    for a, (sa, xa) in enumerate(elems):
        for b, (sb, xb) in enumerate(elems):
            sign, axis = axis_mul[(xa, xb)]
            table[a, b] = idx[(sa * sb * sign, axis)]
    return from_cayley_table(table, label="Q8")


def _check_product_order(left: FiniteGroup, right: FiniteGroup) -> None:
    order = left.order * right.order
    if order > DEFAULT_CLOSURE_CAP:
        raise SizeLimitError(
            f"product of {left.label!r} and {right.label!r} has order {order}, "
            f"above the cap of {DEFAULT_CLOSURE_CAP} elements"
        )


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with index packing (a, b) -> a*|H| + b."""
    _check_product_order(g, h)
    m = h.order
    table = (g.table[:, None, :, None] * m + h.table[None, :, None, :]).reshape(
        g.order * m, g.order * m
    )
    return FiniteGroup(
        order=g.order * m,
        identity=g.identity * m + h.identity,
        label=f"{g.label}x{h.label}",
        table=table,
    )


def semidirect_product(
    normal: FiniteGroup,
    acting: FiniteGroup,
    action: Sequence[Sequence[int]],
    label: str | None = None,
) -> FiniteGroup:
    """Semidirect product N x| H for a right action (n, h)(n', h') = (n*h(n'), hh').

    ``action`` gives, for each element h of ``acting``, the permutation of
    N's indices implementing the automorphism n -> h(n).  Both the
    automorphism property of each map and the homomorphism property of the
    assignment are verified; together they make the product associative, so
    its table is not validated again.
    """
    _check_product_order(normal, acting)
    maps = [np.asarray(a, dtype=np.int64) for a in action]
    if len(maps) != acting.order:
        raise ValidationError(f"action must supply {acting.order} maps, got {len(maps)}")

    tn = normal.table
    for h, phi in enumerate(maps):
        if sorted(phi.tolist()) != list(range(normal.order)):
            raise ValidationError(f"action of element {h} is not a permutation of the normal factor")
        if not np.array_equal(phi[tn], tn[np.ix_(phi, phi)]):
            raise ValidationError(f"action of element {h} is not an automorphism")
    maps = np.stack(maps)  # row h is the permutation of h, each checked above
    if not np.array_equal(maps[acting.identity], np.arange(normal.order)):
        raise ValidationError("action of the identity must be the identity map")
    for h1 in range(acting.order):
        # Row h2 compares maps[h1*h2] with maps[h1] o maps[h2].
        broken = np.flatnonzero((maps[acting.table[h1]] != maps[h1][maps]).any(axis=1))
        if broken.size:
            h2 = int(broken[0])
            raise ValidationError(f"action is not a homomorphism: maps[{h1}*{h2}] != maps[{h1}] o maps[{h2}]")

    m = acting.order
    n = normal.order
    table = np.empty((n * m, n * m), dtype=TABLE_DTYPE)
    # Index packing (a, h) -> a*m + h; product rule (a, h)(b, k) = (a*phi_h(b), hk).
    for a in range(n):
        for h in range(m):
            row = tn[a, maps[h]][:, None] * m + acting.table[h][None, :]
            table[a * m + h, :] = row.reshape(-1)
    return FiniteGroup(
        order=n * m,
        identity=normal.identity * m + acting.identity,
        label=label or f"{normal.label}:{acting.label}",
        table=table,
    )


def conjugacy_structure(group: FiniteGroup) -> ConjugacyStructure:
    """Partition the group into conjugacy classes, ordered by least element.

    The result is kept on the group and shared by later calls, so its arrays
    are read-only.
    """
    if group._classes is None:
        group._classes = _conjugacy_structure(group)
    return group._classes


def _commutes(table: np.ndarray) -> bool:
    """Whether the table equals its transpose.

    Row block [start, stop) is compared with columns [start, stop) over the
    first ``stop`` rows, so each pair is checked once, stopping at the first
    block that differs.  Blocks start at 8 rows and double up to about 2^20
    entries, so a noncommutative table is usually rejected after a few rows.
    """
    n = table.shape[0]
    start, rows = 0, 8
    while start < n:
        stop = min(n, start + rows)
        if not np.array_equal(table[start:stop, :stop], table[:stop, start:stop].T):
            return False
        start, rows = stop, max(rows, min(2 * rows, (1 << 20) // n))
    return True


def _conjugacy_structure(group: FiniteGroup) -> ConjugacyStructure:
    n = group.order
    table = group.table
    if _commutes(table):
        class_of = np.arange(n, dtype=np.int64)
        classes = list(class_of[:, None])
    else:
        class_of = np.full(n, -1, dtype=np.int64)
        classes = []
        invs = group.inverses
        for s in range(n):
            if class_of[s] >= 0:
                continue
            orbit = np.unique(table[table[:, s], invs]).astype(np.int64)
            class_of[orbit] = len(classes)
            classes.append(orbit)

    sizes = np.array([c.size for c in classes], dtype=np.int64)
    reps = np.array([int(c[0]) for c in classes], dtype=np.int64)
    if sizes.sum() != n:
        raise ValidationError("conjugacy classes do not partition the group")
    if np.any(n % sizes):
        raise ValidationError("a conjugacy class size fails to divide the group order")

    inverse_class = class_of[group.inverses[reps]]
    if not np.array_equal(inverse_class[inverse_class], np.arange(len(classes))):
        raise ValidationError("inverse-class map is not an involution")
    for array in (class_of, sizes, reps, inverse_class, *classes):
        array.flags.writeable = False
    return ConjugacyStructure(
        group_hash=group.content_hash,
        class_of=class_of,
        classes=tuple(classes),
        sizes=sizes,
        reps=reps,
        inverse_class=inverse_class,
    )


@dataclass(frozen=True)
class ConjugacyStructure:
    """Conjugacy classes of a group, in least-element order."""

    group_hash: str
    class_of: np.ndarray
    classes: tuple[np.ndarray, ...]
    sizes: np.ndarray
    reps: np.ndarray
    inverse_class: np.ndarray

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def order(self) -> int:
        return int(self.sizes.sum())


def center(group: FiniteGroup) -> np.ndarray:
    """Indices of the central elements, ascending: the singleton classes.

    Classes are in least-element order, so their representatives ascend.
    """
    cs = conjugacy_structure(group)
    return cs.reps[cs.sizes == 1]


@dataclass(frozen=True)
class Quotient:
    """A quotient group together with the projection G -> G/N."""

    group: FiniteGroup
    projection: np.ndarray
    subgroup: np.ndarray


def quotient_group(group: FiniteGroup, subgroup: Iterable[int]) -> Quotient:
    """Form G/N for a normal subgroup N given by element indices.

    Raises ValidationError if the indices are not a subgroup, or name the
    violating conjugation when the subgroup is not normal.
    """
    nset = np.unique(np.asarray(list(subgroup), dtype=np.int64))
    if nset.size == 0 or group.identity not in nset:
        raise ValidationError("subgroup must contain the identity")
    inside = np.zeros(group.order, dtype=bool)
    inside[nset] = True
    prods = group.table[np.ix_(nset, nset)]
    if not inside[prods].all():
        a, b = np.argwhere(~inside[prods])[0]
        raise ValidationError(
            f"not a subgroup: {int(nset[a])}*{int(nset[b])} = {int(prods[a, b])} falls outside"
        )
    invs = group.inverses
    for g in range(group.order):
        conj = group.table[group.table[g, nset], invs[g]]
        if not inside[conj].all():
            bad = int(nset[int(np.nonzero(~inside[conj])[0][0])])
            raise ValidationError(
                f"not normal: conjugating {bad} by {g} gives {int(group.table[group.table[g, bad], invs[g]])}, "
                f"which is outside the subgroup"
            )

    coset_of = np.full(group.order, -1, dtype=np.int64)
    reps: list[int] = []
    for s in range(group.order):
        if coset_of[s] >= 0:
            continue
        coset = group.table[s, nset]
        coset_of[coset] = len(reps)
        reps.append(s)

    k = len(reps)
    table = np.empty((k, k), dtype=np.int64)
    for i, r in enumerate(reps):
        table[i, :] = coset_of[group.table[r, reps]]
    quo = from_cayley_table(table, label=f"{group.label}/N{nset.size}")
    return Quotient(group=quo, projection=coset_of, subgroup=nset)
