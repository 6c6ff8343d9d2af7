"""Finite groups on integer indices, with the structure needed downstream.

Elements of a group of order n are the indices 0..n-1, and a group is its
read-only int32 Cayley table, ``table[a, b] = a*b``: all else is derived from it.
Groups closed from permutation generators build that table from the Schreier
graph of the closure (Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, ch. 4): each generator's left-multiplication row costs n lookups and
every other row is one gather of an earlier row.  Everything downstream
(conjugacy data, characters, class functions) works in terms of these indices,
so construction order fixes all later orderings.  Associativity, the semidirect
laws, the conjugacy classes and the content hash are found on a greedy
generating set of at most log2(n) + 1 elements, and inverses by
square-and-multiply, so only the validation of a table from outside reads all
n^2 of its entries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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
        mentioned = sorted(p for cyc in cycles for p in cyc)
        repeated = [a for a, b in zip(mentioned, mentioned[1:]) if a == b]
        if repeated:
            raise ValidationError(f"point {repeated[0] + 1} appears more than once in cycle notation: {spec!r}")
        top = (mentioned[-1] if mentioned else -1) + 1
        if degree is not None and top > degree:
            raise ValidationError(f"cycle point {top} exceeds the degree {degree}: {spec!r}")
        perm = np.arange(top if degree is None else degree, dtype=np.int64)
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                perm[a] = b
        return perm

    perm = np.asarray(list(spec), dtype=np.int64)
    if degree is not None and perm.size != degree:
        raise ValidationError(f"one-line permutation has {perm.size} entries, expected {degree}")
    if perm.size == 0 or sorted(perm.tolist()) != list(range(perm.size)):
        raise ValidationError(f"not a permutation of 0..{perm.size - 1}: {spec!r}")
    return perm


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on indices 0..order-1, given by its Cayley table.

    ``table[a, b] = a*b`` is stored read-only as C-contiguous ``TABLE_DTYPE``.
    ``order``, ``identity``, ``generators``, ``inverses``, ``content_hash``
    and the conjugacy classes are derived from the table on first use, so
    none of them can go stale.
    """

    label: str
    table: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _read_only(np.ascontiguousarray(self.table, dtype=TABLE_DTYPE)))

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @cached_property
    def identity(self) -> int:
        """The one row r with r*0 = 0: column 0 of a Latin square holds 0 once."""
        return int(np.flatnonzero(self.table[:, 0] == 0)[0])

    @cached_property
    def generators(self) -> np.ndarray:
        """The greedy generating set of ``_generating_set``: at most log2(n) + 1 elements, int64."""
        return _read_only(np.array(list(_generating_set(self.table, self.identity)), dtype=np.int64))

    @cached_property
    def inverses(self) -> np.ndarray:
        """inverses[a] = a^(n-1), since a^n = e (Lagrange): square-and-multiply, about 2 log2(n) gathers of n."""
        table, power = self.table, np.arange(self.order)
        inverse = np.full(self.order, self.identity)
        exponent = self.order - 1
        while exponent:
            if exponent & 1:
                inverse = table[inverse, power]
            exponent >>= 1
            if exponent:
                power = table[power, power]
        return _read_only(inverse.astype(np.int64, copy=False))

    @property
    def is_abelian(self) -> bool:
        """True when every conjugacy class is a single element."""
        return conjugacy_structure(self).num_classes == self.order

    @cached_property
    def content_hash(self) -> str:
        """sha256 of b"group-v3", the order and the identity as 8 little-endian bytes each, then
        ``generators`` and ``table[:, generators]`` (C order) as <i4.

        These bytes determine the table: column b*s is column s gathered at column b, because
        a*(b*s) = (a*b)*s, so from the identity's column the generators' columns reach every
        column.  Labels do not enter, and only n * len(generators) entries are hashed.
        """
        digest = hashlib.sha256(b"group-v3")
        digest.update(self.order.to_bytes(8, "little"))
        digest.update(self.identity.to_bytes(8, "little"))
        digest.update(self.generators.astype("<i4"))
        digest.update(np.ascontiguousarray(self.table[:, self.generators], dtype="<i4"))
        return digest.hexdigest()

    @cached_property
    def _conjugacy(self) -> ConjugacyStructure:
        return _conjugacy_structure(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FiniteGroup({self.label!r}, order={self.order})"


def _generating_set(table: np.ndarray, identity: int) -> Iterator[int]:
    """Yield greedy generators, each the least element outside the subgroup the earlier ones generate.

    That subgroup at least doubles with each one, so there are at most log2(n) + 1.  A generator is
    closed in (breadth first) only when the caller resumes, so a caller may check it first.
    """
    inside = np.arange(table.shape[0]) == identity
    steps: list[int] = []
    while not inside.all():
        g = int(np.argmin(inside))
        yield g
        powers = [g]  # g, g^2, g^4, ...: a cycle of length L is closed in about log2(L) rounds, not L
        while len(powers) < inside.size.bit_length() and table[powers[-1], powers[-1]] not in (identity, *powers):
            powers.append(int(table[powers[-1], powers[-1]]))
        steps += powers
        frontier, step = np.flatnonzero(inside), powers  # the old steps keep the old subgroup
        while frontier.size:
            reached = np.bincount(table[np.ix_(frontier, step)].ravel(), minlength=inside.size) > 0
            frontier = np.flatnonzero(reached & ~inside)
            inside |= reached
            step = steps


def _validate_table(table: np.ndarray) -> None:
    """Check the group axioms for a candidate Cayley table."""
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.size == 0:
        raise ValidationError(f"Cayley table must be square and nonempty, got shape {table.shape}")
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        raise ValidationError("Cayley table entries must be indices into 0..n-1")

    # Latin square: a line of n entries in 0..n-1 is a permutation when it shows every value, which
    # is marked in blocks of about 2^20 entries: all rows first, then all columns.
    lines = max(1, (1 << 20) // n)
    for word in ("row", "column"):
        for start in range(0, n, lines):
            block = table[start : start + lines] if word == "row" else table[:, start : start + lines].T
            seen = np.zeros(block.size, dtype=bool)  # seen[i*n + v]: line start + i shows v
            seen[(block + np.arange(0, block.size, n)[:, None]).ravel()] = True
            bad = np.flatnonzero(~seen.reshape(block.shape).all(axis=1))
            if bad.size:
                raise ValidationError(f"{word} {start + bad[0]} of the Cayley table is not a permutation")

    expect = np.arange(n)
    two_sided = np.flatnonzero((table == expect).all(axis=1) & (table.T == expect).all(axis=1))
    if two_sided.size != 1:
        raise ValidationError(f"expected exactly one two-sided identity, found {two_sided.size}")

    # Light's test: the g with g*(x*y) = (g*x)*y for all x, y are closed under products, so checking
    # each generator before it is closed in proves associativity.  With row = table[g], compare
    # table[row] (a gather of whole rows) with row[table] in row blocks of about 2^20 entries.
    rows = max(1, (1 << 20) // n)
    for g in _generating_set(table, int(two_sided[0])):
        row = table[g]
        for start in range(0, n, rows):
            left, right = table[row[start : start + rows]], row[table[start : start + rows]]
            if not np.array_equal(left, right):
                i, y = np.argwhere(left != right)[0]
                raise ValidationError(
                    f"associativity fails at triple ({g}, {start + i}, {y}): "
                    f"({g}*{start + i})*{y} = {left[i, y]} but {g}*({start + i}*{y}) = {right[i, y]}"
                )


def from_cayley_table(table: Sequence[Sequence[int]] | np.ndarray, label: str = "G") -> FiniteGroup:
    """Build a group from an explicit Cayley table, validating the axioms.

    This is the one constructor that validates a table: every other one
    builds a group by construction.  Rows, columns and the identity are
    checked in full, and associativity exactly at every order by Light's test
    on a greedy generating set, at O(n^2 log n) cost.
    """
    try:
        arr = np.asarray(table, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"Cayley table must be a square array of integers: {exc}") from None
    _validate_table(arr)
    return FiniteGroup(label, arr)


def from_permutation_generators(generators: Sequence[Sequence[int] | str], label: str = "G") -> FiniteGroup:
    """Close a set of permutations under composition, breadth first.

    The element order is the BFS discovery order (identity first, then
    products ``word * generator`` in word-then-generator order), which makes
    every downstream ordering reproducible.  Raises SizeLimitError when the
    closure exceeds ``DEFAULT_CLOSURE_CAP`` elements.

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
                    if len(elements) >= DEFAULT_CLOSURE_CAP:
                        raise SizeLimitError(f"closure of {label!r} exceeded the cap of {DEFAULT_CLOSURE_CAP} elements")
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
    return FiniteGroup(label, table)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError(f"cyclic group order must be >= 1, got {n}")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroup(f"Z{n}", table)


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
        return FiniteGroup("S1", [[0]])
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
    """The quaternion group Q8 = {1, -1, i, -i, j, -j, k, -k}.

    Element 2*axis + neg is (-1)^neg times the unit 1, i, j, k of that axis.
    Units multiply as axis XOR axis' up to the sign flip[axis, axis'].
    """
    axis, neg = np.divmod(np.arange(8), 2)
    flip = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    a, b = axis[:, None], axis[None, :]
    return FiniteGroup("Q8", 2 * (a ^ b) + (neg[:, None] ^ neg[None, :] ^ flip[a, b]))


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
    return FiniteGroup(f"{g.label}x{h.label}", table)


def semidirect_product(
    normal: FiniteGroup,
    acting: FiniteGroup,
    action: Sequence[Sequence[int]],
    label: str | None = None,
) -> FiniteGroup:
    """Semidirect product N x| H for a right action (n, h)(n', h') = (n*h(n'), hh').

    ``action`` gives, for each element h of ``acting``, the permutation of
    N's indices implementing the automorphism n -> h(n).  The laws are
    checked on greedy generating sets: each generator h of H maps by a
    permutation with h(a*s) = h(a)*h(s) for every a and each generator s of
    N, and maps[h*h2] = maps[h] o maps[h2] for every h2.  The elements for
    which such a law holds are closed under products, so every map is an
    automorphism and the assignment a homomorphism; together they make the
    product associative, so its table is not validated again.
    """
    _check_product_order(normal, acting)
    n, m = normal.order, acting.order
    try:
        maps = np.asarray(action, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        maps = np.empty(0, dtype=np.int64)
    if maps.shape != (m, n) or maps.min() < 0 or maps.max() >= n:
        raise ValidationError(f"action must supply {m} maps of {n} indices into 0..{n - 1}")
    if not np.array_equal(maps[acting.identity], np.arange(n)):
        raise ValidationError("action of the identity must be the identity map")

    tn, sgens = normal.table, normal.generators
    for h in acting.generators:
        phi = maps[h]
        if np.bincount(phi, minlength=n).max() > 1:
            raise ValidationError(f"action of element {h} is not a permutation of the normal factor")
        if not np.array_equal(phi[tn[:, sgens]], tn[np.ix_(phi, phi[sgens])]):
            raise ValidationError(f"action of element {h} is not an automorphism")
        # Row h2 compares maps[h*h2] with maps[h] o maps[h2].
        bad = np.flatnonzero((maps[acting.table[h]] != phi[maps]).any(axis=1))
        if bad.size:
            raise ValidationError(f"action is not a homomorphism: maps[{h}*{bad[0]}] != maps[{h}] o maps[{bad[0]}]")

    # Index packing (a, h) -> a*m + h; product rule (a, h)(b, k) = (a*phi_h(b), hk).
    table = (tn[:, maps][:, :, :, None] * m + acting.table[None, :, None, :]).reshape(n * m, n * m)
    return FiniteGroup(label or f"{normal.label}:{acting.label}", table)


def conjugacy_structure(group: FiniteGroup) -> ConjugacyStructure:
    """The group's conjugacy classes in least-element order, computed once and shared."""
    return group._conjugacy


def _orbit_minima(maps: list[np.ndarray], n: int) -> np.ndarray:
    """least[x] is the least element of x's orbit under the permutations ``maps`` of 0..n-1.

    Each label takes the minimum over its neighbours along every map, then
    jumps (least = least[least]), until nothing changes.  A label stays in its
    own orbit and never grows; at the fixed point it is constant along every
    map, so it is the orbit's least element.
    """
    least, previous = np.arange(n), None
    while not np.array_equal(least, previous):
        previous = least
        least = np.min([least, *(least[perm] for perm in maps)], axis=0)
        least = least[least]
    return least


def _conjugacy_structure(group: FiniteGroup) -> ConjugacyStructure:
    """Classes are the orbits of x -> s*x*s^-1 for the generators s, numbered by least element."""
    table, invs = group.table, group.inverses
    conjugations = [table[:, invs[s]][table[s]] for s in group.generators]
    reps, class_of = np.unique(_orbit_minima(conjugations, group.order), return_inverse=True)
    class_of = class_of.astype(np.int64, copy=False)
    if np.any(group.order % np.bincount(class_of)):
        raise ValidationError("a conjugacy class size fails to divide the group order")

    inverse_class = class_of[invs[reps]]
    if not np.array_equal(inverse_class[inverse_class], np.arange(reps.size)):
        raise ValidationError("inverse-class map is not an involution")
    return ConjugacyStructure(
        group.content_hash, _read_only(class_of), _read_only(inverse_class), int(class_of[group.identity])
    )


def _least_elements(class_of: np.ndarray) -> np.ndarray:
    """The first occurrence of each class id, which is the least element of its class."""
    return np.unique(class_of, return_index=True)[1].astype(np.int64, copy=False)


@dataclass(frozen=True)
class ConjugacyStructure:
    """Conjugacy classes of a group, in least-element order.

    ``identity_class`` is the class of the identity, which ``class_of`` alone
    does not name.  ``sizes``, ``reps`` (least elements) and ``classes``
    (members, ascending) are derived from ``class_of`` on first use.  Every
    array is read-only.
    """

    group_hash: str
    class_of: np.ndarray
    inverse_class: np.ndarray
    identity_class: int

    @cached_property
    def sizes(self) -> np.ndarray:
        return _read_only(np.bincount(self.class_of).astype(np.int64, copy=False))

    @cached_property
    def reps(self) -> np.ndarray:
        return _read_only(_least_elements(self.class_of))

    @cached_property
    def classes(self) -> tuple[np.ndarray, ...]:
        members = _read_only(np.argsort(self.class_of, kind="stable").astype(np.int64, copy=False))
        return tuple(np.split(members, np.cumsum(self.sizes)[:-1]))

    @property
    def num_classes(self) -> int:
        return self.sizes.size

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

    N is normal when it is a union of conjugacy classes.  Each coset sN is
    named by its least element, and the cosets are numbered in the order of
    those elements.  A quotient by a normal subgroup is a group, so its table
    is not validated again.

    Raises ValidationError if an index is outside 0..n-1, if the indices are
    not a subgroup, or, naming a violating conjugation, if the subgroup is
    not normal.
    """
    n = group.order
    nset = np.unique(np.asarray(list(subgroup), dtype=np.int64))
    stray = nset[(nset < 0) | (nset >= n)]
    if stray.size:
        raise ValidationError(f"subgroup index {int(stray[0])} is outside 0..{n - 1}")
    if nset.size == 0 or group.identity not in nset:
        raise ValidationError("subgroup must contain the identity")
    inside = np.zeros(n, dtype=bool)
    inside[nset] = True
    prods = group.table[np.ix_(nset, nset)]
    if not inside[prods].all():
        a, b = np.argwhere(~inside[prods])[0]
        raise ValidationError(
            f"not a subgroup: {int(nset[a])}*{int(nset[b])} = {int(prods[a, b])} falls outside"
        )
    cs = conjugacy_structure(group)
    counts = np.bincount(cs.class_of[nset], minlength=cs.num_classes)
    split = np.flatnonzero((counts > 0) & (counts < cs.sizes))
    if split.size:
        a = int(nset[cs.class_of[nset] == split[0]][0])
        b = int(np.flatnonzero((cs.class_of == split[0]) & ~inside)[0])
        g = int(np.argmax(group.table[group.table[:, a], group.inverses] == b))
        raise ValidationError(f"not normal: conjugating {a} by {g} gives {b}, which is outside the subgroup")

    rows = max(1, (1 << 20) // nset.size)
    least = np.concatenate([group.table[i : i + rows][:, nset].min(axis=1) for i in range(0, n, rows)])
    reps, coset_of = np.unique(least, return_inverse=True)
    quo = FiniteGroup(f"{group.label}/N{nset.size}", coset_of[group.table[np.ix_(reps, reps)]])
    return Quotient(group=quo, projection=coset_of, subgroup=nset)
