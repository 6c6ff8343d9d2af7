"""Finite groups on integer indices, with the structure needed downstream.

Elements of a group of order n are the indices 0..n-1.  A group is its
identity and a few right-multiplication columns ``columns[i, x] = x*s_i`` for
steps s_i that generate it.  A breadth-first spanning tree over those steps,
derived when the group is built, hangs each element x other than the
identity off a tree edge x = w*s_i (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, ch. 4).  Left multiplication by any y is one pass down the tree,
y*x = (y*w)*s_i, from y*e = y, so any rows of the Cayley table come from one pass batched over
them, level by level; ``table`` is a read-only view built from those rows on
demand.  Inverses walk the tree upwards, x^-1 = s_d^-1 * ... * s_1^-1 for the path
x = s_1*...*s_d, for every element at once.  ``MAX_ORDER`` bounds every constructor,
``MAX_DEGREE`` the points of a permutation, and ``MAX_TABLE_ORDER`` only that view.

The steps are the constructor's generators and their repeated squares g, g^2,
g^4, ..., so the tree stays shallow even along a long cycle; they only drive
the tree.  Every structural question reads one greedy generating set of at
most log2(n) + 1 elements: the content hash, Light's associativity test, the
semidirect laws, the classes (orbits of x -> g^-1*x*g) and quotients (its
columns on cosets), so only the validation of a table from outside reads all
n^2 entries.  Products compose their factors' columns, and closures from
permutations (to 256 points, one ``bytes.translate`` and ``dict.get`` per product) keep
their breadth-first discovery order, so every downstream ordering is reproducible.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .base import SizeLimitError, ValidationError

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

# The most elements a group may have.  Near the cap, building and classing AGL(1, 997) (993 012
# elements) peaks at about 650 MiB RSS and takes about 3 s on a 2-vCPU x86-64 VM; S9 (362 880
# elements) builds in about 0.3-0.35 s at 123 MiB.
MAX_ORDER = 1_000_000
# The most points a permutation may act on, checked before anything of that size is allocated.
# Past 256 points a closure keys each element by two bytes a point, which holds indices to 2**16.
MAX_DEGREE = 1 << 16
# The most elements of a group whose ``table`` view is built: 20 000^2 int32 entries are 1.6 GB.
MAX_TABLE_ORDER = 20_000

# Columns and Cayley tables are stored with this dtype: half the memory of int64, and indices up
# to MAX_ORDER fit with room to spare.
TABLE_DTYPE = np.int32


def parse_permutation(spec: Sequence[int] | str, degree: int | None = None) -> np.ndarray:
    """Parse a permutation given in one-line or cycle notation.

    One-line notation is a sequence of images on points 0..d-1.  Cycle
    notation is a string such as ``"(1 2)(3 4 5)"`` on points 1..d (the usual
    textbook convention); points not mentioned are fixed and ``degree``, when
    given, is the total number of points and bounds the points mentioned.
    SizeLimitError refuses a degree, or a largest point, above ``MAX_DEGREE``
    before any array of that size is made.
    """
    if degree is not None and degree > MAX_DEGREE:
        raise SizeLimitError(f"degree {degree} is above the cap of {MAX_DEGREE} points")
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
        if top > MAX_DEGREE:
            raise SizeLimitError(f"cycle point {top} is above the cap of {MAX_DEGREE} points: {spec!r}")
        perm = np.arange(top if degree is None else degree, dtype=np.int64)
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                perm[a] = b
        return perm

    perm = np.asarray(list(spec), dtype=np.int64)
    if perm.size > MAX_DEGREE:
        raise SizeLimitError(f"one-line permutation of {perm.size} points is above the cap of {MAX_DEGREE}")
    if degree is not None and perm.size != degree:
        raise ValidationError(f"one-line permutation has {perm.size} entries, expected {degree}")
    if perm.size == 0 or sorted(perm.tolist()) != list(range(perm.size)):
        raise ValidationError(f"not a permutation of 0..{perm.size - 1}: {spec!r}")
    return perm


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _check_order(order: int, what: str) -> None:
    if order > MAX_ORDER:
        raise SizeLimitError(f"{what} has order {order}, above the cap of {MAX_ORDER} elements")


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on indices 0..order-1, given by its identity and right-multiplication columns.

    ``columns[i, x] = x*s_i`` for steps s_i = ``columns[i, identity]`` that
    generate the group, stored read-only as C-contiguous ``TABLE_DTYPE``.
    ``tree`` is derived at construction, which refuses steps that do not
    reach every element; ``order``, ``generators``, ``inverses``,
    ``content_hash``, ``table`` and the conjugacy classes on first use.  None
    of them can disagree with the columns.
    """

    label: str
    identity: int
    columns: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "identity", int(self.identity))
        object.__setattr__(self, "columns", _read_only(np.ascontiguousarray(self.columns, dtype=TABLE_DTYPE)))
        self.tree  # built with the group, so steps that do not generate it are refused here

    @property
    def order(self) -> int:
        return self.columns.shape[1]

    @cached_property
    def tree(self) -> np.ndarray:
        """The breadth-first spanning tree of ``_spanning_tree``, read-only int64 of shape (3, order)."""
        return _read_only(_spanning_tree(self.columns, self.identity))

    @cached_property
    def _levels(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """For each tree level below the identity: its elements x, their parents w, and the offsets
        i*order of their steps in ``columns.ravel()``."""
        parent, step, depth = self.tree
        by_depth = np.argsort(depth, kind="stable")
        levels = np.split(by_depth, np.cumsum(np.bincount(depth))[:-1])[1:]
        return [(x, parent[x], step[x] * self.order) for x in levels]

    def rows(self, ys: Sequence[int] | np.ndarray) -> np.ndarray:
        """``table[ys]`` without the table, as a (len(ys), order) int64 array.

        Row y is filled down the tree: y*e = y, and y*x = (y*w)*s_i =
        ``columns[i, y*w]`` for each tree edge x = w*s_i, one gather per level
        for all the rows at once.
        """
        ys = np.asarray(ys, dtype=np.intp)
        out = np.empty((self.order, ys.size), dtype=np.intp)  # out[x, b] = ys[b]*x
        out[self.identity] = ys
        flat = self.columns.ravel()
        for x, w, offsets in self._levels:
            out[x] = flat[out[w] + offsets[:, None]]
        return out.T

    @cached_property
    def table(self) -> np.ndarray:
        """The Cayley table ``table[a, b] = a*b``, read-only C-contiguous ``TABLE_DTYPE``.

        It is built on first use from ``rows``, in blocks of about 2^20 entries,
        whose int64 scratch rows stay in cache.  SizeLimitError refuses it above
        ``MAX_TABLE_ORDER`` elements.
        """
        n = self.order
        if n > MAX_TABLE_ORDER:
            raise SizeLimitError(
                f"the Cayley table of {self.label!r} has {n}^2 entries, above the cap of {MAX_TABLE_ORDER}^2"
            )
        table = np.empty((n, n), dtype=TABLE_DTYPE)
        block = max(1, (1 << 20) // n)
        for start in range(0, n, block):
            table[start : start + block] = self.rows(np.arange(start, min(start + block, n)))
        return _read_only(table)

    def _column(self, g: int) -> np.ndarray:
        """``table[:, g]``: x*g = x*s_1*...*s_d along the tree path e, s_1, s_1*s_2, ..., g."""
        parent, step, _ = self.tree
        path = []
        while g != self.identity:
            path.append(step[g])
            g = parent[g]
        column = np.arange(self.order)
        for i in reversed(path):
            column = self.columns[i][column]
        return column

    @cached_property
    def _greedy(self) -> tuple[np.ndarray, np.ndarray]:
        """The greedy generators of ``_generating_set`` (read-only int64) and their columns, one per row."""
        found = list(_generating_set(self._column, self.order, self.identity))
        generators = np.array([g for g, _ in found], dtype=np.int64)
        columns = np.array([column for _, column in found], dtype=np.int64).reshape(len(found), self.order)
        return _read_only(generators), columns

    @property
    def generators(self) -> np.ndarray:
        """The greedy generating set of ``_generating_set``: at most log2(n) + 1 elements, int64."""
        return self._greedy[0]

    @cached_property
    def inverses(self) -> np.ndarray:
        """x^-1 = s_d^-1 * ... * s_1^-1 for the tree path x = s_1*...*s_d, from every walk up the tree
        at once through the steps' inverse columns; read-only int64."""
        n, (parent, step, depth) = self.order, self.tree
        undo = np.empty((self.columns.shape[0] + 1, n), dtype=TABLE_DTYPE)  # undo[i, x*s_i] = x
        undo[-1] = np.arange(n, dtype=TABLE_DTYPE)  # the row that the identity's step -1 reads: y*e = y
        for back, column in zip(undo, self.columns):
            back[column] = undo[-1]
        offsets, at, inverse = step % undo.shape[0] * n, np.arange(n), np.full(n, self.identity)
        for _ in range(depth.max()):  # y*s^-1 for the step s into each walk's element, then up to its parent
            inverse = undo.ravel()[offsets[at] + inverse]
            at = parent[at]
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
        generators, columns = self._greedy
        digest = hashlib.sha256(b"group-v3")
        digest.update(self.order.to_bytes(8, "little"))
        digest.update(self.identity.to_bytes(8, "little"))
        digest.update(generators.astype("<i4"))
        digest.update(np.ascontiguousarray(columns.T, dtype="<i4"))
        return digest.hexdigest()

    @cached_property
    def _conjugacy(self) -> ConjugacyStructure:
        return _conjugacy_structure(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FiniteGroup({self.label!r}, order={self.order})"


def _powers(column: np.ndarray, identity: int, seen: set[int]) -> list[np.ndarray]:
    """The columns of g, g^2, g^4, ... from the column of g, up to the first power in ``seen`` and at
    most bit_length(n) of them, so a cycle of length L is crossed in about log2(L) of them, not L.
    Each power taken joins ``seen``."""
    powers, s = [], int(column[identity])
    while s not in seen and len(powers) < column.size.bit_length():
        seen.add(s)
        powers.append(powers[-1][powers[-1]] if powers else column)
        s = int(powers[-1][s])  # s*s, the next square
    return powers


def _generating_set(column: Callable[[int], np.ndarray], n: int, identity: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield greedy generators g, each the least element outside the subgroup the earlier ones
    generate, with ``column(g)``, which is ``table[:, g]``.

    That subgroup at least doubles with each one, so there are at most log2(n) + 1.  A generator is
    closed in (breadth first) only when the caller resumes, so a caller may check it first.
    """
    inside = np.arange(n) == identity
    steps: list[np.ndarray] = []  # each generator's powers, int32, one per row
    while not inside.all():
        g = int(np.argmin(inside))
        yield g, (g_column := np.asarray(column(g)))
        # The powers are taken by intp gathers, which are faster, and kept as int32 rows.
        steps.append(np.array(_powers(g_column.astype(np.intp, copy=False), identity, {identity}), dtype=TABLE_DTYPE))
        frontier, rounds = np.flatnonzero(inside), steps[-1:]  # the old steps keep the old subgroup
        while frontier.size:
            reached = inside.copy()
            for block in rounds:  # marked by scatter; an intp copy of the indices scatters faster than int32
                reached[block[:, frontier].astype(np.intp)] = True
            frontier, inside, rounds = np.flatnonzero(reached ^ inside), reached, steps


def _spanning_tree(columns: np.ndarray, identity: int) -> np.ndarray:
    """A breadth-first search from the identity over the steps: each element x other than the
    identity is x = w*s_i with w = ``tree[0, x]`` and i = ``tree[1, x]``, at depth ``tree[2, x]`` =
    depth of w + 1; the identity is its own parent, with step -1 and depth 0.  ValidationError
    when the steps do not reach every element."""
    n = columns.shape[1]
    tree = np.empty((3, n), dtype=np.int64)
    tree[:, identity] = (identity, -1, 0)
    unreached = np.arange(n) != identity
    edge = np.empty(n, dtype=np.int64)  # edge[x]: the position in ``found`` that x keeps
    frontier, depth, count = np.array([identity]), 0, 1
    while frontier.size and count < n:
        depth += 1
        # found[i*f + j] = frontier[j]*s_i.  Gathers by intp are about 30 % faster than by int32, and a
        # level's products are converted as they are found: each entry once, with no intp copy of all steps.
        found = columns[:, frontier].ravel().astype(np.intp, copy=False)
        fresh = unreached[found].nonzero()[0]
        found = found[fresh]  # only the fresh products, so the whole gather is freed here
        edge[found] = fresh  # of the positions of a repeated x, one is stored: keep that one
        keep = edge[found] == fresh
        x, (i, j) = found[keep], np.divmod(fresh[keep], frontier.size)
        tree[0, x], tree[1, x], tree[2, x] = frontier[j], i, depth
        unreached[x] = False
        frontier, count = x, count + x.size
    if count < n:
        raise ValidationError(f"the steps reach {count} of {n} elements from the identity")
    return tree


def _from_columns(label: str, identity: int, generators: np.ndarray) -> FiniteGroup:
    """The group generated by the right-multiplication columns ``generators`` (one per row).

    The steps are each generator's ``_powers`` g, g^2, g^4, ..., up to the
    first element an earlier step already is, so the breadth-first tree over
    them has depth about log2 of a cycle's length, not the length.  They only
    drive the tree; the group's structure is read from its greedy generators.
    """
    n = generators.shape[1]
    seen = {identity}
    steps = [power for column in generators for power in _powers(column, identity, seen)]
    return FiniteGroup(label, identity, np.array(steps, dtype=np.int64).reshape(len(steps), n))


def _validate_table(table: np.ndarray) -> tuple[int, np.ndarray]:
    """Check the group axioms for a candidate Cayley table; return its identity and the columns of
    the greedy generators that Light's test checked, one per row."""
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

    # A left identity e has e*0 = 0, and column 0 holds 0 in one row only, so that row is the one
    # candidate; a group has at most one two-sided identity.
    e = int(np.argmax(table[:, 0] == 0))
    expect = np.arange(n)
    if not (np.array_equal(table[e], expect) and np.array_equal(table[:, e], expect)):
        raise ValidationError("expected exactly one two-sided identity, found 0")

    # Light's test: the g with g*(x*y) = (g*x)*y for all x, y are closed under products, so checking
    # each generator before it is closed in proves associativity.  With row = table[g], compare
    # table[row] (a gather of whole rows) with row[table] in row blocks of about 2^20 entries.
    rows, found = max(1, (1 << 20) // n), []
    for g, _ in _generating_set(lambda g: table[:, g], n, e):
        row = table[g]
        for start in range(0, n, rows):
            left, right = table[row[start : start + rows]], row[table[start : start + rows]]
            if not np.array_equal(left, right):
                i, y = np.argwhere(left != right)[0]
                raise ValidationError(
                    f"associativity fails at triple ({g}, {start + i}, {y}): "
                    f"({g}*{start + i})*{y} = {left[i, y]} but {g}*({start + i}*{y}) = {right[i, y]}"
                )
        found.append(g)
    return e, table[:, found].T


def from_cayley_table(table: Sequence[Sequence[int]] | np.ndarray, label: str = "G") -> FiniteGroup:
    """Build a group from an explicit Cayley table, validating the axioms.

    The one constructor that validates: rows, columns and the identity in
    full, and associativity exactly by Light's test on a greedy generating
    set, at O(n^2 log n) cost.  The group keeps that set's columns.
    """
    try:
        arr = np.asarray(table, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"Cayley table must be a square array of integers: {exc}") from None
    return _from_columns(label, *_validate_table(arr))


def _permutation_order(perm: np.ndarray) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    images, seen, order = perm.tolist(), [False] * perm.size, 1
    for start in range(perm.size):
        length, x = 0, start
        while not seen[x]:
            seen[x], x, length = True, images[x], length + 1
        order = math.lcm(order, max(length, 1))
    return order


def _closure(perms: list[np.ndarray], label: str) -> np.ndarray:
    """The columns R_i[w] = w*g_i of the permutations ``perms`` of one degree, one per row.

    Up to 256 points an element is a key of one byte per point, and each generator is composed
    from its 256-byte translation table p + tail by ``bytes.translate``; beyond that (to
    ``MAX_DEGREE``) by a 16-bit gather.  The keys (about 35 MiB on S9) are dropped before the tree
    is built.
    """
    degree, cap = perms[0].size, MAX_ORDER
    if degree <= 256:
        identity, tail, compose = bytes(range(degree)), bytes(range(degree, 256)), bytes.translate
        gens = [bytes(g.tolist()) for g in perms]
    else:
        identity, gens, tail = np.arange(degree, dtype=np.uint16).tobytes(), perms, b""
        compose = lambda g, p: np.frombuffer(p, np.uint16)[g].tobytes()

    elements, index = [identity], {identity: 0}
    columns: list[list[int]] = [[] for _ in gens]  # columns[i][w] = index of w * gens[i]
    steps, get = [(g, column.append) for g, column in zip(gens, columns)], index.get
    for p in elements:  # a queue: each new element is appended behind those still to visit
        table = p + tail
        for g, append in steps:
            q = compose(g, table)
            x = get(q)
            if x is None:
                if (x := len(elements)) == cap:
                    raise SizeLimitError(f"closure of {label!r} exceeded the cap of {MAX_ORDER} elements")
                index[q] = x
                elements.append(q)
            append(x)
    return np.array(columns, dtype=np.int64)


def from_permutation_generators(
    generators: Sequence[Sequence[int] | str], label: str = "G", degree: int | None = None
) -> FiniteGroup:
    """Close a set of permutations under composition, breadth first.

    Each generator is read by ``parse_permutation(g, degree)``.  The element
    order is the BFS discovery order (identity first, then products
    ``word * generator`` in word-then-generator order), which makes every
    downstream ordering reproducible.  Raises SizeLimitError when the closure
    exceeds ``MAX_ORDER`` elements, and before it starts when a generator's
    order does.

    Looking up each product w*g_i gives the generators' columns R_i[w] = w*g_i
    as a by-product; they are all the group keeps of the permutations.
    """
    if not generators:
        raise ValidationError("at least one generator is required")
    parsed = [parse_permutation(g, degree) for g in generators]
    for i, perm in enumerate(parsed):  # a generator's order is at most the group's (Lagrange)
        _check_order(_permutation_order(perm), f"generator {i} of {label!r}")
    size = max(p.size for p in parsed)
    return _from_columns(label, 0, _closure([np.concatenate([p, np.arange(p.size, size)]) for p in parsed], label))


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError(f"cyclic group order must be >= 1, got {n}")
    _check_order(n, f"Z{n}")
    return _from_columns(f"Z{n}", 0, ((np.arange(n) + 1) % n)[None, :])


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
        return from_permutation_generators([[0]], label="S1")
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
    b = np.array([[1], [2]])  # the axes of i and j, whose columns x*i and x*j generate Q8
    return _from_columns("Q8", 0, 2 * (axis ^ b) + (neg ^ flip[axis, b]))


def _product(label: str, normal: FiniteGroup, acting: FiniteGroup, normal_columns: np.ndarray) -> FiniteGroup:
    """The product of N = ``normal`` and H = ``acting`` on index packing (a, h) -> a*|H| + h, given
    the columns of its N-steps (s, e); each step t of H becomes (e, t) with column (a, h*t)."""
    m = acting.order
    a, h = np.divmod(np.arange(normal.order * m), m)
    acting_columns = (a * m).astype(TABLE_DTYPE) + acting.columns[:, h]
    columns = np.concatenate([normal_columns, acting_columns], dtype=TABLE_DTYPE)
    return FiniteGroup(label, normal.identity * m + acting.identity, columns)


def direct_product(g: FiniteGroup, h: FiniteGroup, label: str | None = None) -> FiniteGroup:
    """Direct product with index packing (a, b) -> a*|H| + b, labelled ``label`` or GxH.

    Each step s of G becomes (s, e) with column (a*s)*|H| + b, and each step t
    of H becomes (e, t) with column a*|H| + b*t.
    """
    _check_order(g.order * h.order, f"the product of {g.label!r} and {h.label!r}")
    columns = g.columns[:, :, None] * h.order + np.arange(h.order, dtype=TABLE_DTYPE)
    return _product(label or f"{g.label}x{h.label}", g, h, columns.reshape(-1, g.order * h.order))


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
    product associative, so it is not validated again.  A step s of N
    becomes (s, e) with column (a, h)*(s, e) = (a*h(s), h), where
    a*h(s) = h(h^-1(a)*s).
    """
    n, m = normal.order, acting.order
    _check_order(n * m, f"semidirect product of {normal.label!r} and {acting.label!r}")
    try:
        maps = np.asarray(action, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        maps = np.empty(0, dtype=np.int64)
    if maps.shape != (m, n) or maps.min() < 0 or maps.max() >= n:
        raise ValidationError(f"action must supply {m} maps of {n} indices into 0..{n - 1}")
    if not np.array_equal(maps[acting.identity], np.arange(n)):
        raise ValidationError("action of the identity must be the identity map")

    sgens, scolumns = normal._greedy
    for h in acting.generators:
        phi = maps[h]
        if np.bincount(phi, minlength=n).max() > 1:
            raise ValidationError(f"action of element {h} is not a permutation of the normal factor")
        for s, column in zip(sgens, scolumns):  # h(a*s) against h(a)*h(s) for every a
            if not np.array_equal(phi[column], normal._column(phi[s])[phi]):
                raise ValidationError(f"action of element {h} is not an automorphism")
        # Row h2 compares maps[h*h2] with maps[h] o maps[h2].
        bad = np.flatnonzero((maps[acting.rows([h])[0]] != phi[maps]).any(axis=1))
        if bad.size:
            raise ValidationError(f"action is not a homomorphism: maps[{h}*{bad[0]}] != maps[{h}] o maps[{bad[0]}]")

    inverse_maps = maps[acting.inverses]
    columns = np.empty((normal.columns.shape[0], n * m), dtype=TABLE_DTYPE)
    for column, out in zip(normal.columns, columns):  # twisted[h, a] = a*h(s)
        twisted = np.take_along_axis(maps, column[inverse_maps], axis=1)
        out.reshape(n, m)[:] = twisted.T * m + np.arange(m)
    return _product(label or f"{normal.label}:{acting.label}", normal, acting, columns)


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
    """Classes are the orbits of x -> g^-1*x*g for the greedy generators g, numbered by least element.

    The map is g's column gathered at the row of g^-1, and the rows of all the
    inverses come from one ``rows`` pass.
    """
    generators, columns = group._greedy
    conjugations = [column[row] for column, row in zip(columns, group.rows(group.inverses[generators]))]
    reps, class_of = np.unique(_orbit_minima(conjugations, group.order), return_inverse=True)
    class_of = class_of.astype(np.int64, copy=False)
    if np.any(group.order % np.bincount(class_of)):
        raise ValidationError("a conjugacy class size fails to divide the group order")

    inverse_class = class_of[group.inverses[reps]]
    if not np.array_equal(inverse_class[inverse_class], np.arange(reps.size)):
        raise ValidationError("inverse-class map is not an involution")
    return ConjugacyStructure(
        group.content_hash, _read_only(class_of), _read_only(inverse_class), int(class_of[group.identity])
    )


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
        return _read_only(np.unique(self.class_of, return_index=True)[1].astype(np.int64, copy=False))

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

    N is normal when it is a union of conjugacy classes.  Each coset Nx = xN
    is named by its least element, found with the subgroup check from the
    rows of N's elements, and the cosets are numbered in the order of those
    elements.  The quotient is the group of the greedy generators' columns on
    cosets, xN*g = (x*g)N.

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
    inside = np.bincount(nset, minlength=n) > 0
    least, rows = np.arange(n), max(1, (1 << 20) // n)
    for start in range(0, nset.size, rows):
        block = group.rows(nset[start : start + rows])  # block[i, x] = nset[start + i]*x
        prods = block[:, nset]
        if not inside[prods].all():
            i, j = np.argwhere(~inside[prods])[0]
            raise ValidationError(f"not a subgroup: {nset[start + i]}*{nset[j]} = {prods[i, j]} falls outside")
        least = np.minimum(least, block.min(axis=0))
    cs = conjugacy_structure(group)
    counts = np.bincount(cs.class_of[nset], minlength=cs.num_classes)
    split = np.flatnonzero((counts > 0) & (counts < cs.sizes))
    if split.size:
        a = int(nset[cs.class_of[nset] == split[0]][0])
        b = int(np.flatnonzero((cs.class_of == split[0]) & ~inside)[0])
        # g*a*g^-1 = b exactly when a*y = y*b for y = g^-1.
        g = int(np.argmax(group.rows([a])[0][group.inverses] == group._column(b)[group.inverses]))
        raise ValidationError(f"not normal: conjugating {a} by {g} gives {b}, which is outside the subgroup")

    reps, coset_of = np.unique(least, return_inverse=True)
    quo = _from_columns(f"{group.label}/N{nset.size}", coset_of[group.identity], coset_of[group._greedy[1][:, reps]])
    return Quotient(group=quo, projection=coset_of, subgroup=nset)
