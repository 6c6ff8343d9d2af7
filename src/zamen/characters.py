"""Character tables of finite groups from class-sum structure constants.

Nothing here uses explicit irreducible representations.  The table comes out
of the classical class-algebra method (Dixon, "High speed computation of
group characters", Numer. Math. 10, 1967): the class sums span the centre of
the group algebra, and the characters are the simultaneous eigenvectors of
its multiplication operators.  After the normalizations applied below, the
eigenvectors are the columns sqrt(|C|/|G|) * chi_pi(C) of the table.

``character_table`` and ``class_constants`` take the group alone and read
its own cached classes.  One random combination of those operators suffices
when it separates the characters; attempt a draws it from
``default_rng([SEED, attempt])``.  Real coefficients equal on C and C^-1,
with a diagonal similarity by sqrt(class sizes), make the combination a real
symmetric k x k matrix h that commutes with J: e_C -> e_{C^-1}.  numpy eigh
solves its even and odd blocks under J in real arithmetic; a conjugate pair
of characters is (r +- i s)/sqrt 2 for an even and an odd eigenvector r, s of
one eigenvalue, and the unpaired even eigenvectors are the real characters.
h is accumulated straight from the group's multiplication: for each class
representative z and each element x, the coefficient of x's class lands on
the class of x^{-1} z, read from the rows of the z^{-1} (``FiniteGroup.rows``)
without the Cayley table.  That is O(k |G|) work per attempt, and the
k x k x k tensor of structure constants (``class_constants``) is never formed.

A table is certified in the basis that pairs each class with its inverse
(``CharacterTable.pair_basis``), where its values are A + iB with B = 0 exactly
when chi(C^-1) = conj chi(C): the row and column Grams are then real products
of A, and B's terms are added only where B is not 0.  Rows and columns are
ordered by byte keys of their rounded values, one stable sort a round, and
only the rows still tied are rounded again (``_canonical_row_order``);
``_round_array`` rounds a whole array exactly as Python's ``round`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .base import DEFAULT_CERT_TOL, CertificationError, SizeLimitError, sha256_hex
from .groups import ConjugacyStructure, FiniteGroup, conjugacy_structure

__all__ = [
    "CertificationError",
    "CharacterTable",
    "OrthogonalityReport",
    "class_constants",
    "character_table",
    "verify_orthogonality",
    "tensor_table",
    "canonical_form",
]

MAX_RETRIES = 5
# Attempt a draws its coefficients from default_rng([SEED, attempt]); the canonical row order makes
# the table independent of the draw.
SEED = 0
# An attempt whose eigenvalue gap is below COLLISION_TOL times the spectral diameter is retried.
COLLISION_TOL = 1e-6
# The arrays a table is stored as, in the order they are written.
TABLE_ARRAYS = ("values", "degrees", "class_sizes", "class_reps", "inverse_class")
# The most entries n*k of a group's k x n pair index (``_pair_classes``), checked once the k classes
# are known and before the index is allocated.  The index and the class combination built from it
# take about 17 bytes per entry (S8: 887 040 entries, a 14.6 MB tracemalloc peak for
# ``class_constants``), so an index at the cap needs about 570 MB.
MAX_PAIR_ENTRIES = 1 << 25
# About how many float64 ``_round_array`` rounds at once, and one round of the canonical order
# keys (64 KiB): numpy's temporaries for larger blocks cost about twice as much per entry.
ROUND_BLOCK = 1 << 13


@dataclass(frozen=True)
class CharacterTable:
    """Irreducible characters evaluated on conjugacy classes.

    ``values[p, j]`` is chi_p on class j.  Rows are sorted by degree and then
    by descending lexicographic order of the (real, imag) value pairs, so the
    trivial character is always row 0 and recomputation with any ``SEED`` yields
    the same table.  ``inverse_class`` is the class involution C -> C^{-1},
    carried here so consumers can pair a class with its conjugate column
    without access to the group; ``identity_class`` is the column where each
    character takes its degree.  The group order is the sum of the class
    sizes, so no table can carry an order its classes disagree with.
    """

    group_hash: str
    values: np.ndarray
    degrees: np.ndarray
    class_sizes: np.ndarray
    class_reps: np.ndarray
    inverse_class: np.ndarray
    identity_class: int

    @classmethod
    def from_arrays(cls, cs: ConjugacyStructure, arrays: Mapping[str, np.ndarray]) -> CharacterTable:
        """The table stored as the ``TABLE_ARRAYS`` of ``arrays``, a mapping.

        The class arrays must equal ``cs``'s, ``values`` must be complex128 of
        shape (k, k), and ``degrees`` int64 of shape (k,) with every entry at
        least 1; otherwise ValueError names the array.  The table holds
        ``cs``'s group hash, identity class and read-only class arrays.
        """
        k = cs.num_classes
        for name, own in zip(TABLE_ARRAYS[2:], (cs.sizes, cs.reps, cs.inverse_class)):
            if not np.array_equal(arrays[name], own):
                raise ValueError(f"{name}: the classes or inverse classes do not match the group")
        values, degrees = arrays["values"], arrays["degrees"]
        if values.dtype != np.complex128 or values.shape != (k, k):
            raise ValueError(f"values: expected complex128 of shape {(k, k)}, got {values.dtype} {values.shape}")
        if degrees.dtype != np.int64 or degrees.shape != (k,) or not np.all(degrees >= 1):
            raise ValueError(f"degrees: expected {k} int64 entries of at least 1")
        return cls(cs.group_hash, values, degrees, cs.sizes, cs.reps, cs.inverse_class, cs.identity_class)

    @property
    def order(self) -> int:
        return int(self.class_sizes.sum())

    @property
    def num_classes(self) -> int:
        return int(self.class_sizes.size)

    @property
    def gelfand_matrix(self) -> np.ndarray:
        """T[pi, C] = conj(psi_pi(C)) |C|/|G| for the hypergroup characters psi = chi / d, so T @ f is
        the Gelfand transform of f."""
        return np.conj(self.values / self.degrees[:, None]) * (self.class_sizes / self.order)[None, :]

    @cached_property
    def pair_basis(self) -> tuple[np.ndarray, int, np.ndarray, np.ndarray | None]:
        """(order, s, A, B) with ``values[:, order] @ Q = A + iB``, made on first use.

        ``order`` holds the s self-inverse classes, the lower class C < C^-1 of each pair, then the
        upper ones; Q's columns there are e_C, (e_C + e_C^-1)/sqrt 2 and -i(e_C - e_C^-1)/sqrt 2.  B is
        None when it is 0, that is when chi(C^-1) = conj chi(C) bit for bit.
        """
        classes, r = np.arange(self.num_classes), math.sqrt(0.5)
        lows = (classes < self.inverse_class).nonzero()[0]
        order = np.concatenate([(classes == self.inverse_class).nonzero()[0], lows, self.inverse_class[lows]])
        s, m = order.size - 2 * lows.size, lows.size
        values = self.values[:, order]
        if m:  # (v_C + v_C^-1) r on the lower classes' columns, -i(v_C - v_C^-1) r on the upper ones'
            low, high = values[:, s : s + m], values[:, s + m :]
            odd = low - high
            low += high
            low *= r
            np.multiply(odd, complex(0.0, -r), out=high)
        return order, s, values.real.copy(), (values.imag.copy() if values.imag.any() else None)

    @cached_property
    def diagonal_gram(self) -> np.ndarray:
        """S = (dA + idB)^H (dA + idB) for the ``pair_basis`` A + iB and the degrees d, made on first use.

        The diagonal's coefficients are Q S Q^H, so AM, the gap check and ``amenability.diagonal``
        all read this one Gram.
        """
        _, _, a, b = self.pair_basis
        d = self.degrees.astype(np.float64)[:, None]
        return _gram(a * d, None if b is None else b * d)

    @cached_property
    def residual(self) -> float:
        """Largest of the row, column, conjugation and degree residuals of ``values``, made on first use.

        The conjugation residual max |chi(C^-1) - conj chi(C)| is 0 when the
        ``pair_basis`` has no B.  The degree residual max_p |chi_p(e) - d_p|
        catches degrees that do not belong to their rows, which the other three
        cannot see.
        """
        conj_residual = 0.0
        if self.pair_basis[3] is not None:
            conj_residual = float(np.abs(self.values[:, self.inverse_class] - np.conj(self.values)).max())
        degree_residual = float(np.abs(self.values[:, self.identity_class] - self.degrees).max())
        return max(verify_orthogonality(self).max_residual, conj_residual, degree_residual)


@dataclass(frozen=True)
class OrthogonalityReport:
    row_residual: float
    column_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.row_residual, self.column_residual)


def _pair_classes(group: FiniteGroup) -> np.ndarray:
    """The k x |G| pair index pair[m, x] = class of x^{-1} z_m, z_m the representative of class m.

    x^{-1} z_m is the inverse of z_m^{-1} x, so the index is the inverse class
    of one ``group.rows`` pass over the k elements z_m^{-1}.  SizeLimitError
    refuses an index of more than ``MAX_PAIR_ENTRIES`` entries before it is
    allocated.
    """
    cs = conjugacy_structure(group)
    if group.order * cs.num_classes > MAX_PAIR_ENTRIES:
        raise SizeLimitError(
            f"{group.label!r} has {cs.num_classes} classes of {group.order} elements: its pair index "
            f"of {group.order * cs.num_classes} entries is above the cap of {MAX_PAIR_ENTRIES}"
        )
    return cs.inverse_class[cs.class_of[group.rows(group.inverses[cs.reps])]]


def class_constants(group: FiniteGroup) -> np.ndarray:
    """Structure constants a[i, j, k] = #{(x, y) in C_i x C_j : x*y = z_k}.

    z_k is the stored representative of class k; the count is independent of
    that choice.  Each x in C_i pairs with y = x^{-1} z_k, so the tensor is one
    bincount of (class(x), pair[k, x], k) over the pair index of
    ``_pair_classes``.  Cost is O(num_classes * |G|) time and O(num_classes^3)
    memory.  ``character_table`` never forms this tensor; it is the reference
    that ``_class_combination`` is checked against.
    """
    cs = conjugacy_structure(group)
    k = cs.num_classes
    index = (cs.class_of[None, :] * k + _pair_classes(group)) * k + np.arange(k)[:, None]
    return np.bincount(index.ravel(), minlength=k**3).reshape(k, k, k)


def _class_combination(group: FiniteGroup, a: np.ndarray) -> np.ndarray:
    """sum_i a[i] D^{-1/2} M_i D^{1/2}, without the structure-constant tensor.

    (M_i)[j, m] = a[i, j, m] from ``class_constants`` and D = diag(sizes).  An
    element x of class i adds a[i] to entry (j, m) where j is the class of
    x^{-1} z_m, so the pair index of ``_pair_classes`` turns the combination
    into one bincount: O(k |G|) per call.  The index is freed when the call returns.
    """
    cs = conjugacy_structure(group)
    k, n = cs.num_classes, group.order
    index = (_pair_classes(group) * k + np.arange(k)[:, None]).ravel()  # column-major: copied before w is made
    w = np.broadcast_to(a[cs.class_of], (k, n)).ravel()
    root = np.sqrt(cs.sizes.astype(np.float64))
    return np.bincount(index, weights=w, minlength=k * k).reshape(k, k) * (root[None, :] / root[:, None])


def _split_eigenvectors(h: np.ndarray, inverse_class: np.ndarray, attempt: int) -> tuple[np.ndarray | None, str]:
    """The k unit eigenvectors of the symmetric, J-invariant h as complex columns, or None and why ``attempt`` failed.

    The even block acts on e_C (C = C^-1) and (e_C + e_{C^-1})/sqrt 2 (C < C^-1), the odd one on
    (e_C - e_{C^-1})/sqrt 2.  Each block's eigenvalues must lie COLLISION_TOL times the even diameter
    apart, and each odd one within half that of its even partner.  The columns are the even
    eigenvectors, each paired one made (r + i s)/sqrt 2 with its odd partner s, then their conjugates.
    """
    k = h.shape[0]
    h = (h + h.T) / 2.0  # symmetrize away fp asymmetry
    classes = np.arange(k)
    even = (classes <= inverse_class).nonzero()[0]
    if even.size == k:  # no pairs: the even block is h
        even_vals, v = np.linalg.eigh(h)
        odd_vals = even_vals[:0]
    else:
        partner = inverse_class[even]
        pair = partner != even
        lows, highs, c = even[pair], partner[pair], np.where(pair, 1.0, math.sqrt(0.5))
        rows = h[even]
        even_vals, v = np.linalg.eigh((rows[:, even] + rows[:, partner]) * c * c[:, None])
        odd_vals, w = np.linalg.eigh(h[lows][:, lows] - h[lows][:, highs])
    if k > 1:
        tol = COLLISION_TOL * max(1.0, float(even_vals[-1] - even_vals[0]))
        gap = min((even_vals[1:] - even_vals[:-1]).min(), (odd_vals[1:] - odd_vals[:-1]).min(initial=np.inf))
        if gap < tol:
            return None, f"eigenvalue gap {gap:.3e} below tolerance on attempt {attempt + 1}"
    if even.size == k:
        return v.astype(np.complex128), ""
    paired = np.minimum(np.searchsorted(even_vals, odd_vals - tol / 2), even.size - 1)
    miss = np.abs(even_vals[paired] - odd_vals).max()
    if miss > tol / 2 or not (paired[1:] > paired[:-1]).all():
        return None, f"odd eigenvalue {miss:.3e} from its even partner on attempt {attempt + 1}"
    # In the class basis an even eigenvector is v on a real class and v / sqrt 2 on both classes of a pair.
    slot = np.searchsorted(even, np.minimum(classes, inverse_class))
    vectors = np.empty((k, k), dtype=np.complex128)
    vectors[:, : even.size] = (v * (math.sqrt(0.5) / c)[:, None])[slot]
    pairs = vectors[:, paired] * math.sqrt(0.5)
    pairs.imag[lows], pairs.imag[highs] = w * 0.5, w * -0.5
    vectors[:, paired], vectors[:, even.size :] = pairs, pairs.conj()
    return vectors, ""


def _gram(a: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """(a + ib)^H (a + ib) from real products; b None stands for 0."""
    gram = a.T @ a
    return gram if b is None else gram + b.T @ b + 1j * (a.T @ b - b.T @ a)


def _in_classes(y: np.ndarray, s: int) -> np.ndarray:
    """Q y Q^H in the ``pair_basis`` class order, without the upper classes' rows when y is real.

    Those rows then repeat the lower ones' absolute values, with the lower and upper columns swapped.
    """
    k, r = y.shape[0], math.sqrt(0.5)
    m = (k - s) // 2
    if not m:
        return y
    x = np.empty((s + m if np.isrealobj(y) else k, k), dtype=np.complex128)
    x[:s] = y[:s]
    for start, sign in ((s, -1j), (s + m, 1j))[: (x.shape[0] - s) // m]:  # rows (y_C -+ i y_C^-1) r
        np.multiply(y[s + m :], sign, out=x[start : start + m])
        x[start : start + m] += y[s : s + m]
    x[s:] *= r
    odd = 1j * x[:, s + m :]  # columns (x_C + i x_C^-1) r and (x_C - i x_C^-1) r
    np.subtract(x[:, s : s + m], odd, out=x[:, s + m :])
    x[:, s : s + m] += odd
    x[:, s:] *= r
    return x


def verify_orthogonality(table: CharacterTable) -> OrthogonalityReport:
    """The row and column orthogonality residuals of a table's values.

    For R = (A + iB) diag(sqrt(|C|/|G|)) from the ``pair_basis``, they are those of R R^H (by
    characters) and of Q R^H R Q^H (by classes), the row and column Grams of the unitary matrix.
    """
    order, s, a, b = table.pair_basis
    weights = np.sqrt(table.class_sizes[order] / table.order)
    a, b = a * weights, None if b is None else b * weights
    residuals = []  # R R^H is indexed by characters, so it is taken as if every class were self-inverse
    for x, y, own in ((a.T, None if b is None else -b.T, a.shape[0]), (a, b, s)):
        gram = _gram(x, y)
        gram.flat[:: gram.shape[0] + 1] -= 1.0
        residuals.append(float(np.abs(_in_classes(gram, own)).max()))
        del gram  # one Gram at a time
    return OrthogonalityReport(*residuals)


def _round_array(x: np.ndarray, ndigits: int) -> np.ndarray:
    """Python's ``round(v, ndigits)`` applied to every entry of a float array, ``ROUND_BLOCK`` at a time.

    rint(x * 10^ndigits) / 10^ndigits agrees with ``round`` except where the
    scaled product's own rounding error may cross a half-integer, or where the
    scaled value is too large for its integer part to be exact; those entries
    go through ``round`` itself.
    """
    x = np.asarray(x, dtype=np.float64)
    out, scale = np.empty(x.shape), 10.0**ndigits
    flat, flat_out = x.ravel(), out.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.size, ROUND_BLOCK):
            part, into = flat[start : start + ROUND_BLOCK], flat_out[start : start + ROUND_BLOCK]
            y = part * scale
            np.rint(y, out=into)
            into /= scale
            ay = np.abs(y)
            risky = ~(ay < 2.0**52) | (np.abs(ay - np.floor(ay) - 0.5) <= 4 * np.spacing(ay))
            for i in np.flatnonzero(risky):
                into[i] = round(float(part[i]), ndigits)
    return out


def _canonical_row_order(values: np.ndarray, primary: np.ndarray) -> np.ndarray:
    """Stable order of the rows by (primary, -re[., 0], -im[., 0], -re[., 1], ...), parts rounded to 9 digits.

    This is the order that sorting tuple keys of those values would give.  A round keys a block of
    columns by bytes: the bits of 0 - round(part, 9) (so -0.0 is 0.0), with the sign bit flipped, or
    all bits when negative, compare as the part does when read big-endian.  One stable lexsort by
    (head, key) orders the round's rows.  The first round keys every row by (primary, first 8
    columns); later rounds key only the rows in runs of equal keys, by (run, next columns), so each
    moves within its run.  The span doubles, up to about ``ROUND_BLOCK`` entries a round, until no
    two adjacent keys are equal or the whole row has been used.
    """
    width = values.shape[1]
    head, order, tied = primary, None, None  # tied: the ascending positions in order of the rows in runs
    lo, hi = 0, 8
    while True:
        rows = values[:, :hi] if tied is None else values[order[tied], lo:hi]
        parts = _round_array(np.ascontiguousarray(rows, dtype=np.complex128).view(np.float64), 9)
        bits = np.subtract(0.0, parts, out=parts).view(np.int64)
        bits ^= (bits >> 63) | -(1 << 63)
        keys = bits.byteswap(inplace=True).view(f"V{8 * bits.shape[1]}").ravel()
        step = np.lexsort((keys, head))
        if tied is None:
            order = step
        else:
            order[tied] = order[tied[step]]
        if hi >= width:
            return order
        keys, head = keys[step], head[step]
        same = (keys[1:] == keys[:-1]) & (head[1:] == head[:-1])
        if not same.any():
            return order
        in_run = np.concatenate((same, [False])) | np.concatenate(([False], same))
        head = np.cumsum(np.concatenate(([True], ~same)))[in_run]
        tied = np.flatnonzero(in_run) if tied is None else tied[in_run]
        lo, hi = hi, hi + max(8, min(hi, ROUND_BLOCK // (2 * tied.size)))


def _check_tolerance(certification_tol: float) -> None:
    """Reject a tolerance that no residual could fail (inf, nan) or meet (<= 0)."""
    if not (math.isfinite(certification_tol) and certification_tol > 0):
        raise ValueError(f"certification_tol must be positive and finite, not {certification_tol!r}")


def character_table(group: FiniteGroup, *, certification_tol: float = DEFAULT_CERT_TOL) -> CharacterTable:
    """Compute the full character table of ``group`` on its own conjugacy classes.

    The sampled combination is solved as two real blocks by
    ``_split_eigenvectors``.  Retries with fresh random coefficients when
    eigenvalues of a block collide (within ``COLLISION_TOL``, scaled by the
    spectral diameter), when an odd eigenvalue has no even partner, when the
    degrees do not come out as integers, or when
    certification misses ``certification_tol``; after ``MAX_RETRIES``
    failures raises CertificationError with the last attempt's reason.  A
    ``certification_tol`` that is not positive and finite raises ValueError.
    """
    _check_tolerance(certification_tol)
    cs = conjugacy_structure(group)
    n = group.order
    k = cs.num_classes
    root_sizes = np.sqrt(n / cs.sizes.astype(np.float64))

    e_class = cs.identity_class
    reason = ""
    for attempt in range(MAX_RETRIES):
        z = np.random.default_rng([SEED, attempt]).standard_normal(k)
        z += z[cs.inverse_class]
        eigvecs, reason = _split_eigenvectors(_class_combination(group, z), cs.inverse_class, attempt)
        if eigvecs is None:
            continue

        # Columns of eigvecs are (up to phase) sqrt(|C|/|G|) chi(C); the
        # identity class's entry, made real and positive, is d / sqrt(|G|).
        pivot = eigvecs[e_class]
        eigvecs *= np.conj(pivot) / np.abs(pivot)
        d = np.sqrt(n) * eigvecs[e_class].real
        degrees = np.rint(d)
        if not (
            (np.abs(d - degrees) <= 1e-6).all()
            and (degrees >= 1).all()
            and not (n % degrees).any()
            and int((degrees**2).sum()) == n
        ):
            reason = f"degree recovery failed on attempt {attempt + 1}"
            continue
        degrees = degrees.astype(np.int64)
        eigvecs *= root_sizes[:, None]

        order_idx = _canonical_row_order(eigvecs.T, degrees)
        table = CharacterTable(
            group_hash=group.content_hash, values=eigvecs.T[order_idx], degrees=degrees[order_idx],
            class_sizes=cs.sizes, class_reps=cs.reps, inverse_class=cs.inverse_class, identity_class=e_class,
        )
        del eigvecs, pivot  # pivot is a view that would keep the eigenvectors through certification
        if table.residual > certification_tol:
            reason = (
                f"certification residual {table.residual:.3e} "
                f"above {certification_tol:.1e} on attempt {attempt + 1}"
            )
            continue
        return table

    raise CertificationError(reason)


def canonical_form(table: CharacterTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group-independent canonical view: (values, degrees, class_sizes).

    The in-memory table keeps classes in the group's least-element order,
    which is the order class functions use.  For comparing tables across
    groups (or exporting), rows and columns are re-sorted jointly: rows by
    (degree, descending value tuple), columns by (class size, descending
    value tuple), alternating until the pair of orders is stable.  Groups
    with equal character tables, such as the two nonabelian groups of
    order 8, canonicalize to the same value matrix.
    """
    identity = np.arange(table.num_classes)
    rows, cols = identity, identity
    for _ in range(20):
        row_step = _canonical_row_order(table.values[np.ix_(rows, cols)], table.degrees[rows])
        rows = rows[row_step]
        col_step = _canonical_row_order(table.values[np.ix_(rows, cols)].T, table.class_sizes[cols])
        cols = cols[col_step]
        if np.array_equal(row_step, identity) and np.array_equal(col_step, identity):
            break
    return table.values[np.ix_(rows, cols)], table.degrees[rows], table.class_sizes[cols]


def tensor_table(t1: CharacterTable, t2: CharacterTable) -> CharacterTable:
    """Character table of the direct product, as the tensor of two tables.

    Classes and irreducibles of G x H are pairs, so values, degrees and class
    sizes are all Kronecker products, and the identity class of the pair
    (e1, e2) is e1 * k2 + e2.  Class representatives are not meaningful for
    a synthetic table and are set to -1.
    """
    values = np.kron(t1.values, t2.values)
    degrees = np.kron(t1.degrees, t2.degrees)
    sizes = np.kron(t1.class_sizes, t2.class_sizes)
    k2 = t2.num_classes
    inverse_class = (t1.inverse_class[:, None] * k2 + t2.inverse_class[None, :]).reshape(-1)
    order_idx = _canonical_row_order(values, degrees)
    values = values[order_idx]
    degrees = degrees[order_idx]
    digest = sha256_hex(f"tensor:{t1.group_hash}:{t2.group_hash}")
    return CharacterTable(
        group_hash=digest,
        values=values,
        degrees=degrees,
        class_sizes=sizes,
        class_reps=np.full(values.shape[1], -1, dtype=np.int64),
        inverse_class=inverse_class,
        identity_class=t1.identity_class * k2 + t2.identity_class,
    )
