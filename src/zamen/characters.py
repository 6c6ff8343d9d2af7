"""Character tables of finite groups from class-sum structure constants.

Nothing here uses explicit irreducible representations.  The table comes out
of the classical class-algebra method (Dixon, "High speed computation of
group characters", Numer. Math. 10, 1967): the class sums span the centre of
the group algebra, and the characters are the simultaneous eigenvectors of
its multiplication operators.  After the normalizations applied below, the
eigenvectors are the columns sqrt(|C|/|G|) * chi_pi(C) of the table.

``character_table`` and ``class_constants`` take the group alone and read
its own cached classes.  One random combination of those operators suffices
when its spectrum is simple; attempt a draws it from
``default_rng([SEED, attempt])``.  With conjugation-paired coefficients and a
diagonal similarity by sqrt(class sizes), the combination is a Hermitian
k x k matrix h, so numpy eigh gives orthonormal eigenvectors and the recovery
stays well conditioned.
h is accumulated straight from the group's multiplication: for each class
representative z and each element x, the coefficient of x's class lands on
the class of x^{-1} z, read from the rows of the z^{-1} (``FiniteGroup.rows``)
without the Cayley table.  That is O(k |G|) work per attempt, and the
k x k x k tensor of structure constants (``class_constants``) is never formed.

Rows and columns are ordered by rounded value keys with ``np.lexsort``;
``_round_array`` rounds a whole array exactly as Python's ``round`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .base import DEFAULT_CERT_TOL, CertificationError, SizeLimitError, sha256_hex
from .groups import MAX_PAIR_ENTRIES, ConjugacyStructure, FiniteGroup, conjugacy_structure

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
    def normalized_values(self) -> np.ndarray:
        """chi_p(C) / d_p, the characters of the underlying hypergroup."""
        return self.values / self.degrees[:, None]

    @property
    def unitary_matrix(self) -> np.ndarray:
        """U[p, j] = sqrt(|C_j|/|G|) chi_p(C_j); unitary when the table is valid."""
        return self.values * np.sqrt(self.class_sizes / self.order)[None, :]

    @property
    def gelfand_matrix(self) -> np.ndarray:
        """T[pi, C] = conj(psi_pi(C)) |C|/|G|, so T @ f is the Gelfand transform of f."""
        return np.conj(self.normalized_values) * (self.class_sizes / self.order)[None, :]

    @cached_property
    def residual(self) -> float:
        """Largest of the row, column, conjugation and degree residuals of ``values``, made on first use.

        The degree residual max_p |chi_p(e) - d_p| catches degrees that do not
        belong to their rows, which the other three cannot see.
        """
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


def _paired_coefficients(rng: np.random.Generator, inverse_class: np.ndarray) -> np.ndarray:
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


def _class_combination(group: FiniteGroup) -> Callable[[np.ndarray], np.ndarray]:
    """c -> sum_i c[i] D^{-1/2} M_i D^{1/2}, without the structure-constant tensor.

    (M_i)[j, m] = a[i, j, m] from ``class_constants`` and D = diag(sizes).  An
    element x of class i adds c[i] to entry (j, m) where j is the class of
    x^{-1} z_m, so the pair index of ``_pair_classes`` turns each combination
    into a pair of bincounts (real and imaginary weights): O(k |G|) per call.
    """
    cs = conjugacy_structure(group)
    k, n = cs.num_classes, group.order
    index = (_pair_classes(group) * k + np.arange(k)[:, None]).ravel()
    root = np.sqrt(cs.sizes.astype(np.float64))
    scale = root[None, :] / root[:, None]

    def combine(c: np.ndarray) -> np.ndarray:
        w = np.broadcast_to(c[cs.class_of], (k, n)).ravel()
        real = np.bincount(index, weights=w.real, minlength=k * k)
        imag = np.bincount(index, weights=w.imag, minlength=k * k)
        return (real + 1j * imag).reshape(k, k) * scale

    return combine


def verify_orthogonality(table: CharacterTable) -> OrthogonalityReport:
    """The row and column orthogonality residuals of a table's values."""
    u = table.unitary_matrix
    eye = np.eye(u.shape[0])
    row = float(np.abs(u @ u.conj().T - eye).max())
    col = float(np.abs(u.conj().T @ u - eye).max())
    return OrthogonalityReport(row, col)


def _round_array(x: np.ndarray, ndigits: int) -> np.ndarray:
    """Python's ``round(v, ndigits)`` applied to every entry of a float array.

    rint(x * 10^ndigits) / 10^ndigits agrees with ``round`` except where the
    scaled product's own rounding error may cross a half-integer, or where the
    scaled value is too large for its integer part to be exact; those entries
    go through ``round`` itself.
    """
    x = np.asarray(x, dtype=np.float64)
    scale = 10.0**ndigits
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * scale
        out = np.rint(y, out=np.empty_like(x))
        out /= scale
        ay = np.abs(y)
        risky = ~(ay < 2.0**52) | (np.abs(ay - np.floor(ay) - 0.5) <= 4 * np.spacing(ay))
    for i in np.flatnonzero(risky):
        out.flat[i] = round(float(x.flat[i]), ndigits)
    return out


def _value_order(primary: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Stable order of items by (primary, -re[., 0], -im[., 0], -re[., 1], ...).

    ``re`` and ``im`` hold one item per row, already rounded; this is the
    order that sorting tuple keys of those values would give.
    """
    keys = np.empty((2 * re.shape[1], re.shape[0]), dtype=np.float64)
    keys[0::2] = -re.T
    keys[1::2] = -im.T
    return np.lexsort((*keys[::-1], primary))


def _rounded_keys(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _round_array(values.real, 9), _round_array(values.imag, 9)


def _canonical_row_order(values: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Rows by degree, then by descending (real, imag) values rounded to 9 digits."""
    return _value_order(degrees, *_rounded_keys(values))


def _check_tolerance(certification_tol: float) -> None:
    """Reject a tolerance that no residual could fail (inf, nan) or meet (<= 0)."""
    if not (math.isfinite(certification_tol) and certification_tol > 0):
        raise ValueError(f"certification_tol must be positive and finite, not {certification_tol!r}")


def character_table(group: FiniteGroup, *, certification_tol: float = DEFAULT_CERT_TOL) -> CharacterTable:
    """Compute the full character table of ``group`` on its own conjugacy classes.

    Retries with fresh random coefficients when eigenvalues of the sampled
    combination collide (within ``COLLISION_TOL``, scaled by the spectral
    diameter), when the degrees do not come out as integers, or when
    certification misses ``certification_tol``; after ``MAX_RETRIES``
    failures raises CertificationError with the last attempt's reason.  A
    ``certification_tol`` that is not positive and finite raises ValueError.
    """
    _check_tolerance(certification_tol)
    cs = conjugacy_structure(group)
    n = group.order
    k = cs.num_classes
    root_sizes = np.sqrt(n / cs.sizes.astype(np.float64))
    combine = _class_combination(group)

    e_class = cs.identity_class
    reason = ""
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng([SEED, attempt])
        c = _paired_coefficients(rng, cs.inverse_class)
        h = combine(c)
        h = (h + h.conj().T) / 2.0  # symmetrize away fp asymmetry

        eigvals, eigvecs = np.linalg.eigh(h)
        if k > 1:
            diameter = float(eigvals[-1] - eigvals[0])
            gap = float(np.diff(eigvals).min())
            if gap < COLLISION_TOL * max(1.0, diameter):
                reason = f"eigenvalue gap {gap:.3e} below tolerance on attempt {attempt + 1}"
                continue

        # Columns of eigvecs are (up to phase) sqrt(|C|/|G|) chi(C); the
        # identity class's entry, made real and positive, is d / sqrt(|G|).
        pivot = eigvecs[e_class]
        eigvecs *= np.conj(pivot) / np.abs(pivot)
        d = np.sqrt(n) * eigvecs[e_class].real
        degrees = np.rint(d)
        if not (
            np.all(np.abs(d - degrees) <= 1e-6)
            and np.all(degrees >= 1)
            and not np.any(n % degrees)
            and int((degrees**2).sum()) == n
        ):
            reason = f"degree recovery failed on attempt {attempt + 1}"
            continue
        degrees = degrees.astype(np.int64)
        eigvecs *= root_sizes[:, None]

        order_idx = _canonical_row_order(eigvecs.T, degrees)
        table = CharacterTable(
            group_hash=group.content_hash,
            values=eigvecs.T[order_idx],
            degrees=degrees[order_idx],
            class_sizes=cs.sizes,
            class_reps=cs.reps,
            inverse_class=cs.inverse_class,
            identity_class=e_class,
        )
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
    re, im = _rounded_keys(table.values)
    identity = np.arange(table.num_classes)
    rows, cols = identity, identity
    for _ in range(20):
        row_step = _value_order(table.degrees[rows], re[np.ix_(rows, cols)], im[np.ix_(rows, cols)])
        rows = rows[row_step]
        col_step = _value_order(
            table.class_sizes[cols], re[np.ix_(rows, cols)].T, im[np.ix_(rows, cols)].T
        )
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
