"""Character tables: structure constants, eigenvector recovery, certification.

Frozen expectations come from hand derivations (S3, D4, Q8) and from the
closed-form discrete Fourier characters of cyclic groups.
"""

from __future__ import annotations

import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest

import zamen
from zamen import characters
from zamen.amenability import amenability_constant
from zamen.characters import (
    MAX_PAIR_ENTRIES,
    TABLE_ARRAYS,
    CertificationError,
    CharacterTable,
    _canonical_row_order,
    _class_combination,
    _round_array,
    canonical_form,
    character_table,
    class_constants,
    tensor_table,
    verify_orthogonality,
)
from zamen.groups import (
    SizeLimitError,
    alternating,
    conjugacy_structure,
    cyclic,
    dihedral,
    direct_product,
    from_cayley_table,
    from_permutation_generators,
    quaternion_group,
    symmetric,
)
from zamen.zoo import build, zoo_names

from oracles import formula_residual, hermitian_character_table, unitary_matrix

EPS = np.finfo(np.float64).eps

S3_TABLE = np.array(
    [
        [1.0, 1.0, 1.0],  # trivial, on classes (e, transpositions, 3-cycles)
        [1.0, -1.0, 1.0],  # sign
        [2.0, 0.0, -1.0],  # standard 2-dimensional
    ]
)


def value_key(primary, entries):
    """Tuple sort key: primary, then each entry's (-real, -imag) rounded to 9 digits."""
    return (int(primary),) + tuple(
        (-round(float(v.real), 9), -round(float(v.imag), 9)) for v in entries
    )


def sort_key_row_order(values, degrees):
    """Canonical row order by per-row Python sort keys (the oracle for lexsort)."""
    return sorted(range(values.shape[0]), key=lambda p: value_key(degrees[p], values[p]))


def sort_key_canonical_form(table):
    """Joint row/column canonical form by per-row and per-column sort keys."""
    values, degrees, sizes = table.values.copy(), table.degrees.copy(), table.class_sizes.copy()
    k = table.num_classes
    for _ in range(20):
        rows = sorted(range(k), key=lambda p: value_key(degrees[p], values[p]))
        values, degrees = values[rows], degrees[rows]
        cols = sorted(range(k), key=lambda j: value_key(sizes[j], values[:, j]))
        values, sizes = values[:, cols], sizes[cols]
        if rows == list(range(k)) and cols == list(range(k)):
            break
    return values, degrees, sizes


def sort_rows(values, degrees):
    return np.asarray(values)[sort_key_row_order(values, degrees)]


def brute_class_constants(group, cs):
    k = cs.num_classes
    a = np.zeros((k, k, k), dtype=np.int64)
    for kk, z in enumerate(cs.reps):
        for i in range(k):
            for j in range(k):
                a[i, j, kk] = sum(
                    1
                    for x in cs.classes[i]
                    for y in cs.classes[j]
                    if group.table[x, y] == z
                )
    return a


def test_class_constants_s3_frozen():
    g = symmetric(3)
    cs = conjugacy_structure(g)
    a = class_constants(g)
    # Transposition * transposition hitting the identity: 3 pairs.
    assert a[1, 1, 0] == 3
    # Transposition * transposition hitting a fixed 3-cycle: 3 pairs.
    assert a[1, 1, 2] == 3
    assert a[1, 1, 1] == 0
    assert np.array_equal(a, brute_class_constants(g, cs))


@pytest.mark.parametrize(
    "builder",
    [
        lambda: dihedral(4),
        lambda: quaternion_group(),
        lambda: alternating(4),
        lambda: symmetric(4),
        lambda: direct_product(symmetric(3), cyclic(4)),
    ],
)
def test_class_constants_brute_force(builder):
    g = builder()
    cs = conjugacy_structure(g)
    assert np.array_equal(class_constants(g), brute_class_constants(g, cs))


def test_class_constants_row_sums():
    # Summing a[i, j, k] over k weighted by |C_k| counts all of C_i x C_j.
    g = symmetric(4)
    cs = conjugacy_structure(g)
    a = class_constants(g)
    total = (a * cs.sizes[None, None, :]).sum(axis=2)
    assert np.array_equal(total, np.outer(cs.sizes, cs.sizes))


def test_s3_character_table_frozen():
    t = character_table(symmetric(3))
    assert t.degrees.tolist() == [1, 1, 2]
    assert t.class_sizes.tolist() == [1, 3, 2]
    assert np.abs(t.values - S3_TABLE).max() < 1e-12
    assert np.abs(t.values.imag).max() < 1e-12


def test_cyclic_tables_match_fourier():
    for n in (2, 3, 5, 6, 12):
        t = character_table(cyclic(n))
        s = np.arange(n)
        dft = np.exp(2j * np.pi * np.outer(s, s) / n)
        expected = sort_rows(dft, np.ones(n, dtype=int))
        assert np.abs(t.values - expected).max() < 1e-9
        assert t.degrees.tolist() == [1] * n


def test_d4_table_frozen():
    t = character_table(dihedral(4))
    assert t.degrees.tolist() == [1, 1, 1, 1, 2]
    # Classes in least-element order: e, {r, r^3}, reflections, {r^2}, diagonal
    # reflections; sizes 1, 2, 2, 1, 2.
    assert t.class_sizes.tolist() == [1, 2, 2, 1, 2]
    two_dim = t.values[4].real
    assert two_dim.tolist() == pytest.approx([2, 0, 0, -2, 0], abs=1e-10)
    assert np.abs(t.values.imag).max() < 1e-10


def test_d4_q8_same_canonical_matrix():
    td = character_table(dihedral(4))
    tq = character_table(quaternion_group())
    vd, degd, sized = canonical_form(td)
    vq, degq, sizeq = canonical_form(tq)
    assert degd.tolist() == degq.tolist() == [1, 1, 1, 1, 2]
    assert sized.tolist() == sizeq.tolist() == [1, 1, 2, 2, 2]
    assert np.abs(vd - vq).max() < 1e-10
    expected = np.array(
        [
            [1, 1, 1, 1, 1],
            [1, 1, 1, -1, -1],
            [1, 1, -1, 1, -1],
            [1, 1, -1, -1, 1],
            [2, -2, 0, 0, 0],
        ],
        dtype=float,
    )
    assert np.abs(vd - expected).max() < 1e-10


@pytest.mark.parametrize(
    "builder",
    [
        lambda: symmetric(3),
        lambda: symmetric(4),
        lambda: alternating(4),
        lambda: dihedral(5),
        lambda: dihedral(6),
        lambda: quaternion_group(),
        lambda: cyclic(12),
        lambda: direct_product(symmetric(3), symmetric(3)),
    ],
)
def test_orthogonality_certification(builder):
    g = builder()
    t = character_table(g)
    report = verify_orthogonality(t)
    assert report.max_residual <= 1e-9
    assert (t.degrees**2).sum() == g.order
    assert not np.any(g.order % t.degrees)
    # Conjugate class symmetry chi(C^{-1}) = conj(chi(C)).
    assert np.abs(t.values[:, t.inverse_class] - np.conj(t.values)).max() <= 1e-9


def test_seed_independence(monkeypatch):
    g = direct_product(cyclic(3), symmetric(3))
    t0 = character_table(g)
    monkeypatch.setattr(characters, "SEED", 12345)
    t1 = character_table(g)
    assert np.abs(t0.values - t1.values).max() <= 1e-9
    assert t0.degrees.tolist() == t1.degrees.tolist()


def test_degeneracy_retry_paths(monkeypatch):
    g = symmetric(3)
    # A tolerance below every attainable residual is never met.
    with pytest.raises(CertificationError, match="certification residual .* on attempt 5"):
        character_table(g, certification_tol=1e-300)
    # An absurd collision tolerance forces every attempt to be rejected.
    monkeypatch.setattr(characters, "COLLISION_TOL", 10.0)
    with pytest.raises(CertificationError, match="eigenvalue gap .* below tolerance on attempt 5"):
        character_table(g)


def test_degree_recovery_retry_path(monkeypatch):
    # S3's classes are all real, so its combination is one real block.  Rotating two of its
    # eigenvectors keeps them orthonormal and their eigenvalues apart, but the identity-class
    # entries of the rotated pair are no longer degrees over sqrt(6).
    eigh = np.linalg.eigh

    def rotated(h):
        values, vectors = eigh(h)
        c, s = np.cos(0.3), np.sin(0.3)
        vectors[:, :2] = vectors[:, :2] @ np.array([[c, s], [-s, c]])
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", rotated)
    with pytest.raises(CertificationError, match="degree recovery failed on attempt 5"):
        character_table(symmetric(3))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("inf"), float("nan")])
def test_tolerance_that_disables_certification_is_rejected(tol):
    with pytest.raises(ValueError, match="positive and finite"):
        character_table(symmetric(3), certification_tol=tol)


def test_tensor_table_matches_product_group():
    a, b = symmetric(3), cyclic(4)
    ta, tb = character_table(a), character_table(b)
    tt = tensor_table(ta, tb)
    tp = character_table(direct_product(a, b))
    assert tt.order == tp.order == 24
    vt, degt, sizet = canonical_form(tt)
    vp, degp, sizep = canonical_form(tp)
    assert degt.tolist() == degp.tolist()
    assert sizet.tolist() == sizep.tolist()
    assert np.abs(vt - vp).max() < 1e-9


RESIDUAL_GROUPS = {
    **{name: (lambda name=name: build(name)) for name in zoo_names()},
    "D60": lambda: dihedral(60),
    "Q8xZ40": lambda: direct_product(quaternion_group(), cyclic(40)),
}


@pytest.mark.parametrize("make_group", RESIDUAL_GROUPS.values(), ids=RESIDUAL_GROUPS.keys())
def test_residual_is_the_residual_of_the_values(make_group):
    # The certificate sums the complex formula's terms in another order, so they agree to rounding.
    t = character_table(make_group())
    want = formula_residual(t)
    assert abs(t.residual - want) <= 16 * t.num_classes * EPS * max(1.0, want)
    assert t.residual <= 1e-9


@pytest.mark.parametrize(
    "left, right",
    [(lambda: symmetric(4), lambda: symmetric(4)), (lambda: dihedral(8), quaternion_group)],
    ids=["S4xS4", "D8xQ8"],
)
def test_tensor_table_reports_the_residual_of_its_values(left, right):
    t1, t2 = character_table(left()), character_table(right())
    tt = tensor_table(t1, t2)
    want = formula_residual(tt)
    assert abs(tt.residual - want) <= 16 * tt.num_classes * EPS * max(1.0, want)
    assert tt.residual >= max(t1.residual, t2.residual)


def test_identity_class_is_carried_into_every_table():
    # S3 with elements 0 and 4 swapped: the identity is element 4, not in class 0.
    sigma = np.array([4, 1, 2, 3, 0, 5])
    g = from_cayley_table(sigma[symmetric(3).table[np.ix_(sigma, sigma)]], label="S3-e4")
    cs = conjugacy_structure(g)
    t = character_table(g)
    assert t.identity_class == cs.class_of[g.identity] != 0
    loaded = CharacterTable.from_arrays(cs, {name: getattr(t, name) for name in TABLE_ARRAYS})
    assert loaded.identity_class == t.identity_class
    tt = tensor_table(character_table(cyclic(3)), t)
    assert tt.identity_class == 0 * t.num_classes + t.identity_class
    assert np.allclose(tt.values[:, tt.identity_class], tt.degrees)
    assert tt.residual <= 1e-9


def test_degrees_that_do_not_belong_to_their_rows_fail_the_residual():
    t = character_table(symmetric(3))
    permuted = dataclasses.replace(t, degrees=t.degrees[[2, 0, 1]])
    assert permuted.degrees.tolist() == [2, 1, 1]
    assert verify_orthogonality(permuted).max_residual <= 1e-14
    assert permuted.residual == pytest.approx(1.0, abs=1e-12)


def test_gelfand_matrix_transforms_class_functions():
    t = character_table(symmetric(4))
    expected = np.conj(t.values / t.degrees[:, None]) * (t.class_sizes / t.order)[None, :]
    assert np.array_equal(t.gelfand_matrix, expected)
    # The indicator of the identity class transforms to 1/|G| everywhere.
    assert np.allclose(t.gelfand_matrix[:, 0], 1 / t.order)


@pytest.mark.parametrize(
    "make_group, make_other",
    [(lambda: symmetric(3), lambda: cyclic(6)), (lambda: cyclic(6), lambda: symmetric(3))],
    ids=["S3 given Z6", "Z6 given S3"],
)
def test_conjugacy_structure_of_another_group_is_rejected(make_group, make_other):
    # Tables and structure constants read the group's own classes; there is no way to pass others.
    group, other = make_group(), make_other()
    for compute in (character_table, class_constants):
        with pytest.raises(TypeError):
            compute(group, conjugacy_structure(other))
    assert np.array_equal(character_table(group).class_sizes, conjugacy_structure(group).sizes)


def test_a_table_is_computed_from_the_group_alone():
    params = inspect.signature(character_table).parameters
    assert list(params) == ["group", "certification_tol"]
    assert params["certification_tol"].kind is inspect.Parameter.KEYWORD_ONLY
    assert list(inspect.signature(class_constants).parameters) == ["group"]
    assert not hasattr(zamen, "DegeneracyError") and not hasattr(characters, "DegeneracyError")


def test_relabelled_copy_shares_its_conjugacy_structure():
    group = symmetric(3)
    copy = from_cayley_table(group.table, label="renamed")
    assert copy.content_hash == conjugacy_structure(group).group_hash
    t = character_table(copy)
    assert t.values.tobytes() == character_table(group).values.tobytes()


def bump_last(a):
    b = a.copy()
    b[-1] += 1
    return b


@pytest.mark.parametrize(
    "name, change",
    [
        ("values", lambda a: a.astype(np.complex64)),
        ("values", lambda a: np.hstack([a, a[:, :1]])),
        ("degrees", lambda a: a.astype(np.float64)),
        ("degrees", lambda a: a - 1),
        ("degrees", lambda a: -a),
        ("class_sizes", bump_last),
        ("class_reps", bump_last),
        ("inverse_class", bump_last),
    ],
    ids=["complex64", "k_by_k_plus_1", "float_degrees", "zero_degree", "negative_degrees",
         "class_sizes", "class_reps", "inverse_class"],
)
def test_from_arrays_names_the_array_it_refuses(name, change):
    cs = conjugacy_structure(symmetric(3))
    table = character_table(symmetric(3))
    arrays = {key: np.array(getattr(table, key)) for key in TABLE_ARRAYS}
    assert CharacterTable.from_arrays(cs, arrays).residual == table.residual
    arrays[name] = change(arrays[name])
    with pytest.raises(ValueError, match=f"^{name}: "):
        CharacterTable.from_arrays(cs, arrays)


def test_unitary_matrix_is_unitary():
    t = character_table(symmetric(4))
    u = unitary_matrix(t)
    eye = np.eye(t.num_classes)
    assert np.abs(u @ u.conj().T - eye).max() <= 1e-9
    assert np.abs(u.conj().T @ u - eye).max() <= 1e-9


def test_trivial_group():
    t = character_table(cyclic(1))
    assert t.values.tolist() == [[1.0 + 0.0j]]
    assert t.degrees.tolist() == [1]


def zoo_tables():
    return [character_table(build(name)) for name in zoo_names()]


def tied_random_tables(count=200, seed=7, classes=(1, 9)):
    """Complex matrices with repeated rows and columns and entries at (or one
    ulp beside) 9-digit half-way points, so sort keys tie often.  Above 8
    classes, rows and columns also agree with the first one up to a random
    place, so ties outlast the first 8, 16 or 32 entries."""
    rng = np.random.default_rng(seed)
    halfway = np.array([0.5e-9, 1.5e-9, -2.5e-9, 0.1234567885, 0.1234567895, -0.7777777775])
    pool = np.concatenate(
        [[0.0, -0.0, 1.0, -1.0, 2.0, 1e-10], halfway,
         np.nextafter(halfway, np.inf), np.nextafter(halfway, -np.inf)]
    )
    tables = []
    for _ in range(count):
        k = int(rng.integers(*classes))
        values = rng.choice(pool, size=(k, k)) + 1j * rng.choice(pool[:8], size=(k, k))
        values[rng.integers(0, k)] = values[0]
        values[:, rng.integers(0, k)] = values[:, 0]
        if k > 8:
            for p, end in enumerate(rng.integers(1, k, size=k)):
                values[p, :end] = values[0, :end]
            for q, end in enumerate(rng.integers(1, k, size=k)):
                values[:end, q] = values[:end, 0]
        tables.append(synthetic_table(values, rng.integers(1, 3, size=k), rng.integers(1, 3, size=k)))
    return tables


def synthetic_table(values, degrees, sizes=None):
    values = np.asarray(values, dtype=np.complex128)
    k = values.shape[0]
    return CharacterTable(
        group_hash="synthetic",
        values=values,
        degrees=np.asarray(degrees, dtype=np.int64),
        class_sizes=np.ones(k, dtype=np.int64) if sizes is None else np.asarray(sizes, dtype=np.int64),
        class_reps=np.zeros(k, dtype=np.int64),
        inverse_class=np.arange(k),
        identity_class=0,
    )


def shuffled_rows(table, seed):
    """The table with its rows in a seeded random order, so ordering them has work to do."""
    rows = np.random.default_rng(seed).permutation(table.num_classes)
    return synthetic_table(table.values[rows], table.degrees[rows], table.class_sizes)


def longest_tie(table):
    """The most leading columns two rows of equal primary agree on, by their sort keys."""
    keys = sorted(value_key(d, row) for d, row in zip(table.degrees, table.values))
    return max(
        next((j for j, (x, y) in enumerate(zip(a[1:], b[1:])) if x != y), len(a) - 1)
        for a, b in zip(keys, keys[1:])
        if a[0] == b[0]
    )


def q8_z40():
    return tensor_table(character_table(quaternion_group()), character_table(cyclic(40)))


def long_tie_tables():
    """Tables whose rows stay tied long, tie exactly, or differ only by rounding details, each
    with its rows out of order."""
    d10_z16 = tensor_table(character_table(dihedral(10)), character_table(cyclic(16)))
    rng = np.random.default_rng(5)
    last_column_only = np.ones((40, 40), dtype=np.complex128)  # one run through 39 columns
    last_column_only[:, -1] = rng.permutation(40) - 1j * rng.permutation(40)
    duplicated = rng.choice([1.0, -1.0, 0.5j], size=(4, 12))[rng.integers(0, 4, size=12)]
    duplicated[:, :6] = 1.0  # at most 4 distinct rows in 12, all alike for 6 columns
    zeros = np.array(  # equal up to the sign of zero for 2 columns, then in descending index order
        [[0.0, 0.0, 1.0, 1.0],
         [-0.0, complex(0.0, -0.0), 2.0, 1.0],
         [complex(0.0, -0.0), -0.0, 3.0, 1.0],
         [complex(-0.0, -0.0), 0.0, 4.0, 1.0]]
    )
    halfway = np.array([0.5e-9, -2.5e-9, 0.1234567885, -0.7777777775, 1.0000000005])
    near = np.concatenate([np.nextafter(halfway, -np.inf), halfway, np.nextafter(halfway, np.inf)])
    ulps = np.ones((near.size, near.size), dtype=np.complex128)
    ulps[:, 0] = near + 1j * near[::-1]  # one ulp either side of 9-digit half-way points
    ulps[:, 1] = np.arange(near.size)  # where rounding ties rows, ascending index order
    tables = [q8_z40(), d10_z16, synthetic_table(last_column_only, np.ones(40))]
    tables += [synthetic_table(v, np.ones(len(v))) for v in (duplicated, zeros, ulps, [[0.5 - 0.25j]])]
    return [shuffled_rows(t, seed) for seed, t in enumerate(tables)]


def test_long_tie_tables_tie_as_intended():
    q8_z40_table, d10_z16, last_column_only, duplicated, zeros, ulps, _ = long_tie_tables()
    assert longest_tie(q8_z40_table) == 120 and longest_tie(d10_z16) == 32  # past 64 and 16 columns
    assert longest_tie(last_column_only) == 39
    assert longest_tie(duplicated) == 12
    assert longest_tie(zeros) == 2
    assert longest_tie(ulps) == 1


def test_canonical_orders_match_the_sort_key_oracle():
    tables = zoo_tables() + long_tie_tables() + tied_random_tables() + tied_random_tables(40, 8, classes=(9, 41))
    for t in tables:
        assert _canonical_row_order(t.values, t.degrees).tolist() == sort_key_row_order(
            t.values, t.degrees
        )
        got = canonical_form(t)
        want = sort_key_canonical_form(t)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tolist() == want[1].tolist()
        assert got[2].tolist() == want[2].tolist()


def test_canonical_order_rounds_only_the_tied_rows(monkeypatch):
    """Q8 (x) Z40's 160 rows from Q8's linear characters tie past the first 8 columns, some pairs
    for 120; ordering them rounds fewer entries than one full-width pass (200 x 400 floats)."""
    t = shuffled_rows(q8_z40(), 0)
    rounded = []
    real = characters._round_array
    monkeypatch.setattr(characters, "_round_array", lambda x, ndigits: rounded.append(x.size) or real(x, ndigits))
    order = _canonical_row_order(t.values, t.degrees)
    assert order.tolist() == sort_key_row_order(t.values, t.degrees)
    assert len(rounded) > 1 and sum(rounded) < 200 * 400


@pytest.mark.parametrize("ndigits", [9, 12])
def test_round_array_is_python_round(ndigits):
    rng = np.random.default_rng(ndigits)
    halfway = (np.arange(-3000, 3000) + 0.5) / 10.0**ndigits
    big = 2.0**52 / 10.0**ndigits * np.array([0.999, 1.0, 1.5, 7.0, 1e3, 1e12, 1e300])
    x = np.concatenate(
        [
            halfway,
            np.nextafter(halfway, np.inf),
            np.nextafter(halfway, -np.inf),
            big,
            -big,
            np.nextafter(big, 0.0),
            big[1] * rng.uniform(0.5, 64.0, size=5000),
            [0.0, -0.0, 1e-300, -1e-300, 0.4e-12, -0.4e-12, np.inf, -np.inf],
            rng.standard_normal(20000) * 10.0 ** rng.integers(-14, 6, size=20000),
        ]
    )
    want = np.array([round(float(v), ndigits) for v in x])
    assert _round_array(x, ndigits).tobytes() == want.tobytes()
    even = x.size // 2 * 2
    assert _round_array(x[:even].reshape(-1, 2), ndigits).tobytes() == want[:even].tobytes()


@pytest.mark.parametrize(
    "make_group",
    [*(lambda name=name: build(name) for name in zoo_names()),
     lambda: direct_product(dihedral(10), cyclic(16))],
    ids=[*zoo_names(), "D10xZ16"],
)
def test_direct_combination_matches_the_tensor_contraction(make_group):
    g = make_group()
    cs = conjugacy_structure(g)
    inv = cs.inverse_class
    sizes = cs.sizes.astype(np.float64)
    scale = np.sqrt(sizes[None, None, :] / sizes[None, :, None])
    for attempt in range(2):
        z = np.random.default_rng([3, attempt]).standard_normal(cs.num_classes)
        a = z + z[inv]
        h = _class_combination(g, a)
        want = np.einsum("i,ijk->jk", a, class_constants(g) * scale)
        assert np.abs(h - want).max() <= 1e-12
        # Coefficients equal on a class and its inverse make h symmetric and J h J = h, J: e_C -> e_{C^-1}.
        assert np.abs(h - h.T).max() <= 1e-12
        assert np.abs(h[np.ix_(inv, inv)] - h).max() <= 1e-12


def test_a_pair_index_above_the_cap_is_refused_before_it_is_allocated():
    # Z80xZ80 has 6400 classes of one element: 40 960 000 pair entries, above the cap of 2^25.
    g = direct_product(cyclic(80), cyclic(80))
    assert g.order * conjugacy_structure(g).num_classes > MAX_PAIR_ENTRIES
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="pair index of 40960000 entries is above the cap"):
            character_table(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"the refusal allocated {peak} bytes"


def frobenius_21():
    """F21 = <(0 1 ... 6), x -> 2x mod 7>: two conjugate pairs of characters, of degrees 1 and 3."""
    return from_permutation_generators([[1, 2, 3, 4, 5, 6, 0], [0, 2, 4, 6, 1, 3, 5]], label="F21")


ORACLE_GROUPS = {
    **{name: (lambda name=name: build(name)) for name in zoo_names()},
    # The benchmark ladders past the zoo, with the factors of their products.
    "S5": lambda: symmetric(5),
    "S6": lambda: symmetric(6),
    "A6": lambda: alternating(6),
    "A7": lambda: alternating(7),
    "S7": lambda: symmetric(7),
    "A5": lambda: alternating(5),
    "A5xA5": lambda: direct_product(alternating(5), alternating(5)),
    "S5xS3": lambda: direct_product(symmetric(5), symmetric(3)),
    "S4xS4": lambda: direct_product(symmetric(4), symmetric(4)),
    "Z300": lambda: cyclic(300),
    "Z40": lambda: cyclic(40),
    "Q8xZ40": lambda: direct_product(quaternion_group(), cyclic(40)),
    "D10": lambda: dihedral(10),
    "Z16": lambda: cyclic(16),
    "D10xZ16": lambda: direct_product(dihedral(10), cyclic(16)),
    "S3xS3xS3": lambda: direct_product(direct_product(symmetric(3), symmetric(3)), symmetric(3)),
    "D60": lambda: dihedral(60),
    "D120": lambda: dihedral(120),
    "S8": lambda: symmetric(8),
    "F21": frobenius_21,
}


@pytest.mark.parametrize("make_group", ORACLE_GROUPS.values(), ids=ORACLE_GROUPS.keys())
def test_tables_match_the_hermitian_oracle(make_group):
    g = make_group()
    t = character_table(g)
    values, degrees = hermitian_character_table(g)
    # Characters are distinct rows, so equal values row by row also mean the same row order.
    assert t.degrees.tolist() == degrees.tolist()
    assert np.abs(t.values - values).max() <= 1e-9
    assert t.residual <= 1e-9


@pytest.fixture
def eigh_calls(monkeypatch):
    """The (dtype, shape) of every matrix handed to np.linalg.eigh while the test runs."""
    calls, eigh = [], np.linalg.eigh

    def recording(a, *args, **kwargs):
        calls.append((a.dtype, a.shape))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return calls


@pytest.mark.parametrize(
    "make_group, pairs",
    [
        (lambda: cyclic(1), 0),
        (lambda: symmetric(3), 0),
        (quaternion_group, 0),
        (lambda: symmetric(4), 0),
        (lambda: cyclic(7), 3),
        (lambda: cyclic(9), 4),
        (lambda: direct_product(cyclic(2), cyclic(4)), 2),
        (lambda: alternating(4), 1),
        (frobenius_21, 2),
        (lambda: cyclic(300), 149),
    ],
    ids=["trivial", "S3", "Q8", "S4", "Z7", "Z9", "Z2xZ4", "A4", "F21", "Z300"],
)
def test_eigh_sees_only_the_real_even_and_odd_blocks(make_group, pairs, eigh_calls):
    # A real table solves one real k x k block; with pairs, the even block has k - pairs rows and the odd one pairs.
    t = character_table(make_group())
    k = t.num_classes
    assert int((t.inverse_class > np.arange(k)).sum()) == pairs
    assert [shape for _, shape in eigh_calls] == ([(k, k)] if pairs == 0 else [(k - pairs, k - pairs), (pairs, pairs)])
    assert all(dtype == np.float64 for dtype, _ in eigh_calls)
    assert int((np.abs(t.values.imag).max(axis=1) > 1e-9).sum()) == 2 * pairs
    assert t.residual <= 1e-9


def test_an_odd_eigenvalue_without_an_even_partner_fails_every_attempt(monkeypatch):
    # Z7's odd block is 3 x 3 (its even block 4 x 4); move its spectrum past every even eigenvalue.
    eigh = np.linalg.eigh

    def shifted(a):
        vals, vecs = eigh(a)
        return (vals + 1e3 * (1.0 + np.abs(vals).max()), vecs) if a.shape == (3, 3) else (vals, vecs)

    monkeypatch.setattr(np.linalg, "eigh", shifted)
    with pytest.raises(CertificationError, match="odd eigenvalue .* from its even partner on attempt 5"):
        character_table(cyclic(7))


def test_the_split_keeps_its_temporaries_out_of_certification():
    # Z300 peaks at about 4.74 MiB once numpy's random and linalg modules are imported, and at about
    # 5.38 MiB when this test runs alone and their lazy imports count.  The pair index with its size
    # scale, or the eigenvectors (1.37 MiB either), held through certification would take it past
    # the bound; both were, at 7.49 MiB.
    g = cyclic(300)
    conjugacy_structure(g)
    tracemalloc.start()
    try:
        character_table(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 2**20, f"character_table(Z300) peaked at {peak / 2**20:.2f} MiB"


def test_the_class_combination_holds_the_pair_index_and_its_weights_alone():
    # About 16.7 bytes a pair-index entry on A5xA5 (k = 25, |G| = 3600): the int64 index and the
    # float64 weights.  Ravelling the column-major index once the weights exist held a copy of it
    # too, 24 bytes an entry.
    g = direct_product(alternating(5), alternating(5))
    cs = conjugacy_structure(g)
    tracemalloc.start()
    try:
        _class_combination(g, np.ones(cs.num_classes))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18 * g.order * cs.num_classes, f"the combination peaked at {peak / 2**20:.2f} MiB"


def test_certifying_a_loaded_table_keeps_its_temporaries_real():
    # residual and AM of a freshly loaded Z300 table peak at about 3.4 MiB with the cached real pair
    # basis; one complex k x k Gram (1.4 MB, and its operands) would take them past the bound.
    g = cyclic(300)
    cs = conjugacy_structure(g)
    arrays = {name: getattr(character_table(g), name).copy() for name in TABLE_ARRAYS}
    loaded = CharacterTable.from_arrays(cs, arrays)
    tracemalloc.start()
    try:
        assert loaded.residual <= 1e-9
        amenability_constant(loaded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.75 * 2**20, f"residual and AM of Z300 peaked at {peak / 2**20:.2f} MiB"
