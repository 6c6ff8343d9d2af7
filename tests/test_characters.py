"""Character tables: structure constants, eigenvector recovery, certification.

Frozen expectations come from hand derivations (S3, D4, Q8) and from the
closed-form discrete Fourier characters of cyclic groups.
"""

from __future__ import annotations

import numpy as np
import pytest

from zamen.characters import (
    CertificationError,
    CharacterTable,
    DegeneracyError,
    TABLE_ARRAYS,
    _canonical_row_order,
    _class_combination,
    _paired_coefficients,
    _round_array,
    canonical_form,
    character_table,
    class_constants,
    tensor_table,
    verify_orthogonality,
)
from zamen.groups import (
    alternating,
    conjugacy_structure,
    cyclic,
    dihedral,
    direct_product,
    from_cayley_table,
    quaternion_group,
    symmetric,
)
from zamen.zoo import build, zoo_names

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
                    if group.mul(int(x), int(y)) == int(z)
                )
    return a


def test_class_constants_s3_frozen():
    g = symmetric(3)
    cs = conjugacy_structure(g)
    a = class_constants(g, cs)
    # Transposition * transposition hitting the identity: 3 pairs.
    assert a[1, 1, 0] == 3
    # Transposition * transposition hitting a fixed 3-cycle: 3 pairs.
    assert a[1, 1, 2] == 3
    assert a[1, 1, 1] == 0
    assert np.array_equal(a, brute_class_constants(g, cs))


@pytest.mark.parametrize("builder", [lambda: dihedral(4), lambda: quaternion_group(), lambda: alternating(4)])
def test_class_constants_brute_force(builder):
    g = builder()
    cs = conjugacy_structure(g)
    assert np.array_equal(class_constants(g, cs), brute_class_constants(g, cs))


def test_class_constants_row_sums():
    # Summing a[i, j, k] over k weighted by |C_k| counts all of C_i x C_j.
    g = symmetric(4)
    cs = conjugacy_structure(g)
    a = class_constants(g, cs)
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


def test_seed_independence():
    g = direct_product(cyclic(3), symmetric(3))
    t0 = character_table(g, seed=0)
    t1 = character_table(g, seed=12345)
    assert np.abs(t0.values - t1.values).max() <= 1e-9
    assert t0.degrees.tolist() == t1.degrees.tolist()


def test_degeneracy_retry_paths():
    g = symmetric(3)
    # An absurd collision tolerance forces every attempt to be rejected.
    with pytest.raises(DegeneracyError):
        character_table(g, collision_tol=10.0)
    # A tolerance below every attainable residual is never met.
    with pytest.raises(CertificationError):
        character_table(g, certification_tol=1e-300)


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


def formula_residual(t):
    """max of |UU* - I|, |U*U - I| and |V[:, inv] - conj V|, written out here."""
    u = t.values * np.sqrt(t.class_sizes / t.order)[None, :]
    eye = np.eye(t.num_classes)
    return max(
        float(np.abs(u @ u.conj().T - eye).max()),
        float(np.abs(u.conj().T @ u - eye).max()),
        float(np.abs(t.values[:, t.inverse_class] - np.conj(t.values)).max()),
    )


RESIDUAL_GROUPS = {
    **{name: (lambda name=name: build(name)) for name in zoo_names()},
    "D60": lambda: dihedral(60),
    "Q8xZ40": lambda: direct_product(quaternion_group(), cyclic(40)),
}


@pytest.mark.parametrize("make_group", RESIDUAL_GROUPS.values(), ids=RESIDUAL_GROUPS.keys())
def test_residual_is_the_residual_of_the_values(make_group):
    t = character_table(make_group())
    assert t.residual == formula_residual(t)
    assert t.residual <= 1e-9


@pytest.mark.parametrize(
    "left, right",
    [(lambda: symmetric(4), lambda: symmetric(4)), (lambda: dihedral(8), quaternion_group)],
    ids=["S4xS4", "D8xQ8"],
)
def test_tensor_table_reports_the_residual_of_its_values(left, right):
    t1, t2 = character_table(left()), character_table(right())
    tt = tensor_table(t1, t2)
    assert tt.residual == formula_residual(tt)
    assert tt.residual >= max(t1.residual, t2.residual)


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
    with pytest.raises(ValueError, match="group mismatch"):
        character_table(make_group(), conjugacy_structure(make_other()))


def test_relabelled_copy_shares_its_conjugacy_structure():
    group = symmetric(3)
    copy = from_cayley_table(group.table, label="renamed")
    assert copy.content_hash == group.content_hash
    t = character_table(copy, conjugacy_structure(group))
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
    table = character_table(symmetric(3), cs)
    arrays = {key: np.array(getattr(table, key)) for key in TABLE_ARRAYS}
    assert CharacterTable.from_arrays(cs, arrays).residual == table.residual
    arrays[name] = change(arrays[name])
    with pytest.raises(ValueError, match=f"^{name}: "):
        CharacterTable.from_arrays(cs, arrays)


def test_unitary_matrix_is_unitary():
    t = character_table(symmetric(4))
    u = t.unitary_matrix
    eye = np.eye(t.num_classes)
    assert np.abs(u @ u.conj().T - eye).max() <= 1e-9
    assert np.abs(u.conj().T @ u - eye).max() <= 1e-9


def test_trivial_group():
    t = character_table(cyclic(1))
    assert t.values.tolist() == [[1.0 + 0.0j]]
    assert t.degrees.tolist() == [1]


def zoo_tables():
    return [character_table(build(name)) for name in zoo_names()]


def tied_random_tables(count=200, seed=7):
    """Small complex matrices with repeated rows and columns and entries at
    (or one ulp beside) 9-digit half-way points, so sort keys tie often."""
    rng = np.random.default_rng(seed)
    halfway = np.array([0.5e-9, 1.5e-9, -2.5e-9, 0.1234567885, 0.1234567895, -0.7777777775])
    pool = np.concatenate(
        [[0.0, -0.0, 1.0, -1.0, 2.0, 1e-10], halfway,
         np.nextafter(halfway, np.inf), np.nextafter(halfway, -np.inf)]
    )
    tables = []
    for _ in range(count):
        k = int(rng.integers(1, 9))
        values = rng.choice(pool, size=(k, k)) + 1j * rng.choice(pool[:8], size=(k, k))
        values[rng.integers(0, k)] = values[0]
        values[:, rng.integers(0, k)] = values[:, 0]
        tables.append(
            CharacterTable(
                group_hash="random",
                values=values,
                degrees=rng.integers(1, 3, size=k),
                class_sizes=rng.integers(1, 3, size=k),
                class_reps=np.zeros(k, dtype=np.int64),
                inverse_class=np.arange(k),
            )
        )
    return tables


def test_canonical_orders_match_the_sort_key_oracle():
    for t in zoo_tables() + tied_random_tables():
        assert _canonical_row_order(t.values, t.degrees).tolist() == sort_key_row_order(
            t.values, t.degrees
        )
        got = canonical_form(t)
        want = sort_key_canonical_form(t)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tolist() == want[1].tolist()
        assert got[2].tolist() == want[2].tolist()


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
    sizes = cs.sizes.astype(np.float64)
    scale = np.sqrt(sizes[None, None, :] / sizes[None, :, None])
    combine = _class_combination(g, cs)
    for attempt in range(2):
        c = _paired_coefficients(np.random.default_rng([3, attempt]), cs.inverse_class)
        want = np.einsum("i,ijk->jk", c, class_constants(g, cs) * scale)
        assert np.abs(combine(c) - want).max() <= 1e-12
