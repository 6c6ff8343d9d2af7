"""Group construction, conjugacy data, products, quotients.

Expected values here are frozen from independent brute-force computations
(itertools permutation arithmetic, direct orbit enumeration) rather than from
the module under test.
"""

from __future__ import annotations

import hashlib
import itertools
import struct

import numpy as np
import pytest

from zamen.groups import (
    DEFAULT_CLOSURE_CAP,
    SizeLimitError,
    ValidationError,
    alternating,
    center,
    conjugacy_structure,
    cyclic,
    dihedral,
    direct_product,
    from_cayley_table,
    from_permutation_generators,
    parse_permutation,
    quaternion_group,
    quotient_group,
    semidirect_product,
    symmetric,
)
from zamen.zoo import build as zoo_build
from zamen.zoo import zoo_names


def brute_classes(group):
    """Independent conjugacy partition via scalar loops."""
    n = group.order
    seen = set()
    classes = []
    for s in range(n):
        if s in seen:
            continue
        orbit = {group.mul(group.mul(t, s), group.inv(t)) for t in range(n)}
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


def test_parse_cycle_notation():
    assert parse_permutation("(1 2)").tolist() == [1, 0]
    assert parse_permutation("(1 2)(3 4)").tolist() == [1, 0, 3, 2]
    assert parse_permutation("(1 2 3)", degree=5).tolist() == [1, 2, 0, 3, 4]
    assert parse_permutation([2, 0, 1]).tolist() == [2, 0, 1]
    with pytest.raises(ValidationError):
        parse_permutation([0, 0, 1])
    with pytest.raises(ValidationError):
        parse_permutation("(1 1 2)")
    with pytest.raises(ValidationError, match="exceeds the degree 2"):
        parse_permutation("(1 3)", degree=2)


def test_s3_closure_order_and_structure():
    g = symmetric(3)
    assert g.order == 6
    assert g.identity == 0
    assert not g.is_abelian
    cs = conjugacy_structure(g)
    assert cs.num_classes == 3
    # Identity class first, then the class of element 1 (a transposition),
    # then the class of element 2 (a 3-cycle).
    assert cs.sizes.tolist() == [1, 3, 2]
    assert cs.class_of[0] == 0
    assert brute_classes(g) == [c.tolist() for c in cs.classes]


def test_s3_matches_itertools_multiplication():
    # Independent model: permutations of (0,1,2) under composition.
    g = symmetric(3)
    perms = [tuple(p) for p in g.perms]
    for a, b in itertools.product(range(6), repeat=2):
        composed = tuple(perms[a][perms[b][i]] for i in range(3))
        assert perms[g.mul(a, b)] == composed


def composition_table(group):
    """Independent Cayley table: compose the stored permutations and look each product up."""
    index = {tuple(p): i for i, p in enumerate(group.perms.tolist())}
    return np.array(
        [[index[tuple(pa[j] for j in pb)] for pb in group.perms.tolist()] for pa in group.perms.tolist()]
    )


@pytest.mark.parametrize(
    "builder", [lambda: symmetric(4), lambda: alternating(5), lambda: dihedral(6), lambda: alternating(4)]
)
def test_schreier_table_matches_composition(builder):
    g = builder()
    assert np.array_equal(g.table, composition_table(g))


def test_s7_table_matches_permutation_composition():
    # Order 5040 gets a dense table too; sample pairs against composing the perms.
    g = symmetric(7)
    assert g.order == 5040
    assert g.table.shape == (5040, 5040)
    index = {p.tobytes(): i for i, p in enumerate(g.perms)}
    rng = np.random.default_rng(2024)
    for a, b in rng.integers(0, g.order, size=(2000, 2)):
        assert g.mul(int(a), int(b)) == index[g.perms[a][g.perms[b]].tobytes()]


def test_tables_are_int32_for_every_construction():
    z3 = cyclic(3)
    groups = [
        z3,
        dihedral(4),
        quaternion_group(),
        from_cayley_table([[0, 1], [1, 0]]),
        direct_product(z3, cyclic(2)),
        semidirect_product(z3, cyclic(2), [[0, 1, 2], [0, 2, 1]]),
        quotient_group(dihedral(4), center(dihedral(4))).group,
        zoo_build("Z2xZ2xZ2"),
    ]
    for g in groups:
        assert g.table.dtype == np.int32, g.label


PINNED_HASHES = {
    "S3": "15802758ca0ac76159bcf47448c7136ca5dea3920fb587a79544fed487b8726d",
    "Q8": "5c0a6724ebdba8fede29d387d09b248415b0bc427dc7b0a8a7df39a7dfea5fac",
    "S4": "d20953c0ba721b2010dc5ad429411dc437325a9e4d7ae663efe5128a6076dea1",
    "Z2xZ2xZ2": "81a071e12570242385094a1e6a0d194e1dc9ef76a63dd0c7648ac07f564c91e8",
}


@pytest.mark.parametrize("name, digest", PINNED_HASHES.items(), ids=PINNED_HASHES.keys())
def test_content_hash_is_pinned(name, digest):
    # Cache files are keyed by these digests; they must not drift.
    g = zoo_build(name)
    assert g.content_hash == digest
    assert g.label == name


def test_content_hash_is_pinned_a5xa5():
    # Order 3600: a 52 MB int32 table, the largest pinned, hashed in one pass.
    g = direct_product(alternating(5), alternating(5))
    assert g.content_hash == "9ab6d533bdf5967645a09f200120d07319263b47d171c0bfe7eee1235e24c98d"


def expected_group_v2_hash(order, entries):
    """The documented formula, byte by byte: tag, order, little-endian int32 table."""
    digest = hashlib.sha256()
    digest.update(b"group-v2")
    digest.update(struct.pack("<Q", order))
    digest.update(np.asarray(entries, dtype=np.int64).astype("<i4").tobytes(order="C"))
    return digest.hexdigest()


def test_content_hash_is_the_group_v2_formula():
    # A table handed in as int64 hashes like its int32 copy.
    source = np.asarray(dihedral(5).table, dtype=np.int64)
    g = from_cayley_table(source, label="from int64")
    assert g.content_hash == expected_group_v2_hash(10, source)
    big = direct_product(alternating(5), alternating(5))
    assert big.content_hash == expected_group_v2_hash(3600, big.table)


def test_products_above_the_cap_are_refused_before_allocation():
    with pytest.raises(SizeLimitError, match="30240"):
        direct_product(symmetric(7), symmetric(3))
    big, small = cyclic(200), cyclic(101)
    assert big.order * small.order > DEFAULT_CLOSURE_CAP
    with pytest.raises(SizeLimitError):
        semidirect_product(big, small, [range(200)] * 101)


@pytest.mark.parametrize(
    "builder, order, num_classes",
    [
        (lambda: cyclic(12), 12, 12),
        (lambda: dihedral(4), 8, 5),
        (lambda: dihedral(5), 10, 4),
        (lambda: dihedral(6), 12, 6),
        (lambda: quaternion_group(), 8, 5),
        (lambda: alternating(4), 12, 4),
        (lambda: symmetric(4), 24, 5),
    ],
)
def test_class_counts(builder, order, num_classes):
    g = builder()
    cs = conjugacy_structure(g)
    assert g.order == order
    assert cs.num_classes == num_classes
    assert cs.sizes.sum() == order
    assert not np.any(order % cs.sizes)
    assert brute_classes(g) == [c.tolist() for c in cs.classes]


def test_d4_class_sizes():
    cs = conjugacy_structure(dihedral(4))
    assert sorted(cs.sizes.tolist()) == [1, 1, 2, 2, 2]


def test_s4_class_sizes():
    cs = conjugacy_structure(symmetric(4))
    assert sorted(cs.sizes.tolist()) == [1, 3, 6, 6, 8]


def test_inverse_class_involution():
    for g in (symmetric(4), cyclic(7), quaternion_group(), alternating(4)):
        cs = conjugacy_structure(g)
        invc = cs.inverse_class
        assert np.array_equal(invc[invc], np.arange(cs.num_classes))
        for k, rep in enumerate(cs.reps):
            assert cs.class_of[g.inv(int(rep))] == invc[k]


def test_center_examples():
    assert center(symmetric(3)).tolist() == [0]
    assert center(cyclic(8)).tolist() == list(range(8))
    zq8 = center(quaternion_group())
    assert len(zq8) == 2
    zd4 = center(dihedral(4))
    assert len(zd4) == 2


def transpose_center(group):
    """The table-transpose definition of the centre, kept as the oracle."""
    return np.nonzero((group.table == group.table.T).all(axis=1))[0]


@pytest.mark.parametrize(
    "make_group",
    [*(lambda name=name: zoo_build(name) for name in zoo_names()),
     lambda: symmetric(5),
     lambda: direct_product(alternating(5), alternating(5))],
    ids=[*zoo_names(), "S5", "A5xA5"],
)
def test_center_and_abelian_match_the_transpose_oracle(make_group):
    g = make_group()
    z = center(g)
    assert z.dtype == np.int64
    assert z.tolist() == transpose_center(g).tolist()
    assert g.is_abelian == bool(np.array_equal(g.table, g.table.T))


def test_conjugacy_structure_is_kept_and_read_only():
    g = symmetric(4)
    cs = conjugacy_structure(g)
    assert conjugacy_structure(g) is cs
    for array in (cs.class_of, cs.sizes, cs.reps, cs.inverse_class, *cs.classes):
        with pytest.raises(ValueError):
            array[0] = 0


def loop_conjugacy_structure(group):
    """The per-class orbit loop, which noncommutative groups still run, kept as
    the oracle for every group: (class_of, classes, sizes, reps, inverse_class)."""
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
    inverse_class = np.array([class_of[group.inv(int(r))] for r in reps], dtype=np.int64)
    return class_of, classes, sizes, reps, inverse_class


@pytest.mark.parametrize(
    "make_group",
    [*(lambda name=name: zoo_build(name) for name in zoo_names()),
     lambda: cyclic(300),
     lambda: cyclic(2000),
     lambda: direct_product(dihedral(10), cyclic(16))],
    ids=[*zoo_names(), "Z300", "Z2000", "D10xZ16"],
)
def test_conjugacy_structure_matches_the_loop_oracle(make_group):
    g = make_group()
    cs = conjugacy_structure(g)
    class_of, classes, sizes, reps, inverse_class = loop_conjugacy_structure(g)
    for got, want in zip((cs.class_of, cs.sizes, cs.reps, cs.inverse_class), (class_of, sizes, reps, inverse_class)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable
    assert len(cs.classes) == len(classes)
    for got, want in zip(cs.classes, classes):
        assert got.dtype == want.dtype and np.array_equal(got, want) and not got.flags.writeable
    assert cs.group_hash == g.content_hash
    assert g.is_abelian == bool(np.array_equal(g.table, g.table.T))


def test_abelian_fast_path_reads_a_commutative_table_only():
    # D10xZ16 lists its 16 central elements (e, h) first, so the first
    # commutativity block matches its transpose and a later one must differ.
    g = direct_product(dihedral(10), cyclic(16))
    assert np.array_equal(g.table[:8], g.table[:, :8].T)
    assert not g.is_abelian
    assert conjugacy_structure(g).num_classes == 8 * 16


def test_direct_product_structure():
    g = direct_product(symmetric(3), cyclic(2))
    assert g.order == 12
    cs = conjugacy_structure(g)
    assert cs.num_classes == 6  # classes multiply
    # Direct product of abelian groups stays abelian.
    assert direct_product(cyclic(2), cyclic(4)).is_abelian


def test_direct_product_class_count_multiplies():
    for a, b in [(symmetric(3), symmetric(3)), (dihedral(4), cyclic(3))]:
        ka = conjugacy_structure(a).num_classes
        kb = conjugacy_structure(b).num_classes
        kab = conjugacy_structure(direct_product(a, b)).num_classes
        assert kab == ka * kb


def test_semidirect_z3_z2_is_s3():
    z3, z2 = cyclic(3), cyclic(2)
    inversion = [0, 2, 1]
    g = semidirect_product(z3, z2, [[0, 1, 2], inversion])
    assert g.order == 6
    assert from_cayley_table(g.table).identity == g.identity  # the table passes the axioms
    assert not g.is_abelian
    cs = conjugacy_structure(g)
    # Same invariants as S3: class sizes and abelianization.
    assert sorted(cs.sizes.tolist()) == [1, 2, 3]
    s3 = conjugacy_structure(symmetric(3))
    assert sorted(cs.sizes.tolist()) == sorted(s3.sizes.tolist())


def test_semidirect_rejects_non_automorphism():
    z4, z2 = cyclic(4), cyclic(2)
    with pytest.raises(ValidationError, match="automorphism"):
        semidirect_product(z4, z2, [[0, 1, 2, 3], [0, 2, 1, 3]])


def test_semidirect_rejects_non_homomorphism():
    z5, z4 = cyclic(5), cyclic(4)
    squaring = [0, 2, 4, 1, 3]  # order-4 automorphism of Z5
    # Assigning an order-4 map to an order-2 position breaks the homomorphism law.
    maps = [[0, 1, 2, 3, 4], squaring, [0, 1, 2, 3, 4], squaring]
    with pytest.raises(ValidationError, match=r"homomorphism: maps\[1\*1\] != maps\[1\] o maps\[1\]"):
        semidirect_product(z5, z4, maps)


def test_semidirect_with_the_trivial_action_is_the_direct_product():
    z2, z1000 = cyclic(2), cyclic(1000)
    g = semidirect_product(z2, z1000, [[0, 1]] * 1000)
    assert np.array_equal(g.table, direct_product(z2, z1000).table)


def test_cayley_table_roundtrip_and_validation():
    g = from_cayley_table(cyclic(6).table, label="Z6-copy")
    assert g.order == 6
    assert g.identity == 0

    with pytest.raises(ValidationError, match="not a permutation"):
        from_cayley_table([[0, 0], [1, 1]])

    # Latin square with a two-sided identity that is not associative
    # (order-5 loop; the only group of order 5 is Z5).
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValidationError, match="associativity fails"):
        from_cayley_table(loop)


def test_closure_cap():
    with pytest.raises(SizeLimitError):
        symmetric_gen = [parse_permutation("(1 2)", degree=8), np.roll(np.arange(8), -1)]
        from_permutation_generators(symmetric_gen, label="S8", max_order=1000)


def test_quotient_s3_by_a3():
    g = symmetric(3)
    cs = conjugacy_structure(g)
    a3 = [0] + cs.classes[2].tolist()  # identity plus the 3-cycles
    quo = quotient_group(g, a3)
    assert quo.group.order == 2
    assert quo.projection[0] == quo.group.identity
    # Projection is a homomorphism.
    for a in range(6):
        for b in range(6):
            assert quo.projection[g.mul(a, b)] == quo.group.mul(
                int(quo.projection[a]), int(quo.projection[b])
            )


def test_quotient_d4_by_center_is_klein():
    g = dihedral(4)
    quo = quotient_group(g, center(g))
    assert quo.group.order == 4
    assert quo.group.is_abelian
    # Every nonidentity element of D4 / Z(D4) has order 2.
    for a in range(4):
        assert quo.group.mul(a, a) == quo.group.identity


def test_quotient_rejects_bad_inputs():
    g = symmetric(3)
    with pytest.raises(ValidationError, match="not a subgroup"):
        quotient_group(g, [0, 1, 2])  # identity + transposition + 3-cycle
    with pytest.raises(ValidationError, match="not normal"):
        cs = conjugacy_structure(g)
        transposition = int(cs.classes[1][0])
        quotient_group(g, [0, transposition])  # order-2 subgroup, not normal


def test_content_hash_ignores_labels():
    a = cyclic(6)
    b = from_cayley_table(a.table, label="renamed")
    assert a.content_hash == b.content_hash
    assert a.content_hash != cyclic(7).content_hash


def test_random_cayley_relabelling_is_still_a_group():
    # Property check: relabelling elements of a valid group gives a valid group.
    rng = np.random.default_rng(7)
    base = dihedral(4).table
    for _ in range(5):
        sigma = rng.permutation(8)
        inv_sigma = np.argsort(sigma)
        relabeled = sigma[base[np.ix_(inv_sigma, inv_sigma)]]
        g = from_cayley_table(relabeled, label="relabeled-D4")
        assert conjugacy_structure(g).num_classes == 5
