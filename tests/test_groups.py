"""Group construction, conjugacy data, products, quotients.

Expected values here are frozen from independent brute-force computations
(itertools permutation arithmetic, direct orbit enumeration, the helpers of
``oracles``) rather than from the module under test.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    associativity_failure,
    brute_classes,
    closure_perms,
    composition_table,
    conjugate,
    group_v3_hash,
    latin_failure,
    loop_conjugacy_structure,
    quotient_loop,
    scan_inverses,
    semidirect_table_loop,
    special_linear,
    swap_intercalate,
)
from zamen import cli, groups
from zamen.amenability import amenability_constant, quotient_monotonicity_check
from zamen.characters import character_table
from zamen.groups import (
    MAX_DEGREE,
    MAX_ORDER,
    MAX_TABLE_ORDER,
    ConjugacyStructure,
    FiniteGroup,
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
    _spanning_tree,
)
from zamen.specio import load_group_spec
from zamen.zoo import build as zoo_build
from zamen.zoo import zoo_names

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


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


def test_a_point_in_two_cycles_is_refused():
    # "(1 2)(2 3)" once parsed to [1, 2, 1] and closed to a 3-element "group".
    with pytest.raises(ValidationError, match="point 2 appears more than once"):
        parse_permutation("(1 2)(2 3)")
    with pytest.raises(ValidationError, match="point 2 appears more than once"):
        from_permutation_generators(["(1 2)(2 3)"])
    with pytest.raises(ValidationError, match="point 3 appears more than once"):
        parse_permutation("(3)(1 3 2)", degree=4)


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


def symmetric_generators(n):
    """The transposition (0 1) and the n-cycle, as ``symmetric`` takes them."""
    return [[1, 0, *range(2, n)], [*range(1, n), 0]]


def alternating_generators(n):
    """The 3-cycle (0 1 2) and an even n- or (n-1)-cycle, as ``alternating`` takes them."""
    second = [*range(1, n), 0] if n % 2 else [0, *range(2, n), 1]
    return [[1, 2, 0, *range(3, n)], second]


def dihedral_generators(n):
    """The rotation and the reflection of the n-gon, as ``dihedral`` takes them."""
    return [[*range(1, n), 0], [(-i) % n for i in range(n)]]


def test_s3_matches_itertools_multiplication():
    # Independent model: permutations of (0,1,2) under composition, in discovery order.
    g = symmetric(3)
    perms = closure_perms(symmetric_generators(3))
    assert sorted(perms) == sorted(itertools.permutations(range(3)))
    for a, b in itertools.product(range(6), repeat=2):
        composed = tuple(perms[a][perms[b][i]] for i in range(3))
        assert perms[g.table[a, b]] == composed


@pytest.mark.parametrize(
    "builder",
    [
        lambda: (symmetric(4), symmetric_generators(4)),
        lambda: (alternating(5), alternating_generators(5)),
        lambda: (dihedral(6), dihedral_generators(6)),
        lambda: (alternating(4), alternating_generators(4)),
    ],
)
def test_schreier_table_matches_composition(builder):
    g, generators = builder()
    assert np.array_equal(g.table, composition_table(closure_perms(generators)))


def test_s7_table_matches_permutation_composition():
    # Order 5040 gets a dense table too; sample pairs against composing the perms.
    g = symmetric(7)
    assert g.order == 5040
    assert g.table.shape == (5040, 5040)
    perms = closure_perms(symmetric_generators(7))
    index = {p: i for i, p in enumerate(perms)}
    rng = np.random.default_rng(2024)
    for a, b in rng.integers(0, g.order, size=(2000, 2)):
        assert g.table[a, b] == index[tuple(perms[a][i] for i in perms[b])]


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
    "S3": "e39add2af0814049f8840b139c4fe3f444fd3deb5a72ff490557f979ca40adbd",
    "Q8": "261853524f19c4b83d3a2864bc5b84a280387ae256ea297a936bfdc7ce40a34c",
    "S4": "147c154ff9d4a2a8d3852db12c0110fe677a560923060047092fc524b71d4f22",
    "Z2xZ2xZ2": "0cfa171582f159b9a00b5a2f5cdb704d2b030b9e7eed08b1335f0dd07df3ef71",
}


@pytest.mark.parametrize("name, digest", PINNED_HASHES.items(), ids=PINNED_HASHES.keys())
def test_content_hash_is_pinned(name, digest):
    # Cache files are keyed by these digests; they must not drift.
    g = zoo_build(name)
    assert g.content_hash == digest
    assert g.label == name


def test_content_hash_is_pinned_a5xa5():
    # Order 3600, the largest pinned: 4 generators, so 14 400 of its 13 million entries are hashed.
    g = direct_product(alternating(5), alternating(5))
    assert g.content_hash == "e6e133a6dd3a8f8baf90bfaa06ff39850579cb79ba84f9620a6251d6976a1591"


def z300_perm_spec_group():
    """Z300 from two shifts on 300 points, past the 256 points that one byte per point holds."""
    shifts = [[(i + step) % 300 for i in range(300)] for step in (7, 11)]
    return load_group_spec({"format": "zamen-group", "version": 1, "kind": "perm", "degree": 300, "generators": shifts})


PINNED_CLOSURES = {  # sha256 of the columns as <i4 in C order, and the content hash
    "S7": (
        lambda: symmetric(7),
        "d2d779569637807893088482e774ea59f56ac3c409b84e989af7214e07b5ed79",
        "5c5e548cd21f12108167af2f5a6b28a5da4f8d7e6405eebf8cb442897b90ae72",
    ),
    "S8": (
        lambda: symmetric(8),
        "799465b019030c2cde34638f0b32f779fa6b9b0b12f0353ebaf789a462adfef3",
        "1186731b112f9f380317bf241472787862b343e26002385098f3c5ea8313965f",
    ),
    "Z300": (
        z300_perm_spec_group,
        "1b1d3c6f4262e7768bc32a57c318c07f7131b17d9740e8f4ca8968e1c27b3684",
        "cc28fd194ea18e271767d64faa4ad2040a72a5ce7ab523ea27bbff0c6cc8f1b6",
    ),
}


@pytest.mark.parametrize("name", PINNED_CLOSURES)
def test_closures_from_permutations_are_pinned(name):
    # The breadth-first discovery order numbers the elements, so the columns and every hash and
    # class order downstream depend on it; S7 and S8 close on one byte per point, Z300 on two.
    make, columns_digest, content_hash = PINNED_CLOSURES[name]
    g = make()
    assert hashlib.sha256(np.ascontiguousarray(g.columns, dtype="<i4")).hexdigest() == columns_digest
    assert g.content_hash == content_hash


def test_content_hash_is_the_group_v3_formula():
    # A table handed in as int64 hashes like its int32 copy.  D5's elements 1 and 2 are the
    # rotation and a reflection, the least elements outside {0} and outside the rotations.
    source = np.asarray(dihedral(5).table, dtype=np.int64)
    g = from_cayley_table(source, label="from int64")
    assert g.generators.tolist() == [1, 2]
    assert g.content_hash == group_v3_hash(10, 0, [1, 2], source)
    assert g.content_hash == from_cayley_table(source.astype(np.int32), label="int32 copy").content_hash
    big = direct_product(alternating(5), alternating(5))
    assert big.content_hash == group_v3_hash(3600, 0, big.generators, big.table)


def test_products_above_the_cap_are_refused_before_allocation():
    # Direct and semidirect products are both built from their factors' columns, so MAX_ORDER
    # bounds both; Z200 x| Z101 (order 20 200) was refused by the 20 000-element table cap.
    assert symmetric(7).order ** 2 > MAX_ORDER
    with pytest.raises(SizeLimitError, match="25401600"):
        direct_product(symmetric(7), symmetric(7))
    big, small = cyclic(200), cyclic(101)
    assert big.order * small.order > MAX_TABLE_ORDER
    trivial = semidirect_product(big, small, [range(200)] * 101)
    assert trivial.content_hash == direct_product(big, small).content_hash

    class Unread:  # any attempt to read the action fails the test
        def __array__(self, *args, **kwargs):
            raise AssertionError("the action was read")

        __len__ = __iter__ = __getitem__ = __array__

    assert 1000 * 1001 > MAX_ORDER
    with pytest.raises(SizeLimitError, match="1001000"):
        semidirect_product(cyclic(1000), cyclic(1001), Unread())


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
            assert cs.class_of[g.inverses[rep]] == invc[k]


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


def relabelled_s3():
    """S3 with elements 0 and 4 swapped, so that the identity is element 4."""
    sigma = np.array([4, 1, 2, 3, 0, 5])  # an involution, so it is its own inverse
    return from_cayley_table(sigma[symmetric(3).table[np.ix_(sigma, sigma)]], label="S3-e4")


@pytest.mark.parametrize(
    "make_group",
    [*(lambda name=name: zoo_build(name) for name in zoo_names()),
     lambda: cyclic(300),
     lambda: cyclic(2000),
     lambda: direct_product(dihedral(10), cyclic(16)),
     lambda: affine(13),
     relabelled_s3],
    ids=[*zoo_names(), "Z300", "Z2000", "D10xZ16", "AGL(1,13)", "S3-e4"],
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


def test_identity_is_read_from_the_table():
    g = relabelled_s3()
    assert g.identity == 4
    assert all(g.table[4, a] == a == g.table[a, 4] for a in range(6))
    assert conjugacy_structure(g).identity_class == conjugacy_structure(g).class_of[4] != 0


@pytest.mark.parametrize(
    "make_group",
    [lambda: symmetric(7), lambda: cyclic(2000), lambda: direct_product(dihedral(10), cyclic(16)), lambda: cyclic(1)],
    ids=["S7", "Z2000", "D10xZ16", "trivial"],
)
def test_inverses_match_the_full_table_oracle(make_group):
    # S7's inverses are a^5039, 13 squarings; the oracle scans its 5040 rows in 25 blocks.
    g = make_group()
    oracle = scan_inverses(g)
    assert g.inverses.dtype == oracle.dtype and np.array_equal(g.inverses, oracle)
    assert not g.inverses.flags.writeable


def test_a_group_keeps_its_label_identity_and_columns():
    assert [f.name for f in dataclasses.fields(FiniteGroup)] == ["label", "identity", "columns"]
    assert [f.name for f in dataclasses.fields(ConjugacyStructure)] == [
        "group_hash", "class_of", "inverse_class", "identity_class"
    ]
    with pytest.raises(TypeError):
        FiniteGroup(order=5, identity=0, label="Z3", table=cyclic(3).table)
    with pytest.raises(TypeError):  # the tree is derived from the columns, never handed in
        FiniteGroup("Z8", 0, cyclic(8).columns, cyclic(8).tree)


def test_a_group_and_its_arrays_are_read_only():
    g = symmetric(3)
    for array in (g.columns, g.tree, g.table, g.inverses, g.generators):
        with pytest.raises(ValueError):
            array[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.label = "other"
    with pytest.raises(AttributeError):
        g.tree = cyclic(6).tree
    renamed = dataclasses.replace(g, label="renamed")
    assert renamed.columns is g.columns and np.array_equal(renamed.tree, g.tree)


def test_a_table_handed_in_is_stored_read_only():
    # from_cayley_table keeps the columns of Z4's greedy generator 1 and of its square 2.
    g = from_cayley_table(np.asarray(cyclic(4).table, dtype=np.int64), label="Z4")
    assert g.columns.tolist() == [[1, 2, 3, 0], [2, 3, 0, 1]]
    parent, step, depth = g.tree
    assert (parent[0], step[0], depth[0]) == (0, -1, 0) and (step[1:] >= 0).all()
    assert np.array_equal(g.columns[step[1:], parent[1:]], [1, 2, 3])  # x = parent * s_step
    assert np.array_equal(depth[1:], depth[parent[1:]] + 1) and depth.max() == 2
    for stored, dtype in ((g.columns, np.int32), (g.tree, np.int64)):
        assert stored.dtype == dtype and stored.flags.c_contiguous and not stored.flags.writeable
    assert (g.order, g.identity, g.inverses.tolist()) == (4, 0, [0, 3, 2, 1])
    copy = FiniteGroup("Z4", np.int64(0), g.columns.astype(np.int64))
    assert copy.columns.dtype == np.int32 and type(copy.identity) is int
    assert np.array_equal(copy.tree, g.tree) and np.array_equal(copy.table, cyclic(4).table)


def test_a_tree_that_misses_an_element_is_refused():
    # Z6's step 2 and its square 4 reach only the even elements from 0.
    with pytest.raises(ValidationError, match="reach 3 of 6 elements"):
        FiniteGroup("Z6?", 0, [(np.arange(6) + 2) % 6, (np.arange(6) + 4) % 6])


def test_a_table_that_commutes_on_its_first_rows_is_not_abelian():
    # D10xZ16 lists its 16 central elements (e, h) first, so its first rows
    # commute with everything and only later ones tell it is not abelian.
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


@pytest.mark.parametrize(
    "broken", [[0, 2, 1, 3, 4], [0, 0, 0, 0, 0]], ids=["non-automorphism", "non-permutation"]
)
def test_semidirect_rejects_a_non_generator_map_that_breaks_the_law(broken):
    # Z4's greedy generating set is {1}: element 2's map is checked as maps[1*1] = maps[1] o maps[1].
    squaring = [0, 2, 4, 1, 3]
    maps = [[0, 1, 2, 3, 4], squaring, broken, [0, 3, 1, 4, 2]]
    with pytest.raises(ValidationError, match=r"homomorphism: maps\[1\*1\] != maps\[1\] o maps\[1\]"):
        semidirect_product(cyclic(5), cyclic(4), maps)


@pytest.mark.parametrize(
    "maps", [[[0, 1, 2]], [[0, 1, 2], [0, 2]], [[0, 1, 2], [0, 2, 3]], [[0, 1, 2], [0, -1, 1]]],
    ids=["one map short", "ragged", "index past the end", "negative index"],
)
def test_semidirect_rejects_maps_of_the_wrong_shape_or_range(maps):
    with pytest.raises(ValidationError, match=r"action must supply 2 maps of 3 indices into 0\.\.2"):
        semidirect_product(cyclic(3), cyclic(2), maps)


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


@pytest.mark.parametrize(
    "table",
    [[[0, 1, 2], [2, 0, 1], [1, 2, 0]], [[0, 2, 1], [1, 0, 2], [2, 1, 0]]],
    ids=["left identity only", "right identity only"],
)
def test_a_one_sided_identity_is_refused(table):
    # x*y = y - x and x*y = x - y (mod 3) are Latin squares in which 0 is an identity on one side only.
    with pytest.raises(ValidationError, match="^expected exactly one two-sided identity, found 0$"):
        from_cayley_table(table)


@pytest.mark.parametrize("row, cols", [(1700, None), (1600, (1999, 700)), (3, (1500, 5))])
def test_a_damaged_line_past_the_first_block_is_named_as_the_sort_oracle_names_it(row, cols):
    # Z2000's lines are marked 524 at a time, so rows and columns 1500-1999 lie in the fourth block.
    # Overwriting an entry breaks its row; swapping two entries of a row breaks only their columns.
    table = np.array(cyclic(2000).table, dtype=np.int64)
    if cols is None:
        table[row, 0] = table[row, 1]
    else:
        table[row, list(cols)] = table[row, list(cols[::-1])]
    word, line = latin_failure(table)
    assert (word, line) == (("row", row) if cols is None else ("column", min(cols)))
    with pytest.raises(ValidationError, match=rf"^{word} {line} of the Cayley table is not a permutation$"):
        from_cayley_table(table)


@pytest.mark.parametrize("n", [600, 1000, 2000])
def test_an_intercalate_swap_above_order_512_is_refused(n):
    # Rows 1 and 1 + n/2 meet columns 2 and 2 + n/2 of Z_n in 3 and 3 + n/2 crosswise; exchanging
    # them keeps a Latin square with identity 0 that 10^4 sampled triples did not catch.
    table = swap_intercalate(cyclic(n).table, (1, 1 + n // 2), (2, 2 + n // 2))
    assert associativity_failure(table) is not None
    with pytest.raises(ValidationError, match="associativity fails"):
        from_cayley_table(table)


def test_the_associativity_message_names_a_failing_triple():
    table = swap_intercalate(cyclic(600).table, (1, 301), (2, 302))
    with pytest.raises(ValidationError) as refused:
        from_cayley_table(table)
    x, y, g = (int(v) for v in re.search(r"triple \((\d+), (\d+), (\d+)\)", str(refused.value)).groups())
    assert f"({x}*{y})*{g} = {table[table[x, y], g]} but {x}*({y}*{g}) = {table[x, table[y, g]]}" in str(refused.value)
    assert table[table[x, y], g] != table[x, table[y, g]]


def test_a_table_of_order_512_is_validated_within_a_tenth_of_a_second():
    # About 0.013 s; the exhaustive triple loop took 0.36-0.41 s on a 2-vCPU x86-64 VM.
    table = cyclic(512).table
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        from_cayley_table(table)
        timings.append(time.perf_counter() - start)
    assert min(timings) < 0.1, f"validating Z512 took {min(timings):.3f} s"


def test_classes_of_q8_x_z2000_are_the_product_partition_within_a_second():
    # On a 2-vCPU x86-64 VM the hash and inverses take about 0.01 s and the classes about 0.004 s,
    # from the product's columns and tree, with no 1 GB table.  When the group was its table,
    # sha256 over it and a scan of its rows for the identity took about 1.1 s, and a per-class
    # loop 8-12 s.
    g = direct_product(quaternion_group(), cyclic(2000))
    start = time.perf_counter()
    g.content_hash, g.inverses
    keyed = time.perf_counter() - start
    start = time.perf_counter()
    cs = conjugacy_structure(g)
    elapsed = time.perf_counter() - start
    assert keyed < 0.1, f"hash and inverses of Q8xZ2000 took {keyed:.3f} s"
    # The class of (q, b) is (class of q in Q8, b), numbered in least-element order.
    x = np.arange(g.order)
    product = conjugacy_structure(quaternion_group()).class_of[x // 2000] * 2000 + x % 2000
    assert np.array_equal(cs.class_of, np.unique(product, return_inverse=True)[1])
    assert elapsed < 1.0, f"classes of Q8xZ2000 took {elapsed:.2f} s"
    assert "table" not in vars(g)


def test_closure_cap():
    # One permutation of cycle type 3, 4, 5, 7, 11, 13, 17 generates a cyclic group of order
    # 1 021 020, above the cap: it is refused from the generator's order, before the closure starts.
    cycles, start = [], 1
    for length in (3, 4, 5, 7, 11, 13, 17):
        cycles.append("(" + " ".join(map(str, range(start, start + length))) + ")")
        start += length
    assert 3 * 4 * 5 * 7 * 11 * 13 * 17 > MAX_ORDER
    begin = time.perf_counter()
    with pytest.raises(SizeLimitError, match="order 1021020"):
        from_permutation_generators(["".join(cycles)], label="Z1021020")
    assert time.perf_counter() - begin < 0.1
    with pytest.raises(SizeLimitError, match="above the cap"):
        cyclic(MAX_ORDER + 1)


def test_a_closure_that_passes_the_cap_is_stopped_there(monkeypatch):
    # S5's generators have orders 2 and 5, so only the closure itself meets a cap of 100.
    monkeypatch.setattr(groups, "MAX_ORDER", 100)
    with pytest.raises(SizeLimitError, match="closure of 'S5' exceeded the cap of 100 elements"):
        from_permutation_generators(["(1 2)", "(1 2 3 4 5)"], label="S5")


def test_a_table_above_its_cap_is_refused_before_it_is_allocated():
    g = cyclic(MAX_TABLE_ORDER + 1)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=r"the Cayley table of 'Z20001' has 20001\^2 entries"):
            g.table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the table would be 1.6 GB


def test_a_degree_above_the_cap_is_refused_before_anything_of_that_size_is_allocated():
    # Degree 10^8 with "(1 2)" once built a group of order 2; each refusal here would otherwise
    # allocate an array of the degree, or closure keys of two bytes a point.
    top = MAX_DEGREE + 1
    spec = {"format": "zamen-group", "version": 1, "kind": "perm", "degree": top, "generators": ["(1 2)"]}
    refusals = {
        f"degree {top} is above the cap of {MAX_DEGREE} points": lambda: load_group_spec(spec),
        "degree 100000000 is above the cap": lambda: load_group_spec({**spec, "degree": 10**8}),
        f"cycle point {top} is above the cap of {MAX_DEGREE} points": (
            lambda: from_permutation_generators([f"(1 {top})"])
        ),
    }
    for message, refuse in refusals.items():
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=re.escape(message)):
                refuse()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (message, peak)
    with pytest.raises(SizeLimitError, match=f"one-line permutation of {top} points is above the cap"):
        parse_permutation(np.roll(np.arange(top), 1))


def test_a_degree_at_the_cap_builds():
    # The largest point, 2^16 - 1 from 0, is the last one a two-byte closure key holds.
    spec = {"format": "zamen-group", "version": 1, "kind": "perm", "degree": MAX_DEGREE,
            "generators": [f"(1 {MAX_DEGREE})", "(2 3 4)"]}
    for group in (load_group_spec(spec), from_permutation_generators([f"(1 {MAX_DEGREE})", "(2 3 4)"])):
        assert group.order == 6 and group.is_abelian
        assert conjugacy_structure(group).num_classes == 6


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
            assert quo.projection[g.table[a, b]] == quo.group.table[quo.projection[a], quo.projection[b]]


def test_quotient_d4_by_center_is_klein():
    g = dihedral(4)
    quo = quotient_group(g, center(g))
    assert quo.group.order == 4
    assert quo.group.is_abelian
    # Every nonidentity element of D4 / Z(D4) has order 2.
    for a in range(4):
        assert quo.group.table[a, a] == quo.group.identity


def test_quotient_rejects_bad_inputs():
    g = symmetric(3)
    with pytest.raises(ValidationError, match="not a subgroup"):
        quotient_group(g, [0, 1, 2])  # identity + transposition + 3-cycle
    with pytest.raises(ValidationError, match="not normal"):
        cs = conjugacy_structure(g)
        transposition = int(cs.classes[1][0])
        quotient_group(g, [0, transposition])  # order-2 subgroup, not normal


def test_quotient_rejects_indices_outside_the_group():
    # A negative index would wrap to n - 2 and one past the end would index out of range.
    with pytest.raises(ValidationError, match="index -2 is outside 0..3"):
        quotient_group(cyclic(4), [0, -2])
    with pytest.raises(ValidationError, match="index 6 is outside 0..5"):
        quotient_group(dihedral(3), [0, 6])


def test_cayley_table_rejects_ragged_and_empty_input():
    with pytest.raises(ValidationError, match="square array of integers"):
        from_cayley_table([[0, 1], [1]])
    for empty in ([], [[]]):
        with pytest.raises(ValidationError, match="square and nonempty"):
            from_cayley_table(empty)


def cyclic_action(n, unit, m):
    """Z_n x| Z_m with h acting as multiplication by unit^h (unit^m = 1 mod n)."""
    return [[pow(unit, h, n) * b % n for b in range(n)] for h in range(m)]


def by_centre(g):
    return g, center(g)


def by_class_union(g, size):
    """g and the identity with the first class of the given size, a normal subgroup where used below."""
    cs = conjugacy_structure(g)
    return g, [g.identity, *cs.classes[int(np.flatnonzero(cs.sizes == size)[0])]]


NORMAL_CASES = {
    "S3/A3": lambda: by_class_union(symmetric(3), 2),
    "D4/Z": lambda: by_centre(dihedral(4)),
    "S4/V4": lambda: by_class_union(symmetric(4), 3),
    "SL(2,5)/Z": lambda: by_centre(special_linear(5)),
}


SEMIDIRECT_CASES = {
    "Z5:Z4": (5, 2, 4),
    "Z13:Z12": (13, 2, 12),
    "Z2:Z1000": (2, 1, 1000),
}


def semidirect(n, unit, m):
    return semidirect_product(cyclic(n), cyclic(m), cyclic_action(n, unit, m))


CONSTRUCTED = {
    "Z12": lambda: cyclic(12),
    "D7": lambda: dihedral(7),
    "S1": lambda: symmetric(1),
    "S4": lambda: symmetric(4),
    "A5": lambda: alternating(5),
    "Q8": quaternion_group,
    "S3xZ4": lambda: direct_product(symmetric(3), cyclic(4)),
    **{label: (lambda args=args: semidirect(*args)) for label, args in SEMIDIRECT_CASES.items()},
    **{label: (lambda case=case: quotient_group(*case()).group) for label, case in NORMAL_CASES.items()},
}


@pytest.mark.parametrize("make_group", CONSTRUCTED.values(), ids=CONSTRUCTED.keys())
def test_every_constructor_builds_a_table_that_passes_validation(make_group):
    # Only from_cayley_table validates; everything else is a group by construction.
    groups._validate_table(np.asarray(make_group().table, dtype=np.int64))


def test_only_from_cayley_table_validates(monkeypatch):
    calls, validate = [], groups._validate_table
    monkeypatch.setattr(groups, "_validate_table", lambda table: calls.append(table) or validate(table))
    for make_group in CONSTRUCTED.values():
        make_group()
    assert calls == []
    from_cayley_table(cyclic(3).table)
    assert len(calls) == 1


@pytest.mark.parametrize("label", SEMIDIRECT_CASES)
def test_semidirect_table_matches_the_loop_oracle(label):
    n, unit, m = SEMIDIRECT_CASES[label]
    maps = cyclic_action(n, unit, m)
    g = semidirect_product(cyclic(n), cyclic(m), maps)
    assert np.array_equal(g.table, semidirect_table_loop(cyclic(n), cyclic(m), maps))


@pytest.mark.parametrize("case", NORMAL_CASES.values(), ids=NORMAL_CASES.keys())
def test_quotient_matches_the_loop_oracle(case):
    g, sub = case()
    quo = quotient_group(g, sub)
    table, projection = quotient_loop(g, sub)
    assert np.array_equal(quo.group.table, table)
    assert quo.projection.dtype == projection.dtype and np.array_equal(quo.projection, projection)
    assert quo.subgroup.tolist() == sorted(int(x) for x in sub)


def test_quotient_of_sl_2_17_by_its_centre_within_a_second():
    # PSL(2,17), order 2448: about 0.015 s on a 2-vCPU x86-64 VM from the rows of the centre's two
    # elements; 0.2 s when the quotient read SL(2,17)'s table view, 1.6 s with a loop over cosets.
    g = special_linear(17)
    z = center(g)
    assert g.order == 4896 and z.size == 2
    start = time.perf_counter()
    quo = quotient_group(g, z)
    elapsed = time.perf_counter() - start
    assert quo.group.order == 2448
    assert np.array_equal(quo.projection[g.table[z[1]]], quo.projection)  # x and -I x share a coset
    assert elapsed < 1.0, f"SL(2,17)/Z took {elapsed:.2f} s"


def test_quotient_of_sl_2_23_by_its_centre_within_half_a_second():
    # PSL(2,23), order 6072: about 0.005 s on a 2-vCPU x86-64 VM; 1.3-1.7 s when the quotient read
    # SL(2,23)'s 12 144 x 12 144 table view.
    g = special_linear(23)
    z = center(g)
    assert g.order == 12144 and z.size == 2
    start = time.perf_counter()
    quo = quotient_group(g, z)
    elapsed = time.perf_counter() - start
    assert quo.group.order == 6072
    assert np.array_equal(quo.projection[g.rows([z[1]])[0]], quo.projection)
    assert elapsed < 0.5, f"SL(2,23)/Z took {elapsed:.2f} s"


def affine(p):
    """AGL(1, p) = Z_p x| Z_p^*, with Z_p^* as Z_{p-1} acting by powers of a primitive root."""
    root = next(u for u in range(2, p) if len({pow(u, k, p) for k in range(p - 1)}) == p - 1)
    return semidirect_product(cyclic(p), cyclic(p - 1), cyclic_action(p, root, p - 1))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_affine_groups_have_am_5_minus_8_over_p(p):
    g = affine(p)
    assert (g.order, conjugacy_structure(g).num_classes) == (p * (p - 1), p)
    assert amenability_constant(character_table(g)).rational == Fraction(5 * p - 8, p)


def test_agl_1_499_hashes_and_inverts_in_bounded_memory():
    # Order 248 502 with 18 steps.  The greedy closure keeps each generator's powers as int32 rows
    # and marks what they reach by scatter, and the inverses walk the tree through int32 inverse
    # columns: about 71 and 27 MiB of tracemalloc peak, where an int64 closure concatenated per
    # generator took 167 MiB and an (n, 18) intp array of step-inverse rows 62 MiB.
    g = affine(499)
    peaks = {}
    for name in ("content_hash", "inverses"):
        tracemalloc.start()
        try:
            getattr(g, name)
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    assert peaks["content_hash"] <= 84 and peaks["inverses"] <= 31, peaks
    assert np.array_equal(g.inverses[g.inverses], np.arange(g.order))


def test_agl_1_499_spanning_tree_converts_its_products_level_by_level():
    # The breadth-first search converts each level's gathered products to intp, each entry once:
    # about 32 MiB of tracemalloc peak, where an intp copy of all 18 step columns up front took 72 MiB.
    g = affine(499)
    tracemalloc.start()
    try:
        tree = _spanning_tree(g.columns, g.identity)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 40, peak
    digest = hashlib.sha256(np.ascontiguousarray(tree, dtype="<i8")).hexdigest()
    assert digest == "45f763c3c84c4922d13e61a4aeec1129026767a769313c79bef0d02a1045d779"  # frozen from the up-front copy
    assert np.array_equal(tree, g.tree)


def test_agl_1_211_builds_with_211_classes_within_a_second():
    # Order 44 310, above the 20 000-element table cap that bounded semidirect products before:
    # about 0.2 s to build and class on a 2-vCPU x86-64 VM, most of it the classes.
    start = time.perf_counter()
    g = affine(211)
    cs = conjugacy_structure(g)
    elapsed = time.perf_counter() - start
    assert g.order == 44310 and cs.num_classes == 211
    assert sorted(cs.sizes.tolist()) == [1, 210] + [211] * 209
    assert elapsed < 1.0, f"AGL(1,211) took {elapsed:.2f} s"


def test_classes_and_quotients_read_the_greedy_generators_only(monkeypatch):
    # AGL(1, 211) has 16 steps (the two factors' generators and their repeated squares), but
    # conjugating by its greedy generators alone gives the classes, and their coset images the
    # quotient by the translations Z211.
    g = affine(211)
    maps, quotient_rows = [], []
    orbit_minima, from_columns = groups._orbit_minima, groups._from_columns
    monkeypatch.setattr(groups, "_orbit_minima", lambda m, n: maps.append(len(m)) or orbit_minima(m, n))
    monkeypatch.setattr(
        groups, "_from_columns", lambda label, e, gens: quotient_rows.append(len(gens)) or from_columns(label, e, gens)
    )
    assert conjugacy_structure(g).num_classes == 211
    assert maps == [len(g.generators)] and len(g.generators) < g.columns.shape[0]
    quo = quotient_group(g, np.arange(211) * 210)
    assert quotient_rows == [len(g.generators)]
    assert quo.group.order == 210 and np.array_equal(quo.projection, np.tile(np.arange(210), 211))


def test_a_semidirect_product_by_a_non_cyclic_group_matches_the_loop_oracle():
    # Z15 x| (Z15)^*, with the units {1, 2, 4, 7, 8, 11, 13, 14} as Z2 x Z4: (a, b) acts as 14^a 2^b.
    acting = direct_product(cyclic(2), cyclic(4))
    maps = [[pow(14, a, 15) * pow(2, b, 15) * x % 15 for x in range(15)] for a in range(2) for b in range(4)]
    g = semidirect_product(cyclic(15), acting, maps)
    assert np.array_equal(g.table, semidirect_table_loop(cyclic(15), acting, maps))
    assert conjugacy_structure(g).num_classes == len(brute_classes(g))


def test_no_constructor_or_computation_reads_the_table_view(monkeypatch, tmp_path, capsys):
    # Every constructor builds from columns and trees, and everything downstream reads rows, so
    # the n x n view is built only when a caller asks for it.
    s3, table = symmetric(3), cyclic(6).table.tolist()
    conjugation = [list(range(6)), [conjugate(s3, 1, x) for x in range(6)]]  # by the transposition 1
    reads = []

    def unread(group):
        reads.append(group.label)
        raise AssertionError(f"the table of {group.label!r} was read")

    monkeypatch.setattr(FiniteGroup, "table", property(unread))
    built = [zoo_build(name) for name in zoo_names()]
    built += [direct_product(symmetric(3), cyclic(4)), affine(7), from_cayley_table(table, label="Z6")]
    built.append(semidirect_product(s3, cyclic(2), conjugation))
    built += [quotient_group(*case()).group for case in NORMAL_CASES.values()]
    for g in built:
        assert amenability_constant(character_table(g)).value > 1 - 1e-9
    assert quotient_monotonicity_check(*by_centre(special_linear(5))).passed
    fixtures = sorted(str(path) for path in FIXTURES.glob("*.json") if "zamen-group" in path.read_text())
    assert len(fixtures) == 9
    for path in fixtures:
        assert cli.main(["group", "info", path]) == 0
        assert cli.main(["group", "amconst", path, "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert reads == []


def test_content_hash_ignores_labels():
    a = cyclic(6)
    b = from_cayley_table(a.table, label="renamed")
    assert a.content_hash == b.content_hash
    assert a.content_hash != cyclic(7).content_hash
    named = direct_product(cyclic(2), cyclic(3), label="Z6")
    assert (named.label, direct_product(cyclic(2), cyclic(3)).label) == ("Z6", "Z2xZ3")
    assert named.content_hash == direct_product(cyclic(2), cyclic(3)).content_hash


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
