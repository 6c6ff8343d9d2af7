"""Property tests: random permutation groups against the loop oracles.

Groups are closed from one to three random permutations of degree at most 6,
so they range from the trivial group to S6.  The normal closure of a class is
always normal, so its quotient must equal ``oracles.quotient_loop``'s; a
cyclic subgroup may or may not be normal, and ``quotient_group`` must refuse
it exactly when the oracle finds a conjugate outside it.  A randomly
relabelled table must pass ``from_cayley_table`` with the relabelled classes
of ``oracles.loop_conjugacy_structure``, and a table with one intercalate
swapped must be refused exactly when ``oracles.associativity_failure`` finds a
failing triple, and a table with damaged entries at the first row, else
column, that ``oracles.latin_failure`` names.

The same groups, relabelled or multiplied by a cyclic group (directly, or
semidirectly acting by conjugation), key the content hash and inverses:
``inverses`` equals ``oracles.scan_inverses``, ``generators`` equals
``oracles.greedy_generators``, the hashed columns rebuild the table through
``oracles.table_from_generator_columns``, one table has one hash whichever
constructor built it, and a relabelling that changes the table changes the
hash.

A group stores only right-multiplication columns and a spanning tree, so
everything else is checked against what its elements are: the permutations
``oracles.closure_perms`` lists in discovery order.  On groups of degree at
most 7 (closed, relabelled, or times a cyclic group), the derived ``table``
composes those permutations; the content hash is ``oracles.group_v3_hash``
of it, the inverses compose to the identity and equal the row scan, the
classes and inverse classes equal ``oracles.loop_conjugacy_structure``'s, and
the pair index equals ``oracles.pair_classes_loop``.  Degree-7 closures of
two permutations, mostly S7 and A7, are checked on sampled ``rows`` without
their tables, and tracemalloc shows that building, keying and classing S7
and A5xA5 allocates far less than one table.

On the same closed, relabelled and product groups, the Hilbert-Schmidt lower
bound is the C = C' part of AM's sum, sum_C (|C|/|G|)^2 c(C,C) over the
diagonal's coefficients, and so at most AM.
"""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    associativity_failure,
    closure_perms,
    greedy_generators,
    group_v3_hash,
    latin_failure,
    loop_conjugacy_structure,
    pair_classes_loop,
    quotient_loop,
    scan_inverses,
    swap_intercalate,
    table_from_generator_columns,
)
from zamen.amenability import amenability_constant, diagonal, hilbert_schmidt_lower_bound
from zamen.characters import _pair_classes, character_table
from zamen.groups import (
    ValidationError,
    alternating,
    conjugacy_structure,
    cyclic,
    direct_product,
    from_cayley_table,
    from_permutation_generators,
    quotient_group,
    semidirect_product,
    symmetric,
)

generators = st.integers(1, 6).flatmap(lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3))
degree_3_to_6 = st.integers(3, 6).flatmap(lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3))
deterministic = settings(derandomize=True, deadline=None, max_examples=75)


def normal_closure(group, members):
    """The subgroup generated by ``members`` and the identity, by multiplying until nothing new appears."""
    closed = np.union1d([group.identity], members)
    while True:
        grown = np.union1d(closed, group.table[np.ix_(closed, members)])
        if grown.size == closed.size:
            return closed
        closed = grown


def powers(group, s):
    """The cyclic subgroup generated by s."""
    seen, x = [group.identity], s
    while x != group.identity:
        seen.append(x)
        x = int(group.table[x, s])
    return seen


def relabel(group, seed):
    """The group with element a renamed sigma[a] for a random permutation sigma."""
    sigma = np.random.default_rng(seed).permutation(group.order)
    back = np.argsort(sigma)
    return from_cayley_table(sigma[group.table[np.ix_(back, back)]], label="relabelled")


def build(gens, shape, seed):
    """The closure of ``gens``; relabelled; times Z2 or Z3; or by Z_m acting as conjugation by t^j, t of order m."""
    group = from_permutation_generators(gens)
    if shape == "relabelled":
        return relabel(group, seed)
    assume(shape == "closure" or group.order <= 120)
    if shape == "direct":
        return direct_product(group, cyclic(2 + seed % 2))
    if shape == "semidirect":
        ts = powers(group, seed % group.order)  # t^0, t^1, ..., t^(m-1)
        maps = [group.table[group.table[t], group.inverses[t]] for t in ts]  # x -> t^j x t^-j
        return semidirect_product(group, cyclic(len(ts)), maps)
    return group


shapes = st.sampled_from(["closure", "relabelled", "direct", "semidirect"])


def assert_matches_oracle(group, subgroup):
    quo = quotient_group(group, subgroup)
    table, projection = quotient_loop(group, subgroup)
    assert np.array_equal(quo.group.table, table)
    assert quo.projection.dtype == projection.dtype and np.array_equal(quo.projection, projection)


@deterministic
@given(gens=generators, pick=st.integers(0, 2**31))
def test_normal_closure_of_a_class_gives_the_oracle_quotient(gens, pick):
    group = from_permutation_generators(gens)
    cs = conjugacy_structure(group)
    assert_matches_oracle(group, normal_closure(group, cs.classes[cs.class_of[pick % group.order]]))


@deterministic
@given(gens=generators, pick=st.integers(0, 2**31))
def test_cyclic_subgroup_is_refused_exactly_when_not_normal(gens, pick):
    group = from_permutation_generators(gens)
    subgroup = powers(group, pick % group.order)
    try:
        quotient_loop(group, subgroup)
    except ValueError:
        with pytest.raises(ValidationError, match="not normal"):
            quotient_group(group, subgroup)
    else:
        assert_matches_oracle(group, subgroup)


@deterministic
@given(gens=generators, seed=st.integers(0, 2**32 - 1))
def test_a_relabelled_table_passes_with_the_relabelled_classes(gens, seed):
    group = from_permutation_generators(gens)
    sigma = np.random.default_rng(seed).permutation(group.order)  # element a becomes sigma[a]
    back = np.argsort(sigma)
    relabelled = from_cayley_table(sigma[group.table[np.ix_(back, back)]])
    cs = conjugacy_structure(relabelled)
    class_of, classes, sizes, reps, inverse_class = loop_conjugacy_structure(group)
    assert sorted(np.sort(sigma[c]).tolist() for c in classes) == sorted(c.tolist() for c in cs.classes)
    class_of, classes, sizes, reps, inverse_class = loop_conjugacy_structure(relabelled)
    for got, want in zip((cs.class_of, cs.sizes, cs.reps, cs.inverse_class), (class_of, sizes, reps, inverse_class)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@deterministic
@given(gens=generators, picks=st.tuples(*[st.integers(0, 2**31)] * 3))
def test_an_intercalate_swap_is_refused_exactly_when_a_triple_fails(gens, picks):
    # For an involution t and a, b outside {e, t}, rows a, at and columns b, tb
    # form an intercalate: a*b = at*tb and a*tb = at*b.  None of them is the
    # identity, so the swapped table is a Latin square with the same identity.
    group = from_permutation_generators(gens)
    table, e, n = group.table, group.identity, group.order
    involutions = np.flatnonzero((np.diag(table) == e) & (np.arange(n) != e))
    assume(involutions.size > 0 and n > 2)
    t = int(involutions[picks[0] % involutions.size])
    others = np.setdiff1d(np.arange(n), [e, t])
    a, b = (int(others[p % others.size]) for p in picks[1:])
    swapped = swap_intercalate(table, (a, table[a, t]), (b, table[t, b]))
    if associativity_failure(swapped) is None:
        assert np.array_equal(from_cayley_table(swapped).table, swapped)
        return
    with pytest.raises(ValidationError, match="associativity fails") as refused:
        from_cayley_table(swapped)
    x, y, g = (int(v) for v in re.search(r"triple \((\d+), (\d+), (\d+)\)", str(refused.value)).groups())
    assert swapped[swapped[x, y], g] != swapped[x, swapped[y, g]]


@deterministic
@given(gens=degree_3_to_6, shape=shapes, seed=st.integers(0, 2**32 - 1))
def test_inverses_equal_the_row_scan(gens, shape, seed):
    group = build(gens, shape, seed)
    assert group.inverses.dtype == np.int64 and np.array_equal(group.inverses, scan_inverses(group))


@deterministic
@given(gens=degree_3_to_6, shape=shapes, seed=st.integers(0, 2**32 - 1))
def test_the_hashed_columns_rebuild_the_table(gens, shape, seed):
    group = build(gens, shape, seed)
    assert group.generators.dtype == np.int64 and group.generators.tolist() == greedy_generators(group)
    columns = group.table[:, group.generators]
    rebuilt = table_from_generator_columns(group.order, group.identity, group.generators, columns)
    assert np.array_equal(rebuilt, group.table)


@deterministic
@given(gens=degree_3_to_6, shape=shapes, seed=st.integers(0, 2**32 - 1))
def test_one_table_from_two_constructors_has_one_hash(gens, shape, seed):
    group = build(gens, shape, seed)
    assert from_cayley_table(group.table, label="validated").content_hash == group.content_hash


@deterministic
@given(gens=degree_3_to_6, shape=shapes, seed=st.integers(0, 2**32 - 1))
def test_a_relabelling_that_changes_the_table_changes_the_hash(gens, shape, seed):
    group = build(gens, shape, seed)
    relabelled = relabel(group, seed + 1)
    same_table = np.array_equal(relabelled.table, group.table)
    assert (relabelled.content_hash == group.content_hash) == same_table


damage = st.lists(st.tuples(st.booleans(), *[st.integers(0, 2**31)] * 3), min_size=1, max_size=3)


@deterministic
@given(gens=degree_3_to_6, damage=damage)
def test_a_damaged_table_is_refused_at_the_line_the_sort_oracle_names(gens, damage):
    # A swap of two entries in a row keeps that row a permutation and can break only columns.
    group = from_permutation_generators(gens)
    table, n = np.array(group.table, dtype=np.int64), group.order
    for swap, i, j, k in damage:
        i, j, k = i % n, j % n, k % n
        if swap:
            table[i, [j, k]] = table[i, [k, j]]
        else:
            table[i, j] = k
    failure = latin_failure(table)
    if failure is None:
        try:
            from_cayley_table(table)
        except ValidationError as refused:
            assert "not a permutation" not in str(refused)
        return
    word, line = failure
    with pytest.raises(ValidationError, match=rf"^{word} {line} of the Cayley table is not a permutation$"):
        from_cayley_table(table)


# With one generator, degree 7 gives a cyclic group of order at most 12; two or three of degree 7
# mostly give S7 or A7, which the sampled-rows test below covers.
up_to_degree_7 = st.integers(1, 7).flatmap(
    lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3 if d < 7 else 1)
)


def with_permutations(gens, shape, seed):
    """The group ``build`` makes from ``gens`` for shape closure, relabelled or direct (times Z2 or Z3),
    and the permutation each of its elements is, from ``oracles.closure_perms`` alone."""
    perms = np.array(closure_perms(gens), dtype=np.int64)
    if shape == "relabelled":  # element sigma[a] is perms[a], with sigma drawn as relabel draws it
        sigma = np.random.default_rng(seed).permutation(len(perms))
        return relabel(from_permutation_generators(gens), seed), perms[np.argsort(sigma)]
    if shape == "direct":  # element a*m + b is perms[a] beside the shift by b on m more points
        assume(len(perms) <= 120)
        m = 2 + seed % 2
        shifts = perms.shape[1] + (np.arange(m)[:, None] + np.arange(m)) % m
        element = np.concatenate([np.repeat(perms, m, axis=0), np.tile(shifts, (len(perms), 1))], axis=1)
        return direct_product(from_permutation_generators(gens), cyclic(m)), element
    return from_permutation_generators(gens), perms


def composed(element, a, b):
    """The permutation of a*b for every a in ``a`` and b in ``b``: element[a] after element[b]."""
    return element[np.asarray(a)[:, None, None], element[np.asarray(b)][None, :, :]]


@deterministic
@given(gens=up_to_degree_7, shape=st.sampled_from(["closure", "relabelled", "direct"]), seed=st.integers(0, 2**32 - 1))
def test_what_the_columns_and_tree_derive_equals_the_loop_oracles(gens, shape, seed):
    group, element = with_permutations(gens, shape, seed)
    n, everything = group.order, np.arange(group.order)
    parent, step, depth = group.tree  # each x = parent * s_step, one level below its parent
    below = everything != group.identity
    assert (parent[group.identity], step[group.identity], depth[group.identity]) == (group.identity, -1, 0)
    assert np.array_equal(group.columns[step[below], parent[below]], everything[below])
    assert np.array_equal(depth[below], depth[parent[below]] + 1)
    steps = group.columns[:, group.identity]  # distinct, and none of them the identity
    assert np.unique(steps).size == steps.size and group.identity not in steps
    table = group.table
    assert np.array_equal(element[table], composed(element, everything, everything))
    assert np.array_equal(element[group.identity], np.arange(element.shape[1]))
    inverses = scan_inverses(group)
    assert group.inverses.dtype == np.int64 and np.array_equal(group.inverses, inverses)
    assert group.content_hash == group_v3_hash(n, group.identity, greedy_generators(group), table)
    cs = conjugacy_structure(group)
    class_of, classes, sizes, reps, inverse_class = loop_conjugacy_structure(group)
    assert np.array_equal(cs.class_of, class_of) and np.array_equal(cs.inverse_class, inverse_class)
    assert np.array_equal(_pair_classes(group), pair_classes_loop(table, inverses, class_of, reps))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(gens=st.lists(st.permutations(range(7)), min_size=2, max_size=2), picks=st.lists(st.integers(0, 5039), min_size=1, max_size=64))
def test_sampled_rows_of_a_degree_7_closure_compose_its_permutations(gens, picks):
    group = from_permutation_generators(gens)
    element = np.array(closure_perms(gens), dtype=np.int8)
    ys, everything = np.array(picks) % group.order, np.arange(group.order)
    assert np.array_equal(element[group.rows(ys)], composed(element, ys, everything))
    x_after_inverse = np.take_along_axis(element, element[group.inverses], axis=1)
    assert np.array_equal(x_after_inverse, np.broadcast_to(np.arange(7), element.shape))
    assert "table" not in vars(group)


@pytest.mark.parametrize(
    "make_group", [lambda: symmetric(7), lambda: direct_product(alternating(5), alternating(5))], ids=["S7", "A5xA5"]
)
def test_building_keying_and_classing_allocates_far_less_than_a_table(make_group):
    tracemalloc.start()
    try:
        group = make_group()
        conjugacy_structure(group)
        _pair_classes(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "table" not in vars(group)
    assert peak < group.order**2 * 4 / 16, f"{group.label} peaked at {peak} bytes"


@deterministic
@given(gens=degree_3_to_6, shape=shapes, seed=st.integers(0, 2**32 - 1))
def test_the_hilbert_schmidt_bound_is_the_diagonal_part_of_am(gens, shape, seed):
    table = character_table(build(gens, shape, seed))
    hs = hilbert_schmidt_lower_bound(table)
    own = np.diagonal(diagonal(table))
    want = float(((table.class_sizes / table.order) ** 2) @ own.real)
    assert abs(hs - want) <= 1e-13 * want, (hs, want)
    assert hs <= amenability_constant(table).value * (1.0 + 1e-13)
