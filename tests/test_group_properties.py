"""Property tests: random permutation groups against the loop oracles.

Groups are closed from one to three random permutations of degree at most 6,
so they range from the trivial group to S6.  The normal closure of a class is
always normal, so its quotient must equal ``oracles.quotient_loop``'s; a
cyclic subgroup may or may not be normal, and ``quotient_group`` must refuse
it exactly when the oracle finds a conjugate outside it.  A randomly
relabelled table must pass ``from_cayley_table`` with the relabelled classes
of ``oracles.loop_conjugacy_structure``, and a table with one intercalate
swapped must be refused exactly when ``oracles.associativity_failure`` finds a
failing triple.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import associativity_failure, loop_conjugacy_structure, quotient_loop, swap_intercalate
from zamen.groups import (
    ValidationError,
    conjugacy_structure,
    from_cayley_table,
    from_permutation_generators,
    quotient_group,
)

generators = st.integers(1, 6).flatmap(lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3))
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
