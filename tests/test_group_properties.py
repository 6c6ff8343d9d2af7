"""Property tests: quotients of random permutation groups against the loop oracle.

Groups are closed from one to three random permutations of degree at most 6,
so they range from the trivial group to S6.  The normal closure of a class is
always normal, so its quotient must equal ``oracles.quotient_loop``'s; a
cyclic subgroup may or may not be normal, and ``quotient_group`` must refuse
it exactly when the oracle finds a conjugate outside it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import quotient_loop
from zamen.groups import ValidationError, conjugacy_structure, from_permutation_generators, quotient_group

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
