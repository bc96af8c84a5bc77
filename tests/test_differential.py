"""Differential tests of the group kernel against sympy.combinatorics.

Groups come from `group_from_payload` with one to three random generators
in S_n, n <= 7; sympy builds the same group independently.  The order,
the sorted class sizes and the multiset of element orders must agree,
which checks the index closure and the conjugacy walk on inputs beyond
the catalog.  Whether drawn elements generate the group is decided by
`FiniteGroup.generates` and by the witness check's own closure, each
against the order of the group sympy generates from them.  A group above
the order cap must be refused as input.
sympy and hypothesis are test-only dependencies: the module is skipped
without them, and runs derandomized so that every run draws the same
examples.
"""

from collections import Counter

import pytest

pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402

from geosig.errors import GroupInputError  # noqa: E402
from geosig.groups import MAX_GROUP_ORDER, Perm, group_from_payload  # noqa: E402
from geosig.signature import (  # noqa: E402
    GeneratingVector,
    GeometricSignature,
    verify_generating_vector,
)

generator_sets = st.integers(2, 7).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
)


def _payload(images):
    return {
        "degree": len(images[0]),
        "generators": {f"g{i}": str(Perm(img)) for i, img in enumerate(images)},
    }


@settings(derandomize=True, deadline=None, max_examples=40)
@given(generator_sets)
def test_group_invariants_match_sympy(images):
    payload = _payload(images)
    ref = PermutationGroup([Permutation(list(img)) for img in images])
    if ref.order() > MAX_GROUP_ORDER:
        with pytest.raises(GroupInputError, match="exceeds the supported cap"):
            group_from_payload(payload)
        return
    G = group_from_payload(payload)
    assert G.order == ref.order()
    assert sorted(c.size for c in G.conjugacy_classes) == sorted(
        len(c) for c in ref.conjugacy_classes()
    )
    assert Counter(g.order() for g in G.elements) == Counter(p.order() for p in ref.elements)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(generator_sets, st.data())
def test_generation_matches_sympy(images, data):
    # drawn elements of the group, as indices; sympy's group from the same
    # permutations and the identity (which makes an empty draw a group) has
    # order |G| exactly when they generate.  The witness check sees them as a_1..a_k
    # of a handle-only vector with b_i = 1, whose product relation holds
    hypothesis.assume(PermutationGroup([Permutation(list(img)) for img in images]).order()
                      <= MAX_GROUP_ORDER)
    G = group_from_payload(_payload(images))
    idx = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    a = tuple(G.elements[i] for i in idx)
    expected = PermutationGroup(
        [Permutation(list(g.image)) for g in (G.identity, *a)]).order() == G.order
    assert G.generates(idx) == expected
    vec = GeneratingVector(a, (G.identity,) * len(a), ())
    check = verify_generating_vector(G, GeometricSignature(len(a), ()), vec)
    assert check.product_ok and check.generates == expected
