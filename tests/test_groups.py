import itertools
import math

import pytest

from geosig.errors import GroupInputError, InternalCheckError
from geosig.groups import (
    FiniteGroup,
    Perm,
    Subgroup,
    catalog,
    conj,
    double_coset_count,
    group_from_payload,
)


def test_perm_basics():
    p = Perm.parse(4, "(1,2,3,4)")
    assert p.image == (1, 2, 3, 0)
    assert p.order() == 4
    assert (p * p.inverse()).is_identity()
    assert str(p ** 2) == "(1,3)(2,4)"
    assert p ** -1 == p.inverse()
    assert Perm.identity(4) < p


def test_perm_composes_left_to_right():
    x = Perm.parse(4, "(1,2,3,4)")
    y = Perm.parse(4, "(1,3)")
    # apply x first: 1 -> 2 -> 2, so (x*y)(1) = 2
    assert (x * y)(0) == 1
    assert str(x * y) == "(1,2)(3,4)"


def test_perm_rejects_garbage():
    with pytest.raises(GroupInputError):
        Perm([0, 0, 1])
    with pytest.raises(GroupInputError):
        Perm([])
    with pytest.raises(GroupInputError):
        Perm.parse(3, "(1,4)")
    with pytest.raises(GroupInputError):
        Perm.parse(3, "1,2")


def test_trivial_group_from_empty_generators():
    G = FiniteGroup(1)
    assert G.order == 1
    assert G.elements == (Perm.identity(1),)


def test_closure_d4_order_8():
    # brute-force oracle: all words of length <= 8 in {x, y}
    x = Perm.parse(4, "(1,2,3,4)")
    y = Perm.parse(4, "(1,3)")
    words = {Perm.identity(4)}
    frontier = {Perm.identity(4)}
    for _ in range(8):
        frontier = {w * g for w in frontier for g in (x, y)} - words
        words |= frontier
    assert len(words) == 8

    G = FiniteGroup(4, named_generators={"x": x, "y": y})
    assert G.order == 8
    assert set(G.elements) == words
    assert G.exponent == 4


def test_wc3_order_and_exponent():
    G = catalog("wc3")
    assert G.order == 48
    assert G.exponent == 12
    assert set(G.named_generators) == {"x", "y", "z", "a", "b"}


def test_degree_zero_rejected():
    with pytest.raises(GroupInputError):
        FiniteGroup(0)


def test_group_order_cap():
    # the cap is 2000 elements: dihedral(1000) reaches it exactly, while
    # dihedral(1001) (order 2002) and symmetric(7) (order 5040) pass it
    assert catalog("dihedral(1000)").order == 2000
    for name in ("dihedral(1001)", "symmetric(7)"):
        with pytest.raises(GroupInputError, match="exceeds the supported cap of 2000"):
            catalog(name)


def test_is_generated_by():
    G = catalog("dihedral(4)")
    x, y = G.named_generators["x"], G.named_generators["y"]
    assert G.is_generated_by([x, y])
    assert G.is_generated_by([x * y, y])
    assert not G.is_generated_by([x])
    assert not G.is_generated_by([x * x, y])
    assert not G.is_generated_by([])
    assert FiniteGroup(1).is_generated_by([])


def test_conjugacy_classes_s3():
    G = catalog("symmetric(3)")
    sizes = [c.size for c in G.conjugacy_classes]
    assert sizes == [1, 3, 2]
    assert G.conjugacy_classes[0].representative.is_identity()


def test_conjugacy_classes_d4():
    G = catalog("dihedral(4)")
    assert len(G.conjugacy_classes) == 5
    assert sum(c.size for c in G.conjugacy_classes) == 8
    # classes ordered by (element order, size, representative)
    orders = [c.element_order for c in G.conjugacy_classes]
    assert orders == sorted(orders[:1]) + orders[1:]
    assert orders[0] == 1


def test_conjugacy_classes_partition_brute_force():
    for name in ("dihedral(4)", "symmetric(3)", "quaternion8"):
        G = catalog(name)
        for cls in G.conjugacy_classes:
            expected = {conj(t, cls.representative) for t in G.elements}
            assert set(cls.members) == expected


def test_class_powers_match_perm_powers():
    for name in ("dihedral(6)", "quaternion8", "wc3", "symmetric(5)"):
        G = catalog(name)
        for cls, powers in zip(G.conjugacy_classes, G.class_powers):
            m = cls.element_order
            assert len(powers) == m
            for k in range(-m, 2 * m):
                assert powers[k % m] == G.class_index[cls.representative ** k]


def test_cyclic_subgroup_classes_d4():
    G = catalog("dihedral(4)")
    classes = G.cyclic_subgroup_classes
    assert len(classes) == 5
    assert sorted(c.order for c in classes) == [1, 2, 2, 2, 4]
    # brute-force: distinct cyclic subgroups up to conjugacy
    subs = set()
    for g in G.elements:
        subs.add(frozenset(g ** k for k in range(g.order())))
    canon = set()
    for s in subs:
        orbit = frozenset(frozenset(conj(t, h) for h in s) for t in G.elements)
        canon.add(orbit)
    assert len(canon) == 5


def test_cyclic_subgroup_classes_z4():
    G = catalog("cyclic(4)")
    classes = G.cyclic_subgroup_classes
    assert [c.order for c in classes] == [1, 2, 4]
    assert all(c.class_size == 1 for c in classes)


def test_merged_classes_align_with_cyclic_classes():
    for name in ("cyclic(6)", "dihedral(4)", "symmetric(4)", "wc3"):
        G = catalog(name)
        merged = G.merged_element_classes
        classes = G.cyclic_subgroup_classes
        assert len(merged) == len(classes)
        assert sum(m.size for m in merged) == G.order
        for m, c in zip(merged, classes):
            # every member generates a subgroup of the class, so has its order
            assert m.element_order == c.order
            for g in m.members:
                assert g.order() == c.order
                sub = Subgroup.generated(G, [g])
                assert c.contains_subgroup(sub)


def test_normalizer_d4():
    G = catalog("dihedral(4)")
    x, y = G.named_generators["x"], G.named_generators["y"]
    H = G.subgroup([y])
    N = H.normalizer()
    assert N.order == 4
    assert x * x in N.members
    assert G.subgroup([x]).normalizer().order == 8
    assert G.full_subgroup.normalizer().order == 8


def test_left_transversal_partitions_group():
    G = catalog("dihedral(4)")
    for gens in ([], [G.named_generators["x"]], [G.named_generators["y"]]):
        H = G.subgroup(gens)
        reps = H.left_transversal()
        assert len(reps) == G.order // H.order
        cosets = [frozenset(r * h for h in H.members) for r in reps]
        assert len(set(cosets)) == len(cosets)
        assert set().union(*cosets) == set(G.elements)
        # each representative is the least element of its coset
        for r, cs in zip(reps, cosets):
            assert r == min(cs)
    assert G.trivial_subgroup.left_transversal() == G.elements
    assert G.full_subgroup.left_transversal() == (G.identity,)


def test_subgroup_validation():
    G = catalog("dihedral(4)")
    x = G.named_generators["x"]
    with pytest.raises(GroupInputError):
        Subgroup.from_members(G, [G.identity, x])  # not closed
    with pytest.raises(GroupInputError):
        G.subgroup([Perm.parse(4, "(1,2)")])  # not in D4
    H = Subgroup.from_members(G, [G.identity, x, x ** 2, x ** 3])
    assert H.order == 4 and H.is_cyclic


def test_double_cosets_trivial_cases():
    G = catalog("dihedral(4)")
    full = G.full_subgroup
    triv = G.trivial_subgroup
    H = G.subgroup([G.named_generators["y"]])
    assert double_coset_count(G, H, full) == 1
    assert double_coset_count(G, triv, triv) == G.order
    K = G.subgroup([G.named_generators["x"]])
    assert double_coset_count(G, H, K) == 1


def test_double_coset_sizes_partition_group():
    G = catalog("symmetric(4)")
    H = G.subgroup_from_words(["ab"])  # some cyclic subgroup
    K = G.subgroup_from_words(["b"])
    # partition check: double cosets HgK tile G
    seen = set()
    count = 0
    for g in G.elements:
        if g in seen:
            continue
        count += 1
        seen |= {h * g * k for h in H.members for k in K.members}
    assert seen == set(G.elements)
    assert double_coset_count(G, H, K) == count


def test_double_coset_methods_agree_over_cyclic_classes():
    for name in ("dihedral(4)", "quaternion8", "symmetric(4)", "alternating(4)", "wc3"):
        G = catalog(name)
        reps = [c.representative for c in G.cyclic_subgroup_classes]
        for H, K in itertools.product(reps, repeat=2):
            double_coset_count(G, H, K)  # raises InternalCheckError on disagreement


def test_catalog_quaternion8():
    G = catalog("quaternion8")
    assert G.order == 8
    assert G.exponent == 4
    # one element of order 2 only
    assert sum(1 for g in G.elements if g.order() == 2) == 1


def test_catalog_rejects_unknown():
    with pytest.raises(GroupInputError):
        catalog("sporadic(1)")
    with pytest.raises(GroupInputError):
        catalog("dihedral(2)")


def test_subgroup_class_size_is_normalizer_index():
    for name in ("dihedral(4)", "wc3"):
        G = catalog(name)
        for cls in G.cyclic_subgroup_classes:
            n = cls.representative.normalizer()
            assert cls.class_size * n.order == G.order


def test_element_words_wc3():
    G = catalog("wc3")
    c5 = G.element("xa^2")
    assert c5.order() == 6
    assert G.element("x*a^2") == c5
    assert G.element("xyab").order() == 4
    assert G.element("xyzb").order() == 2
    assert G.element("e").is_identity()
    assert G.element("a^-1") == G.named_generators["a"].inverse()
    with pytest.raises(GroupInputError):
        G.element("xq")
    with pytest.raises(GroupInputError):
        G.element("")


def test_element_cycle_notation_must_be_member():
    G = catalog("cyclic(4)")
    assert G.element("(1,2,3,4)") == G.named_generators["x"]
    with pytest.raises(GroupInputError):
        G.element("(1,2)")


def test_group_from_payload_roundtrip():
    payload = {
        "name": "d4",
        "degree": 4,
        "generators": {"x": "(1,2,3,4)", "y": "(1,3)"},
    }
    G = group_from_payload(payload)
    assert G.order == 8
    assert G.name == "d4"
    assert G.digest == group_from_payload(payload).digest
    with pytest.raises(GroupInputError):
        group_from_payload({"degree": 4, "generators": {}})
    with pytest.raises(GroupInputError):
        group_from_payload({"generators": {"x": "(1,2)"}})
    with pytest.raises(GroupInputError, match="'name' must be a string"):
        group_from_payload({"name": 5, "degree": 2, "generators": {"a": "(1,2)"}})


def test_wc3_named_subgroups_are_nonconjugate():
    G = catalog("wc3")
    H1 = G.subgroup_from_words(["y", "z", "xyzab"])
    H2 = G.subgroup_from_words(["y", "z", "ab"])
    assert H1.order == 8 and H2.order == 8
    assert not G.are_conjugate_subgroups(H1, H2)


def test_are_conjugate_subgroups():
    G = catalog("dihedral(4)")
    y = G.named_generators["y"]
    x = G.named_generators["x"]
    A = G.subgroup([y])
    B = G.subgroup([conj(x, y)])
    C = G.subgroup([x * y])
    assert G.are_conjugate_subgroups(A, B)
    assert not G.are_conjugate_subgroups(A, C)


def test_generating_set_of_a_subgroup_without_generators():
    # the kernel of the sign character of symmetric(6) is alternating(6),
    # given by its 360 members; a greedy generating set stays small
    from geosig.chartable import compute_table

    G = catalog("symmetric(6)")
    T = compute_table(G)
    sign = next(c for c in T.characters if c.degree == 1 and c.index != T.trivial_character_index)
    H = T.kernel(sign)
    assert H.order == 360 and H.generators is None
    gens = H.generating_set
    assert 1 <= len(gens) <= math.log2(H.order)
    assert G.subgroup([G.elements[g] for g in gens]) == H
    # a subgroup built from generators moves by those generators
    K = G.subgroup_from_words(["a", "b"])
    assert K.generating_set == tuple(G.index(g) for g in K.generators)
    assert Subgroup.from_members(G, H.members).generating_set == gens
