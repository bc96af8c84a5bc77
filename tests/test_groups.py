import hashlib
import importlib.util
import itertools
import math
import sys

import pytest

from geosig.errors import GroupInputError, InternalCheckError
from geosig.groups import (
    ElementClass,
    FiniteGroup,
    Perm,
    Subgroup,
    catalog,
    double_coset_count,
    group_from_payload,
)

from corpus import CORPUS, conj


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


def test_group_order_cap(monkeypatch):
    # the cap is 2000 elements: dihedral(1000) reaches it exactly, while
    # dihedral(1001) (order 2002), symmetric(7) (order 5040) and cyclic(2001)
    # pass it; a catalog name is refused before any permutation is built
    assert catalog("dihedral(1000)").order == 2000

    def no_perm(*args):
        raise AssertionError("a permutation was built for an oversized group")

    monkeypatch.setattr(Perm, "from_cycles", no_perm)
    for name in ("dihedral(1001)", "symmetric(7)", "cyclic(2001)", "alternating(100000)",
                 "cyclic(" + "9" * 5000 + ")"):
        with pytest.raises(GroupInputError, match="exceeds the supported cap of 2000"):
            catalog(name)


def test_group_order_cap_of_the_build():
    # the build's own walk refuses the 2001st element: a cyclic group of
    # order 2000 = 16 * 125 builds, one of order 2001 = 3 * 23 * 29 does not
    def cyclic_group(lengths):
        cycles, start = [], 1
        for n in lengths:
            cycles.append(tuple(range(start, start + n)))
            start += n
        return FiniteGroup(start - 1, {"g": Perm.from_cycles(start - 1, cycles)})

    assert cyclic_group([16, 125]).order == 2000
    with pytest.raises(GroupInputError, match="group order exceeds the supported cap of 2000"):
        cyclic_group([3, 23, 29])


def test_group_degree_cap(monkeypatch):
    # the degree is refused before Perm.parse builds an image of that length
    monkeypatch.setattr(Perm, "parse", lambda *args: pytest.fail("parsed a generator"))
    spec = {"degree": 2001, "generators": {"a": "(1,2)"}}
    with pytest.raises(GroupInputError, match="degree exceeds the supported cap of 2000"):
        group_from_payload(spec)
    with pytest.raises(GroupInputError, match="degree exceeds the supported cap of 2000"):
        FiniteGroup(2001)


def test_generates():
    G = catalog("dihedral(4)")
    x, y = G.named_generators["x"], G.named_generators["y"]
    index = G.index
    assert G.generates([index(x), index(y)])
    assert G.generates([index(x * y), index(y)])
    assert not G.generates([index(x)])
    assert not G.generates([index(x * x), index(y)])
    assert not G.generates([])
    assert FiniteGroup(1).generates([])


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
            assert {G.elements[i] for i in cls.indices} == expected


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
    assert all(len(c.member_masks) == 1 for c in classes)


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
            for g in map(G.elements.__getitem__, m.indices):
                assert g.order() == c.order
                assert G.subgroup([g]).mask in c.member_masks


def test_normalizer_d4():
    G = catalog("dihedral(4)")
    x, y = G.named_generators["x"], G.named_generators["y"]
    H = G.subgroup([y])
    N = H.normalizer
    assert N.order == 4
    assert x * x in N.members
    assert G.subgroup([x]).normalizer.order == 8
    assert G.subgroup(G.generators).normalizer.order == 8


def test_left_transversal_partitions_group():
    G = catalog("dihedral(4)")
    for gens in ([], [G.named_generators["x"]], [G.named_generators["y"]]):
        H = G.subgroup(gens)
        reps = [G.elements[i] for i in H.left_cosets[1]]
        assert len(reps) == G.order // H.order
        cosets = [frozenset(r * h for h in H.members) for r in reps]
        assert len(set(cosets)) == len(cosets)
        assert set().union(*cosets) == set(G.elements)
        # each representative is the least element of its coset
        for r, cs in zip(reps, cosets):
            assert r == min(cs)
    assert G.subgroup([]).left_cosets[1] == tuple(range(G.order))
    assert G.subgroup(G.generators).left_cosets[1] == (0,)


def test_subgroup_validation():
    G = catalog("dihedral(4)")
    x = G.named_generators["x"]
    with pytest.raises(GroupInputError):
        G.subgroup([Perm.parse(4, "(1,2)")])  # not in D4
    H = G.subgroup([G.identity, x, x ** 2, x ** 3])
    assert H.order == 4 and H.is_cyclic


def test_double_cosets_trivial_cases():
    G = catalog("dihedral(4)")
    full = G.subgroup(G.generators)
    triv = G.subgroup([])
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


def _s4_three_cycle_and_transposition():
    G = catalog("symmetric(4)")
    return G, G.subgroup([G.element("(1,2,3)")]), G.subgroup([G.element("(1,2)")])


def test_non_integral_transversal_formula_is_a_defect(monkeypatch):
    # route 2 sums |lKl^-1 ∩ H| over the 6 conjugates of a transposition
    # subgroup; a conjugate mask that holds all of H adds 2 to the sum, and
    # 2 * (6 + 2) = 16 is no multiple of |H| = 3
    G, H, K = _s4_three_cycle_and_transposition()
    masks = K.conjugate_masks
    first = next(iter(masks))
    monkeypatch.setitem(masks, first, masks[first] | H.mask)
    with pytest.raises(InternalCheckError,
                       match="transversal double-coset formula is not integral"):
        double_coset_count(G, H, K)


def test_non_integral_class_formula_is_a_defect(monkeypatch):
    # route 3 weighs each class H meets by |C_G(a)| * |K ∩ class(a)|; one
    # member of H counted in the transposition class adds 4 * 1 to the sum
    # 24, and 28 is no multiple of |K| * |H| = 6
    G, H, K = _s4_three_cycle_and_transposition()
    transpositions = G.class_of[G.index(G.element("(1,2)"))]
    monkeypatch.setitem(vars(H), "class_counts", H.class_counts + ((transpositions, 1),))
    with pytest.raises(InternalCheckError,
                       match="class-sum double-coset formula is not integral"):
        double_coset_count(G, H, K)


def test_subgroup_order_that_does_not_divide_the_group_is_a_defect():
    # three elements of dihedral(4), of order 8, are no subgroup
    with pytest.raises(InternalCheckError,
                       match="^subgroup order does not divide group order$"):
        Subgroup._trusted(catalog("dihedral(4)"), [0, 1, 2], None, None)


def test_exponent_that_does_not_divide_the_order_is_a_defect():
    # a class of element order 3 in dihedral(4) makes the lcm of the
    # element orders 12, no divisor of 8
    G = catalog("dihedral(4)")
    *kept, last = G.conjugacy_classes
    vars(G)["conjugacy_classes"] = (*kept, ElementClass(G, last.indices, 3))
    with pytest.raises(InternalCheckError,
                       match="^group exponent does not divide the order$"):
        G.exponent


def test_unequal_normalizer_cosets_are_a_defect():
    # with two entries of the first conjugation column swapped, the walk
    # reaches the 4 conjugates of <y> from 2, 3, 1 and 2 elements: the
    # orbit-stabilizer count 4 * 2 still reads 8, but no normalizer has
    # cosets of unequal sizes
    G = catalog("dihedral(4)")
    K = G.subgroup_from_words(["y"])
    columns = [list(c) for c in G._conjugators]
    columns[0][1], columns[0][2] = columns[0][2], columns[0][1]
    vars(G)["_conjugators"] = columns
    with pytest.raises(InternalCheckError,
                       match=r"^the left cosets of the normalizer of a subgroup of order 2 "
                             r"have sizes \[1, 2, 3\]$"):
        K.conjugate_masks


def test_cosets_whose_product_misses_the_order_fail_the_equal_sizes_check():
    # swapping entries 1 and 3 of the first conjugation column makes the walk
    # reach the 4 conjugates of <y> from 3, 3, 1 and 1 elements: 4 * 3 is not
    # |G| = 8, which a product check would have refused, and the one check
    # of equal sizes refuses it; the walk numbers each of the 8 elements
    # once, so equal sizes would have multiplied out to 8
    G = catalog("dihedral(4)")
    K = G.subgroup_from_words(["y"])
    columns = [list(c) for c in G._conjugators]
    columns[0][1], columns[0][3] = columns[0][3], columns[0][1]
    vars(G)["_conjugators"] = columns
    with pytest.raises(InternalCheckError,
                       match=r"^the left cosets of the normalizer of a subgroup of order 2 "
                             r"have sizes \[1, 3\]$"):
        K.conjugate_masks


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
            n = cls.representative.normalizer
            assert len(cls.member_masks) * n.order == G.order


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
    with pytest.raises(GroupInputError, match="group spec has unknown key 'nmae';"):
        group_from_payload({"nmae": "d4", "degree": 4, "generators": payload["generators"]})


@pytest.mark.parametrize("route", ["built-in", "hashlib"])
def test_digest_is_the_sha256_of_the_images(monkeypatch, route):
    # the group hash is the first 16 hex digits of the SHA-256 of the degree
    # and the element images in canonical order, whichever module computes
    # it: the interpreter's built-in one, which must not need hashlib, or
    # hashlib on a build that has no built-in one
    names = sorted({case.group_name for case in CORPUS})
    expected = {}
    for name in names:
        G = catalog(name)
        blob = f"{G.degree}|" + ";".join(",".join(map(str, p.image)) for p in G.elements)
        expected[name] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    hashed = []
    if route == "built-in":
        if not any(map(importlib.util.find_spec, ["_sha2", "_sha256"])):
            pytest.skip("this interpreter has no built-in SHA-256")
        monkeypatch.setitem(sys.modules, "hashlib", None)
    else:
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        sha256 = hashlib.sha256

        def counted(data):
            hashed.append(data)
            return sha256(data)

        monkeypatch.setattr(hashlib, "sha256", counted)
    assert {name: catalog(name).digest for name in names} == expected
    assert len(hashed) == (len(names) if route == "hashlib" else 0)


def test_wc3_named_subgroups_are_nonconjugate():
    G = catalog("wc3")
    H1 = G.subgroup_from_words(["y", "z", "xyzab"])
    H2 = G.subgroup_from_words(["y", "z", "ab"])
    assert H1.order == 8 and H2.order == 8
    assert H2.mask not in G.subgroup_class(H1).member_masks


def test_are_conjugate_subgroups():
    G = catalog("dihedral(4)")
    y = G.named_generators["y"]
    x = G.named_generators["x"]
    A = G.subgroup([y])
    B = G.subgroup([conj(x, y)])
    C = G.subgroup([x * y])
    assert B.mask in G.subgroup_class(A).member_masks
    assert C.mask not in G.subgroup_class(A).member_masks


@pytest.mark.parametrize("name", ["quaternion8", "wc3", "symmetric(4)", "symmetric(5)",
                                  "symmetric(6)", "alternating(5)", "alternating(6)",
                                  "dihedral(16)", "dihedral(30)", "cyclic(15)", "cyclic(60)",
                                  "w_d5"])
def test_subgroup_class_of_a_cyclic_subgroup_is_its_cyclic_class(name):
    # the orbit of its cached conjugates, held by the least of them, is the
    # class that the conjugation walk of `cyclic_subgroup_classes` files it in
    G = group_from_payload(W_D5) if name == "w_d5" else catalog(name)
    cyclic = {}
    for g in G.elements:
        H = G.subgroup([g])
        cyclic.setdefault(H.mask, H)
    assert len(cyclic) == sum(len(c.member_masks) for c in G.cyclic_subgroup_classes)
    for H in cyclic.values():
        assert G.subgroup_class(H) == G.cyclic_subgroup_classes[G.cyclic_class_index(H)]


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


def test_subgroup_maps_each_generator_to_its_index_once(monkeypatch):
    # the subgroup keeps its generators as indices: building it and reading
    # its generating set look each generator up once, and reading its
    # generators builds them from the indices; the generating set drops the
    # identity and repeats, the generators keep them as given
    from geosig.groups import FiniteGroup

    G = catalog("symmetric(5)")
    gens = [G.element("a"), G.element("b"), G.element("ab"), G.identity, G.element("a")]
    indices = tuple(map(G.index, gens))
    lookups = _counting(monkeypatch, FiniteGroup, "index")
    K = G.subgroup(gens)
    assert K.generating_set == indices[:3] and K.generators == tuple(gens)
    assert lookups == [(g,) for g in gens]


# -- derived columns against direct Perm composition ---------------------------

W_D5 = {"name": "w_d5", "degree": 10, "generators": {
    "a": "(1,2,3,4,5)(6,7,8,9,10)", "b": "(1,2)(6,7)", "c": "(1,6)(2,7)"}}


def _check_columns(G, sample):
    # left and right columns for each g of sample; the inverses and each
    # generator's conjugation column for every element
    E, index = G.elements, G.index
    for g in sample:
        assert G.left(g) == [index(E[g] * x) for x in E]
        assert G.right(g) == [index(x * E[g]) for x in E]
    assert G.inverses == [index(x.inverse()) for x in E]
    assert {E[t] for t in G._gens} == set(G.generators) - {G.identity}
    for t, col in zip(G._gens, G._conjugators):
        assert col == [index(conj(E[t], x)) for x in E]


def _check_subgroup(G, K):
    # the normalizer, the left cosets and the conjugates of K against their
    # definitions: the conjugates are keyed by the least element of each
    # coset t N(K), ascending, and each holds the mask of t K t^-1
    E, index, members = G.elements, G.index, K.members
    N = K.normalizer.members
    assert N == frozenset(t for t in E if frozenset(conj(t, k) for k in members) == members)
    least = {g: min(g * k for k in members) for g in E}
    reps = sorted(set(least.values()))
    coset_of, coset_reps = K.left_cosets
    assert coset_reps == tuple(map(index, reps))
    assert coset_of == [reps.index(least[g]) for g in E]
    ells = sorted({min(t * n for n in N) for t in E})
    assert list(K.conjugate_masks) == list(map(index, ells))
    for ell, mask in K.conjugate_masks.items():
        assert mask == sum(1 << index(conj(E[ell], k)) for k in members)


def _subgroups(G):
    # the cyclic-subgroup representatives, their normalizers (built from
    # members, so moved by greedy generating sets), and G itself
    cyclic = [c.representative for c in G.cyclic_subgroup_classes]
    return [*cyclic, *(K.normalizer for K in cyclic), G.subgroup(G.generators)]


@pytest.mark.parametrize("name", ["cyclic(6)", "dihedral(5)", "dihedral(6)", "quaternion8",
                                  "symmetric(4)", "alternating(4)", "wc3", "alternating(5)"])
def test_derived_columns_match_perm_composition(name):
    G = catalog(name)
    _check_columns(G, range(G.order))
    for K in _subgroups(G):
        _check_subgroup(G, K)


def test_derived_columns_on_w_d5():
    G = group_from_payload(W_D5)
    assert G.order == 1920
    _check_columns(G, range(0, G.order, 193))
    for K in G.cyclic_subgroup_classes[1::10]:
        _check_subgroup(G, K.representative)


# -- cyclic subgroups against per-subgroup power walks --------------------------


def reference_cyclic_subgroups(G):
    """The per-subgroup walks that one conjugation walk per class replaced:
    one power walk per cyclic subgroup from its least generator, by Perm
    products, and each class of cyclic subgroups read off the element class
    of a generator.  Returns cyclic_of, members and walks by mask, and the
    classes as (order, class size, members, least generator, member masks)."""
    E, index = G.elements, G.index
    cyclic_of, members, walks = [0] * G.order, {}, {}
    for g in range(G.order):
        if cyclic_of[g]:
            continue
        walk, h = [0], E[g]
        while h != G.identity:
            walk.append(index(h))
            h = h * E[g]
        s = sum(1 << x for x in walk)
        members[s], walks[s] = tuple(sorted(walk)), walk
        for k in range(len(walk)):
            if math.gcd(k, len(walk)) == 1:
                cyclic_of[walk[k]] = s
    classes, assigned = [], set()
    for g in range(G.order):
        if cyclic_of[g] in assigned:
            continue
        orbit = frozenset(cyclic_of[x] for x in G.conjugacy_classes[G.class_of[g]].indices)
        rep = min(orbit, key=members.__getitem__)
        gen = next(x for x in members[rep] if cyclic_of[x] == rep)
        classes.append((len(members[rep]), len(orbit), members[rep], gen, orbit))
        assigned |= orbit
    classes.sort(key=lambda c: c[:3])
    return cyclic_of, members, walks, classes


def assert_cyclic_subgroups_match_reference(G):
    ref_of, ref_members, ref_walks, ref_classes = reference_cyclic_subgroups(G)
    cyclic_of, walks, _ = G._cyclic_subgroups
    assert cyclic_of == ref_of
    assert {s: tuple(sorted(walk)) for s, walk in walks.items()} == ref_members
    # a walk may start at any generator walk[1] = g^a of the reference's g
    assert walks.keys() == ref_walks.keys()
    for s, walk in walks.items():
        ref, m = ref_walks[s], len(walk)
        a = ref.index(walk[1 % m])
        assert math.gcd(a, m) == 1 and walk == [ref[a * k % m] for k in range(m)]
    assert [(c.order, len(c.member_masks), c.representative.indices, c.representative.generators,
             c.representative.label, c.member_masks) for c in G.cyclic_subgroup_classes] == [
        (m, size, mem, (G.elements[gen],), str(G.elements[gen]), orbit)
        for m, size, mem, gen, orbit in ref_classes]
    assert [(c.indices, c.element_order) for c in G.merged_element_classes] == [
        (tuple(x for x in range(G.order) if ref_of[x] in orbit), m)
        for m, _, _, _, orbit in ref_classes]


def assert_power_map_matches_perm_powers(G):
    # the class of rep^k for every k in range(-m, 2m) against the class of
    # the power composed from rep's image tuple; each walk position a is a
    # unit mod m, and the classes that share a walk c are the classes of
    # merged_element_classes[c]
    class_by_image = {g.image: j for g, j in G.class_index.items()}
    identity = G.identity.image
    for j, cls in enumerate(G.conjugacy_classes):
        rep, m = cls.representative.image, cls.element_order
        want, power = [class_by_image[identity]], rep
        while power != identity:
            want.append(class_by_image[power])
            power = tuple([rep[x] for x in power])
        assert len(want) == m
        assert [G.class_power(j, k) for k in range(-m, 2 * m)] == want * 3
        c, a = G.walk_places[j]
        assert len(G.power_walks[c]) == m and math.gcd(a, m) == 1
    for c, merged in enumerate(G.merged_element_classes):
        assert {j for j, (d, _) in enumerate(G.walk_places) if d == c} == {
            G.class_of[g] for g in merged.indices}


# every catalog group up to order 120, and the larger ones up to order 720
WALK_CATALOG = ("quaternion8", "wc3", *(f"symmetric({n})" for n in range(1, 7)),
                *(f"alternating({n})" for n in range(3, 7)),
                *(f"cyclic({n})" for n in (*range(1, 121), 240, 360, 720)),
                *(f"dihedral({n})" for n in (*range(3, 61), 120, 180, 360)))


@pytest.mark.parametrize("name", WALK_CATALOG)
def test_cyclic_subgroups_match_per_subgroup_walks(name):
    assert_cyclic_subgroups_match_reference(catalog(name))


def test_cyclic_subgroups_match_per_subgroup_walks_on_w_d5():
    assert_cyclic_subgroups_match_reference(group_from_payload(W_D5))


@pytest.mark.parametrize("name", WALK_CATALOG)
def test_class_powers_match_perm_powers(name):
    assert_power_map_matches_perm_powers(catalog(name))


def test_power_map_of_cyclic_2000_holds_one_walk_per_cyclic_class():
    # one walk of length d per divisor d of 2000, sigma(2000) = 4,836
    # entries, and one (c, a) pair per conjugacy class
    G = catalog("cyclic(2000)")
    assert len(G.power_walks) == len(G.cyclic_subgroup_classes) == 20
    assert sum(map(len, G.power_walks)) == 4836 and len(G.walk_places) == 2000


def _counting(monkeypatch, owner, name):
    # every call of owner.name from now on, by its arguments
    calls, real = [], getattr(owner, name)

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cyclic_class_data_walks_powers_once_per_class(monkeypatch):
    # symmetric(6) has 362 cyclic subgroups in 11 classes; the per-subgroup
    # walks made 1,169 products, the conjugation walk one power walk per
    # class along a right column, and every conjugate is read off a column,
    # so no image tuple is composed; the identity's walk is [0], read off no
    # column, so no identity column is kept; a product afterwards shows that
    # the counter counts
    G = catalog("symmetric(6)")
    walks = _counting(monkeypatch, FiniteGroup, "_powers")
    products = _counting(monkeypatch, Perm, "__mul__")
    G.conjugacy_classes, G.cyclic_subgroup_classes, G.merged_element_classes, G.walk_places
    assert len(G._cyclic_subgroups[1]) == 362 and len(G.cyclic_subgroup_classes) == 11
    cyclic_of = G._cyclic_subgroups[0]
    assert sorted(G.cyclic_subgroup_masks[cyclic_of[g]] for (g,) in walks) == list(range(11))
    assert G._powers(0) == [0] and 0 not in G._right and 0 not in G._left
    assert products == []
    G.elements[1] * G.elements[1]
    assert len(products) == 1


@pytest.mark.parametrize("name", ["symmetric(6)", "cyclic(720)", "dihedral(360)"])
def test_class_data_reads_integer_columns_only(monkeypatch, name):
    # the element classes, their orders, the power map and the exponent come
    # from the conjugation orbits and the power walks: no image tuple is
    # composed and no Perm is asked for its order or cycles; the cyclic
    # classes' labels are cycle notation, one Perm.cycles call each
    G = catalog(name)
    products = _counting(monkeypatch, Perm, "__mul__")
    orders = _counting(monkeypatch, Perm, "order")
    cycles = _counting(monkeypatch, Perm, "cycles")
    G.conjugacy_classes, G.class_of, G.power_walks, G.walk_places, G.exponent
    assert products == orders == cycles == []
    G.cyclic_subgroup_classes, G.merged_element_classes
    assert products == orders == [] and len(cycles) == len(G.cyclic_subgroup_classes)
    G.elements[1] * G.elements[1], G.elements[1].order()  # the counters count
    assert len(products) == len(orders) == 1


def assert_classes_match_perm_conjugation(G):
    # each class is the orbit of its representative under conjugation by
    # the generators, by Perm products, and each member has the class's order
    pairs = [(t, t.inverse()) for t in G.generators]
    for cls in G.conjugacy_classes:
        orbit = {cls.representative}
        queue = [cls.representative]
        for g in queue:
            for t, t_inv in pairs:
                h = t * g * t_inv
                if h not in orbit:
                    orbit.add(h)
                    queue.append(h)
        members = [G.elements[i] for i in cls.indices]
        assert set(members) == orbit and len(members) == cls.size
        assert {g.order() for g in members} == {cls.element_order}


@pytest.mark.parametrize("name", WALK_CATALOG)
def test_classes_and_element_orders_match_perms(name):
    assert_classes_match_perm_conjugation(catalog(name))


def test_classes_and_element_orders_match_perms_on_w_d5():
    assert_classes_match_perm_conjugation(group_from_payload(W_D5))


def test_unfiled_cyclic_subgroups_are_a_defect(monkeypatch):
    # a power walk that drops its last power walks <g> of an involution g as
    # the trivial subgroup, so g is left unfiled
    G = catalog("symmetric(4)")
    real = FiniteGroup._powers
    monkeypatch.setattr(FiniteGroup, "_powers", lambda self, g: real(self, g)[:-1] or [0])
    with pytest.raises(InternalCheckError,
                       match="^the cyclic subgroups file 28 generators for 24 elements, "
                             "6 unfiled$"):
        G._cyclic_subgroups


def test_no_column_is_walked_twice(monkeypatch):
    # a walk is its tree, its start and the columns it reads: the class
    # matrices, the left cosets, the normalizers and the conjugate masks read
    # each left and right column from the one walk that built it, a second
    # table and a second subgroup object over the same members walk nothing
    # again, and a generator's right column is the build's own
    from collections import Counter

    from geosig import groups
    from geosig.chartable import compute_table

    real, walks, held = groups._tree_walk, Counter(), []

    def counted(start, tree, columns):
        held.append((tree, columns))  # no id is reused while counted
        walks[start, id(tree), id(columns)] += 1
        return real(start, tree, columns)
    monkeypatch.setattr(groups, "_tree_walk", counted)
    G = catalog("symmetric(5)")
    for _ in range(2):
        compute_table(G)
        for K in _subgroups(G):
            again = Subgroup._trusted(G, K.indices, None, None)
            assert K.left_cosets == again.left_cosets
            assert K.conjugate_masks == again.conjugate_masks
    assert len(G._right) > len(G._gens) and G._left
    assert max(walks.values()) == 1
    kept = [(g, id(G._right_tree), id(G._times)) for g in G._left]
    kept += [(g, *map(id, G._left_tree)) for g in G._right if g not in G._gens]
    assert {walks[k] for k in kept} == {1}
    assert all(G.right(s) is col for s, col in zip(G._gens, G._times))


def test_exhaustive_search_keeps_at_most_one_column_per_element():
    # kept columns are bounded by |G| per side, 2*|G|^2*8 bytes of list
    # slots: a search that exhausts symmetric(4) (2; [2,b]) reads a right
    # column for each product and each generation test, and keeps no more
    from corpus import geometric_signature
    from geosig.signature import find_generating_vector

    G = catalog("symmetric(4)")
    assert find_generating_vector(G, geometric_signature(G, 2, ("b",))) is None
    assert len(G._right) <= G.order and len(G._left) <= G.order


def test_build_keeps_no_copy_of_each_product():
    # eight generators of a cyclic group of degree 500: the closure makes
    # 8 * 500 products, and the group should hold about one image tuple
    # per element at its peak, not one per product
    import sys
    import tracemalloc

    n = 500
    gens = {f"c{k}": Perm([(i + k) % n for i in range(n)]) for k in (1, 3, 7, 9, 11, 13, 17, 19)}
    tracemalloc.start()
    try:
        G = FiniteGroup(n, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == n
    images = sum(map(sys.getsizeof, (g.image for g in G.elements)))
    assert peak < 2 * images


def test_derived_columns_on_random_groups():
    pytest.importorskip("hypothesis")  # a test-only dependency
    from hypothesis import given, settings, strategies as st

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=0, max_size=3)))
    def check(images):
        degree = len(images[0]) if images else 3
        G = group_from_payload({
            "degree": degree,
            "generators": {f"g{i}": str(Perm(img)) for i, img in enumerate(images)} or {"e": "()"},
        })
        _check_columns(G, range(G.order))
        for K in _subgroups(G):
            _check_subgroup(G, K)

    check()
