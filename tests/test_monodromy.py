import pytest

from geosig.covers import cycle_structure, quotient_genus
from geosig.errors import InternalCheckError
from geosig.groups import Perm, catalog
from geosig.monodromy import coset_action, oracle_summary
from geosig.signature import (
    GeneratingVector,
    GeometricSignature,
    find_generating_vector,
    verify_generating_vector,
)

from corpus import geometric_signature


def test_coset_action_shapes():
    G = catalog("cyclic(4)")
    sig = geometric_signature(G, 1, ("x^2", "x^2"))
    vec = find_generating_vector(G, sig)
    H = G.subgroup_from_words(["x^2"])
    action = coset_action(G, H, vec)
    assert action.degree == 2
    # x^2 lies in H, so both branch images fix every coset
    assert all(img.is_identity() for img in action.c_images)

    full = coset_action(G, G.subgroup(G.generators), vec)
    assert full.degree == 1
    regular = coset_action(G, G.subgroup([]), vec)
    assert regular.degree == 4


def test_coset_action_is_homomorphism_and_transitive():
    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    vec = find_generating_vector(G, sig)
    for cls in G.cyclic_subgroup_classes:
        H = cls.representative
        action = coset_action(G, H, vec)
        # product of all images must equal the image of the product (identity)
        prod = action.c_images[0]
        for img in action.c_images[1:]:
            prod = prod * img
        assert prod.is_identity()
        # transitivity: the orbit of coset 0 is everything
        orbit = {0}
        frontier = [0]
        images = action.a_images + action.b_images + action.c_images
        while frontier:
            p = frontier.pop()
            for img in images:
                q = img(p)
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        assert orbit == set(range(action.degree))


@pytest.mark.parametrize("name", ["cyclic(6)", "dihedral(5)", "dihedral(6)", "quaternion8",
                                  "symmetric(3)", "symmetric(4)", "alternating(4)", "wc3",
                                  "alternating(5)"])
def test_coset_action_matches_perm_products(name):
    # the images read r*g as (g^-1 * r^-1)^-1 from left columns; here every
    # element's image is the right coset H*r*g built from Perm products
    G = catalog(name)
    every = GeneratingVector((), (), G.elements)
    cyclic = [c.representative for c in G.cyclic_subgroup_classes]
    for H in [*cyclic, G.subgroup([]), G.subgroup(G.generators)]:
        coset = {g: frozenset(h * g for h in H.members) for g in G.elements}
        cosets = sorted(set(coset.values()), key=min)
        number = {c: i for i, c in enumerate(cosets)}
        action = coset_action(G, H, every)
        assert action.cosets == tuple(map(min, cosets))
        for g, image in zip(G.elements, action.c_images, strict=True):
            assert image == Perm(number[coset[r * g]] for r in action.cosets)


def test_oracle_matches_cyclic4_torus_example():
    G = catalog("cyclic(4)")
    sig = geometric_signature(G, 1, ("x^2", "x^2"))
    vec = find_generating_vector(G, sig)
    H = G.subgroup_from_words(["x^2"])
    data = oracle_summary(G, H, vec, 1)
    assert data["genus"] == 1
    assert data["cycle_structures"] == [[1, 1], [1, 1]]


def test_oracle_matches_d4_sphere():
    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    vec = find_generating_vector(G, sig)
    data = oracle_summary(G, G.subgroup([]), vec, 0)
    assert data["genus"] == 0
    # regular action of c_j: |G|/m_j cycles of length m_j
    cts = data["cycle_structures"]
    assert cts[0] == [4, 4]
    assert cts[1] == [2, 2, 2, 2]


def test_oracle_trivial_cases():
    G = catalog("symmetric(3)")
    sig = GeometricSignature(2)
    vec = find_generating_vector(G, sig)
    for cls in G.cyclic_subgroup_classes:
        H = cls.representative
        assert oracle_summary(G, H, vec, 2)["genus"] == H.index * (2 - 1) + 1
    full = coset_action(G, G.subgroup(G.generators), vec)
    assert all(img.is_identity() for img in full.a_images + full.b_images)


def test_oracle_agrees_with_covers_on_examples():
    cases = [
        ("dihedral(4)", 0, ("x", "y", "xy")),
        ("wc3", 0, ("xa^2", "xyab", "xyzb")),
        ("wc3", 0, ("xa^2", "yab", "yzab")),
        ("cyclic(4)", 1, ("x^2", "x^2")),
    ]
    for name, gamma, words in cases:
        G = catalog(name)
        sig = geometric_signature(G, gamma, words)
        vec = find_generating_vector(G, sig)
        assert vec is not None
        for cls in G.cyclic_subgroup_classes:
            H = cls.representative
            data = oracle_summary(G, H, vec, gamma)
            assert data["genus"] == quotient_genus(G, sig, H)
            want = [list(c) for c in cycle_structure(G, sig, H)]
            assert data["cycle_structures"] == want


def test_oracle_independent_of_witness():
    # every witness of one signature yields identical oracle data
    import itertools

    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    witnesses = []
    for c in itertools.product(G.elements, repeat=3):
        vec = GeneratingVector((), (), c)
        if verify_generating_vector(G, sig, vec).ok:
            witnesses.append(vec)
    assert len(witnesses) > 1
    reference = None
    for cls in G.cyclic_subgroup_classes:
        H = cls.representative
        data = [oracle_summary(G, H, vec, 0) for vec in witnesses]
        assert all(d == data[0] for d in data)


def test_oracle_summary_payload():
    G = catalog("cyclic(4)")
    sig = geometric_signature(G, 1, ("x^2", "x^2"))
    vec = find_generating_vector(G, sig)
    H = G.subgroup_from_words(["x^2"])
    data = oracle_summary(G, H, vec, 1)
    assert data == {"genus": 1, "cycle_structures": [[1, 1], [1, 1]]}


@pytest.mark.parametrize("element, message", [
    # a transposition acts on the 6 cosets of the trivial subgroup as three
    # 2-cycles: Euler characteristic 6 * 2 - 3 = 9
    ("b", "coset action gives an odd Euler characteristic 9"),
    # the identity ramifies nowhere: Euler characteristic 12, genus 1 - 6
    ("()", "coset action gives negative genus -5"),
], ids=["b-odd Euler characteristic 9", "()-negative genus -5"])
def test_oracle_refuses_an_impossible_euler_characteristic(element, message):
    # (c,) is no generating vector: the oracle's own checks catch its counts
    G = catalog("symmetric(3)")
    vec = GeneratingVector((), (), (G.element(element),))
    with pytest.raises(InternalCheckError, match=f"^{message}$"):
        oracle_summary(G, G.subgroup([]), vec, 0)
