import itertools
from fractions import Fraction

import pytest

from geosig.errors import (
    GroupInputError,
    InvalidSignatureError,
    SearchBudgetExceeded,
)
from geosig.groups import MAX_QUOTIENT_GENUS, FiniteGroup, Perm, catalog
from geosig.signature import (
    BranchEntry,
    GeneratingVector,
    GeometricSignature,
    VectorCheck,
    _candidate_pool,
    find_generating_vector,
    orbit_packages,
    refinements,
    riemann_hurwitz_genus,
    signature_from_payload,
    signature_genus,
    verify_generating_vector,
)

from corpus import conj, geometric_signature


def plain(gamma, *orders):
    return GeometricSignature(gamma, tuple(BranchEntry(m) for m in orders))


def test_riemann_hurwitz_values():
    assert riemann_hurwitz_genus(8, 0, [4, 2, 2]) == 0
    assert riemann_hurwitz_genus(48, 0, [6, 4, 2]) == 3
    assert riemann_hurwitz_genus(4, 1, [2, 2]) == 3
    assert riemann_hurwitz_genus(12, 2, []) == 13


def test_riemann_hurwitz_invalid():
    with pytest.raises(InvalidSignatureError) as err:
        riemann_hurwitz_genus(8, 0, [2])  # g = -8 + 1 + 2
    assert str(err.value) == "branching data gives negative genus -5"
    with pytest.raises(InvalidSignatureError, match="^branching data gives non-integral "
                                                    "genus -13/3$"):
        riemann_hurwitz_genus(8, 0, [3])  # g = -8 + 1 + 8/3, reduced by gcd(-26, 6)
    with pytest.raises(InvalidSignatureError):
        riemann_hurwitz_genus(8, 0, [])  # negative genus
    with pytest.raises(GroupInputError):
        riemann_hurwitz_genus(8, 0, [1])
    with pytest.raises(GroupInputError):
        riemann_hurwitz_genus(8, -1, [])


def test_quotient_genus_cap():
    # refused before any search: product(..., repeat=2 * genus) overflows
    # for a genus of 10**23
    G = catalog("cyclic(2)")
    assert GeometricSignature(MAX_QUOTIENT_GENUS).quotient_genus == MAX_QUOTIENT_GENUS
    for genus in (MAX_QUOTIENT_GENUS + 1, 10 ** 23):
        with pytest.raises(GroupInputError, match="exceeds the supported cap of 2000"):
            GeometricSignature(genus)
        with pytest.raises(GroupInputError, match="exceeds the supported cap of 2000"):
            signature_from_payload(G, {"genus": genus, "branches": []})


def test_d4_sphere_action_found():
    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    vec = find_generating_vector(G, sig)
    assert vec is not None
    assert verify_generating_vector(G, sig, vec).ok
    # c = (x, y, xy) is itself a witness
    witness = GeneratingVector((), (), (G.element("x"), G.element("y"), G.element("xy")))
    assert verify_generating_vector(G, sig, witness).ok


def test_d4_central_signature_not_found():
    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "x^2", "x^2"))
    assert find_generating_vector(G, sig) is None


def test_d4_negative_case_matches_brute_force():
    # independent oracle: enumerate all |G|^3 triples
    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "x^2", "x^2"))
    hits = []
    for c in itertools.product(G.elements, repeat=3):
        vec = GeneratingVector((), (), c)
        try:
            if verify_generating_vector(G, sig, vec).ok:
                hits.append(vec)
        except GroupInputError:
            pass
    assert hits == []


def test_exhaustive_agreement_small_groups():
    # for |G| <= 16, genus 0, t <= 4: search verdict matches brute force
    for name in ("cyclic(8)", "dihedral(4)", "quaternion8", "dihedral(8)"):
        G = catalog(name)
        for orders in ([2, 2, 2], [4, 4, 2], [2, 2, 2, 2]):
            try:
                riemann_hurwitz_genus(G.order, 0, orders)
            except InvalidSignatureError:
                continue
            sig = plain(0, *orders)
            found = find_generating_vector(G, sig)
            brute = None
            for c in itertools.product(G.elements, repeat=len(orders)):
                vec = GeneratingVector((), (), c)
                if verify_generating_vector(G, sig, vec).ok:
                    brute = vec
                    break
            assert (found is None) == (brute is None), (name, orders)


def test_wc3_known_witnesses():
    G = catalog("wc3")
    sig1 = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    sig2 = geometric_signature(G, 0, ("xa^2", "yab", "yzab"))
    assert signature_genus(G, sig1) == 3
    assert signature_genus(G, sig2) == 3

    w1 = GeneratingVector((), (), tuple(G.element(w) for w in ("xa^2", "xyab", "xyzb")))
    assert verify_generating_vector(G, sig1, w1).ok

    w2 = GeneratingVector((), (), tuple(G.element(w) for w in ("xa^2", "zab", "b")))
    assert verify_generating_vector(G, sig2, w2).ok

    # the two signatures are genuinely different: swapping witnesses fails
    check = verify_generating_vector(G, sig2, w1)
    assert not check.ok and not check.classes_ok

    found = find_generating_vector(G, sig1)
    assert found is not None and verify_generating_vector(G, sig1, found).ok


def test_verify_reports_failing_condition():
    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    bad_product = GeneratingVector((), (), (G.element("x"), G.element("y"), G.element("x^2*y")))
    check = verify_generating_vector(G, sig, bad_product)
    assert not check.ok
    assert (check.orders_ok, check.classes_ok, check.product_ok, check.generates) == (
        True, False, False, True)

    # all-identity c vector has wrong orders and generates nothing
    ident = GeneratingVector((), (), (G.identity,) * 3)
    check = verify_generating_vector(G, sig, ident)
    assert not check.orders_ok and not check.generates

    with pytest.raises(GroupInputError):
        verify_generating_vector(G, sig, GeneratingVector((), (), ()))


def test_positive_genus_search():
    G = catalog("cyclic(4)")
    sig = geometric_signature(G, 1, ("x^2", "x^2"))
    vec = find_generating_vector(G, sig)
    assert vec is not None
    assert len(vec.a) == 1 and len(vec.b) == 1
    assert verify_generating_vector(G, sig, vec).ok


def test_unbranched_genus2_search():
    G = catalog("dihedral(4)")
    sig = GeometricSignature(2)
    vec = find_generating_vector(G, sig)
    assert vec is not None
    assert verify_generating_vector(G, sig, vec).ok
    assert signature_genus(G, sig) == 9


def test_budget_exhaustion_is_distinct():
    G = catalog("wc3")
    sig = plain(2, 2, 2)
    with pytest.raises(SearchBudgetExceeded):
        find_generating_vector(G, sig, budget=10)


def test_long_signature_needs_no_deep_recursion():
    # a search that recursed once per branch value raised RecursionError
    # from about 990 branch values; 1,200 transpositions of S3 are realizable
    G = catalog("symmetric(3)")
    sig = signature_from_payload(
        G, {"genus": 0, "branches": [{"order": 2, "class_rep": "b"}] * 1200})
    vec = find_generating_vector(G, sig)
    assert vec is not None and verify_generating_vector(G, sig, vec).ok


@pytest.mark.parametrize("name, gamma, words, nodes, witness", [
    ("symmetric(4)", 1, ("b", "b"), 48,
     {"a": ["()"], "b": ["(2,3,4)"], "c": ["(1,2)", "(1,2)"]}),
    ("symmetric(4)", 0, ("(1,2)(3,4)", "(3,4)", "(1,2)(3,4)", "(2,3,4)"), 129, None),
    ("symmetric(3)", 1, (), 72, None),
    ("quaternion8", 2, (), 26,
     {"a": ["()", "()"], "b": ["(1,2,3,4)(5,6,7,8)", "(1,5,3,7)(2,8,4,6)"], "c": []}),
    ("dihedral(4)", 1, ("y", "y"), 13,
     {"a": ["()"], "b": ["(1,2)(3,4)"], "c": ["(2,4)", "(2,4)"]}),
    ("symmetric(3)", 1, ("a",), 18, {"a": ["(2,3)"], "b": ["(1,2)"], "c": ["(1,2,3)"]}),
    ("symmetric(4)", 0, ("b",) * 4, 474, None),
])
def test_search_spends_the_recursive_node_count(name, gamma, words, nodes, witness):
    # the nodes a whole search spends: one per complete handle tuple, one
    # per c candidate and one per leaf, as the recursive backtrack spent
    # them; one budget short runs out
    G = catalog(name)
    sig = geometric_signature(G, gamma, words)
    with pytest.raises(SearchBudgetExceeded):
        find_generating_vector(G, sig, budget=nodes - 1)
    vec = find_generating_vector(G, sig, budget=nodes)
    assert (vec and vec.to_json()) == witness


def test_search_reads_no_identity_column():
    # a handle with a_i or b_i the identity has the identity for its
    # commutator, so the search leaves the running product as it is and
    # neither walks nor keeps the identity's column; the witness has a_1 = ()
    G = catalog("symmetric(4)")
    vec = find_generating_vector(G, geometric_signature(G, 1, ("b", "b")))
    assert vec.a == (G.identity,)
    assert 0 not in G._right and 0 not in G._left


@pytest.mark.parametrize("gamma, words, built", [(1, ("b", "b"), 1), (0, ("b",) * 4, 0)])
def test_search_reads_columns_and_builds_only_the_returned_vector(monkeypatch, gamma, words,
                                                                 built):
    # products are column reads, so no image tuple is composed; the
    # generation test reads indices, so no element is looked up by its
    # permutation; and a GeneratingVector is built for the returned vector
    # alone.  Calls afterwards show that the counters count
    import geosig.signature as signature

    G = catalog("symmetric(4)")
    sig = geometric_signature(G, gamma, words)
    calls = {"product": 0, "index": 0, "vector": 0}

    def counted(key, real):
        def call(*args):
            calls[key] += 1
            return real(*args)
        return call

    monkeypatch.setattr(Perm, "__mul__", counted("product", Perm.__mul__))
    monkeypatch.setattr(FiniteGroup, "index", counted("index", FiniteGroup.index))
    monkeypatch.setattr(signature, "GeneratingVector",
                        counted("vector", signature.GeneratingVector))
    found = find_generating_vector(G, sig)
    assert (found is not None) == bool(built)
    assert calls == {"product": 0, "index": 0, "vector": built}
    G.index(G.elements[1] * G.elements[1])
    assert calls == {"product": 1, "index": 1, "vector": built}


def test_branch_tag_is_the_one_name_of_a_class():
    # the text form, the JSON form and the cover reports all name a classed
    # entry by its tag: its label, else its class representative's
    from geosig.covers import cover_report

    G = catalog("symmetric(4)")
    labelled = geometric_signature(G, 0, ("b", "ab", "a"))
    refined = refinements(G, plain(0, 2, 3, 4))[0]
    assert [e.tag for e in labelled.entries] == ["b", "ab", "a"]
    assert [e.tag for e in refined.entries] == [
        str(e.cls.representative.generators[0]) for e in refined.entries]
    for sig in (labelled, refined):
        tags = [e.tag for e in sig.entries]
        assert str(sig) == "(0; " + ", ".join(
            f"[{e.order},<{tag}>]" for e, tag in zip(sig.entries, tags)) + ")"
        assert [b["class_rep"] for b in sig.to_json()["branches"]] == tags
        assert list(cover_report(G, sig, G.subgroup(G.generators)).branch_types) == tags


def test_conjugated_vector_stays_valid():
    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    vec = find_generating_vector(G, sig)
    for t in G.elements:
        moved = GeneratingVector(
            tuple(conj(t, g) for g in vec.a),
            tuple(conj(t, g) for g in vec.b),
            tuple(conj(t, g) for g in vec.c),
        )
        assert verify_generating_vector(G, sig, moved).ok


def test_witness_check_shares_no_closure_with_the_search(monkeypatch):
    # the witness check tests generation by a closure of its own and <c_j>
    # by Perm powers: with the kernel's closure and generation test out of
    # reach, it still passes the search's witness and refuses a vector
    # that generates a proper subgroup
    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    vec = find_generating_vector(G, sig)
    x = G.element("x")
    cyclic = geometric_signature(G, 0, ("x", "x", "x^2"))
    proper = GeneratingVector((), (), (x, x, x * x))

    def shared(*args):
        raise AssertionError("the witness check ran the search's closure")

    monkeypatch.setattr(FiniteGroup, "_generated", shared)
    monkeypatch.setattr(FiniteGroup, "generates", shared)
    assert verify_generating_vector(G, sig, vec).ok
    assert verify_generating_vector(G, cyclic, proper) == VectorCheck(True, True, True, False)


def test_plain_entry_pool_is_every_element_of_that_order():
    for name in ("wc3", "symmetric(5)", "alternating(5)", "dihedral(12)", "cyclic(30)",
                 "quaternion8"):
        G = catalog(name)
        for m in sorted({g.order() for g in G.elements} - {1}) + [7]:
            want = tuple(i for i, g in enumerate(G.elements) if g.order() == m)
            assert _candidate_pool(G, BranchEntry(m, None)) == want, (name, m)


def test_orbit_packages():
    G = catalog("dihedral(4)")
    P = G.subgroup([G.element("y")])
    assert orbit_packages(G, P) == (2, 2)
    X = G.subgroup([G.element("x")])  # normal
    assert orbit_packages(G, X) == (1, 2)
    with pytest.raises(GroupInputError):
        orbit_packages(G, G.subgroup([]))

    W = catalog("wc3")
    P = W.subgroup([W.element("xyzb")])
    count, size = orbit_packages(W, P)
    assert count * size * P.order == W.order


def test_refinements_plain_signature():
    G = catalog("dihedral(4)")
    sig = plain(0, 4, 2, 2)
    refined = refinements(G, sig)
    # one order-4 class, three order-2 classes -> 1 * 3 * 3 combinations
    assert len(refined) == 9
    assert all(r.is_geometric for r in refined)
    # no order-3 elements in D4
    assert refinements(G, plain(0, 3, 3)) == ()


def test_signature_payload_parsing():
    G = catalog("dihedral(4)")
    sig = signature_from_payload(
        G, {"genus": 0, "branches": [
            {"order": 4, "class_rep": "x"},
            {"order": 2, "class_rep": "y"},
            {"order": 2, "class_rep": "xy"},
        ]}
    )
    assert sig.is_geometric
    assert sig.orders == (4, 2, 2)
    assert str(sig) == "(0; [4,<x>], [2,<y>], [2,<xy>])"
    plain_sig = signature_from_payload(G, {"genus": 1, "branches": [{"order": 2}]})
    assert not plain_sig.is_geometric
    with pytest.raises(GroupInputError):
        signature_from_payload(G, {"genus": 0, "branches": [{"order": 4, "class_rep": "y"}]})
    with pytest.raises(GroupInputError):
        signature_from_payload(G, {"branches": []})
    roundtrip = signature_from_payload(G, sig.to_json())
    assert roundtrip == sig
    # to_json writes only the keys signature_from_payload accepts
    mixed = signature_from_payload(G, {"genus": 0, "branches": [
        {"order": 4, "class_rep": "x"}, {"order": 2}]}).to_json()
    assert set(mixed) == {"genus", "branches"}
    assert [set(b) for b in mixed["branches"]] == [{"order", "class_rep"}, {"order"}]


@pytest.mark.parametrize("payload,key", [
    ({"genus": 0, "brnches": [{"order": 4, "class_rep": "x"}]}, "key 'brnches'"),
    ({"genus": 0, "branches": [{"order": 4, "clas_rep": "x"}, {"order": 2}, {"order": 2}]},
     "key 'clas_rep'"),
    ({"genus": 1, "branches": [], "note": 1, "gamma": 0}, "keys 'note', 'gamma'"),
], ids=["signature", "branch", "two-keys"])
def test_signature_payload_refuses_unknown_keys(payload, key):
    # a misspelled key must not read as an absent one: "brnches" would leave
    # a sphere with no branch values, a negative genus, and "clas_rep" a plain
    # branch entry
    G = catalog("dihedral(4)")
    with pytest.raises(GroupInputError, match=f"unknown {key};"):
        signature_from_payload(G, payload)


def _foreign_cases():
    # symmetric(5) against a signature or a subgroup built on symmetric(4):
    # each entry point refuses it as malformed input, never a verdict
    from geosig import covers, jacobian, monodromy
    from geosig.chartable import compute_table
    from geosig.groups import double_coset_count

    S5, S4 = catalog("symmetric(5)"), catalog("symmetric(4)")
    sig4 = geometric_signature(S4, 0, ("b", "a", "a"))
    sig5 = geometric_signature(S5, 0, ("b", "a", "a"))
    H4, e5 = S4.subgroup_from_words(["b"]), S5.subgroup([])
    vec5 = GeneratingVector((), (), tuple(S5.element(w) for w in ("b", "a", "a")))
    table5 = lambda: compute_table(S5)  # noqa: E731
    return {
        "marked_points": lambda: covers.marked_points(S5, sig4, e5),
        "marked_points_subgroup": lambda: covers.marked_points(S5, sig5, H4),
        "cycle_structure": lambda: covers.cycle_structure(S5, sig4, e5),
        "quotient_genus": lambda: covers.quotient_genus(S5, sig5, H4),
        "cover_report": lambda: covers.cover_report(S5, sig4, e5),
        "transversal_partition": lambda: covers.transversal_partition(S5, sig5, H4, 0),
        "lattice_report": lambda: covers.lattice_report(S5, sig4),
        "lattice_report_subgroup": lambda: covers.lattice_report(S5, sig5, [H4]),
        "double_coset_count": lambda: double_coset_count(S5, H4, e5),
        "complex_multiplicities": lambda: jacobian.complex_multiplicities(S5, table5(), sig4),
        "factor_dimensions": lambda: jacobian.factor_dimensions(S5, table5(), sig4),
        "gamma1_analysis": lambda: jacobian.gamma1_analysis(
            S5, table5(), geometric_signature(S4, 1, ("b", "b"))),
        "table_of_another_group": lambda: jacobian.complex_multiplicities(
            S5, compute_table(S4), sig5),
        "omega_table_of_another_group": lambda: jacobian.solve_omega_system(
            S5, compute_table(S4), [0] * len(S5.cyclic_subgroup_classes)),
        "fixed_dim": lambda: table5().fixed_dim(table5().characters[1], H4),
        "find_generating_vector": lambda: find_generating_vector(S5, sig4),
        "verify_generating_vector": lambda: verify_generating_vector(S5, sig4, vec5),
        "orbit_packages": lambda: orbit_packages(S5, H4),
        "coset_action": lambda: monodromy.coset_action(S5, H4, vec5),
        "cyclic_class_index": lambda: S5.cyclic_class_index(H4),
        "subgroup_class": lambda: S5.subgroup_class(H4),
    }


@pytest.mark.parametrize("entry_point", sorted(_foreign_cases()))
def test_input_from_another_group_is_malformed(entry_point):
    with pytest.raises(GroupInputError, match="belongs to another group"):
        _foreign_cases()[entry_point]()


def test_search_builds_no_element_classes():
    # the signature's classes, the candidate pools and the generation test
    # read the power walks of the cyclic subgroups alone: an existence
    # search on a fresh group builds no conjugacy classes, nor `class_of`,
    # the one numbering of them
    G = catalog("symmetric(5)")
    sig = signature_from_payload(G, {"genus": 0, "branches": [
        {"order": 2, "class_rep": "b"}, {"order": 4}, {"order": 5, "class_rep": "a"}]})
    assert find_generating_vector(G, sig) is not None
    assert "conjugacy_classes" not in vars(G) and "class_of" not in vars(G)
