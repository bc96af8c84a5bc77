import pytest

from geosig import covers
from geosig.covers import (
    MarkedPointSet,
    cover_report,
    cycle_structure,
    lattice_report,
    marked_points,
    quotient_genus,
    transversal_partition,
)
from geosig.errors import GroupInputError, InternalCheckError, InvalidSignatureError
from geosig.groups import Perm, catalog
from geosig.signature import (
    BranchEntry,
    GeometricSignature,
    signature_genus,
)

from corpus import CORPUS, geometric_signature, materialize


def test_trivial_subgroup_recovers_total_genus():
    for name, gamma, words in [
        ("dihedral(4)", 0, ("x", "y", "xy")),
        ("cyclic(4)", 1, ("x^2", "x^2")),
        ("wc3", 0, ("xa^2", "xyab", "xyzb")),
    ]:
        G = catalog(name)
        sig = geometric_signature(G, gamma, words)
        assert quotient_genus(G, sig, G.subgroup([])) == signature_genus(G, sig)


def test_full_subgroup_recovers_quotient_genus():
    G = catalog("wc3")
    sig = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    assert quotient_genus(G, sig, G.subgroup(G.generators)) == 0
    G2 = catalog("cyclic(4)")
    sig2 = geometric_signature(G2, 1, ("x^2", "x^2"))
    assert quotient_genus(G2, sig2, G2.subgroup(G2.generators)) == 1


def test_wc3_named_subgroup_quotient_genera():
    G = catalog("wc3")
    H1 = G.subgroup_from_words(["y", "z", "xyzab"])
    H2 = G.subgroup_from_words(["y", "z", "ab"])
    sig1 = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    sig2 = geometric_signature(G, 0, ("xa^2", "yab", "yzab"))
    assert quotient_genus(G, sig1, H1) == 0
    assert quotient_genus(G, sig1, H2) == 1
    assert quotient_genus(G, sig2, H1) == 1
    assert quotient_genus(G, sig2, H2) == 0


def test_cyclic4_degree_two_unramified_cover():
    G = catalog("cyclic(4)")
    sig = geometric_signature(G, 1, ("x^2", "x^2"))
    H = G.subgroup_from_words(["x^2"])
    assert quotient_genus(G, sig, H) == 1
    marks = marked_points(G, sig, H)
    assert [[(m.mark, m.count) for m in over] for over in marks] == [
        [(2, 2)], [(2, 2)],
    ]
    cycles = cycle_structure(G, sig, H)
    assert cycles == ((1, 1), (1, 1))


def test_marked_points_trivial_subgroup():
    # identity cover: |G|/m_j points over branch value j, stabilizer trivial
    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    marks = marked_points(G, sig, G.subgroup([]))
    assert [[(m.mark, m.count) for m in over] for over in marks] == [
        [(1, 2)],   # 8/4 points
        [(1, 4)],   # 8/2 points
        [(1, 4)],
    ]
    cycles = cycle_structure(G, sig, G.subgroup([]))
    assert cycles[0] == (4, 4)
    assert cycles[1] == (2, 2, 2, 2)
    assert cycles[2] == (2, 2, 2, 2)


def test_marked_points_full_subgroup():
    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    marks = marked_points(G, sig, G.subgroup(G.generators))
    assert [[(m.mark, m.count) for m in over] for over in marks] == [
        [(4, 1)], [(2, 1)], [(2, 1)],
    ]
    cycles = cycle_structure(G, sig, G.subgroup(G.generators))
    assert cycles == ((1,), (1,), (1,))


def test_transversal_partition_examples():
    G = catalog("dihedral(4)")
    # normal G_j: single set of size 1
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    part = transversal_partition(G, sig, G.subgroup([]), 0)
    assert len(part.sets) == 1 and part.sets[0] == (G.identity,)
    # [2,<y>] against H = <x^2>: both conjugates of <y> meet H trivially
    H = G.subgroup_from_words(["x^2"])
    part = transversal_partition(G, sig, H, 1)
    assert len(part.sets) == 1
    assert len(part.sets[0]) == 2
    assert part.intersection_sizes == (1,)
    # partition always covers the transversal of the normalizer
    for j in range(3):
        part = transversal_partition(G, sig, H, j)
        Gj = sig.entries[j].cls.representative
        assert sum(len(s) for s in part.sets) == G.order // Gj.normalizer.order


@pytest.mark.parametrize("j", [-1, 3])
def test_transversal_partition_refuses_a_position_outside_the_signature(j):
    # the README signature has t = 3 branch values, at positions 0..2: -1
    # would read the last one and 3 would index past the end
    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    with pytest.raises(GroupInputError, match=f"^branch position {j} out of range 0..2 "
                                              "of the signature's 3 branch values$"):
        transversal_partition(G, sig, G.subgroup([]), j)


def test_marks_follow_from_the_transversal_partition():
    # the L_k whose conjugates meet H in k elements give
    # |L_k|·|N(G_j):G_j|·k/|H| points marked k over branch value j, in the
    # order of the partition; N(G_j) is built here, never by the engine
    pairs = 0
    for case in CORPUS:
        G, sig, subs = materialize(case)
        for report in lattice_report(G, sig, subs):
            H = report.subgroup
            marks = marked_points(G, sig, H)
            assert len(marks) == len(sig.entries)
            for j, entry in enumerate(sig.entries):
                Gj = entry.cls.representative
                ratio = Gj.normalizer.order // Gj.order
                part = transversal_partition(G, sig, H, j)
                want = [(k, len(L) * ratio * k // H.order)
                        for L, k in zip(part.sets, part.intersection_sizes)]
                assert [(m.mark, m.count) for m in marks[j]] == want, (case, H.label, j)
                pairs += 1
    assert pairs >= 279


def test_cycle_structure_accounts_for_all_sheets():
    G = catalog("wc3")
    sig = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    for cls in G.cyclic_subgroup_classes:
        H = cls.representative
        for c in cycle_structure(G, sig, H):
            assert sum(c) == H.index


def test_genus_satisfies_riemann_hurwitz_from_cycles():
    # recompute the ramification divisor of S/H -> S/G from the cycle entries
    for name, gamma, words in [
        ("dihedral(4)", 0, ("x", "y", "xy")),
        ("wc3", 0, ("xa^2", "yab", "yzab")),
        ("cyclic(4)", 1, ("x^2", "x^2")),
    ]:
        G = catalog(name)
        sig = geometric_signature(G, gamma, words)
        for cls in G.cyclic_subgroup_classes:
            H = cls.representative
            idx = H.index
            b = sum(
                sum(e - 1 for e in c)
                for c in cycle_structure(G, sig, H)
            )
            expected = idx * (gamma - 1) + 1 + b // 2
            assert b % 2 == 0
            assert quotient_genus(G, sig, H) == expected


def test_unramified_signature_report():
    G = catalog("symmetric(3)")
    sig = GeometricSignature(2)
    reports = lattice_report(G, sig)
    assert len(reports) == len(G.cyclic_subgroup_classes)
    for rep in reports:
        assert rep.genus == rep.degree * (2 - 1) + 1
        assert rep.marked_points == ()
        assert rep.cycle_structures == ()


def test_lattice_report_includes_user_subgroups():
    G = catalog("wc3")
    sig = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    H1 = G.subgroup_from_words(["y", "z", "xyzab"])
    H2 = G.subgroup_from_words(["y", "z", "ab"])
    reports = lattice_report(G, sig, [H1, H2])
    assert len(reports) == len(G.cyclic_subgroup_classes) + 2
    by_label = {r.subgroup.label: r for r in reports[-2:]}
    assert by_label["y,z,xyzab"].genus == 0
    assert by_label["y,z,ab"].genus == 1
    payload = reports[-1].to_json()
    assert payload["degree"] == 6
    assert payload["subgroup"]["cyclic_class_index"] is None


def test_plain_signature_rejected():
    G = catalog("dihedral(4)")
    sig = GeometricSignature(0, (BranchEntry(4), BranchEntry(2), BranchEntry(2)))
    with pytest.raises(GroupInputError):
        quotient_genus(G, sig, G.subgroup([]))


def test_geometric_signature_separation_wc3():
    # the two known genus-3 actions share a plain signature but differ on
    # a cyclic class quotient genus
    G = catalog("wc3")
    sig1 = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    sig2 = geometric_signature(G, 0, ("xa^2", "yab", "yzab"))
    genera1 = [quotient_genus(G, sig1, c.representative) for c in G.cyclic_subgroup_classes]
    genera2 = [quotient_genus(G, sig2, c.representative) for c in G.cyclic_subgroup_classes]
    assert genera1 != genera2


def test_geometric_signature_separation_on_refinements():
    # distinct realizable refinements of one plain signature always disagree
    # on the genus of some cyclic-class quotient
    from geosig.signature import find_generating_vector, refinements

    cases = [
        ("dihedral(4)", 0, (4, 2, 2)),
        ("dihedral(6)", 1, (2, 2)),
        ("quaternion8", 1, (4, 4)),
        ("symmetric(4)", 0, (4, 2, 2, 2)),
    ]
    compared = 0
    for name, gamma, orders in cases:
        G = catalog(name)
        plain = GeometricSignature(gamma, tuple(BranchEntry(m) for m in orders))
        realizable = [
            sig for sig in refinements(G, plain)
            if find_generating_vector(G, sig) is not None
        ]
        vectors = []
        keys = []
        for sig in realizable:
            vectors.append(tuple(
                quotient_genus(G, sig, c.representative)
                for c in G.cyclic_subgroup_classes
            ))
            # branch order is immaterial: signatures agree as multisets
            keys.append(tuple(sorted(
                (e.order, tuple(sorted(p.image for p in e.cls.representative.members)))
                for e in sig.entries
            )))
        for i in range(len(realizable)):
            for j in range(i + 1, len(realizable)):
                if keys[i] != keys[j]:
                    assert vectors[i] != vectors[j], (name, i, j)
                    compared += 1
    assert compared >= 3  # the check must not be vacuous


def test_doctored_marks_fail_the_genus_check(monkeypatch):
    # moving two points from mark 2 to mark 1 over branch value 1 keeps the
    # cycle lengths summing to the index (2·2 + 4·5 = 24), so only the
    # ramification genus, read from the marks, can disagree with the
    # double-coset genus
    G = catalog("wc3")
    sig = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    H = G.subgroup([G.element("(2,5)(3,6)")])
    marks = marked_points(G, sig, H)
    assert [(m.mark, m.count) for m in marks[1]] == [(2, 4), (1, 4)]
    doctored = {2: 2, 1: 5}
    fake = (marks[0], tuple(MarkedPointSet(m.mark, doctored[m.mark]) for m in marks[1]),
            *marks[2:])
    monkeypatch.setattr(covers, "marked_points", lambda *_args: fake)
    with pytest.raises(InternalCheckError, match="^genus formulas disagree: 2g = 3 vs 2$"):
        cover_report(G, sig, H)


def test_a_mark_that_does_not_divide_the_branch_order_is_a_defect(monkeypatch):
    # one cached conjugate of the order-2 stabilizer doctored to three
    # members of H meets H in 3 elements, and 3 does not divide 2
    G = catalog("wc3")
    sig = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    H = G.cyclic_subgroup_classes[-1].representative
    masks = sig.entries[2].cls.representative.conjugate_masks
    monkeypatch.setitem(masks, next(iter(masks)), sum(1 << i for i in H.indices[:3]))
    with pytest.raises(InternalCheckError,
                       match="^stabilizer order does not divide branch order$"):
        marked_points(G, sig, H)


@pytest.mark.parametrize("genus,branch,twice_genus", [
    (1, ("x",), 3),
    (0, (), -2),
], ids=["odd", "negative"])
def test_a_signature_riemann_hurwitz_refuses_fails_the_admissible_genus(monkeypatch, genus,
                                                                       branch, twice_genus):
    # with the Riemann–Hurwitz refusal skipped, cover_report takes the
    # signature as given: on cyclic(2), (1; [2,x]) and (0;) have no integral
    # nonnegative genus, and the two formulas agree on the trivial
    # subgroup's 2g = 3 and 2g = -2
    G = catalog("cyclic(2)")
    monkeypatch.setattr(covers, "signature_genus", lambda *_args: 0)
    with pytest.raises(InternalCheckError,
                       match=f"^quotient genus is not admissible: 2g = {twice_genus}$"):
        cover_report(G, geometric_signature(G, genus, branch), G.subgroup([]))


@pytest.mark.parametrize("genus,branch,refusal", [
    (1, ("x",), "non-integral genus 3/2"),
    (0, (), "negative genus -1"),
], ids=["odd", "negative"])
def test_a_signature_riemann_hurwitz_refuses_is_bad_input(genus, branch, refusal):
    # the same signatures reach the covers API and the closed-form
    # multiplicities as unrealizable input (exit 1), not as a defect (exit 70)
    from geosig.chartable import compute_table
    from geosig.jacobian import complex_multiplicities

    G = catalog("cyclic(2)")
    sig = geometric_signature(G, genus, branch)
    H = G.subgroup([])
    for call in (lambda: cover_report(G, sig, H), lambda: quotient_genus(G, sig, H),
                 lambda: cycle_structure(G, sig, H), lambda: lattice_report(G, sig),
                 lambda: complex_multiplicities(G, compute_table(G), sig)):
        with pytest.raises(InvalidSignatureError,
                           match=f"^branching data gives {refusal}$"):
            call()


def test_an_extra_unramified_point_fails_the_sheet_count(monkeypatch):
    # a point marked with the full branch order is unramified, so it adds
    # nothing to the ramification genus, which still agrees with the
    # double-coset genus; only the sheets over branch value 0 are one too many
    G = catalog("wc3")
    sig = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    H = G.subgroup([G.element("(2,5)(3,6)")])
    marks = marked_points(G, sig, H)
    extra = (marks[0] + (MarkedPointSet(sig.entries[0].order, 1),), *marks[1:])
    monkeypatch.setattr(covers, "marked_points", lambda *_args: extra)
    with pytest.raises(InternalCheckError,
                       match="^cycle structure over branch value 0 does not cover all sheets$"):
        cover_report(G, sig, H)


def test_a_conjugate_without_the_identity_fails_the_marked_point_count(monkeypatch):
    # every conjugate of G_j holds the identity, so it meets H in at least one
    # element; an empty cached conjugate meets H in none, and gives 0 points
    G = catalog("wc3")
    sig = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    H = G.subgroup([G.element("(2,5)(3,6)")])
    masks = sig.entries[2].cls.representative.conjugate_masks
    monkeypatch.setitem(masks, next(iter(masks)), 0)
    with pytest.raises(InternalCheckError,
                       match=r"^marked-point count is not a positive integer: 0 \+ 0/2$"):
        marked_points(G, sig, H)


def test_new_subgroup_marks_make_no_products(monkeypatch):
    # the conjugates of each G_j are cached on G_j, so the marked points of
    # another H are set intersections only
    G = catalog("symmetric(6)")
    sig = geometric_signature(G, 0, ("b", "a", "(1,2,3,4,5)"))
    marked_points(G, sig, G.subgroup_from_words(["a^2"]))
    H = G.subgroup_from_words(["(1,2)(3,4)", "(1,3)(2,4)"])
    products = []
    real = Perm.__mul__

    def counted(self, other):
        products.append(1)
        return real(self, other)

    monkeypatch.setattr(Perm, "__mul__", counted)
    marked_points(G, sig, H)
    monkeypatch.undo()
    assert len(products) == 0


@pytest.mark.parametrize("name, gamma, words, subgroups", [
    ("symmetric(6)", 0, ("b", "a", "(1,2,3,4,5)"), ()),
    ("wc3", 0, ("xa^2", "xyab", "xyzb"), (("y", "z", "xyzab"), ("y", "z", "ab"))),
    ("symmetric(4)", 1, ("b", "b"), ()),
])
def test_pipeline_after_parsing_makes_no_perm_arithmetic(monkeypatch, name, gamma, words,
                                                         subgroups):
    # elements are indices inside the engine: past parsing, a lattice pass
    # multiplies, inverts and powers no Perm
    from geosig import jacobian, monodromy
    from geosig.chartable import compute_table
    from geosig.signature import find_generating_vector

    G = catalog(name)
    sig = geometric_signature(G, gamma, words)
    subs = [G.subgroup_from_words(list(w)) for w in subgroups]
    calls = []
    for method in ("__mul__", "inverse", "__pow__"):
        real = getattr(Perm, method)
        monkeypatch.setattr(Perm, method, lambda *args, real=real, method=method: (
            calls.append(method), real(*args))[1])
    vec = find_generating_vector(G, sig)
    for report in lattice_report(G, sig, subs):
        monodromy.oracle_summary(G, report.subgroup, vec, gamma)
    table = compute_table(G)
    dec = jacobian.factor_dimensions(G, table, sig)
    if gamma == 1:
        jacobian.gamma1_analysis(G, table, sig)
    monkeypatch.undo()
    assert calls == []


def test_lattice_pass_products_stay_in_the_closures(monkeypatch):
    # past the class data, columns come from walks over a Cayley-graph
    # spanning tree, and each stabilizer's conjugates, keyed by the
    # transversal of its normalizer, from one conjugation walk, so no
    # normalizer is built and the pass composes no image tuple (328 scalar
    # products while it composed them, 10,110 before the tree walks); a
    # closure reads generator columns and composes none either, and a
    # product afterwards shows that the counter counts
    from geosig import jacobian, monodromy
    from geosig.chartable import compute_table
    from geosig.groups import Perm
    from geosig.signature import find_generating_vector

    G = catalog("symmetric(6)")
    sig = geometric_signature(G, 0, ("b", "a", "(1,2,3,4,5)"))
    vec = find_generating_vector(G, sig)
    G.walk_places, G.merged_element_classes
    calls = []
    real = Perm.__mul__
    monkeypatch.setattr(Perm, "__mul__", lambda self, g: (calls.append(1), real(self, g))[1])
    for report in lattice_report(G, sig, []):
        monodromy.oracle_summary(G, report.subgroup, vec, 0)
    jacobian.factor_dimensions(G, compute_table(G), sig)
    pipeline = len(calls)
    assert G.generates([G.index(g) for g in vec.elements()])
    closure = len(calls)
    vec.c[-1] * vec.c[0]
    monkeypatch.undo()
    assert pipeline == closure == 0 < len(calls)
    # the marks and double-coset route 2 take |N(K)| from the conjugates and
    # build no normalizer
    assert not any("normalizer" in vars(cls.representative)
                   for cls in G.cyclic_subgroup_classes)
    # no generating set holds the identity, so no identity column is walked
    assert 0 not in G._left and 0 not in G._right
    # the oracle reads each vector element's right column, kept once walked
    assert {G.index(g) for g in vec.elements()} <= set(G._right)
    g = G.index(vec.c[0])
    assert G.right(g) is G.right(g)
