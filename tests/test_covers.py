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
from geosig.errors import GroupInputError, InternalCheckError
from geosig.groups import Perm, Subgroup, catalog
from geosig.signature import (
    BranchEntry,
    GeometricSignature,
    signature_genus,
)

from corpus import geometric_signature


def test_trivial_subgroup_recovers_total_genus():
    for name, gamma, words in [
        ("dihedral(4)", 0, ("x", "y", "xy")),
        ("cyclic(4)", 1, ("x^2", "x^2")),
        ("wc3", 0, ("xa^2", "xyab", "xyzb")),
    ]:
        G = catalog(name)
        sig = geometric_signature(G, gamma, words)
        assert quotient_genus(G, sig, G.trivial_subgroup) == signature_genus(G, sig)


def test_full_subgroup_recovers_quotient_genus():
    G = catalog("wc3")
    sig = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    assert quotient_genus(G, sig, G.full_subgroup) == 0
    G2 = catalog("cyclic(4)")
    sig2 = geometric_signature(G2, 1, ("x^2", "x^2"))
    assert quotient_genus(G2, sig2, G2.full_subgroup) == 1


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
    assert [(m.branch_index, m.mark, m.count) for m in marks] == [
        (0, 2, 2), (1, 2, 2),
    ]
    cycles = cycle_structure(G, sig, H)
    assert [c.entries for c in cycles] == [(1, 1), (1, 1)]


def test_marked_points_trivial_subgroup():
    # identity cover: |G|/m_j points over branch value j, stabilizer trivial
    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    marks = marked_points(G, sig, G.trivial_subgroup)
    per_branch = {}
    for m in marks:
        per_branch.setdefault(m.branch_index, []).append((m.mark, m.count))
    assert per_branch == {
        0: [(1, 2)],   # 8/4 points
        1: [(1, 4)],   # 8/2 points
        2: [(1, 4)],
    }
    cycles = cycle_structure(G, sig, G.trivial_subgroup)
    assert cycles[0].entries == (4, 4)
    assert cycles[1].entries == (2, 2, 2, 2)
    assert cycles[2].entries == (2, 2, 2, 2)


def test_marked_points_full_subgroup():
    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    marks = marked_points(G, sig, G.full_subgroup)
    assert [(m.branch_index, m.mark, m.count) for m in marks] == [
        (0, 4, 1), (1, 2, 1), (2, 2, 1),
    ]
    cycles = cycle_structure(G, sig, G.full_subgroup)
    assert all(c.entries == (1,) for c in cycles)


def test_transversal_partition_examples():
    G = catalog("dihedral(4)")
    # normal G_j: single set of size 1
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    part = transversal_partition(G, sig, G.trivial_subgroup, 0)
    assert part.nu == 1 and part.sets[0] == (G.identity,)
    # [2,<y>] against H = <x^2>: both conjugates of <y> meet H trivially
    H = G.subgroup_from_words(["x^2"])
    part = transversal_partition(G, sig, H, 1)
    assert part.nu == 1
    assert len(part.sets[0]) == 2
    assert part.intersection_sizes == (1,)
    # partition always covers the transversal of the normalizer
    for j in range(3):
        part = transversal_partition(G, sig, H, j)
        Gj = sig.entries[j].cls.representative
        assert sum(len(s) for s in part.sets) == G.order // Gj.normalizer().order


def test_cycle_structure_accounts_for_all_sheets():
    G = catalog("wc3")
    sig = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    for cls in G.cyclic_subgroup_classes:
        H = cls.representative
        for c in cycle_structure(G, sig, H):
            assert sum(c.entries) == H.index


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
                sum(e - 1 for e in c.entries)
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
        quotient_genus(G, sig, G.trivial_subgroup)


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
    H = Subgroup.generated(G, [G.element("(2,5)(3,6)")])
    marks = marked_points(G, sig, H)
    assert [(m.mark, m.count) for m in marks if m.branch_index == 1] == [(2, 4), (1, 4)]
    doctored = {2: 2, 1: 5}
    fake = tuple(
        MarkedPointSet(m.branch_index, m.mark, doctored[m.mark]) if m.branch_index == 1 else m
        for m in marks
    )
    monkeypatch.setattr(covers, "marked_points", lambda *_args: fake)
    with pytest.raises(InternalCheckError, match="genus formulas disagree"):
        cover_report(G, sig, H)


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
    # spanning tree, and each normalizer and its conjugates from one
    # conjugation walk, so no generating set of a normalizer is closed and
    # the pass makes no scalar product (328 while they were, 10,110 before
    # the tree walks); a closure reads generator columns and makes none
    # either, and a product afterwards shows that the counter counts
    from geosig import jacobian, monodromy
    from geosig.chartable import compute_table
    from geosig.groups import FiniteGroup
    from geosig.signature import find_generating_vector

    G = catalog("symmetric(6)")
    sig = geometric_signature(G, 0, ("b", "a", "(1,2,3,4,5)"))
    vec = find_generating_vector(G, sig)
    G.class_powers, G.merged_element_classes
    calls = []
    real = FiniteGroup.product
    monkeypatch.setattr(FiniteGroup, "product",
                        lambda self, a, b: (calls.append(1), real(self, a, b))[1])
    for report in lattice_report(G, sig, []):
        monodromy.oracle_summary(G, report.subgroup, vec, 0)
    jacobian.factor_dimensions(G, compute_table(G), sig)
    pipeline = len(calls)
    assert G.is_generated_by(vec.elements())
    closure = len(calls)
    G.product(G.index(vec.c[-1]), G.index(vec.c[0]))
    monkeypatch.undo()
    assert pipeline == closure == 0 < len(calls)
    # the marks and double-coset route 2 read each normalizer for its order only
    for cls in G.cyclic_subgroup_classes:
        N = cls.representative.normalizer()
        assert not {"left_cosets", "transversal", "generating_set"} & set(vars(N))
    # the oracle reads each vector element's right column, kept once walked
    assert {G.index(g) for g in vec.elements()} <= set(G._right)
    g = G.index(vec.c[0])
    assert G.right(g) is G.right(g)
