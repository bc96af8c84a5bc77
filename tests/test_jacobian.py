import pytest

from geosig import jacobian
from geosig.chartable import compute_table
from geosig.covers import quotient_genus
from geosig.errors import GroupInputError, InternalCheckError
from geosig.groups import Subgroup, catalog
from geosig.jacobian import (
    complex_multiplicities,
    factor_dimensions,
    gamma1_analysis,
    solve_omega_system,
)
from geosig.signature import (
    BranchEntry,
    GeometricSignature,
    find_generating_vector,
    signature_genus,
)


def geometric(G, gamma, *words):
    entries = []
    for word in words:
        g = G.element(word)
        sub = Subgroup.generated(G, [g], label=word)
        cls = G.cyclic_subgroup_classes[G.cyclic_class_index(sub)]
        entries.append(BranchEntry(g.order(), cls, label=word))
    return GeometricSignature(gamma, tuple(entries))


def cyclic4_setup():
    G = catalog("cyclic(4)")
    T = compute_table(G)
    sig = geometric(G, 1, "x^2", "x^2")
    return G, T, sig


def test_trivial_character_multiplicity_is_twice_gamma():
    for name, gamma, words in [
        ("cyclic(4)", 1, ("x^2", "x^2")),
        ("dihedral(4)", 0, ("x", "y", "xy")),
        ("symmetric(3)", 2, ()),
    ]:
        G = catalog(name)
        T = compute_table(G)
        sig = geometric(G, gamma, *words)
        n = complex_multiplicities(G, T, sig)
        assert n[T.trivial_character_index] == 2 * gamma


def test_cyclic4_multiplicities():
    G, T, sig = cyclic4_setup()
    n = complex_multiplicities(G, T, sig)
    x = G.named_generators["x"]
    for chi in T.characters:
        value_on_x = chi.values[G.class_index[x]]
        if chi.index == T.trivial_character_index:
            assert n[chi.index] == 2
        elif value_on_x == -1:
            assert n[chi.index] == 0
        else:
            assert n[chi.index] == 2  # the two faithful characters


def test_cyclic4_omega_system():
    G, T, sig = cyclic4_setup()
    genera = [quotient_genus(G, sig, cls.representative)
              for cls in G.cyclic_subgroup_classes]
    assert sorted(genera, reverse=True) == [3, 1, 1]
    omega = solve_omega_system(G, T, genera)
    n = complex_multiplicities(G, T, sig)
    expected = tuple(n[gc.representative] for gc in T.galois_classes)
    assert omega.solution == expected
    assert sorted(omega.solution) == [0, 2, 2]


def test_omega_system_wrong_length_rejected():
    G, T, sig = cyclic4_setup()
    with pytest.raises(GroupInputError):
        solve_omega_system(G, T, [1, 2])


def test_trivial_group_omega():
    G = catalog("cyclic(1)")
    T = compute_table(G)
    omega = solve_omega_system(G, T, [5])
    assert omega.solution == (10,)
    assert omega.matrix == ((1,),)


def test_cyclic4_factor_dimensions():
    G, T, sig = cyclic4_setup()
    report = factor_dimensions(G, T, sig)
    assert report.total_genus == 3
    dims = {}
    for rec in report.records:
        if rec.representative == T.trivial_character_index:
            dims["trivial"] = rec
        elif rec.galois_class.field_degree == 2:
            dims["faithful"] = rec
        else:
            dims["order2"] = rec
    assert dims["trivial"].dim_B == 1 and dims["trivial"].exponent == 1
    assert dims["order2"].dim_B == 0
    assert dims["faithful"].dim_B == 2
    assert dims["faithful"].k == 2
    assert dims["faithful"].exponent == 1
    assert sum(r.dim_B * r.exponent for r in report.records) == 3


def test_wc3_both_signatures_one_elliptic_cube():
    G = catalog("wc3")
    T = compute_table(G)
    sig1 = geometric(G, 0, "xa^2", "xyab", "xyzb")
    sig2 = geometric(G, 0, "xa^2", "yab", "yzab")
    distinguished = []
    for sig in (sig1, sig2):
        report = factor_dimensions(G, T, sig)
        nonzero = [rec for rec in report.records if rec.dim_B > 0]
        assert len(nonzero) == 1
        rec = nonzero[0]
        assert rec.degree == 3
        assert rec.n == 2
        assert rec.dim_B == 1
        assert rec.exponent == 3
        assert report.summary() == "JS ~ E^3"
        distinguished.append(rec.representative)
        # trivial factor has dimension 0 here (genus-zero quotient)
        triv = next(r for r in report.records
                    if r.representative == T.trivial_character_index)
        assert triv.dim_B == 0
    assert distinguished[0] != distinguished[1]


def test_wc3_signatures_yield_different_multiplicity_vectors():
    G = catalog("wc3")
    T = compute_table(G)
    sig1 = geometric(G, 0, "xa^2", "xyab", "xyzb")
    sig2 = geometric(G, 0, "xa^2", "yab", "yzab")
    assert complex_multiplicities(G, T, sig1) != complex_multiplicities(G, T, sig2)


def test_refinement_pairs_yield_different_multiplicity_vectors():
    # distinct realizable refinements of one plain signature decompose differently
    from geosig.signature import refinements

    compared = 0
    for name, gamma, orders in [
        ("dihedral(6)", 1, (2, 2)),
        ("quaternion8", 1, (4, 4)),
    ]:
        G = catalog(name)
        T = compute_table(G)
        plain = GeometricSignature(gamma, tuple(BranchEntry(m) for m in orders))
        realizable = [
            sig for sig in refinements(G, plain)
            if find_generating_vector(G, sig) is not None
        ]
        vectors = [complex_multiplicities(G, T, sig) for sig in realizable]
        keys = [
            tuple(sorted(
                (e.order, tuple(sorted(p.image for p in e.cls.representative.members)))
                for e in sig.entries
            ))
            for sig in realizable
        ]
        for i in range(len(realizable)):
            for j in range(i + 1, len(realizable)):
                if keys[i] != keys[j]:
                    assert vectors[i] != vectors[j], (name, i, j)
                    compared += 1
    assert compared >= 3


def test_sum_rule_various():
    cases = [
        ("dihedral(4)", 0, ("x", "y", "xy")),
        ("quaternion8", 1, ("x^2", "x^2")),
        ("symmetric(4)", 1, ("ab", "ab")),
        ("alternating(4)", 2, ()),
    ]
    for name, gamma, words in cases:
        G = catalog(name)
        T = compute_table(G)
        sig = geometric(G, gamma, *words)
        n = complex_multiplicities(G, T, sig)
        total = sum(chi.degree * n[chi.index] for chi in T.characters)
        assert total == 2 * signature_genus(G, sig), name


def test_positive_quotient_genus_forces_positive_dimensions():
    for name in ("cyclic(6)", "symmetric(3)", "quaternion8"):
        G = catalog(name)
        T = compute_table(G)
        sig = GeometricSignature(2)
        report = factor_dimensions(G, T, sig)
        assert all(rec.dim_B > 0 for rec in report.records), name
    # genus-3 unbranched on symmetric(3): the empty branch sum leaves
    # dim = k * degree * (gamma - 1) > 0 everywhere
    G = catalog("symmetric(3)")
    T = compute_table(G)
    report = factor_dimensions(G, T, GeometricSignature(3))
    assert all(rec.dim_B > 0 for rec in report.records)
    assert report.total_genus == 6 * 2 + 1


def test_galois_invariance_of_multiplicities():
    G = catalog("cyclic(6)")
    T = compute_table(G)
    x = G.named_generators["x"]
    sub = Subgroup.generated(G, [x * x], label="x^2")
    cls = G.cyclic_subgroup_classes[G.cyclic_class_index(sub)]
    sig = GeometricSignature(1, (BranchEntry(3, cls), BranchEntry(3, cls)))
    n = complex_multiplicities(G, T, sig)
    for gc in T.galois_classes:
        assert len({n[i] for i in gc.members}) == 1


def test_gamma1_analysis_cyclic4():
    G, T, sig = cyclic4_setup()
    conditions = gamma1_analysis(G, T, sig)
    by_rep = {c.galois_representative: c for c in conditions}
    report = factor_dimensions(G, T, sig)
    for rec in report.records:
        if rec.representative == T.trivial_character_index:
            continue
        cond = by_rep[rec.representative]
        if rec.dim_B == 0:
            assert cond.all_true and cond.degree == 1
        else:
            assert not cond.dim_is_zero
            assert not cond.stabilizers_in_kernel
            assert not cond.kernel_cover_unramified
            assert not cond.kernel_quotient_is_torus


def test_gamma1_analysis_unramified():
    # realizable on a 2-generated abelian group: every nontrivial factor vanishes
    G = catalog("cyclic(6)")
    T = compute_table(G)
    sig = GeometricSignature(1)
    assert find_generating_vector(G, sig) is not None
    conditions = gamma1_analysis(G, T, sig)
    assert conditions and all(c.all_true for c in conditions)
    assert all(c.degree == 1 for c in conditions)


def test_gamma1_analysis_detects_unrealizable_signature():
    # (1;) on a nonabelian group: a degree-2 factor would vanish, which proves
    # no such action exists; the analysis reports that as an input error
    G = catalog("symmetric(3)")
    T = compute_table(G)
    sig = GeometricSignature(1)
    assert find_generating_vector(G, sig) is None
    with pytest.raises(GroupInputError, match="no action exists"):
        gamma1_analysis(G, T, sig)


def test_gamma1_analysis_rejects_other_genus():
    G = catalog("dihedral(4)")
    T = compute_table(G)
    with pytest.raises(GroupInputError):
        gamma1_analysis(G, T, geometric(G, 0, "x", "y", "xy"))


def test_report_json_shape():
    G, T, sig = cyclic4_setup()
    payload = factor_dimensions(G, T, sig).to_json()
    assert payload["total_genus"] == 3
    assert len(payload["classes"]) == len(T.galois_classes)
    for item in payload["classes"]:
        assert set(item) >= {"degree", "field_degree", "schur_index",
                             "schur_source", "n", "e", "dim_B", "exponent"}
    assert "matrix" in payload["omega"]


def test_decomposition_rejects_wrong_quotient_genera(monkeypatch):
    # the omega system over the cyclic-subgroup quotient genera is an
    # independent route: genera off by one must not pass the comparison
    G, T, sig = cyclic4_setup()
    assert factor_dimensions(G, T, sig).total_genus == 3
    monkeypatch.setattr(jacobian, "quotient_genus",
                        lambda *args: quotient_genus(*args) + 1)
    with pytest.raises(InternalCheckError):
        factor_dimensions(G, T, sig)
