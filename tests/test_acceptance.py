"""Acceptance suite: every criterion exact, one PASS/FAIL line per criterion."""

import itertools
from contextlib import contextmanager
from functools import lru_cache

import pytest

from cyclo_ref import Cyclo, character_values
from geosig.chartable import (
    SCHUR_COMPUTED,
    compute_table,
    schur_bound_is_verified,
)
from geosig.covers import cycle_structure, marked_points, quotient_genus
from geosig.groups import Subgroup, catalog, double_coset_count
from geosig.jacobian import (
    complex_multiplicities,
    factor_dimensions,
    gamma1_analysis,
    solve_omega_system,
)
from geosig.monodromy import oracle_summary
from geosig.signature import (
    GeneratingVector,
    find_generating_vector,
    riemann_hurwitz_genus,
    signature_genus,
    verify_generating_vector,
)

from corpus import CORPUS, geometric_signature, group, materialize


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {text}")
        raise
    print(f"[criterion {num}] PASS: {text}")


@lru_cache(maxsize=None)
def table(name: str):
    return compute_table(group(name))


@lru_cache(maxsize=None)
def witness(case_index: int):
    G, sig, _ = materialize(CORPUS[case_index])
    vec = find_generating_vector(G, sig)
    assert vec is not None, f"corpus case {case_index} is not realizable"
    return vec


def wc3_signatures():
    G = group("wc3")
    sig1 = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    sig2 = geometric_signature(G, 0, ("xa^2", "yab", "yzab"))
    return G, sig1, sig2


def test_criterion_1_dihedral_example():
    with criterion(1, "D4 sphere signature exists; central variant proven impossible"):
        G = group("dihedral(4)")
        sig_good = geometric_signature(G, 0, ("x", "y", "xy"))
        assert signature_genus(G, sig_good) == 0
        vec = find_generating_vector(G, sig_good)
        assert vec is not None
        assert verify_generating_vector(G, sig_good, vec).ok

        sig_bad = geometric_signature(G, 0, ("x", "x^2", "x^2"))
        # exhaustive refutation must fit in far fewer nodes than |G|^3 = 512
        assert find_generating_vector(G, sig_bad, budget=64) is None


def test_criterion_2_wc3_example():
    with criterion(2, "WC3 genus-3 actions: both exist, witnesses verify, H1/H2 genera swap"):
        G, sig1, sig2 = wc3_signatures()
        assert signature_genus(G, sig1) == 3
        assert signature_genus(G, sig2) == 3
        assert find_generating_vector(G, sig1) is not None
        assert find_generating_vector(G, sig2) is not None

        w1 = GeneratingVector((), (), tuple(G.element(w) for w in ("xa^2", "xyab", "xyzb")))
        w2 = GeneratingVector((), (), tuple(G.element(w) for w in ("xa^2", "zab", "b")))
        assert verify_generating_vector(G, sig1, w1).ok
        assert verify_generating_vector(G, sig2, w2).ok

        H1 = G.subgroup_from_words(["y", "z", "xyzab"])
        H2 = G.subgroup_from_words(["y", "z", "ab"])
        assert H1.order == 8 and H2.order == 8
        assert quotient_genus(G, sig1, H1) == 0
        assert quotient_genus(G, sig1, H2) == 1
        assert quotient_genus(G, sig2, H1) == 1
        assert quotient_genus(G, sig2, H2) == 0


WC3_CLASS_WORDS = ("e", "xyz", "xy", "xyzb", "zyb", "x", "zyab", "xyza^2", "yza^2", "zab")
WC3_ROW_1 = (3, -3, -1, -1, -1, 1, 1, 0, 0, 1)
WC3_ROW_2 = (3, -3, -1, 1, 1, 1, -1, 0, 0, -1)


def test_criterion_3_wc3_decomposition():
    with criterion(3, "WC3: one degree-3 character with n=2 each, printed values, JS ~ E^3"):
        G, sig1, sig2 = wc3_signatures()
        T = table("wc3")
        reps = [G.element(w) for w in WC3_CLASS_WORDS]
        rep_classes = [G.class_index[g] for g in reps]
        assert sorted(rep_classes) == list(range(10))  # the words hit all classes

        distinguished = []
        for sig, row in ((sig1, WC3_ROW_1), (sig2, WC3_ROW_2)):
            mult = complex_multiplicities(G, T, sig)
            nontrivial_nonzero = [
                chi for chi in T.characters
                if chi.index != T.trivial_character_index and mult[chi.index] != 0
            ]
            assert len(nontrivial_nonzero) == 1
            chi = nontrivial_nonzero[0]
            assert mult[chi.index] == 2
            assert chi.degree == 3
            values = tuple(character_values(chi, G.exponent)[c] for c in rep_classes)
            assert values == tuple(Cyclo.rational(v) for v in row)

            report = factor_dimensions(G, T, sig)
            rec = next(r for r in report.records if r.representative == chi.index)
            assert rec.dim_B == 1 and rec.exponent == 3
            assert report.summary() == "JS ~ E^3"
            distinguished.append(chi.index)
        assert distinguished[0] != distinguished[1]


def test_criterion_4_cyclic4_example():
    with criterion(4, "cyclic(4) (1;2,2): g=3, unramified double cover, dims 1+0+2"):
        G = group("cyclic(4)")
        T = table("cyclic(4)")
        sig = geometric_signature(G, 1, ("x^2", "x^2"))
        assert signature_genus(G, sig) == 3

        H = G.subgroup_from_words(["x^2"])
        assert quotient_genus(G, sig, H) == 1
        assert all(
            all(e == 1 for e in cs) for cs in cycle_structure(G, sig, H)
        )

        report = factor_dimensions(G, T, sig)
        x = G.named_generators["x"]
        dims = {}
        for rec in report.records:
            chi = T.characters[rec.representative]
            if rec.representative == T.trivial_character_index:
                dims["trivial"] = rec
            elif character_values(chi, G.exponent)[G.class_index[x]] == -1:
                dims["order2"] = rec
            else:
                dims["faithful"] = rec
        assert dims["trivial"].dim_B == 1
        assert dims["order2"].dim_B == 0
        assert dims["faithful"].dim_B == 2
        assert sum(r.dim_B * r.exponent for r in report.records) == 3

        conditions = gamma1_analysis(G, T, sig)
        vanish = next(c for c in conditions
                      if c.galois_representative == dims["order2"].representative)
        assert vanish.all_true and vanish.degree == 1
        other = next(c for c in conditions
                     if c.galois_representative == dims["faithful"].representative)
        assert not (other.dim_is_zero or other.stabilizers_in_kernel
                    or other.kernel_cover_unramified or other.kernel_quotient_is_torus)


def test_criterion_5_oracle_equivalence():
    with criterion(5, f"oracle equivalence on {len(CORPUS)} corpus signatures"):
        assert len(CORPUS) >= 20
        assert {case.gamma for case in CORPUS} == {0, 1, 2}
        assert all(len(case.branch_words) <= 4 for case in CORPUS)
        for idx, case in enumerate(CORPUS):
            G, sig, subs = materialize(case)
            vec = witness(idx)
            targets = [cls.representative for cls in G.cyclic_subgroup_classes] + subs
            for H in targets:
                oracle = oracle_summary(G, H, vec, sig.quotient_genus)
                assert oracle["genus"] == quotient_genus(G, sig, H), (case, H.label)
                closed = cycle_structure(G, sig, H)
                assert oracle["cycle_structures"] == [list(ct) for ct in closed], \
                    (case, H.label)
                # marked-point accounting: counts match the oracle's point counts
                marks = marked_points(G, sig, H)
                for j, ct in enumerate(closed):
                    total = sum(m.count for m in marks[j])
                    assert total == len(ct), (case, H.label, j)


def test_criterion_6_formula_redundancy():
    with criterion(6, "dual genus formulas, triple double-coset count, omega system"):
        for case in CORPUS:
            G, sig, subs = materialize(case)
            # quotient_genus raises on any disagreement of the two formulas
            for cls in G.cyclic_subgroup_classes:
                quotient_genus(G, sig, cls.representative)
            for H in subs:
                quotient_genus(G, sig, H)
            # the three double-coset methods agree on every pair of class reps
            reps = [cls.representative for cls in G.cyclic_subgroup_classes]
            for H, K in itertools.product(reps + subs, repeat=2):
                double_coset_count(G, H, K)
            # omega system: invertible, integral, equal to the closed form
            T = table(case.group_name)
            genera = [quotient_genus(G, sig, cls.representative)
                      for cls in G.cyclic_subgroup_classes]
            omega = solve_omega_system(G, T, genera)
            mult = complex_multiplicities(G, T, sig)
            assert omega.solution == tuple(
                mult[gc.representative] for gc in T.galois_classes
            ), case


def test_criterion_7_sum_rules():
    with criterion(7, "multiplicities weigh to 2g; factor dims weigh to g"):
        for case in CORPUS:
            G, sig, _ = materialize(case)
            T = table(case.group_name)
            g = signature_genus(G, sig)
            mult = complex_multiplicities(G, T, sig)
            assert sum(chi.degree * mult[chi.index] for chi in T.characters) == 2 * g
            report = factor_dimensions(G, T, sig)
            assert sum(r.dim_B * r.exponent for r in report.records) == g


def test_criterion_8_character_table_exactness():
    with criterion(8, "orthogonality exact on all catalog groups; q8 Schur index 2"):
        for name in sorted({case.group_name for case in CORPUS}):
            G = group(name)
            T = table(name)
            values = [character_values(chi, G.exponent) for chi in T.characters]
            for a in T.characters:
                for b in T.characters:
                    total = Cyclo.zero(1)
                    for j, cls in enumerate(T.classes):
                        total = total + (values[a.index][j] * values[b.index][j].conjugate()
                                         * cls.size)
                    assert total == (G.order if a.index == b.index else 0), name
            for j in range(len(T.classes)):
                for k in range(len(T.classes)):
                    total = Cyclo.zero(1)
                    for row in values:
                        total = total + row[j] * row[k].conjugate()
                    want = G.order // T.classes[j].size if j == k else 0
                    assert total == want, name

        T = table("quaternion8")
        gc = next(g for g in T.galois_classes
                  if T.characters[g.representative].degree == 2)
        assert gc.schur_index == 2
        assert gc.schur_index_source == SCHUR_COMPUTED
        assert schur_bound_is_verified(T)


def test_criterion_9_positive_dimensions_for_large_quotient_genus():
    with criterion(9, "every factor dimension positive once the quotient genus is >= 2"):
        cases = [case for case in CORPUS if case.gamma >= 2]
        assert cases
        for case in cases:
            G, sig, _ = materialize(case)
            T = table(case.group_name)
            report = factor_dimensions(G, T, sig)
            assert all(rec.dim_B > 0 for rec in report.records), case
