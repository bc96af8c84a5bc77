import pytest

from cyclo_ref import character_values
from geosig import jacobian
from geosig.chartable import GaloisClass, compute_table
from geosig.covers import lattice_report, quotient_genus
from geosig.errors import GroupInputError, InternalCheckError, InvalidSignatureError
from geosig.groups import catalog
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

from corpus import geometric_signature


def cyclic4_setup():
    G = catalog("cyclic(4)")
    T = compute_table(G)
    sig = geometric_signature(G, 1, ("x^2", "x^2"))
    return G, T, sig


def test_trivial_character_multiplicity_is_twice_gamma():
    for name, gamma, words in [
        ("cyclic(4)", 1, ("x^2", "x^2")),
        ("dihedral(4)", 0, ("x", "y", "xy")),
        ("symmetric(3)", 2, ()),
    ]:
        G = catalog(name)
        T = compute_table(G)
        sig = geometric_signature(G, gamma, words)
        n = complex_multiplicities(G, T, sig)
        assert n[T.trivial_character_index] == 2 * gamma


def test_cyclic4_multiplicities():
    G, T, sig = cyclic4_setup()
    n = complex_multiplicities(G, T, sig)
    x = G.named_generators["x"]
    for chi in T.characters:
        value_on_x = character_values(chi, G.exponent)[G.class_index[x]]
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
    faithful = dims["faithful"].galois_class
    assert faithful.schur_index * faithful.field_degree == 2
    assert dims["faithful"].exponent == 1
    assert sum(r.dim_B * r.exponent for r in report.records) == 3


def test_wc3_both_signatures_one_elliptic_cube():
    G = catalog("wc3")
    T = compute_table(G)
    sig1 = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    sig2 = geometric_signature(G, 0, ("xa^2", "yab", "yzab"))
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
    sig1 = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    sig2 = geometric_signature(G, 0, ("xa^2", "yab", "yzab"))
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
        sig = geometric_signature(G, gamma, words)
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
    sub = G.subgroup([x * x], label="x^2")
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


def test_gamma1_analysis_runs_no_decomposition(monkeypatch):
    # dim B = 0 is n = 0 for the closed-form multiplicity: neither the
    # factor records nor the omega system are needed
    G = catalog("symmetric(4)")
    T = compute_table(G)
    sig = geometric_signature(G, 1, ("b", "b"))
    calls = []
    monkeypatch.setattr(jacobian, "factor_dimensions",
                        lambda *args: calls.append(args) or factor_dimensions(*args))
    conditions = gamma1_analysis(G, T, sig)
    assert calls == []
    report = factor_dimensions(G, T, sig)
    dims = {rec.representative: rec.dim_B for rec in report.records}
    assert [c.galois_representative for c in conditions] == [
        gc.representative for gc in T.galois_classes
        if gc.representative != T.trivial_character_index
    ]
    assert all(c.dim_is_zero == (dims[c.galois_representative] == 0) for c in conditions)


def test_gamma1_analysis_builds_one_cover_report_per_kernel(monkeypatch):
    # symmetric(4) (1; [2,b], [2,b]): four nontrivial Galois classes, and
    # both faithful degree-3 classes have the trivial kernel, so three kernels
    G = catalog("symmetric(4)")
    T = compute_table(G)
    sig = geometric_signature(G, 1, ("b", "b"))
    kernels = []
    real = jacobian.cover_report
    monkeypatch.setattr(jacobian, "cover_report",
                        lambda G, sig, H: kernels.append(H.mask) or real(G, sig, H))
    conditions = gamma1_analysis(G, T, sig)
    assert len(conditions) == 4
    assert len(kernels) == len(set(kernels)) == 3


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
    # no such action exists; the analysis reports that proven nonexistence
    # (exit 1), not malformed input
    G = catalog("symmetric(3)")
    T = compute_table(G)
    sig = GeometricSignature(1)
    assert find_generating_vector(G, sig) is None
    with pytest.raises(InvalidSignatureError,
                       match="^no action exists with this signature: the factor of "
                             "character 2 [(]degree 2[)] would vanish$"):
        gamma1_analysis(G, T, sig)


def test_complex_multiplicities_refuses_a_plain_signature_before_its_genus():
    # (0; [2]) on cyclic(2) has genus -1/2, but a plain entry is refused first
    G = catalog("cyclic(2)")
    sig = GeometricSignature(0, (BranchEntry(2),))
    with pytest.raises(GroupInputError, match="^this computation needs a fully geometric"):
        complex_multiplicities(G, compute_table(G), sig)


def test_gamma1_kernel_cover_of_genus_one_fails_the_vanishing_conditions(monkeypatch):
    # on symmetric(4) with (1; [2,b], [2,b]) no factor vanishes, and all four
    # conditions are false for every class; a kernel cover that reports
    # genus 1 makes the fourth true for the sign character alone
    G = catalog("symmetric(4)")
    T = compute_table(G)
    sig = geometric_signature(G, 1, ("b", "b"))
    assert not any(c.dim_is_zero or c.kernel_quotient_is_torus
                   for c in gamma1_analysis(G, T, sig))
    real = jacobian.cover_report

    def genus_one(*args):
        report = real(*args)
        report.genus = 1
        return report
    monkeypatch.setattr(jacobian, "cover_report", genus_one)
    with pytest.raises(InternalCheckError,
                       match="^vanishing conditions disagree for character 0: "
                             "False, False, False, True$"):
        gamma1_analysis(G, T, sig)


def test_gamma1_analysis_rejects_other_genus():
    G = catalog("dihedral(4)")
    T = compute_table(G)
    with pytest.raises(GroupInputError):
        gamma1_analysis(G, T, geometric_signature(G, 0, ("x", "y", "xy")))


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
    with pytest.raises(InternalCheckError,
                       match=r"^linear system solution \(2, 0, 4\) does not match the closed "
                             r"form \(2, 0, 2\)$"):
        factor_dimensions(G, T, sig)


def test_non_admissible_omega_solution_is_a_defect():
    # the genera of the README action of wc3 with the first one raised by 1
    # solve to a multiplicity that is not a nonnegative integer
    G = catalog("wc3")
    T = compute_table(G)
    sig = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    genera = [report.genus for report in lattice_report(G, sig)]
    genera[0] += 1
    with pytest.raises(InternalCheckError,
                       match="^linear system gives a non-admissible multiplicity -128/512$"):
        solve_omega_system(G, T, genera)


def _shift_fixed_dims(T, chi, steps):
    """Keep on T its fixed dimensions with character chi's moved by steps,
    {cyclic-class column: step}."""
    dims = [list(row) for row in T.fixed_dims]
    for c, step in steps.items():
        dims[chi][c] += step
    vars(T)["fixed_dims"] = tuple(map(tuple, dims))


def _first_linear(T):
    return next(chi.index for chi in T.characters
                if chi.degree == 1 and chi.index != T.trivial_character_index)


def _schur_index_3_on_chi7(T, _column):
    T.galois_classes = tuple(
        GaloisClass(gc.members, gc.representative, gc.field_degree, gc.schur_bound,
                    gc.indicator, 3, gc.schur_index_source) if 7 in gc.members else gc
        for gc in T.galois_classes)


@pytest.mark.parametrize("doctor,message", [
    (lambda T, column: _shift_fixed_dims(T, 6, {c: 3 for c in column.values()}),
     "character 6 has negative multiplicity -9"),
    (lambda T, column: _shift_fixed_dims(T, _first_linear(T), {column[2]: -1}),
     "factor dimension 1/2 is not an integer"),
    (lambda T, column: _shift_fixed_dims(T, _first_linear(T), {column[2]: -1, column[4]: -1}),
     "multiplicities weigh to 8, expected 6"),
    (_schur_index_3_on_chi7,
     "multiplicity 2 is not divisible by the Schur index 3 of character 7"),
], ids=["negative-multiplicity", "half-dimension", "sum-rule", "schur-divisibility"])
def test_doctored_table_fails_the_closed_form_checks(doctor, message):
    # the README action of wc3, (0; [6,xa^2], [4,xyab], [2,xyzb]), on a
    # table doctored in one place; column[m] is the cyclic class of the
    # order-m branch, and chi7 is the class with n = 2
    G = catalog("wc3")
    T = compute_table(G)
    sig = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    assert factor_dimensions(G, T, sig).summary() == "JS ~ E^3"
    column = {e.order: G.cyclic_class_index(e.cls.representative) for e in sig.entries}
    doctor(T, column)
    with pytest.raises(InternalCheckError, match=f"^{message}"):
        factor_dimensions(G, T, sig)


# -- the omega solve: Bareiss elimination against Fraction Gauss-Jordan ---------


def _gauss_jordan(matrix, rhs):
    # the Fraction Gauss-Jordan solve that Bareiss elimination replaced
    from fractions import Fraction

    n = len(matrix)
    work = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise InternalCheckError("fixed-dimension matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [work[r][n] for r in range(n)]


def _random_systems(count):
    import random

    rng = random.Random(20)
    for _ in range(count):
        n = rng.randint(1, 7)
        yield ([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)],
               [rng.randint(-9, 9) for _ in range(n)])


def test_solve_exact_refuses_a_singular_matrix():
    with pytest.raises(InternalCheckError, match="^fixed-dimension matrix is singular$"):
        jacobian._solve_exact([[1, 2], [2, 4]], [1, 2])
    with pytest.raises(InternalCheckError, match="^fixed-dimension matrix is singular$"):
        jacobian._solve_exact([[0]], [5])


def test_solve_exact_returns_integers():
    # the pair (d, d·x): the last Bareiss pivot and the scaled solution, all ints
    for matrix, rhs, expected in [([[2]], [3], (2, [3])), ([[-3]], [6], (-3, [6])),
                                  ([[1]], [0], (1, [0]))]:
        assert jacobian._solve_exact(matrix, rhs) == expected
    d, scaled = jacobian._solve_exact([[0, 2], [3, 1]], [4, 5])
    assert abs(d) == 6 and scaled == [d, 2 * d]
    assert all(type(v) is int for v in (d, *scaled))


def test_solve_exact_matches_fraction_gauss_jordan():
    from fractions import Fraction

    solved = 0
    for matrix, rhs in _random_systems(300):
        try:
            expected = _gauss_jordan(matrix, rhs)
        except InternalCheckError:
            with pytest.raises(InternalCheckError, match="singular"):
                jacobian._solve_exact(matrix, rhs)
            continue
        d, scaled = jacobian._solve_exact(matrix, rhs)
        assert [Fraction(x, d) for x in scaled] == expected
        solved += 1
    assert solved > 200


def test_solve_exact_divisions_are_exact(monkeypatch):
    # every Bareiss step divides by the previous pivot with no remainder; a
    # remainder would be an InternalCheckError, never a rounded quotient
    rests = []

    def recorded(a, b):
        q, r = divmod(a, b)
        rests.append(r)
        return q, r

    monkeypatch.setattr(jacobian, "divmod", recorded, raising=False)
    for matrix, rhs in _random_systems(100):
        try:
            jacobian._solve_exact(matrix, rhs)
        except InternalCheckError:
            pass
    assert rests and set(rests) == {0}
    monkeypatch.setattr(jacobian, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(InternalCheckError, match="^Bareiss division by the pivot 1 is not exact$"):
        jacobian._solve_exact([[2, 1], [1, 3]], [1, 1])


def test_solve_exact_back_substitution_is_exact(monkeypatch):
    # a 1x1 system has no elimination step, so its one division is the
    # back-substitution of d·x, which must leave no remainder either
    assert jacobian._solve_exact([[2]], [3]) == (2, [3])
    monkeypatch.setattr(jacobian, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(InternalCheckError, match="back-substitution of 2·x is not exact"):
        jacobian._solve_exact([[2]], [3])
