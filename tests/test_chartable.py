import itertools
import random
from fractions import Fraction

import pytest

from geosig.chartable import (
    SCHUR_COMPUTED,
    SCHUR_OVERRIDE,
    _charpoly_modp,
    _eval_poly,
    compute_table,
    schur_bound_is_verified,
)
from geosig.cyclotomic import Cyclo
from geosig.groups import catalog
from geosig.jacobian import factor_dimensions, gamma1_analysis
from geosig.signature import signature_from_payload

CATALOG_SMALL = [
    "cyclic(1)", "cyclic(3)", "cyclic(4)", "cyclic(6)",
    "dihedral(4)", "dihedral(6)", "symmetric(3)", "symmetric(4)",
    "alternating(4)", "quaternion8", "wc3",
]


def brute_charpoly(mat, p):
    """Characteristic polynomial by Leibniz expansion of det(xI - M)."""
    n = len(mat)
    poly = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            q = start
            while not seen[q]:
                seen[q] = True
                q = perm[q]
                length += 1
            if length % 2 == 0:
                sign = -sign
        # product over i of (xI - M)[i][perm[i]]
        term = [1]
        for i in range(n):
            if perm[i] == i:
                term = [(-mat[i][i] * c) % p for c in term] \
                    if False else _mul_linear(term, (-mat[i][i]) % p, p)
            else:
                term = [c * (-mat[i][perm[i]]) % p for c in term]
        for d, c in enumerate(term):
            poly[d] = (poly[d] + sign * c) % p
    return poly


def _mul_linear(poly, const, p):
    # multiply by (x + const)
    out = [0] + poly
    for i, c in enumerate(poly):
        out[i] = (out[i] + const * c) % p
    return out


def test_charpoly_against_brute_force():
    rng = random.Random(5)
    p = 13
    for n in (1, 2, 3, 4):
        for _ in range(15):
            mat = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            got = _charpoly_modp(mat, p)
            want = brute_charpoly(mat, p)
            assert got == want, (mat, got, want)


def test_charpoly_roots_are_eigenvalues():
    p = 13
    mat = [[2, 1, 0], [0, 2, 0], [0, 0, 5]]
    poly = _charpoly_modp(mat, p)
    roots = [x for x in range(p) if not _eval_poly(poly, x, p)]
    assert roots == [2, 5]


def test_cyclic4_table():
    T = compute_table(catalog("cyclic(4)"))
    assert [chi.degree for chi in T.characters] == [1, 1, 1, 1]
    i = Cyclo.zeta(4)
    # values on x are exactly the fourth roots of unity
    x_class = next(
        j for j, c in enumerate(T.classes) if c.element_order == 4
    )
    vals = {str(chi.values[x_class].promoted(4)) for chi in T.characters}
    assert vals == {"1", "-1", "z4", "-z4"}
    assert len(T.galois_classes) == 3
    assert sorted(gc.field_degree for gc in T.galois_classes) == [1, 1, 2]


def test_d4_table_degrees():
    T = compute_table(catalog("dihedral(4)"))
    assert sorted(chi.degree for chi in T.characters) == [1, 1, 1, 1, 2]
    # D4 is rational: every Galois class is a singleton
    assert all(gc.field_degree == 1 for gc in T.galois_classes)


def test_cyclic3_galois_pairing():
    T = compute_table(catalog("cyclic(3)"))
    assert len(T.galois_classes) == 2
    sizes = sorted(len(gc.members) for gc in T.galois_classes)
    assert sizes == [1, 2]


def test_wc3_table_is_rational_with_ten_rows():
    T = compute_table(catalog("wc3"))
    assert len(T.characters) == 10
    assert all(v.is_rational() for chi in T.characters for v in chi.values)
    assert all(gc.field_degree == 1 for gc in T.galois_classes)
    assert len(T.galois_classes) == 10


def test_orthogonality_both_relations():
    for name in CATALOG_SMALL:
        G = catalog(name)
        T = compute_table(G)
        s = len(T.classes)
        # first: row orthogonality
        for a in T.characters:
            for b in T.characters:
                total = Cyclo.zero(1)
                for j, cls in enumerate(T.classes):
                    total = total + a.values[j] * b.values[j].conjugate() * cls.size
                assert total == (G.order if a.index == b.index else 0), (name, a, b)
        # second: column orthogonality
        for j in range(s):
            for k in range(s):
                total = Cyclo.zero(1)
                for chi in T.characters:
                    total = total + chi.values[j] * chi.values[k].conjugate()
                want = G.order // T.classes[j].size if j == k else 0
                assert total == want, (name, j, k)


def test_regular_character_row():
    for name in ("dihedral(4)", "symmetric(4)", "wc3"):
        G = catalog(name)
        T = compute_table(G)
        for j in range(len(T.classes)):
            total = Cyclo.zero(1)
            for chi in T.characters:
                total = total + chi.values[j] * chi.degree
            assert total == (G.order if j == 0 else 0)


def test_fixed_dim_basics():
    G = catalog("cyclic(4)")
    T = compute_table(G)
    triv = T.characters[T.trivial_character_index]
    x = G.named_generators["x"]
    H = G.subgroup([x * x])
    for chi in T.characters:
        assert T.fixed_dim(chi, G.trivial_subgroup) == chi.degree
    assert T.fixed_dim(triv, H) == 1
    # the character x -> i restricted to <x^2> averages to 0
    chi_i = next(
        chi for chi in T.characters
        if not chi.values[G.class_index[x]].is_rational()
    )
    assert T.fixed_dim(chi_i, H) == 0


def test_fixed_dim_against_regular_character():
    # sum over irreducibles of degree * fixed_dim equals [G : H]
    for name in ("dihedral(4)", "symmetric(3)", "quaternion8", "wc3"):
        G = catalog(name)
        T = compute_table(G)
        for cls in G.cyclic_subgroup_classes:
            H = cls.representative
            total = sum(chi.degree * T.fixed_dim(chi, H) for chi in T.characters)
            assert total == G.order // H.order


def test_galois_members_share_degree_and_fixed_dims():
    for name in ("cyclic(6)", "alternating(4)", "quaternion8"):
        G = catalog(name)
        T = compute_table(G)
        for gc in T.galois_classes:
            degs = {T.characters[i].degree for i in gc.members}
            assert len(degs) == 1
            for cls in G.cyclic_subgroup_classes:
                dims = {
                    T.fixed_dim(T.characters[i], cls.representative)
                    for i in gc.members
                }
                assert len(dims) == 1


def test_galois_class_count_equals_cyclic_class_count():
    for name in CATALOG_SMALL:
        G = catalog(name)
        T = compute_table(G)
        assert len(T.galois_classes) == len(G.cyclic_subgroup_classes)


def test_schur_index_quaternion():
    G = catalog("quaternion8")
    T = compute_table(G)
    two_dim = next(gc for gc in T.galois_classes
                   if T.characters[gc.representative].degree == 2)
    assert two_dim.schur_index == 2
    assert two_dim.schur_index_source == SCHUR_COMPUTED
    assert T.frobenius_schur_indicator(T.characters[two_dim.representative]) == -1
    assert schur_bound_is_verified(T)


def test_schur_index_linear_characters_are_one():
    for name in ("cyclic(6)", "dihedral(6)", "wc3"):
        T = compute_table(catalog(name))
        for gc in T.galois_classes:
            if T.characters[gc.representative].degree == 1:
                assert gc.schur_index == 1


def test_schur_index_s3_standard_character():
    T = compute_table(catalog("symmetric(3)"))
    std = next(gc for gc in T.galois_classes
               if T.characters[gc.representative].degree == 2)
    assert std.schur_index == 1


def test_schur_override():
    G = catalog("quaternion8")
    T = compute_table(G)
    idx = next(gc.representative for gc in T.galois_classes
               if T.characters[gc.representative].degree == 2)
    # forcing index 1 on a quaternionic character trips the indicator warning
    with pytest.warns(UserWarning, match="indicator -1"):
        T2 = compute_table(G, schur_overrides={idx: 1})
    gc = T2.galois_class_of(idx)
    assert gc.schur_index == 1
    assert gc.schur_index_source == SCHUR_OVERRIDE


def test_frobenius_schur_values():
    G = catalog("cyclic(4)")
    T = compute_table(G)
    x = G.named_generators["x"]
    triv = T.characters[T.trivial_character_index]
    assert T.frobenius_schur_indicator(triv) == 1
    chi_i = next(chi for chi in T.characters
                 if not chi.values[G.class_index[x]].is_rational())
    assert T.frobenius_schur_indicator(chi_i) == 0


def test_kernel_subgroup():
    G = catalog("cyclic(4)")
    T = compute_table(G)
    x = G.named_generators["x"]
    # the order-2 character has kernel <x^2>
    chi = next(
        c for c in T.characters
        if c.values[G.class_index[x]] == -1
    )
    ker = T.kernel(chi)
    assert ker.members == frozenset([G.identity, x * x])


def test_table_determinism():
    a = compute_table(catalog("wc3"))
    b = compute_table(catalog("wc3"))
    assert [c.row for c in a.characters] == [c.row for c in b.characters]
    assert a.to_json() == b.to_json()


def test_render_text_runs():
    text = compute_table(catalog("dihedral(4)")).render_text()
    assert "chi0" in text and "galois class" in text


def test_engine_builds_no_cyclo(monkeypatch):
    # the integer rows are the only stored form of the character values;
    # Cyclo numbers are built only for output, so the table, the
    # decomposition and the gamma = 1 analysis construct none
    built = []
    real_init = Cyclo.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Cyclo, "__init__", counting_init)
    cases = [
        ("wc3", 0, [(6, "xa^2"), (4, "xyab"), (2, "xyzb")]),
        ("symmetric(6)", 0, [(2, "b"), (6, "a"), (5, "(1,2,3,4,5)")]),
        ("symmetric(4)", 1, [(2, "b"), (2, "b")]),
    ]
    for name, genus, branches in cases:
        G = catalog(name)
        sig = signature_from_payload(G, {"genus": genus, "branches": [
            {"order": m, "class_rep": rep} for m, rep in branches]})
        T = compute_table(G)
        report = factor_dimensions(G, T, sig)
        if genus == 1:
            gamma1_analysis(G, T, sig, report)
    assert built == []
    # the values are built on first read, from the rows
    assert str(T.characters[-1].values[0]) == "3" and len(built) == len(T.classes)
