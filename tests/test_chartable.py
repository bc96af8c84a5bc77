import itertools
import random
from fractions import Fraction

import pytest

from corpus import geometric_signature
from cyclo_ref import Cyclo, character_values, cyclo_average
from geosig import chartable
from geosig.chartable import (
    SCHUR_COMPUTED,
    SCHUR_OVERRIDE,
    CharacterTable,
    _check_norms,
    _class_matrix,
    _choose_prime,
    _eval_poly,
    _poly_roots_modp,
    _split_spaces,
    compute_table,
    schur_bound_is_verified,
)
from geosig.cyclotomic import cyclotomic_polynomial, euler_phi, reduce_integral
from geosig.errors import GroupInputError, InternalCheckError
from geosig.groups import catalog, group_from_payload
from geosig.jacobian import factor_dimensions

CATALOG_SMALL = [
    "cyclic(1)", "cyclic(3)", "cyclic(4)", "cyclic(6)",
    "dihedral(4)", "dihedral(6)", "symmetric(3)", "symmetric(4)",
    "alternating(4)", "quaternion8", "wc3",
]
W_D5 = {"name": "w_d5", "degree": 10, "generators": {
    "a": "(1,2,3,4,5)(6,7,8,9,10)", "b": "(1,2)(6,7)", "c": "(1,6)(2,7)"}}


def group_by_name(name):
    return group_from_payload(W_D5) if name == "w_d5" else catalog(name)


# -- reference: the split by characteristic polynomials and nullspaces ---------
#
# The table once split each invariant subspace by the roots of the
# characteristic polynomial of a class matrix restricted to it, with one
# nullspace per root.  That split and the helpers only it read are kept
# here as the reference for the projection split of `_split_spaces`.


def _rref(rows, p):
    """Reduced row echelon form mod p; returns (rows, pivot columns)."""
    rows = [row[:] for row in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _nullspace(mat, p):
    n = len(mat)
    rows, pivots = _rref(mat, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = (-row[fc]) % p
        basis.append(vec)
    return basis


def _coords_in_basis(vec, rows, pivots, p):
    """Coordinates of vec in an RREF basis; vec must lie in the span."""
    v = vec[:]
    coords = []
    for row, pc in zip(rows, pivots):
        c = v[pc]
        coords.append(c)
        if c:
            v = [(a - c * b) % p for a, b in zip(v, row)]
    if any(v):
        raise InternalCheckError("vector left the invariant subspace")
    return coords


def _charpoly_modp(mat, p):
    """Characteristic polynomial mod p (ascending coefficients, monic)."""
    n = len(mat)
    h = [row[:] for row in mat]
    # reduce to upper Hessenberg form by a similarity transformation
    for c in range(n - 2):
        pivot = next((r for r in range(c + 1, n) if h[r][c]), None)
        if pivot is None:
            continue
        if pivot != c + 1:
            h[c + 1], h[pivot] = h[pivot], h[c + 1]
            for row in h:
                row[c + 1], row[pivot] = row[pivot], row[c + 1]
        inv = pow(h[c + 1][c], p - 2, p)
        for r in range(c + 2, n):
            f = h[r][c] * inv % p
            if f:
                h[r] = [(a - f * b) % p for a, b in zip(h[r], h[c + 1])]
                for row in h:
                    row[c + 1] = (row[c + 1] + f * row[r]) % p
    # recurrence over leading principal minors of xI - H
    polys = [[1]]
    for m in range(1, n + 1):
        cur = [0] + polys[m - 1]  # x * p_{m-1}
        diag = h[m - 1][m - 1]
        cur = [
            (a - diag * b) % p
            for a, b in zip(cur, polys[m - 1] + [0])
        ]
        mult = 1
        for i in range(1, m):
            mult = mult * h[m - i][m - i - 1] % p
            if not mult:
                break
            coeff = h[m - i - 1][m - 1] * mult % p
            if coeff:
                prev = polys[m - i - 1]
                cur = [
                    (a - coeff * (prev[j] if j < len(prev) else 0)) % p
                    for j, a in enumerate(cur)
                ]
        polys.append(cur)
    return polys[n]


def reference_class_matrix(G, i, times_reps):
    """Entry (j, k): the x in class i with x^-1 rep_k in class j; x^-1 spans the
    inverse class, the class of the Perm inverse of rep_i.  times_reps[k] is
    the column y -> y * rep_k."""
    classes = G.conjugacy_classes
    cls_of = G.class_of
    inverses = classes[G.class_index[classes[i].representative.inverse()]].indices
    s = len(classes)
    mat = [[0] * s for _ in range(s)]
    for k, times_rep in enumerate(times_reps):
        for y in inverses:
            mat[cls_of[times_rep[y]]][k] += 1
    return mat


def reference_split(G, p):
    """Common eigenvectors of all class matrices over F_p, one per character."""
    s = len(G.conjugacy_classes)
    spaces = [_rref([[1 if i == j else 0 for j in range(s)] for i in range(s)], p)]
    times_reps = [G.right(cls.indices[0]) for cls in G.conjugacy_classes]
    for i in range(1, s):
        if all(len(rows) == 1 for rows, _ in spaces):
            break
        sparse = [[(c, v % p) for c, v in enumerate(row) if v]
                  for row in reference_class_matrix(G, i, times_reps)]
        refined = []
        for rows, pivots in spaces:
            d = len(rows)
            if d == 1:
                refined.append((rows, pivots))
                continue
            images = [[sum(v * vec[c] for c, v in entries) % p for entries in sparse]
                      for vec in rows]
            restr_cols = [_coords_in_basis(img, rows, pivots, p) for img in images]
            # restriction matrix: columns are images of basis vectors
            restr = [[restr_cols[j][i2] for j in range(d)] for i2 in range(d)]
            for lam in sorted(_poly_roots_modp(_charpoly_modp(restr, p), p)):
                shifted = [
                    [(restr[a][b] - (lam if a == b else 0)) % p for b in range(d)]
                    for a in range(d)
                ]
                null = _nullspace(shifted, p)
                if not null:
                    continue
                ambient = [
                    [sum(cv * rows[j][c] for j, cv in enumerate(coords)) % p
                     for c in range(s)]
                    for coords in null
                ]
                refined.append(_rref(ambient, p))
        spaces = refined
    if not all(len(rows) == 1 for rows, _ in spaces):
        raise InternalCheckError("class matrices failed to split the class algebra")
    if len(spaces) != s:
        raise InternalCheckError("wrong number of common eigenvectors")
    return [rows[0] for rows, _ in spaces]


def _normalized(vectors, p):
    """The vectors scaled to 1 on the identity class, sorted."""
    return sorted(tuple(v * pow(w[0], -1, p) % p for v in w) for w in vectors)


def perm_powers(G, g):
    """The classes of g^0, g^1, ..., g^(m-1), m the order of g, by Perm products."""
    out, power = [G.class_index[G.identity]], g
    while power != G.identity:
        out.append(G.class_index[power])
        power = power * g
    return out


def elements_of_order(p, e):
    """The elements of multiplicative order e in F_p, ascending, by their powers."""
    return [x for x in range(1, p)
            if pow(x, e, p) == 1 and all(pow(x, k, p) != 1 for k in range(1, e))]


def reference_rows(G):
    """(degree, integer row) of every character, sorted, from the reference
    split and an inverse DFT on every class over the classes of its
    representative's Perm powers, summed by `reduce_integral`; zeta_e maps to
    the largest element of order e in F_p."""
    classes = G.conjugacy_classes
    s, e = len(classes), G.exponent
    p = _choose_prime(G.order, e)
    zeta_e = elements_of_order(p, e)[-1]
    class_powers = [perm_powers(G, cls.representative) for cls in classes]
    inverse_class = [G.class_index[cls.representative.inverse()] for cls in classes]
    out = []
    for w in _normalized(reference_split(G, p), p):
        norm = sum(w[j] * w[inverse_class[j]] * pow(classes[j].size, -1, p)
                   for j in range(s)) % p
        degree = next(d for d in range(1, G.order + 1) if d * d * norm % p == G.order % p)
        tvals = [degree * w[j] * pow(classes[j].size, -1, p) % p for j in range(s)]
        row = []
        for powers in class_powers:
            m = len(powers)
            zeta_m = pow(zeta_e, e // m, p)
            poly = [0] * e
            for k in range(m):
                a = sum(tvals[c] * pow(zeta_m, -k * u, p) for u, c in enumerate(powers))
                poly[k * e // m] = a * pow(m, -1, p) % p
            row.append(reduce_integral(poly, e))
        out.append((degree, tuple(row)))
    return sorted(out)


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


SPLIT_GROUPS = CATALOG_SMALL + ["symmetric(5)", "symmetric(6)", "alternating(5)",
                                "cyclic(15)", "dihedral(16)", "cyclic(24)", "dihedral(15)"]


@pytest.mark.parametrize("name", ["symmetric(4)", "wc3", "alternating(5)", "dihedral(15)",
                                  "cyclic(12)"])
def test_class_matrices_match_the_per_representative_count(name):
    # one column z -> z * y0 over every class gives the count over each
    # class representative
    G = catalog(name)
    times_reps = [G.right(cls.indices[0]) for cls in G.conjugacy_classes]
    for i in range(len(G.conjugacy_classes)):
        sparse = [[(c, v) for c, v in enumerate(row) if v]
                  for row in reference_class_matrix(G, i, times_reps)]
        assert _class_matrix(G, i) == sparse, i


@pytest.mark.parametrize("name", SPLIT_GROUPS)
def test_projection_split_matches_the_reference_split(name):
    # the two splits find the same eigenvectors, up to scale and order
    G = catalog(name)
    p = _choose_prime(G.order, G.exponent)
    assert _normalized(_split_spaces(G, p), p) == _normalized(reference_split(G, p), p)


@pytest.mark.parametrize("rows", [
    [[(0, 1), (1, 1)], [(1, 1)]],  # a Jordan block: f = (x - 1)^2
    [[(1, 6)], [(0, 1)]],  # a rotation: f = x^2 + 1, with no root mod 7
], ids=["repeated-root", "no-root"])
def test_minimal_polynomial_without_distinct_roots_is_a_defect(rows):
    with pytest.raises(InternalCheckError, match="^minimal polynomial .* of a class-algebra "
                                                 "vector does not have 2 distinct roots mod 7$"):
        chartable._split_leaf([0, 1], rows, 7)


def test_split_vectors_are_checked_against_the_matrices_read(monkeypatch):
    # symmetric(5) is split by one class matrix; a leaf that mixes two of its
    # eigenvectors has the right count and must fail the eigenvector check
    split_leaf = chartable._split_leaf

    def mixed(u, sparse, p):
        parts = split_leaf(u, sparse, p)
        if len(parts) > 1:
            parts[0] = [(a + b) % p for a, b in zip(parts[0], parts[1])]
        return parts

    monkeypatch.setattr(chartable, "_split_leaf", mixed)
    G = catalog("symmetric(5)")
    with pytest.raises(InternalCheckError,
                       match="^a split vector is not an eigenvector of class matrix 1$"):
        _split_spaces(G, _choose_prime(G.order, G.exponent))


LIFT_GROUPS = ["quaternion8", "symmetric(4)", "wc3", "alternating(5)", "cyclic(15)",
               "dihedral(16)", "cyclic(24)", "dihedral(15)", "cyclic(30)"]


@pytest.mark.parametrize("name", LIFT_GROUPS)
def test_lifted_rows_match_a_per_class_dft(name):
    # one inverse DFT per rational class, moved to the other classes, gives
    # the rows of an inverse DFT on every class, under another image of zeta_e
    G = catalog(name)
    T = compute_table(G)
    assert [(chi.degree, chi.row) for chi in T.characters] == reference_rows(G)


def package_zeta(G, monkeypatch):
    """The image of zeta_e in F_p that `compute_table` takes: the last point
    at which it evaluates Phi_e, where its search for a root stops."""
    cyclo, points = cyclotomic_polynomial(G.exponent), []
    evaluate = chartable._eval_poly

    def spy(poly, x, p):
        if poly is cyclo:
            points.append(x)
        return evaluate(poly, x, p)

    monkeypatch.setattr(chartable, "_eval_poly", spy)
    compute_table(G)
    return points[-1]


@pytest.mark.parametrize("name", LIFT_GROUPS)
def test_the_reference_lift_takes_another_image_of_zeta(name, monkeypatch):
    # the table maps zeta_e to the least root of Phi_e mod p, the least
    # element of order e; the reference takes the largest, another one
    # wherever phi(e) >= 2, so the lift test compares two Galois-conjugate
    # images of zeta_e and the table does not depend on the choice
    G = catalog(name)
    p = _choose_prime(G.order, G.exponent)
    of_order = elements_of_order(p, G.exponent)
    assert euler_phi(G.exponent) == len(of_order) >= 2
    assert package_zeta(G, monkeypatch) == of_order[0] != of_order[-1]


@pytest.mark.parametrize("name", ["cyclic(15)", "cyclic(30)", "dihedral(30)", "symmetric(6)",
                                  "alternating(5)", "quaternion8", "wc3", "w_d5"])
def test_row_and_column_norms_hold(name):
    G = group_by_name(name)
    _norms(G, [chi.row for chi in compute_table(G).characters])


def _norms(G, rows):
    """`_check_norms` on rows of G, with the inverse classes from the power map."""
    _check_norms(G, rows, [G.class_power(j, -1) for j in range(len(G.conjugacy_classes))])


def _s4_rows_with(degree2_values):
    """The rows of the symmetric(4) table with the degree-2 row replaced by
    values keyed by (element order, class size)."""
    G = catalog("symmetric(4)")
    T = compute_table(G)
    phi = len(T.characters[0].row[0])
    doctored = tuple((degree2_values[cls.element_order, cls.size],) + (0,) * (phi - 1)
                     for cls in G.conjugacy_classes)
    return G, [doctored if chi.degree == 2 else chi.row for chi in T.characters]


def test_doctored_rows_fail_the_column_norms():
    # in class order, (2, 0, 1, 1, -1) keeps the row norm 4 + 0 + 6 + 8 + 6 = 24,
    # but the column of the double transpositions (class 1) sums to 4, not 24/3
    G, rows = _s4_rows_with({(1, 1): 2, (2, 6): 1, (2, 3): 0, (3, 8): 1, (4, 6): -1})
    with pytest.raises(InternalCheckError,
                       match=r"class 1 fails column orthogonality: .* is 4, expected 8$"):
        _norms(G, rows)
    G, rows = _s4_rows_with({(1, 1): 2, (2, 6): 0, (2, 3): 2, (3, 8): -1, (4, 6): 0})
    _norms(G, rows)  # the true row


def test_doctored_rows_fail_the_row_norms():
    # (2, 2, 0, 0, 0) has the row norm 4 + 12 = 16
    G, rows = _s4_rows_with({(1, 1): 2, (2, 6): 0, (2, 3): 2, (3, 8): 0, (4, 6): 0})
    with pytest.raises(InternalCheckError, match="character 2 fails self-orthogonality"):
        _norms(G, rows)


def test_a_changed_degree_fails_the_norms():
    # the table keeps no separate check of sum chi(1)^2 = |G|: the column norm
    # of the identity class is that sum.  Raising the degree 2 to 4 alone fails
    # that row's norm; with the double transpositions' value 2 set to 0 as
    # well, (4, 0, 0, -1, 0) keeps the row norm 16 + 8 = 24, and only the
    # identity's column, 1 + 1 + 16 + 9 + 9 = 36, is left to catch it
    G, rows = _s4_rows_with({(1, 1): 4, (2, 6): 0, (2, 3): 2, (3, 8): -1, (4, 6): 0})
    with pytest.raises(InternalCheckError, match="character 2 fails self-orthogonality"):
        _norms(G, rows)
    G, rows = _s4_rows_with({(1, 1): 4, (2, 6): 0, (2, 3): 0, (3, 8): -1, (4, 6): 0})
    with pytest.raises(InternalCheckError,
                       match=r"class 0 fails column orthogonality: .* is 36, expected 24$"):
        _norms(G, rows)


def test_compute_table_is_the_one_way_in():
    T = compute_table(catalog("symmetric(4)"))
    with pytest.raises(TypeError, match="use compute_table"):
        CharacterTable(T.group, T.characters)


# -- the table's run-time checks, each doctored in one place to fire ------------


def _split_doctored(monkeypatch, change):
    """Make compute_table read the common eigenvectors with change applied."""
    split = chartable._split_spaces
    monkeypatch.setattr(chartable, "_split_spaces", lambda G, p: change(split(G, p)))


def test_eigenvector_zero_on_the_identity_fails_the_degree_check(monkeypatch):
    # no separate check refuses w[0] = 0: the scale 1/w[0] is then 0 in F_p,
    # so the norm and d2 are 0, and no d < p squares to 0 mod the prime p
    _split_doctored(monkeypatch, lambda vectors: [[0, *vectors[1][1:]], *vectors[1:]])
    with pytest.raises(InternalCheckError, match="^lifted degree out of range$"):
        compute_table(catalog("symmetric(4)"))


def test_a_repeated_eigenvector_fails_the_duplicate_row_check(monkeypatch):
    # quaternion8's first eigenvector in place of its last lifts one row twice
    _split_doctored(monkeypatch, lambda vectors: vectors[:1] + vectors[:-1])
    with pytest.raises(InternalCheckError, match="^duplicate character rows$"):
        compute_table(catalog("quaternion8"))


def test_a_wrong_power_walk_fails_the_multiplicity_sum(monkeypatch):
    # quaternion8's power walk of cyclic class 2 runs through the classes of
    # 1, g, g^2 = -1 and g^3 for a g of order 4; read as 1, g, g, g, its
    # inverse DFT gives residues mod p that are no multiplicities, and they
    # do not sum to the degree
    G = catalog("quaternion8")
    walks = list(G.power_walks)
    assert walks[2] == (0, 2, 1, 2)
    walks[2] = (0, 2, 2, 2)
    monkeypatch.setitem(vars(G), "power_walks", tuple(walks))
    with pytest.raises(InternalCheckError,
                       match="^eigenvalue multiplicities on the power walk of cyclic class 2 "
                             "do not sum to degree$"):
        compute_table(G)


def _overshoot(split_leaf):
    """A leaf split that returns its first part twice whenever it splits."""
    def doctored(u, sparse, p):
        parts = split_leaf(u, sparse, p)
        return parts + parts[:1] if len(parts) > 1 else parts
    return doctored


@pytest.mark.parametrize("doctor,count", [
    (lambda split_leaf: lambda u, sparse, p: [u], 1),
    (_overshoot, 11),
], ids=["too-few", "too-many"])
def test_a_wrong_leaf_count_fails_the_split_count(monkeypatch, doctor, count):
    # one check refuses both a split that stops short of the s = 5 classes of
    # symmetric(4) and one that overshoots it, and names both counts
    monkeypatch.setattr(chartable, "_split_leaf", doctor(chartable._split_leaf))
    G = catalog("symmetric(4)")
    with pytest.raises(InternalCheckError,
                       match=f"^class matrices split the class algebra into {count} common "
                             "eigenvectors, not 5$"):
        _split_spaces(G, _choose_prime(G.order, G.exponent))


def test_a_wrong_class_number_fails_the_class_matrix(monkeypatch):
    # in symmetric(3), the two 3-cycles z times the transposition y0 land on
    # two transpositions; one of them filed in the identity class makes the
    # entry (1 * 3) / 2 of class matrix 1
    G = catalog("symmetric(3)")
    _class_matrix(G, 1)
    transpositions, three_cycles = G.conjugacy_classes[1:]
    assert (transpositions.size, three_cycles.size) == (3, 2)
    hit = G.right(transpositions.indices[0])[three_cycles.indices[0]]
    class_of = list(G.class_of)
    class_of[hit] = 0
    monkeypatch.setitem(vars(G), "class_of", class_of)
    with pytest.raises(InternalCheckError, match="^class matrix 1 has a fractional entry$"):
        _class_matrix(G, 1)


def test_a_table_without_the_trivial_character_is_a_defect(monkeypatch):
    T = compute_table(catalog("symmetric(4)"))
    monkeypatch.setattr(T, "characters", tuple(chi for chi in T.characters if chi.degree > 1))
    with pytest.raises(InternalCheckError, match="^no trivial character found$"):
        T.trivial_character_index


def test_a_fractional_fixed_dimension_is_a_defect(monkeypatch):
    # one member too many in the identity class of <(1,2)>: the trivial
    # character sums to 3 over 2 elements
    G = catalog("symmetric(4)")
    T = compute_table(G)
    H = G.subgroup([G.element("(1,2)")])
    monkeypatch.setitem(vars(H), "class_counts", H.class_counts + ((0, 1),))
    with pytest.raises(InternalCheckError,
                       match="^fixed-space dimension is not a nonnegative integer: 3/2$"):
        T.fixed_dim(T.characters[T.trivial_character_index], H)


def test_an_indicator_out_of_range_is_a_defect(monkeypatch):
    # every g squared to the identity, counted twice, averages the trivial
    # character to 2
    G = catalog("symmetric(4)")
    T = compute_table(G)
    monkeypatch.setitem(vars(T), "_square_weights", ((0, 2 * G.order),))
    with pytest.raises(InternalCheckError,
                       match=r"^Frobenius-Schur indicator is not in -1\.\.1: 2$"):
        T.frobenius_schur_indicator(T.characters[T.trivial_character_index])


def test_a_missing_galois_conjugate_is_a_defect():
    # cyclic(3)'s characters 0 and 1 are Galois conjugate; without 0, the
    # image of 1 under zeta -> zeta^2 is no row of the table
    G = catalog("cyclic(3)")
    T = compute_table(G)
    with pytest.raises(InternalCheckError,
                       match="^power map left the character table; lifting is inconsistent$"):
        CharacterTable._trusted(G, T.characters[1:], T.fixed_dims[1:], {})


def test_an_odd_bound_under_indicator_minus_one_is_a_defect(monkeypatch):
    # the bound is a gcd that includes chi(1) >= 1, so it is always a
    # positive divisor of itself: the one check left is its parity under
    # indicator -1.  A fixed dimension 1 on the last cyclic class makes the
    # bound of quaternion8's quaternionic character gcd(2, 0, 0, 0, 1) = 1
    T = compute_table(catalog("quaternion8"))
    assert T.fixed_dims[4] == (2, 0, 0, 0, 0)
    dims = list(T.fixed_dims)
    dims[4] = (2, 0, 0, 0, 1)
    monkeypatch.setitem(vars(T), "fixed_dims", tuple(dims))
    with pytest.raises(InternalCheckError,
                       match="^computed Schur bound 1 of character 4 is odd under indicator -1$"):
        T._build_galois_classes({})


def test_a_galois_class_count_off_the_cyclic_classes_is_a_defect(monkeypatch):
    # with one class of cyclic subgroups dropped, symmetric(4)'s 5 rational
    # characters still make 5 Galois classes, against 4 cyclic classes
    G = catalog("symmetric(4)")
    T = compute_table(G)
    monkeypatch.setitem(vars(G), "cyclic_subgroup_classes", G.cyclic_subgroup_classes[:-1])
    with pytest.raises(InternalCheckError,
                       match="^Galois class count does not match cyclic subgroup classes$"):
        CharacterTable._trusted(G, T.characters, T.fixed_dims, {})


def test_cyclic4_table():
    T = compute_table(catalog("cyclic(4)"))
    assert [chi.degree for chi in T.characters] == [1, 1, 1, 1]
    # values on x are exactly the fourth roots of unity
    x_class = next(
        j for j, c in enumerate(T.classes) if c.element_order == 4
    )
    vals = {str(character_values(chi, T.group.exponent)[x_class].promoted(4))
            for chi in T.characters}
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
    assert all(v.is_rational()
               for chi in T.characters for v in character_values(chi, T.group.exponent))
    assert all(gc.field_degree == 1 for gc in T.galois_classes)
    assert len(T.galois_classes) == 10


def test_orthogonality_both_relations():
    for name in CATALOG_SMALL:
        G = catalog(name)
        T = compute_table(G)
        s = len(T.classes)
        values = [character_values(chi, G.exponent) for chi in T.characters]
        # first: row orthogonality
        for a in T.characters:
            for b in T.characters:
                total = Cyclo.zero(1)
                for j, cls in enumerate(T.classes):
                    total = total + values[a.index][j] * values[b.index][j].conjugate() * cls.size
                assert total == (G.order if a.index == b.index else 0), (name, a, b)
        # second: column orthogonality
        for j in range(s):
            for k in range(s):
                total = Cyclo.zero(1)
                for row in values:
                    total = total + row[j] * row[k].conjugate()
                want = G.order // T.classes[j].size if j == k else 0
                assert total == want, (name, j, k)


def test_regular_character_row():
    for name in ("dihedral(4)", "symmetric(4)", "wc3"):
        G = catalog(name)
        T = compute_table(G)
        values = [character_values(chi, G.exponent) for chi in T.characters]
        for j in range(len(T.classes)):
            total = Cyclo.zero(1)
            for chi, row in zip(T.characters, values):
                total = total + row[j] * chi.degree
            assert total == (G.order if j == 0 else 0)


def test_fixed_dim_basics():
    G = catalog("cyclic(4)")
    T = compute_table(G)
    triv = T.characters[T.trivial_character_index]
    x = G.named_generators["x"]
    H = G.subgroup([x * x])
    for chi in T.characters:
        assert T.fixed_dim(chi, G.subgroup([])) == chi.degree
    assert T.fixed_dim(triv, H) == 1
    # the character x -> i restricted to <x^2> averages to 0
    chi_i = next(
        chi for chi in T.characters
        if not character_values(chi, G.exponent)[G.class_index[x]].is_rational()
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
    # index 1 on a quaternionic character contradicts its indicator -1
    with pytest.raises(GroupInputError, match="computed bound 2 and be even"):
        compute_table(G, schur_overrides={idx: 1})
    T2 = compute_table(G, schur_overrides={idx: 2})
    gc = next(gc for gc in T2.galois_classes if idx in gc.members)
    assert gc.schur_index == 2
    assert gc.schur_index_source == SCHUR_OVERRIDE


GOLDEN_GROUPS = ("dihedral(4)", "wc3", "quaternion8", "symmetric(4)", "symmetric(5)",
                 "symmetric(6)", "alternating(5)", "alternating(6)", "cyclic(6)",
                 "dihedral(6)")
SCHUR_DATA_GROUPS = tuple(dict.fromkeys(
    GOLDEN_GROUPS + tuple(f"cyclic({n})" for n in range(1, 13))
    + tuple(f"dihedral({n})" for n in range(3, 13))))


def test_galois_members_share_degree_and_fixed_dims():
    # the fixed dimensions the lift keeps are those that fixed_dim and the
    # Cyclo reference average on each cyclic-class representative, and they
    # are the same for every member of a Galois class
    for name in dict.fromkeys(CATALOG_SMALL + list(SCHUR_DATA_GROUPS)):
        G = catalog(name)
        T = compute_table(G)
        reps = [cls.representative for cls in G.cyclic_subgroup_classes]
        assert len(T.fixed_dims) == len(T.characters)
        for chi, dims in zip(T.characters, T.fixed_dims):
            assert dims == tuple(T.fixed_dim(chi, H) for H in reps), (name, chi.index)
            assert dims == tuple(cyclo_average(chi, G, H.members, H.order) for H in reps)
        for gc in T.galois_classes:
            assert len({T.characters[i].degree for i in gc.members}) == 1
            assert len({T.fixed_dims[i] for i in gc.members}) == 1


@pytest.mark.parametrize("name", SCHUR_DATA_GROUPS)
def test_stored_schur_data_matches_a_recomputation(name):
    # the bound and the indicator are built once per Galois class; both are
    # Galois invariants, so the representative's bound and every member's
    # indicator must agree with them
    T = compute_table(catalog(name))
    for gc in T.galois_classes:
        assert gc.representative == gc.members[0]
        assert gc.schur_bound == T._schur_upper_bound(T.characters[gc.representative])
        assert gc.schur_index == gc.schur_bound
        assert {T.frobenius_schur_indicator(T.characters[i]) for i in gc.members} == {
            gc.indicator}


def test_schur_flag_reads_the_stored_data(monkeypatch):
    # compute_table keeps the lift's fixed dimensions, and the Schur bounds,
    # the flag and a decomposition read them: no engine path calls fixed_dim
    calls = []
    fixed_dim = CharacterTable.fixed_dim
    monkeypatch.setattr(CharacterTable, "fixed_dim",
                        lambda self, chi, H: calls.append(chi.index) or fixed_dim(self, chi, H))
    tables = [compute_table(catalog(name)) for name in ("quaternion8", "symmetric(6)", "wc3")]
    assert [schur_bound_is_verified(T) for T in tables] == [True, False, True]
    G = tables[2].group
    sig = geometric_signature(G, 0, ("xa^2", "xyab", "xyzb"))
    assert factor_dimensions(G, tables[2], sig).summary() == "JS ~ E^3"
    assert calls == []
    tables[0].fixed_dim(tables[0].characters[0], tables[0].group.subgroup([]))
    assert calls == [0]  # the wrapper is live: a call would have been counted


def test_galois_classes_are_frozen():
    gc = compute_table(catalog("quaternion8")).galois_classes[0]
    with pytest.raises(AttributeError):
        gc.schur_index = 2


def test_frobenius_schur_values():
    G = catalog("cyclic(4)")
    T = compute_table(G)
    x = G.named_generators["x"]
    triv = T.characters[T.trivial_character_index]
    assert T.frobenius_schur_indicator(triv) == 1
    chi_i = next(chi for chi in T.characters
                 if not character_values(chi, G.exponent)[G.class_index[x]].is_rational())
    assert T.frobenius_schur_indicator(chi_i) == 0


def test_kernel_subgroup():
    G = catalog("cyclic(4)")
    T = compute_table(G)
    x = G.named_generators["x"]
    # the order-2 character has kernel <x^2>
    chi = next(
        c for c in T.characters
        if character_values(c, G.exponent)[G.class_index[x]] == -1
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

