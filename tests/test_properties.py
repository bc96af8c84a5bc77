"""Property tests for the trusted element paths, the single-pass reports,
the integer character rows and the cached conjugates of a subgroup.

Products, inverses and powers are built without re-validation,
`cover_report` computes its data once, the table
averages `fixed_dim` and `frobenius_schur_indicator` are integer sums over
class counts and the class power map, a subgroup's normalizer and conjugates
come from one conjugation walk; each must agree with the fully
validated, separately computed, element-by-element or definitional result.
On drawn spherical generating vectors, the closed-form covers must agree
with the coset-action oracle.  Every vector of the character table's
projection split must be an eigenvector of all the class matrices, on
catalog groups and on drawn permutation groups.  The integer Riemann-Hurwitz genus must agree
with the rational formula, errors included.  The existence search must give
the outcome, witness and budget verdict of a recursive reference over `Perm`
products.
hypothesis is a test-only dependency: the module is skipped when it is
missing, and runs derandomized so that every run draws the same examples.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from corpus import CORPUS, conj, group as corpus_group, materialize  # noqa: E402
from cyclo_ref import character_values, cyclo_average  # noqa: E402
from geosig.chartable import (  # noqa: E402
    _choose_prime,
    _split_spaces,
    compute_table,
)
from geosig.covers import (  # noqa: E402
    cover_report,
    cycle_structure,
    lattice_report,
    marked_points,
    quotient_genus,
)
from geosig.errors import (  # noqa: E402
    InternalCheckError,
    InvalidSignatureError,
    SearchBudgetExceeded,
)
from geosig.groups import FiniteGroup, Perm, Subgroup, catalog  # noqa: E402
from geosig.monodromy import oracle_summary  # noqa: E402
from geosig.signature import (  # noqa: E402
    BranchEntry,
    GeneratingVector,
    GeometricSignature,
    find_generating_vector,
    riemann_hurwitz_genus,
    signature_from_payload,
    verify_generating_vector,
)
from test_chartable import group_by_name, reference_class_matrix  # noqa: E402

DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=150)

pairs = st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
)


def _compose(a, b):
    """Plain-tuple reference for a * b: a first, then b."""
    return tuple(b[v] for v in a)


@DERANDOMIZED
@given(pairs, st.integers(-12, 12))
def test_trusted_products_match_validated(images, k):
    a_img, b_img = map(tuple, images)
    a, b = Perm(a_img), Perm(b_img)
    ident = tuple(range(len(a_img)))

    prod = a * b
    assert prod == Perm(_compose(a_img, b_img))

    inv = a.inverse()
    assert inv == Perm(inv.image)
    assert _compose(a_img, inv.image) == ident == _compose(inv.image, a_img)

    power = a ** k
    want = ident
    for _ in range(abs(k)):
        want = _compose(want, a_img if k > 0 else inv.image)
    assert power == Perm(want)


@lru_cache(maxsize=None)
def _case(i):
    G, sig, _ = materialize(CORPUS[i])
    return G, sig


@st.composite
def corpus_subgroups(draw):
    """A corpus case and a subgroup generated by up to two of its elements."""
    i = draw(st.integers(0, len(CORPUS) - 1))
    G, sig = _case(i)
    picks = draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    H = G.subgroup([G.elements[j] for j in picks])
    return G, sig, H


@settings(DERANDOMIZED, max_examples=60)
@given(corpus_subgroups())
def test_cover_report_matches_separate_calls(case):
    G, sig, H = case
    report = cover_report(G, sig, H)
    assert report.genus == quotient_genus(G, sig, H)
    assert report.marked_points == marked_points(G, sig, H)
    assert report.cycle_structures == cycle_structure(G, sig, H)


CORPUS_GROUPS = sorted({case.group_name for case in CORPUS})


@st.composite
def subgroup_pairs(draw):
    """A corpus group with subgroups K and H, each generated by one or two of
    its elements; K is built either with its generators or from its members.
    Groups are drawn by name, so the many cyclic cases do not crowd out the
    groups with non-normal subgroups."""
    G = corpus_group(draw(st.sampled_from(CORPUS_GROUPS)))
    K, H = (
        G.subgroup([G.elements[j] for j in draw(
            st.lists(st.integers(0, G.order - 1), min_size=1, max_size=2))])
        for _ in range(2)
    )
    if draw(st.booleans()):
        K = Subgroup._trusted(G, K.indices, None, None)
    return G, K, H


def _perms(G, mask):
    """The permutations whose indices a member mask holds."""
    return frozenset(g for i, g in enumerate(G.elements) if mask >> i & 1)


@settings(DERANDOMIZED, max_examples=80)
@given(subgroup_pairs())
def test_conjugate_sets_are_the_conjugates_in_transversal_order(case):
    # t N(K) is the set of s with s K s^-1 = t K t^-1: each key is the least
    # element of its coset, ascending, and holds t K t^-1 by Perm conjugation
    G, K, H = case
    least = {}
    for t in G.elements:
        least.setdefault(frozenset(conj(t, k) for k in K.members), t)
    assert list(K.conjugate_masks) == [G.index(ell) for ell in least.values()]
    sets = [_perms(G, mask) for mask in K.conjugate_masks.values()]
    assert sets == list(least)
    assert set(sets) == {_perms(G, m) for m in G.subgroup_class(K).member_masks}
    for conj_k, ell in least.items():
        assert len(conj_k & H.members) == sum(
            1 for k in K.members if conj(ell, k) in H.members
        )


@settings(DERANDOMIZED, max_examples=80)
@given(subgroup_pairs())
def test_normalizer_matches_its_definition(case):
    G, K, _ = case
    assert K.normalizer.members == frozenset(
        t for t in G.elements if all(conj(t, k) in K.members for k in K.members)
    )


TABLE_GROUPS = ("cyclic(6)", "dihedral(6)", "quaternion8", "wc3", "symmetric(4)",
                "alternating(5)", "symmetric(5)", "alternating(6)", "symmetric(6)")


@lru_cache(maxsize=None)
def _table(name):
    return compute_table(catalog(name))


@st.composite
def table_characters(draw):
    """A catalog group up to symmetric(6), its table and one of its characters."""
    T = _table(draw(st.sampled_from(TABLE_GROUPS)))
    return T, draw(st.sampled_from(T.characters))


@settings(DERANDOMIZED, max_examples=40)
@given(table_characters(), st.lists(st.integers(0, 719), min_size=1, max_size=2))
def test_fixed_dim_matches_cyclo_average(case, picks):
    T, chi = case
    G = T.group
    H = G.subgroup([G.elements[j % G.order] for j in picks])
    assert T.fixed_dim(chi, H) == cyclo_average(chi, G, H.members, H.order)


@settings(DERANDOMIZED, max_examples=30)
@given(table_characters())
def test_frobenius_schur_matches_cyclo_average(case):
    T, chi = case
    G = T.group
    squares = (g * g for g in G.elements)
    assert T.frobenius_schur_indicator(chi) == cyclo_average(chi, G, squares, G.order)


def _assert_common_eigenvectors(G):
    """Every vector of the projection split is an eigenvector of all s class
    matrices, not only of those the split read; the matrices are counted
    over each class representative, as the reference split counts them."""
    p = _choose_prime(G.order, G.exponent)
    vectors = _split_spaces(G, p)
    s = len(G.conjugacy_classes)
    assert len(vectors) == s
    times_reps = [G.right(cls.indices[0]) for cls in G.conjugacy_classes]
    for i in range(s):
        sparse = [[(c, v) for c, v in enumerate(row) if v]
                  for row in reference_class_matrix(G, i, times_reps)]
        for w in vectors:
            image = [sum(v * w[c] for c, v in entries) % p for entries in sparse]
            j = next(j for j, a in enumerate(w) if a)
            lam = image[j] * pow(w[j], -1, p) % p
            assert image == [lam * a % p for a in w], (G.name, i)


# every catalog family up to order 200, at a spread of parameters; a cyclic
# group checks s^3 products, so the cyclic ones stop at 120
SPLIT_CATALOG = ("quaternion8", "wc3", *(f"symmetric({n})" for n in range(1, 6)),
                 *(f"alternating({n})" for n in range(3, 6)),
                 *(f"cyclic({n})" for n in (1, 2, 7, 12, 15, 30, 60, 64, 97, 120)),
                 *(f"dihedral({n})" for n in (3, 8, 15, 16, 30, 50, 64, 100)))


@pytest.mark.parametrize("name", SPLIT_CATALOG + ("w_d5",))
def test_split_vectors_are_common_eigenvectors(name):
    _assert_common_eigenvectors(group_by_name(name))


@st.composite
def permutation_groups(draw):
    """The group generated by one to three permutations of degree up to 6."""
    n = draw(st.integers(1, 6))
    images = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return FiniteGroup(n, {f"g{i}": Perm(img) for i, img in enumerate(images)})


@settings(DERANDOMIZED, max_examples=40)
@given(permutation_groups())
def test_split_vectors_are_common_eigenvectors_on_drawn_groups(G):
    _assert_common_eigenvectors(G)


def test_non_rational_weighted_sum_is_a_defect():
    T = _table("cyclic(6)")
    G = T.group
    x = G.element("x")
    chi = next(c for c in T.characters
               if not character_values(c, G.exponent)[G.class_index[x]].is_rational())
    # {x} is not a subgroup, so the class sum of chi over it is not rational
    not_a_subgroup = Subgroup._trusted(G, [G.index(x)], None, None)
    with pytest.raises(InternalCheckError, match="^value is not rational: z6$"):
        T.fixed_dim(chi, not_a_subgroup)


@st.composite
def corpus_element_pairs(draw):
    """A corpus group, drawn by name, and two of its element indices."""
    G = corpus_group(draw(st.sampled_from(CORPUS_GROUPS)))
    return G, draw(st.integers(0, G.order - 1)), draw(st.integers(0, G.order - 1))


@DERANDOMIZED
@given(corpus_element_pairs())
def test_columns_and_products_match_perm_products(case):
    G, a, b = case
    els = G.elements
    assert G.right(b)[a] == G.index(els[a] * els[b])
    assert G.inverses[a] == G.index(els[a].inverse())
    assert G.right(b) == [G.index(x * els[b]) for x in els]
    assert G.left(a) == [G.index(els[a] * x) for x in els]


@settings(DERANDOMIZED, max_examples=80)
@given(subgroup_pairs())
def test_masks_match_member_sets_and_index_order_is_image_order(case):
    G, K, H = case
    assert _perms(G, K.mask) == K.members and len(K.indices) == K.order
    assert (K.mask & H.mask).bit_count() == len(K.members & H.members)
    # sorting by index is sorting by image tuple, the canonical order
    assert [g.image for g in G.elements] == sorted(g.image for g in G.elements)
    assert [G.elements[i].image for i in K.indices] == sorted(g.image for g in K.members)
    assert G.elements[0].is_identity()


ORACLE_GROUPS = ("dihedral(3)", "dihedral(4)", "dihedral(5)", "dihedral(6)",
                 "symmetric(4)", "alternating(4)", "quaternion8", "wc3")


@st.composite
def spherical_vectors(draw):
    """A catalog group and branch elements c_1..c_t, t = 3 or 4, with the
    last one forced: c_t = (c_1...c_{t-1})^-1, so the product is 1."""
    G = corpus_group(draw(st.sampled_from(ORACLE_GROUPS)))
    free = draw(st.lists(st.integers(1, G.order - 1), min_size=2, max_size=3))
    acc = 0
    for c in free:
        acc = G.right(c)[acc]
    return G, tuple(G.elements[c] for c in free + [G.inverses[acc]])


@settings(DERANDOMIZED, max_examples=200)
@given(spherical_vectors())
def test_closed_form_covers_match_the_oracle_on_drawn_vectors(case):
    # the gamma = 0 signature is read off the drawn vector, so the vector
    # realizes it; every cyclic-class quotient must then agree with the
    # coset action of the same vector
    G, cs = case
    hypothesis.assume(all(not c.is_identity() for c in cs)
                      and G.generates([G.index(c) for c in cs]))
    subs = [G.subgroup([c]) for c in cs]
    sig = GeometricSignature(0, tuple(
        BranchEntry(H.order, G.cyclic_subgroup_classes[G.cyclic_class_index(H)]) for H in subs
    ))
    vec = GeneratingVector((), (), cs)
    assert verify_generating_vector(G, sig, vec).ok
    for report in lattice_report(G, sig):
        oracle = oracle_summary(G, report.subgroup, vec, 0)
        assert oracle["genus"] == report.genus
        assert oracle["cycle_structures"] == [list(c) for c in report.cycle_structures]


def _rational_genus(order, gamma, orders):
    """g = 1 + |G|(gamma - 1 + sum (m - 1)/2m), in Fractions."""
    g = 1 + order * (gamma - 1 + sum(Fraction(m - 1, 2 * m) for m in orders))
    if g.denominator != 1:
        raise InvalidSignatureError(f"branching data gives non-integral genus {g}")
    if g < 0:
        raise InvalidSignatureError(f"branching data gives negative genus {g}")
    return int(g)


def _genus_kind(order, gamma, orders):
    """Compare riemann_hurwitz_genus with the rational formula; name the case."""
    try:
        want = _rational_genus(order, gamma, orders)
    except InvalidSignatureError as err:
        with pytest.raises(InvalidSignatureError) as got:
            riemann_hurwitz_genus(order, gamma, orders)
        assert str(got.value) == str(err)
        return "negative" if "negative" in str(err) else "non-integral"
    got = riemann_hurwitz_genus(order, gamma, orders)
    assert type(got) is int and got == want
    return "integral"


@settings(DERANDOMIZED, max_examples=400)
@given(st.integers(1, 2000), st.integers(0, 6),
       st.lists(st.one_of(st.integers(2, 12), st.integers(2, 2000)), max_size=8))
@example(2, 0, [])  # genus -1, the first negative value
@example(1, 0, [])  # genus 0
@example(3, 0, [2])  # genus -5/4: non-integral, reported before negative
@example(3, 0, [2, 2, 2])  # genus 1/4
@example(48, 0, [6, 4, 2])  # genus 3
def test_integer_genus_matches_the_rational_formula(order, gamma, orders):
    _genus_kind(order, gamma, orders)


def test_genus_comparison_meets_every_kind():
    kinds = {_genus_kind(order, gamma, orders)
             for order in (1, 2, 3, 8, 24, 48) for gamma in (0, 1, 2)
             for orders in ([], [2], [3, 3], [2, 2, 2], [4, 2, 2], [6, 4, 2], [7, 5])}
    assert kinds == {"integral", "non-integral", "negative"}


SEARCH_GROUPS = ("symmetric(3)", "dihedral(4)", "quaternion8", "alternating(4)", "symmetric(4)")


@st.composite
def search_cases(draw):
    """A catalog group, a quotient genus (2 only for |G| <= 8), up to four
    branch entries, each a plain order or a class representative, and a
    budget."""
    G = corpus_group(draw(st.sampled_from(SEARCH_GROUPS)))
    gamma = draw(st.integers(0, 2 if G.order <= 8 else 1))
    plain = st.builds(lambda m: {"order": m}, st.integers(2, 6))
    classed = st.integers(1, G.order - 1).map(
        lambda i: {"order": G.elements[i].order(), "class_rep": str(G.elements[i])})
    branches = draw(st.lists(st.one_of(plain, classed), max_size=4))
    sig = signature_from_payload(G, {"genus": gamma, "branches": branches})
    return G, sig, draw(st.integers(1, 2000))


def _cyclic(g):
    members, x = {g}, g
    while not x.is_identity():
        x = x * g
        members.add(x)
    return frozenset(members)


def _reference_search(G, sig, budget, spent):
    """The documented search, recursive and on `Perm`s: a_1..a_gamma and
    b_1..b_gamma over G.elements, then c_1..c_{t-1} over their pools, c_t
    forced; one node per complete handle tuple, per c candidate and per
    leaf.  A finished search appends the nodes it spent to `spent`."""
    _rational_genus(G.order, sig.quotient_genus, sig.orders)
    gamma, t = sig.quotient_genus, len(sig.entries)
    pools = []
    for e in sig.entries:
        pool = [g for g in G.elements if g.order() == e.order]
        if e.cls is not None:
            rep = _cyclic(e.cls.representative.generators[0])
            conjugates = {frozenset(conj(s, h) for h in rep) for s in G.elements}
            pool = [g for g in pool if _cyclic(g) in conjugates]
        pools.append(pool)
    if any(not pool for pool in pools):
        return None
    nodes = 0

    def spend():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"search budget of {budget} nodes exhausted")

    def generates(gens):
        found = [G.identity]
        for x in found:
            for s in gens:
                if x * s not in found:
                    found.append(x * s)
        return len(found) == G.order

    def walk(chosen, prod):
        d = len(chosen)
        if d == 2 * gamma + max(t - 1, 0):
            spend()
            vec = chosen + [prod.inverse()] if t else chosen
            if (vec[-1] in pools[-1] if t else prod.is_identity()) and generates(vec):
                return GeneratingVector(tuple(vec[:gamma]), tuple(vec[gamma:2 * gamma]),
                                        tuple(vec[2 * gamma:]))
            return None
        for g in (G.elements if d < 2 * gamma else pools[d - 2 * gamma]):
            step = prod
            if d >= 2 * gamma:
                step = prod * g
            elif d >= gamma:
                a = chosen[d - gamma]
                step = prod * a * g * a.inverse() * g.inverse()
            if d >= 2 * gamma - 1:
                spend()
            found = walk(chosen + [g], step)
            if found is not None:
                return found
        return None

    found = walk([], G.identity)
    spent.append(nodes)
    return found


def _outcome(search, *args):
    try:
        vec = search(*args)
    except (SearchBudgetExceeded, InvalidSignatureError) as exc:
        return type(exc).__name__
    return vec and vec.to_json()


@settings(DERANDOMIZED, max_examples=300)
@given(search_cases())
def test_search_matches_the_recursive_reference(case):
    # the same verdict, witness and budget exhaustion; where the reference
    # finishes, the search needs exactly its node count
    G, sig, budget = case
    spent = []
    want = _outcome(_reference_search, G, sig, budget, spent)
    assert _outcome(find_generating_vector, G, sig, budget) == want
    if spent and spent[0]:
        assert _outcome(find_generating_vector, G, sig, spent[0]) == want
        assert _outcome(find_generating_vector, G, sig, spent[0] - 1) == "SearchBudgetExceeded"
