"""Property tests for the trusted element paths, the single-pass reports,
the integer character rows and the cached conjugates of a subgroup.

Products, inverses and powers are built without re-validation,
`cover_report` computes its data once, the table
averages `fixed_dim` and `frobenius_schur_indicator` are integer sums over
class counts and the class power map, a subgroup caches its conjugates and
tests its normalizer on its generators only; each must agree with the fully
validated, separately computed, element-by-element or definitional result.
hypothesis is a test-only dependency: the module is skipped when it is
missing, and runs derandomized so that every run draws the same examples.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from corpus import CORPUS, group as corpus_group, materialize  # noqa: E402
from geosig.chartable import Character, CharacterTable, compute_table  # noqa: E402
from geosig.covers import (  # noqa: E402
    cover_report,
    cycle_structure,
    marked_points,
    quotient_genus,
)
from geosig.cyclotomic import Cyclo  # noqa: E402
from geosig.errors import InternalCheckError, NotRationalError  # noqa: E402
from geosig.groups import Perm, Subgroup, catalog, conj  # noqa: E402

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
    H = Subgroup.generated(G, [G.elements[j] for j in picks])
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
        Subgroup.generated(G, [G.elements[j] for j in draw(
            st.lists(st.integers(0, G.order - 1), min_size=1, max_size=2))])
        for _ in range(2)
    )
    if draw(st.booleans()):
        K = Subgroup.from_members(G, K.members)
    return G, K, H


def _perms(G, mask):
    """The permutations whose indices a member mask holds."""
    return frozenset(g for i, g in enumerate(G.elements) if mask >> i & 1)


@settings(DERANDOMIZED, max_examples=80)
@given(subgroup_pairs())
def test_conjugate_sets_are_the_conjugates_in_transversal_order(case):
    G, K, H = case
    omega = K.normalizer().left_transversal()
    sets = [_perms(G, mask) for mask in K.conjugate_masks]
    assert len(sets) == len(omega) == len(set(sets))
    assert set(sets) == {_perms(G, m) for m in G.subgroup_class(K).member_masks} == {
        frozenset(conj(t, k) for k in K.members) for t in G.elements
    }
    for ell, conj_k in zip(omega, sets):
        assert len(conj_k & H.members) == sum(
            1 for k in K.members if conj(ell, k) in H.members
        )


@settings(DERANDOMIZED, max_examples=80)
@given(subgroup_pairs())
def test_normalizer_matches_its_definition(case):
    G, K, _ = case
    assert K.normalizer().members == frozenset(
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


def _cyclo_average(chi, G, elements, divisor):
    """Reference: sum chi over the elements one by one in Cyclo, then divide."""
    total = Cyclo.zero(G.exponent)
    for g in elements:
        total = total + chi.values[G.class_index[g]]
    return (total / divisor).integer_value()


@settings(DERANDOMIZED, max_examples=40)
@given(table_characters(), st.lists(st.integers(0, 719), min_size=1, max_size=2))
def test_fixed_dim_matches_cyclo_average(case, picks):
    T, chi = case
    G = T.group
    H = Subgroup.generated(G, [G.elements[j % G.order] for j in picks])
    assert T.fixed_dim(chi, H) == _cyclo_average(chi, G, H.members, H.order)


@settings(DERANDOMIZED, max_examples=30)
@given(table_characters())
def test_frobenius_schur_matches_cyclo_average(case):
    T, chi = case
    G = T.group
    squares = (g * g for g in G.elements)
    assert T.frobenius_schur_indicator(chi) == _cyclo_average(chi, G, squares, G.order)


def test_non_integral_coefficient_is_a_defect():
    T = _table("symmetric(4)")
    chi = T.characters[-1]
    half = (Fraction(1, 2),) + chi.row[0][1:]
    bad = Character(chi.index, (half,) + chi.row[1:], chi.conductor, chi.degree)
    with pytest.raises(InternalCheckError, match="non-integral"):
        CharacterTable(T.group, T.characters[:-1] + (bad,))


def test_row_over_another_conductor_is_a_defect():
    T = _table("symmetric(4)")
    chi = T.characters[-1]
    rational = tuple(v[:1] for v in chi.row)  # the same rational values in Z[zeta_1]
    bad = Character(chi.index, rational, 1, chi.degree)
    with pytest.raises(InternalCheckError, match="not a row over Z"):
        CharacterTable(T.group, T.characters[:-1] + (bad,))


def test_non_rational_weighted_sum_is_a_defect():
    T = _table("cyclic(6)")
    G = T.group
    x = G.element("x")
    chi = next(c for c in T.characters if not c.values[G.class_index[x]].is_rational())
    # {x} is not a subgroup, so the class sum of chi over it is not rational
    not_a_subgroup = Subgroup._trusted(G, [G.index(x)], None, None)
    with pytest.raises(NotRationalError):
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
    assert G.product(a, b) == G.index(els[a] * els[b])
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
