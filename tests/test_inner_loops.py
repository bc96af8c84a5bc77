"""Differential tests of the integer inner loops of a lattice query.

Each loop is compared with a reference that shares none of its code:
- the subgroup closure over right columns (`FiniteGroup._generated`)
  against a closure under `Perm` products, on drawn generator lists of
  catalog groups, the identity and repeated generators included;
- the oracle's cycle type of an integer permutation image
  (`monodromy._cycle_type`) against `Perm.cycles()`;
- the table lift through the zeta-power table (`chartable._zeta_sum` over
  `chartable._zeta_powers`) against `reduce_integral` of the e-length
  polynomial, and the power table itself against the reference `Cyclo.zeta`
  of tests/cyclo_ref.py;
- the orbits of a single column, walked as its cycles (`groups._orbits`),
  against `Perm.cycles()` and against the breadth-first search that the
  same column given twice takes;
- each one-generator walk against the several-generator one: a cyclic
  subgroup given as [h] and as [h, h^-1] has the same left cosets, the
  same `double_coset_count` against every branch stabilizer of a corpus
  signature, and the same `coset_action` cosets and images;
- the cyclic subgroups of one conjugation walk per class
  (`FiniteGroup._cyclic_subgroups`) against one power walk per subgroup by
  `Perm` products, and the power map read off those walks against `Perm`
  powers, on drawn `group_from_payload` groups.
hypothesis is a test-only dependency: the module is skipped when it is
missing, and runs derandomized so that every run draws the same examples.
"""

from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cyclo_ref import Cyclo  # noqa: E402
from geosig.chartable import _zeta_powers, _zeta_sum  # noqa: E402
from geosig.cyclotomic import reduce_integral  # noqa: E402
from geosig.groups import (  # noqa: E402
    Perm, _orbits, catalog, double_coset_count, group_from_payload,
)
from geosig.monodromy import _cycle_type, coset_action  # noqa: E402
from geosig.signature import branch_stabilizers, find_generating_vector  # noqa: E402
from corpus import CORPUS, materialize  # noqa: E402
from test_groups import (  # noqa: E402
    assert_cyclic_subgroups_match_reference,
    assert_power_map_matches_perm_powers,
)

DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=100)
GROUPS = ("cyclic(12)", "dihedral(6)", "quaternion8", "symmetric(4)", "wc3",
          "alternating(5)", "symmetric(5)")
CONDUCTORS = (12, 60, 120)


@lru_cache(maxsize=None)
def group(name):
    return catalog(name)


def _perm_closure(G, gens):
    """The subgroup the permutations generate, closed under Perm products."""
    found, queue = {G.identity}, [G.identity]
    for a in queue:
        for g in gens:
            b = a * g
            if b not in found:
                found.add(b)
                queue.append(b)
    return found


@st.composite
def generator_lists(draw):
    """A catalog group and a list of element indices, which may hold the
    identity and repeats, shuffled."""
    G = group(draw(st.sampled_from(GROUPS)))
    drawn = draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    extra = draw(st.sampled_from([[], [0], drawn[:1], [0] + drawn[:2]]))
    return G, draw(st.permutations(drawn + extra))


@DERANDOMIZED
@given(generator_lists())
def test_generated_matches_perm_closure(case):
    G, gens = case
    members = G._generated(gens)
    expected = _perm_closure(G, [G.elements[i] for i in gens])
    assert {G.elements[i] for i in members} == expected
    assert G.generates(gens) == (len(expected) == G.order)


def test_generated_handles_identity_and_repeats():
    G = group("symmetric(4)")
    a, b = G.named_generators["a"], G.named_generators["b"]
    assert G._generated([]) == G._generated([0, 0]) == {0}
    gens = [G.index(a * b), G.index(b)]  # a*b is no generator of the build
    assert len(G._generated(gens)) == G.order
    assert G._generated(gens + gens[::-1] + [0]) == G._generated(gens)
    assert G.right(gens[0]) is G.right(gens[0])  # a closure keeps the columns it walks


@DERANDOMIZED
@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(n))))
def test_cycle_type_matches_perm_cycles(image):
    lengths = [len(c) for c in Perm(image).cycles()]
    expected = sorted(lengths + [1] * (len(image) - sum(lengths)))
    assert _cycle_type(tuple(image)) == tuple(expected)


@DERANDOMIZED
@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(n))))
def test_orbits_of_one_column_are_its_cycles(image):
    n, col = len(image), list(image)
    cycles = [tuple(q - 1 for q in c) for c in Perm(image).cycles()]
    cycles += [(x,) for x in range(n) if image[x] == x]
    cycles.sort()  # each cycle starts at its least point
    orbit_of, least = _orbits(n, [col])
    assert least == tuple(c[0] for c in cycles)
    assert orbit_of == [next(k for k, c in enumerate(cycles) if x in c) for x in range(n)]
    assert _orbits(n, [col, col]) == (orbit_of, least)  # the breadth-first search
    assert _orbits(n, []) == (list(range(n)), tuple(range(n)))


@lru_cache(maxsize=None)
def corpus_vector(i):
    G, sig, _ = materialize(CORPUS[i])
    return G, find_generating_vector(G, sig), branch_stabilizers(G, sig)


@st.composite
def one_generator_subgroups(draw):
    """A corpus case's group, generating vector and branch stabilizers, and
    an element h of order at least 3, so that [h, h^-1] is two generators."""
    G, vec, stabilizers = corpus_vector(draw(st.integers(0, len(CORPUS) - 1)))
    candidates = [g for g in range(1, G.order) if G.inverses[g] != g]
    hypothesis.assume(candidates)
    return G, vec, stabilizers, draw(st.sampled_from(candidates))


@DERANDOMIZED
@given(one_generator_subgroups())
def test_one_generator_walks_match_the_breadth_first_search(case):
    G, vec, stabilizers, h = case
    h_perm = G.elements[h]
    one = G.subgroup([h_perm])
    two = G.subgroup([h_perm, h_perm.inverse()])
    assert len(one.generating_set) == 1 and len(two.generating_set) == 2
    assert one.left_cosets == two.left_cosets
    for K in stabilizers:
        assert double_coset_count(G, one, K) == double_coset_count(G, two, K)
        assert double_coset_count(G, K, one) == double_coset_count(G, K, two)
    action_one, action_two = coset_action(G, one, vec), coset_action(G, two, vec)
    assert action_one.cosets == action_two.cosets
    for images in ("a_images", "b_images", "c_images"):
        assert getattr(action_one, images) == getattr(action_two, images)


@pytest.mark.parametrize("e", CONDUCTORS)
def test_zeta_powers_match_cyclo(e):
    rows = _zeta_powers(e)
    assert len(rows) == e
    assert rows == [Cyclo.zeta(e, i).coeffs for i in range(e)]


@st.composite
def multiplicities(draw):
    """A conductor e, and integer weights of zeta_m^0 .. zeta_m^(m-1), m | e."""
    e = draw(st.sampled_from(CONDUCTORS))
    m = draw(st.sampled_from([d for d in range(1, e + 1) if e % d == 0]))
    return e, draw(st.lists(st.integers(-3, 9), min_size=m, max_size=m))


@DERANDOMIZED
@given(multiplicities())
def test_zeta_sum_matches_reduce_integral(case):
    e, mults = case
    poly = [0] * e
    for k, a in enumerate(mults):
        poly[k * (e // len(mults))] = a
    assert _zeta_sum(mults, _zeta_powers(e), 1) == reduce_integral(poly, e)


@st.composite
def group_payloads(draw):
    """A JSON group spec of one to three generators of degree up to 6, each
    in cycle notation."""
    n = draw(st.integers(1, 6))
    images = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return {"degree": n, "generators": {f"g{i}": str(Perm(img)) for i, img in enumerate(images)}}


@settings(DERANDOMIZED, max_examples=60)
@given(group_payloads())
def test_cyclic_subgroups_match_per_subgroup_walks_on_drawn_groups(payload):
    G = group_from_payload(payload)
    assert_cyclic_subgroups_match_reference(G)
    assert_power_map_matches_perm_powers(G)
