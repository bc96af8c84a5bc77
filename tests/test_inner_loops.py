"""Differential tests of the integer inner loops of a lattice query.

Each loop is compared with a reference that shares none of its code:
- the subgroup closure over right columns (`FiniteGroup._generated`)
  against a closure under `Perm` products, on drawn generator lists of
  catalog groups, the identity and repeated generators included;
- the oracle's cycle type of an integer permutation image
  (`monodromy._cycle_type`) against `Perm.cycles()`;
- the table lift through the zeta-power table (`chartable._zeta_sum` over
  `chartable._zeta_powers`) against `reduce_integral` of the e-length
  polynomial, and the power table itself against `Cyclo.zeta`;
- the cyclic subgroups of one conjugation walk per class
  (`FiniteGroup._cyclic_subgroups`) against one power walk per subgroup by
  `Perm` products, on drawn `group_from_payload` groups.
hypothesis is a test-only dependency: the module is skipped when it is
missing, and runs derandomized so that every run draws the same examples.
"""

from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from geosig.chartable import _zeta_powers, _zeta_sum  # noqa: E402
from geosig.cyclotomic import Cyclo, reduce_integral  # noqa: E402
from geosig.groups import Perm, catalog, group_from_payload  # noqa: E402
from geosig.monodromy import _cycle_type  # noqa: E402
from test_groups import assert_cyclic_subgroups_match_reference  # noqa: E402

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
    assert G.is_generated_by(G.elements[i] for i in gens) == (len(expected) == G.order)


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
    assert _zeta_sum(mults, _zeta_powers(e)) == reduce_integral(poly, e)


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
    assert_cyclic_subgroups_match_reference(group_from_payload(payload))
