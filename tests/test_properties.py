"""Property tests for the trusted element paths and the single-pass reports.

Products, inverses and powers are built without re-validation, and
`oracle_summary` and `cover_report` compute their data once; each must
agree with the fully validated or separately computed result.  hypothesis
is a test-only dependency: the module is skipped when it is missing, and
runs derandomized so that every run draws the same examples.
"""

from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from corpus import CORPUS, materialize  # noqa: E402
from geosig.covers import (  # noqa: E402
    cover_report,
    cycle_structure,
    marked_points,
    quotient_genus,
)
from geosig.groups import Perm, Subgroup  # noqa: E402
from geosig.monodromy import (  # noqa: E402
    oracle_cycle_structure,
    oracle_genus,
    oracle_summary,
)
from geosig.signature import find_generating_vector  # noqa: E402

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
    return G, sig, find_generating_vector(G, sig)


@st.composite
def corpus_subgroups(draw):
    """A corpus case and a subgroup generated by up to two of its elements."""
    i = draw(st.integers(0, len(CORPUS) - 1))
    G, sig, vec = _case(i)
    picks = draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    H = Subgroup.generated(G, [G.elements[j] for j in picks])
    return G, sig, vec, H


@settings(DERANDOMIZED, max_examples=60)
@given(corpus_subgroups())
def test_oracle_summary_matches_separate_calls(case):
    G, sig, vec, H = case
    summary = oracle_summary(G, H, vec, sig.quotient_genus)
    assert summary == {
        "genus": oracle_genus(G, H, vec, sig.quotient_genus),
        "cycle_structures": [list(ct) for ct in oracle_cycle_structure(G, H, vec)],
    }


@settings(DERANDOMIZED, max_examples=60)
@given(corpus_subgroups())
def test_cover_report_matches_separate_calls(case):
    G, sig, _, H = case
    report = cover_report(G, sig, H)
    assert report.genus == quotient_genus(G, sig, H)
    assert report.marked_points == marked_points(G, sig, H)
    assert report.cycle_structures == cycle_structure(G, sig, H)
