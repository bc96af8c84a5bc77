"""Combinatorial oracle for the intermediate covers.

Given a verified generating vector, the covering S/H -> S/G is realized
as the action of the vector's elements on the cosets of H, and the genus
and cycle structures are recounted directly from cycle types.  Nothing
here shares a formula with the covers module, which is the point: the two
must agree, and the acceptance suite checks that they do.

Orientation: sheets are the right cosets Hg (canonically ordered by least
representative) and a vector element acts by right multiplication, which
makes the sheet map a homomorphism under this package's left-to-right
composition.  Cycle types are unaffected by this choice.
"""

from __future__ import annotations

from .errors import GroupInputError, InternalCheckError
from .groups import FiniteGroup, FrozenRecord, Perm, Subgroup, require_subgroups
from .signature import GeneratingVector


class CosetAction(FrozenRecord):
    """The permutation action of a generating vector on the cosets of H."""

    __slots__ = ("subgroup", "cosets", "a_images", "b_images", "c_images")

    def __init__(self, subgroup: Subgroup, cosets: tuple[Perm, ...], a_images: tuple[Perm, ...],
                 b_images: tuple[Perm, ...], c_images: tuple[Perm, ...]):
        self._init("subgroup", subgroup)
        self._init("cosets", cosets)  # least representative per coset
        self._init("a_images", a_images)
        self._init("b_images", b_images)
        self._init("c_images", c_images)

    @property
    def degree(self) -> int:
        return len(self.cosets)


def coset_action(G: FiniteGroup, H: Subgroup, vec: GeneratingVector) -> CosetAction:
    """Permutations induced by the vector's elements on the cosets of H."""
    require_subgroups(G, H)
    for g in vec.elements():
        if g not in G:
            raise GroupInputError(f"vector element {g} is not in the group")
    # a right coset Hg is the orbit of g under left multiplication by H's generators
    cols = [G.left(h) for h in H.generating_set]
    coset_of, reps = [-1] * G.order, []
    for g in range(G.order):
        if coset_of[g] < 0:
            coset_of[g] = len(reps)
            orbit = [g]
            for x in orbit:
                for col in cols:
                    if coset_of[col[x]] < 0:
                        coset_of[col[x]] = len(reps)
                        orbit.append(col[x])
            reps.append(g)

    # r*g = (g^-1 * r^-1)^-1 reads the kept left column of g^-1
    inv = G.inverses

    def image(g: Perm) -> Perm:
        g_inv_times = G.left(inv[G.index(g)])
        try:
            return Perm(coset_of[inv[g_inv_times[inv[r]]]] for r in reps)
        except GroupInputError:
            raise InternalCheckError(
                f"vector element {g} does not permute the {len(reps)} right cosets "
                f"of a subgroup of order {H.order}"
            ) from None

    images = (tuple(image(g) for g in part) for part in (vec.a, vec.b, vec.c))
    return CosetAction(H, tuple(G.elements[r] for r in reps), *images)


def _cycle_type(p: Perm) -> tuple[int, ...]:
    listed = [len(c) for c in p.cycles()]
    fixed = p.degree - sum(listed)
    return tuple(sorted(listed + [1] * fixed))


def oracle_summary(G: FiniteGroup, H: Subgroup, vec: GeneratingVector,
                   quotient_genus: int) -> dict:
    """Genus of S/H, by Riemann-Hurwitz over the coset action, and the cycle
    type of each branch element acting on the cosets of H."""
    action = coset_action(G, H, vec)
    types = [_cycle_type(img) for img in action.c_images]
    ramification = sum(length - 1 for ct in types for length in ct)
    euler = action.degree * (2 - 2 * quotient_genus) - ramification
    if euler % 2:
        raise InternalCheckError(
            f"coset action gives an odd Euler characteristic {euler}"
        )
    genus = (2 - euler) // 2
    if genus < 0:
        raise InternalCheckError(f"coset action gives negative genus {genus}")
    return {
        "genus": genus,
        "cycle_structures": [list(ct) for ct in types],
    }
