"""Combinatorial oracle for the intermediate covers.

Given a verified generating vector, the covering S/H -> S/G is realized
as the action of the vector's elements on the cosets of H, and the genus
and cycle structures are recounted directly from cycle types.  Nothing
here shares a formula with the covers module, which is the point: the two
must agree, and the acceptance suite checks that they do.

Orientation: sheets are the right cosets Hg (canonically ordered by least
representative) and a vector element acts by right multiplication, which
makes the sheet map a homomorphism under this package's left-to-right
composition.  Cycle types are unaffected by this choice.  The cosets Hg
are the orbits of left multiplication by H's generators; for an H with a
single generator h they are the cycles of x -> h * x, walked in place by
this module's own loop, which shares no code with the covers' routes.
The images are integer tuples over the coset numbers, each checked to be
a permutation; only `coset_action` wraps them as `Perm`s, for API
callers.
"""

from __future__ import annotations

from .errors import GroupInputError, InternalCheckError
from .groups import FiniteGroup, FrozenRecord, Perm, Subgroup, require_subgroups
from .signature import GeneratingVector


class CosetAction(FrozenRecord):
    """The permutation action of a generating vector on the cosets of H;
    `cosets` holds the least representative of each coset."""

    __slots__ = ("subgroup", "cosets", "a_images", "b_images", "c_images")

    @property
    def degree(self) -> int:
        return len(self.cosets)


def _coset_images(G: FiniteGroup, H: Subgroup, vec: GeneratingVector,
                  parts: tuple[tuple[Perm, ...], ...]
                  ) -> tuple[list[int], tuple[tuple[tuple[int, ...], ...], ...]]:
    """The least representative of each right coset of H, and the image on
    the cosets of each element of the given parts of the vector (each in G),
    part by part, as integer tuples checked to be permutations."""
    require_subgroups(G, H)
    for g in vec.elements():
        if g not in G:
            raise GroupInputError(f"vector element {g} is not in the group")
    # a right coset Hg is the orbit of g under left multiplication by H's
    # generators: for a single generator h, the cycle of g under x -> h * x
    cols = [G.left(h) for h in H.generating_set]
    coset_of, reps = [-1] * G.order, []
    if len(cols) == 1:
        times_h = cols[0]
        for g in range(G.order):
            if coset_of[g] < 0:
                n, x = len(reps), g
                while coset_of[x] < 0:
                    coset_of[x] = n
                    x = times_h[x]
                reps.append(g)
    else:
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

    def image(g: Perm) -> tuple[int, ...]:
        times_g = G.right(G.index(g))
        img = tuple([coset_of[times_g[r]] for r in reps])
        if len(set(img)) != len(reps):
            raise InternalCheckError(
                f"vector element {g} does not permute the {len(reps)} right cosets "
                f"of a subgroup of order {H.order}"
            )
        return img

    return reps, tuple(tuple(map(image, part)) for part in parts)


def coset_action(G: FiniteGroup, H: Subgroup, vec: GeneratingVector) -> CosetAction:
    """Permutations induced by the vector's elements on the cosets of H."""
    reps, parts = _coset_images(G, H, vec, (vec.a, vec.b, vec.c))
    images = (tuple(map(Perm._trusted, part)) for part in parts)
    return CosetAction(H, tuple(G.elements[r] for r in reps), *images)


def _cycle_type(img: tuple[int, ...]) -> tuple[int, ...]:
    """The cycle lengths of a permutation image, fixed points included, ascending."""
    seen = [False] * len(img)
    lengths = []
    for start in range(len(img)):
        if not seen[start]:
            length, p = 0, start
            while not seen[p]:
                seen[p] = True
                p = img[p]
                length += 1
            lengths.append(length)
    return tuple(sorted(lengths))


def oracle_summary(G: FiniteGroup, H: Subgroup, vec: GeneratingVector,
                   quotient_genus: int) -> dict:
    """Genus of S/H, by Riemann-Hurwitz over the coset action, and the cycle
    type of each branch element acting on the cosets of H."""
    reps, (c_images,) = _coset_images(G, H, vec, (vec.c,))
    types = [_cycle_type(img) for img in c_images]
    ramification = sum(length - 1 for ct in types for length in ct)
    euler = len(reps) * (2 - 2 * quotient_genus) - ramification
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
