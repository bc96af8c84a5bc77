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

from dataclasses import dataclass

from .errors import GroupInputError, InternalCheckError
from .groups import FiniteGroup, Perm, Subgroup
from .signature import GeneratingVector


@dataclass(frozen=True)
class CosetAction:
    """The permutation action of a generating vector on the cosets of H."""

    subgroup: Subgroup
    cosets: tuple[Perm, ...]           # least representative per coset
    a_images: tuple[Perm, ...]
    b_images: tuple[Perm, ...]
    c_images: tuple[Perm, ...]

    @property
    def degree(self) -> int:
        return len(self.cosets)


def coset_action(G: FiniteGroup, H: Subgroup, vec: GeneratingVector) -> CosetAction:
    """Permutations induced by the vector's elements on the cosets of H."""
    if H.parent is not G:
        raise GroupInputError("subgroup does not belong to this group")
    for g in vec.elements():
        if g not in G:
            raise GroupInputError(f"vector element {g} is not in the group")
    coset_of: dict[Perm, int] = {}
    reps: list[Perm] = []
    for g in G.elements:
        if g in coset_of:
            continue
        cid = len(reps)
        reps.append(g)
        for h in H.members:
            coset_of[h * g] = cid

    def image(g: Perm) -> Perm:
        return Perm(coset_of[r * g] for r in reps)

    return CosetAction(
        subgroup=H,
        cosets=tuple(reps),
        a_images=tuple(image(g) for g in vec.a),
        b_images=tuple(image(g) for g in vec.b),
        c_images=tuple(image(g) for g in vec.c),
    )


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
