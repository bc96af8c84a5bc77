"""Closed-form geometric structure of the intermediate covers S/H.

For a geometric signature and any subgroup H, `cover_report` computes the
marked points of S/H and the cycle structure of the non-Galois covering
S/H -> S/G, each at index j for branch value j, and the genus of S/H twice,
by two formulas that must agree: Riemann–Hurwitz for S/H -> S/G over the
marked points, and the double-coset count of the points of S/H over each
branch value.  The marked points, and route 2 of the double-coset count,
read how the conjugates l G_j l^-1 of a branch stabilizer G_j meet H: the
conjugates, keyed by the transversal of N(G_j), come from one conjugation
walk cached on G_j, so each meet with a new H is a bitwise and, |N(G_j)| is
|G| over their number, and N(G_j) itself is never built.
Counts that theory proves integral are asserted integral; a failure is
raised, never rounded.
"""

from __future__ import annotations

from typing import Sequence

from .errors import GroupInputError, InternalCheckError
from .groups import (FiniteGroup, FrozenRecord, Perm, Record, Subgroup, double_coset_count,
                     require_subgroups)
from .signature import GeometricSignature, branch_stabilizers, signature_genus


class TransversalPartition(FrozenRecord):
    """Transversal of N(G_j) split by the size of the conjugate's meet with H:
    `sets` are the L_k, in first-appearance order, and `intersection_sizes`
    the common |G_j^(l^-1) ∩ H| of each set."""

    __slots__ = ("sets", "intersection_sizes")


class MarkedPointSet(FrozenRecord):
    """`count` points of S/H over one branch value, each marked `mark`."""

    __slots__ = ("mark", "count")


class CoverReport(Record):
    """Everything the signature determines about one intermediate quotient,
    per branch value j: `marked_points[j]` and `cycle_structures[j]`."""

    __slots__ = ("subgroup", "degree", "genus", "branch_types", "marked_points",
                 "cycle_structures", "oracle")

    def to_json(self) -> dict:
        G = self.subgroup.parent
        sub = {
            "label": self.subgroup.label,
            "order": self.subgroup.order,
            "generators": [str(g) for g in self.subgroup.generators or ()],
        }
        sub["cyclic_class_index"] = G.cyclic_subgroup_masks.get(self.subgroup.mask)
        branch_values = [{
            "index": j,
            "type_rep": tag,
            "marked_points": [{"mark": m.mark, "count": m.count} for m in marks],
            "cycle_structure": list(cycles),
        } for j, (tag, marks, cycles) in enumerate(
            zip(self.branch_types, self.marked_points, self.cycle_structures))]
        out = {
            "subgroup": sub,
            "degree": self.degree,
            "genus": self.genus,
            "branch_values": branch_values,
        }
        if self.oracle is not None:
            out["oracle"] = {
                "genus": self.oracle["genus"],
                "cycle_structures": [list(c) for c in self.oracle["cycle_structures"]],
            }
        return out


def cover_report(G: FiniteGroup, sig: GeometricSignature, H: Subgroup) -> CoverReport:
    """Marked points, genus and cycle structure of S/H, the genus by two
    independent formulas that must agree.

    Ramification: Riemann–Hurwitz for S/H -> S/G over the marked points; a
    point marked k over a branch value of order m has index m/k, so
    2g = 2·[G:H]·(γ−1) + 2 + Σ count·(m/k − 1).  Double cosets: S/H has
    |H\\G/G_j| points over branch value j.  A signature that
    Riemann–Hurwitz gives no genus is refused first (InvalidSignatureError).
    """
    signature_genus(G, sig)
    marks = marked_points(G, sig, H)
    # the points over each branch value as (ramification index, count) pairs
    indices = [[(e.order // m.mark, m.count) for m in over] for e, over in zip(sig.entries, marks)]
    idx = H.index
    base = 2 * idx * (sig.quotient_genus - 1) + 2
    by_ramification = base + sum(c * (r - 1) for over in indices for r, c in over)
    by_double_cosets = base + sum(
        idx - double_coset_count(G, H, Gj) for Gj in branch_stabilizers(G, sig)
    )
    if by_ramification != by_double_cosets:
        raise InternalCheckError(
            f"genus formulas disagree: 2g = {by_ramification} vs {by_double_cosets}"
        )
    if by_ramification % 2 or by_ramification < 0:
        raise InternalCheckError(f"quotient genus is not admissible: 2g = {by_ramification}")
    cycles = []
    for j, over in enumerate(indices):
        if sum(r * c for r, c in over) != idx:
            raise InternalCheckError(
                f"cycle structure over branch value {j} does not cover all sheets"
            )
        entries = []
        for r, c in sorted(over):
            entries += [r] * c
        cycles.append(tuple(entries))
    return CoverReport(
        subgroup=H,
        degree=idx,
        genus=by_ramification // 2,
        branch_types=tuple(e.tag for e in sig.entries),
        marked_points=marks,
        cycle_structures=tuple(cycles),
        oracle=None,
    )


def quotient_genus(G: FiniteGroup, sig: GeometricSignature, H: Subgroup) -> int:
    """Genus of S/H, by the two formulas of `cover_report`."""
    return cover_report(G, sig, H).genus


def cycle_structure(G: FiniteGroup, sig: GeometricSignature,
                    H: Subgroup) -> tuple[tuple[int, ...], ...]:
    """Cycle structure of S/H -> S/G over each branch value: item j is the
    sorted tuple of ramification indices over branch value j, one per point."""
    return cover_report(G, sig, H).cycle_structures


def transversal_partition(G: FiniteGroup, sig: GeometricSignature, H: Subgroup,
                          j: int) -> TransversalPartition:
    """Split the transversal of N(G_j), the keys of G_j's cached conjugates,
    by the size |l G_j l^-1 ∩ H| of each conjugate's meet with H, the sets
    L_k in first-appearance order."""
    stabilizers = branch_stabilizers(G, sig)
    t = len(stabilizers)
    if not 0 <= j < t:
        raise GroupInputError(f"branch position {j} out of range 0..{t - 1} "
                              f"of the signature's {t} branch values")
    Gj = stabilizers[j]
    require_subgroups(G, H)
    blocks: dict[int, list[Perm]] = {}
    for ell, conj_gj in Gj.conjugate_masks.items():
        blocks.setdefault((conj_gj & H.mask).bit_count(), []).append(G.elements[ell])
    return TransversalPartition(tuple(map(tuple, blocks.values())), tuple(blocks))


def marked_points(G: FiniteGroup, sig: GeometricSignature,
                  H: Subgroup) -> tuple[tuple[MarkedPointSet, ...], ...]:
    """Marked points of S/H over each branch value, with their stabilizer
    orders: item j is the tuple of MarkedPointSets over branch value j.

    The c conjugates of G_j that meet H in k elements give c·|N(G_j):G_j|·k/|H|
    points marked k over branch value j, where |N(G_j)| is |G| over the
    number of conjugates; each meet is one bitwise and."""
    stabilizers = branch_stabilizers(G, sig)
    require_subgroups(G, H)
    out = []
    for entry, Gj in zip(sig.entries, stabilizers):
        conjugates = Gj.conjugate_masks
        ratio = G.order // (len(conjugates) * Gj.order)
        meets: dict[int, int] = {}
        for conj_gj in conjugates.values():
            k = (conj_gj & H.mask).bit_count()
            meets[k] = meets.get(k, 0) + 1
        over = []
        for mark, c in meets.items():
            count, rest = divmod(c * ratio * mark, H.order)
            if rest or count <= 0:
                raise InternalCheckError(
                    f"marked-point count is not a positive integer: {count} + {rest}/{H.order}"
                )
            if entry.order % mark:
                raise InternalCheckError("stabilizer order does not divide branch order")
            over.append(MarkedPointSet(mark, count))
        out.append(tuple(over))
    return tuple(out)


def lattice_report(G: FiniteGroup, sig: GeometricSignature,
                   subgroups: Sequence[Subgroup] = ()) -> tuple[CoverReport, ...]:
    """Reports for every cyclic subgroup class, then any listed subgroups."""
    branch_stabilizers(G, sig)
    require_subgroups(G, *subgroups)
    targets = [cls.representative for cls in G.cyclic_subgroup_classes]
    return tuple(cover_report(G, sig, H) for H in [*targets, *subgroups])
