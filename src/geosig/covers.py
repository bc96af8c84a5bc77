"""Closed-form geometric structure of the intermediate covers S/H.

For a geometric signature and any subgroup H, `cover_report` computes the
marked points of S/H over each branch value, the cycle structure of the
non-Galois covering from S/H down to S/G, and the genus of S/H twice,
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

from .errors import InternalCheckError
from .groups import (FiniteGroup, FrozenRecord, Perm, Record, Subgroup, double_coset_count,
                     require_subgroups)
from .signature import GeometricSignature, branch_stabilizers


class TransversalPartition(FrozenRecord):
    """Transversal of N(G_j) split by the size of the conjugate's meet with H:
    `sets` are the L_k, in first-appearance order, and `intersection_sizes`
    the common |G_j^(l^-1) ∩ H| of each set."""

    __slots__ = ("branch_index", "sets", "intersection_sizes")

    @property
    def nu(self) -> int:
        return len(self.sets)


class MarkedPointSet(FrozenRecord):
    """c points of S/H over branch value j, each marked with the same number."""

    __slots__ = ("branch_index", "mark", "count")


class CycleStructure(FrozenRecord):
    """Cycle structure of the covering S/H -> S/G over one branch value:
    `entries` are the ramification indices, one per point, sorted."""

    __slots__ = ("branch_index", "entries")


class CoverReport(Record):
    """Everything the signature determines about one intermediate quotient."""

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
        branch_values = []
        for j in range(len(self.cycle_structures)):
            marked = [
                {"mark": m.mark, "count": m.count}
                for m in self.marked_points
                if m.branch_index == j
            ]
            branch_values.append({
                "index": j,
                "type_rep": self.branch_types[j],
                "marked_points": marked,
                "cycle_structure": list(self.cycle_structures[j].entries),
            })
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
    |H\\G/G_j| points over branch value j.
    """
    marks = marked_points(G, sig, H)
    idx = H.index
    base = 2 * idx * (sig.quotient_genus - 1) + 2
    by_ramification = base + sum(
        m.count * (sig.entries[m.branch_index].order // m.mark - 1) for m in marks
    )
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
    for j, entry in enumerate(sig.entries):
        entries = []
        for m in marks:
            if m.branch_index == j:
                entries += [entry.order // m.mark] * m.count
        entries.sort()
        if sum(entries) != idx:
            raise InternalCheckError(
                f"cycle structure over branch value {j} does not cover all sheets"
            )
        cycles.append(CycleStructure(branch_index=j, entries=tuple(entries)))
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
                    H: Subgroup) -> tuple[CycleStructure, ...]:
    """Cycle structure of S/H -> S/G over each branch value."""
    return cover_report(G, sig, H).cycle_structures


def transversal_partition(G: FiniteGroup, sig: GeometricSignature, H: Subgroup,
                          j: int) -> TransversalPartition:
    """Split the transversal of N(G_j), the keys of G_j's cached conjugates,
    by the size |l G_j l^-1 ∩ H| of each conjugate's meet with H, the sets
    L_k in first-appearance order."""
    Gj = branch_stabilizers(G, sig)[j]
    require_subgroups(G, H)
    blocks: dict[int, list[Perm]] = {}
    for ell, conj_gj in Gj.conjugate_masks.items():
        blocks.setdefault((conj_gj & H.mask).bit_count(), []).append(G.elements[ell])
    return TransversalPartition(j, tuple(map(tuple, blocks.values())), tuple(blocks))


def marked_points(G: FiniteGroup, sig: GeometricSignature,
                  H: Subgroup) -> tuple[MarkedPointSet, ...]:
    """Marked points of S/H over each branch value, with their stabilizer orders.

    The c conjugates of G_j that meet H in k elements give c·|N(G_j):G_j|·k/|H|
    points marked k over branch value j, where |N(G_j)| is |G| over the
    number of conjugates; each meet is one bitwise and."""
    stabilizers = branch_stabilizers(G, sig)
    require_subgroups(G, H)
    out = []
    for j, Gj in enumerate(stabilizers):
        conjugates = Gj.conjugate_masks
        ratio = G.order // (len(conjugates) * Gj.order)
        meets: dict[int, int] = {}
        for conj_gj in conjugates.values():
            k = (conj_gj & H.mask).bit_count()
            meets[k] = meets.get(k, 0) + 1
        for mark, c in meets.items():
            count, rest = divmod(c * ratio * mark, H.order)
            if rest or count <= 0:
                raise InternalCheckError(
                    f"marked-point count is not a positive integer: {count} + {rest}/{H.order}"
                )
            if sig.entries[j].order % mark:
                raise InternalCheckError("stabilizer order does not divide branch order")
            out.append(MarkedPointSet(branch_index=j, mark=mark, count=count))
    return tuple(out)


def lattice_report(G: FiniteGroup, sig: GeometricSignature,
                   subgroups: Sequence[Subgroup] = ()) -> tuple[CoverReport, ...]:
    """Reports for every cyclic subgroup class, then any listed subgroups."""
    branch_stabilizers(G, sig)
    require_subgroups(G, *subgroups)
    targets = [cls.representative for cls in G.cyclic_subgroup_classes]
    return tuple(cover_report(G, sig, H) for H in [*targets, *subgroups])
