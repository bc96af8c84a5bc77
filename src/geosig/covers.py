"""Closed-form geometric structure of the intermediate covers S/H.

For a geometric signature and any subgroup H, this module computes the
marked points of S/H over each branch value, the cycle structure of the
non-Galois covering from S/H down to S/G, and the genus of S/H twice,
by two formulas that must agree: Riemann–Hurwitz for S/H -> S/G over the
marked points, and the double-coset count of the points of S/H over each
branch value.  The marked points, and route 2 of the double-coset count,
read how the conjugates l G_j l^-1 of a branch stabilizer G_j meet H; the
conjugates depend on G_j alone, so their member masks are built once and
cached on G_j, and each meet with a new H is a bitwise and.  Counts
that theory proves integral are asserted integral; a failure is raised,
never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import GroupInputError, InternalCheckError
from .groups import FiniteGroup, Subgroup, double_coset_count
from .signature import GeometricSignature


@dataclass(frozen=True)
class TransversalPartition:
    """Transversal of N(G_j) split by the size of the conjugate's meet with H."""

    branch_index: int
    sets: tuple[tuple, ...]          # the L_k, in first-appearance order
    intersection_sizes: tuple[int, ...]  # common |G_j^(l^-1) ∩ H| per set

    @property
    def nu(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class MarkedPointSet:
    """c points of S/H over branch value j, each marked with the same number."""

    branch_index: int
    mark: int
    count: int


@dataclass(frozen=True)
class CycleStructure:
    """Cycle structure of the covering S/H -> S/G over one branch value."""

    branch_index: int
    entries: tuple[int, ...]  # ramification indices, one per point, sorted


@dataclass
class CoverReport:
    """Everything the signature determines about one intermediate quotient."""

    subgroup: Subgroup
    degree: int
    genus: int
    branch_types: tuple[str, ...]
    marked_points: tuple[MarkedPointSet, ...]
    cycle_structures: tuple[CycleStructure, ...]
    oracle: Optional[dict] = None

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


def _require_geometric(sig: GeometricSignature):
    if not sig.is_geometric:
        raise GroupInputError(
            "this computation needs a fully geometric signature; "
            "refine the plain entries first"
        )


def _check_subgroup(G: FiniteGroup, H: Subgroup):
    if H.parent is not G:
        raise GroupInputError("subgroup does not belong to this group")


def quotient_genus(G: FiniteGroup, sig: GeometricSignature, H: Subgroup) -> int:
    """Genus of S/H, by two independent formulas that must agree.

    Ramification: Riemann–Hurwitz for S/H -> S/G over the marked points; a
    point marked k over a branch value of order m has index m/k, so
    2g = 2·[G:H]·(γ−1) + 2 + Σ count·(m/k − 1).  Double cosets: S/H has
    |H\\G/G_j| points over branch value j.
    """
    return _quotient_genus(G, sig, H, marked_points(G, sig, H))


def _quotient_genus(G: FiniteGroup, sig: GeometricSignature, H: Subgroup,
                    marks: tuple[MarkedPointSet, ...]) -> int:
    idx = H.index
    base = 2 * idx * (sig.quotient_genus - 1) + 2
    by_ramification = base + sum(
        m.count * (sig.entries[m.branch_index].order // m.mark - 1) for m in marks
    )
    by_double_cosets = base + sum(
        idx - double_coset_count(G, H, entry.cls.representative) for entry in sig.entries
    )
    if by_ramification != by_double_cosets:
        raise InternalCheckError(
            f"genus formulas disagree: 2g = {by_ramification} vs {by_double_cosets}"
        )
    if by_ramification % 2 or by_ramification < 0:
        raise InternalCheckError(f"quotient genus is not admissible: 2g = {by_ramification}")
    return by_ramification // 2


def transversal_partition(G: FiniteGroup, sig: GeometricSignature, H: Subgroup,
                          j: int) -> TransversalPartition:
    """Split the transversal of N(G_j) by how the conjugates of G_j meet H.

    The conjugate l G_j l^-1 of each transversal element l is cached on G_j
    as a member mask (`Subgroup.conjugate_masks`, in transversal order), so
    each meet |l G_j l^-1 ∩ H| is one bitwise and, and no product per H.
    """
    _require_geometric(sig)
    _check_subgroup(G, H)
    Gj = sig.entries[j].cls.representative
    omega, conjugates = Gj.normalizer().transversal, Gj.conjugate_masks
    if len(omega) != len(conjugates):
        raise InternalCheckError(
            f"G_{j} = <{Gj.label}> of order {Gj.order}: the transversal of its "
            f"normalizer has {len(omega)} elements, its cached conjugates {len(conjugates)}"
        )
    groups: dict[int, list] = {}  # meet size -> its l, in first-appearance order
    for ell, conj_gj in zip(omega, conjugates):
        groups.setdefault((conj_gj & H.mask).bit_count(), []).append(G.elements[ell])
    if sum(map(len, groups.values())) != len(omega):
        raise InternalCheckError("transversal partition lost elements")
    return TransversalPartition(j, tuple(map(tuple, groups.values())), tuple(groups))


def marked_points(G: FiniteGroup, sig: GeometricSignature,
                  H: Subgroup) -> tuple[MarkedPointSet, ...]:
    """Marked points of S/H over each branch value, with their stabilizer orders."""
    _require_geometric(sig)
    _check_subgroup(G, H)
    out = []
    for j, entry in enumerate(sig.entries):
        Gj = entry.cls.representative
        ratio = Gj.normalizer().order // Gj.order
        part = transversal_partition(G, sig, H, j)
        for block, mark in zip(part.sets, part.intersection_sizes):
            count, rest = divmod(len(block) * ratio * mark, H.order)
            if rest or count <= 0:
                raise InternalCheckError(
                    f"marked-point count is not a positive integer: {count} + {rest}/{H.order}"
                )
            if entry.order % mark:
                raise InternalCheckError("stabilizer order does not divide branch order")
            out.append(MarkedPointSet(branch_index=j, mark=mark, count=count))
    return tuple(out)


def cycle_structure(G: FiniteGroup, sig: GeometricSignature,
                    H: Subgroup) -> tuple[CycleStructure, ...]:
    """Cycle structure of S/H -> S/G over each branch value."""
    return _cycles_from_marks(sig, H, marked_points(G, sig, H))


def _cycles_from_marks(sig: GeometricSignature, H: Subgroup,
                       marks: tuple[MarkedPointSet, ...]) -> tuple[CycleStructure, ...]:
    idx = H.index
    out = []
    for j, entry in enumerate(sig.entries):
        entries: list[int] = []
        for m in marks:
            if m.branch_index == j:
                entries.extend([entry.order // m.mark] * m.count)
        entries.sort()
        if sum(entries) != idx:
            raise InternalCheckError(
                f"cycle structure over branch value {j} does not cover all sheets"
            )
        out.append(CycleStructure(branch_index=j, entries=tuple(entries)))
    return tuple(out)


def cover_report(G: FiniteGroup, sig: GeometricSignature, H: Subgroup) -> CoverReport:
    marks = marked_points(G, sig, H)
    return CoverReport(
        subgroup=H,
        degree=H.index,
        genus=_quotient_genus(G, sig, H, marks),
        branch_types=tuple(
            e.label or e.cls.representative.label or "?" for e in sig.entries
        ),
        marked_points=marks,
        cycle_structures=_cycles_from_marks(sig, H, marks),
    )


def lattice_report(G: FiniteGroup, sig: GeometricSignature,
                   subgroups: Sequence[Subgroup] = ()) -> tuple[CoverReport, ...]:
    """Reports for every cyclic subgroup class, then any listed subgroups."""
    _require_geometric(sig)
    targets = [cls.representative for cls in G.cyclic_subgroup_classes]
    for H in subgroups:
        _check_subgroup(G, H)
        targets.append(H)
    return tuple(cover_report(G, sig, H) for H in targets)
