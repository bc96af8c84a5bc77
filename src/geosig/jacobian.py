"""Decomposition of the Jacobian action determined by a geometric signature.

For each Galois class of irreducible characters this module computes the
complex multiplicity in the homology representation, the rational
multiplicity, the dimension of the corresponding isogeny factor, and its
exponent.  The closed forms are the primary source; the linear system over
the cyclic-subgroup quotient genera is solved independently every time and
compared, so a defect in either route cannot pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .chartable import SCHUR_COMPUTED, CharacterTable, GaloisClass
from .covers import cover_report, quotient_genus
from .errors import GroupInputError, InternalCheckError
from .groups import FiniteGroup, Subgroup
from .signature import GeometricSignature, signature_genus


@dataclass(frozen=True)
class MultiplicityRecord:
    """Multiplicities and factor data for one Galois class of characters."""

    galois_class: GaloisClass
    degree: int
    n: int          # multiplicity of each class member in the homology action
    e: int          # multiplicity of the rational irreducible, n / schur_index
    dim_B: int      # dimension of the isogeny factor
    exponent: int   # power of the factor, degree / schur_index
    k: int          # schur_index * field_degree

    @property
    def representative(self) -> int:
        return self.galois_class.representative

    def to_json(self) -> dict:
        return {
            "representative": self.representative,
            "members": list(self.galois_class.members),
            "degree": self.degree,
            "field_degree": self.galois_class.field_degree,
            "schur_index": self.galois_class.schur_index,
            "schur_source": self.galois_class.schur_index_source,
            "n": self.n,
            "e": self.e,
            "dim_B": self.dim_B,
            "exponent": self.exponent,
        }


@dataclass(frozen=True)
class OmegaSystem:
    """The exactly solved linear system tying fixed dimensions to quotient genera."""

    matrix: tuple[tuple[int, ...], ...]   # rows: cyclic classes, cols: Galois classes
    rhs: tuple[int, ...]                  # 2 * genus of S/H_j
    solution: tuple[int, ...]             # one multiplicity per Galois class


@dataclass(frozen=True)
class DecompositionReport:
    """Full isogeny decomposition data for one group action."""

    records: tuple[MultiplicityRecord, ...]
    total_genus: int
    quotient_genus: int
    omega: OmegaSystem

    def summary(self) -> str:
        factors = []
        for i, rec in enumerate(self.records):
            if rec.dim_B == 0:
                continue
            label = "E" if rec.dim_B == 1 else f"B{i}"
            factors.append(label if rec.exponent == 1 else f"{label}^{rec.exponent}")
        return "JS ~ " + (" x ".join(factors) if factors else "0")

    def to_json(self) -> dict:
        return {
            "quotient_genus": self.quotient_genus,
            "total_genus": self.total_genus,
            "classes": [rec.to_json() for rec in self.records],
            "summary": self.summary(),
            "omega": {
                "matrix": [list(row) for row in self.omega.matrix],
                "rhs": list(self.omega.rhs),
                "solution": list(self.omega.solution),
            },
        }

    def render_text(self) -> str:
        head = ["class", "degree", "field", "schur", "n", "e", "dim B", "exponent"]
        rows = [head]
        for i, rec in enumerate(self.records):
            star = "*" if rec.galois_class.schur_index_source != SCHUR_COMPUTED else ""
            rows.append([
                f"chi{rec.representative}{star}",
                str(rec.degree),
                str(rec.galois_class.field_degree),
                str(rec.galois_class.schur_index),
                str(rec.n),
                str(rec.e),
                str(rec.dim_B),
                str(rec.exponent),
            ])
        widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
        lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows]
        lines.insert(1, "-" * len(lines[0]))
        if any(rec.galois_class.schur_index_source != SCHUR_COMPUTED
               for rec in self.records):
            lines.append("(* = user-supplied Schur index)")
        lines.append("")
        lines.append(f"genus {self.total_genus} = sum of dim * exponent; {self.summary()}")
        return "\n".join(lines)


def _branch_class_reps(G: FiniteGroup, sig: GeometricSignature) -> list[Subgroup]:
    if not sig.is_geometric:
        raise GroupInputError("decomposition needs a fully geometric signature")
    return [entry.cls.representative for entry in sig.entries]


def complex_multiplicities(G: FiniteGroup, table: CharacterTable,
                           sig: GeometricSignature) -> tuple[int, ...]:
    """Multiplicity of each irreducible character in the homology action."""
    reps = _branch_class_reps(G, sig)
    gamma = sig.quotient_genus
    out = []
    for chi in table.characters:
        if chi.index == table.trivial_character_index:
            out.append(2 * gamma)
            continue
        n = 2 * chi.degree * (gamma - 1)
        for stab in reps:
            n += chi.degree - table.fixed_dim(chi, stab)
        if n < 0:
            raise InternalCheckError(
                f"character {chi.index} has negative multiplicity {n}; "
                "the signature is unrealizable or the table is defective"
            )
        out.append(n)
    return tuple(out)


def _solve_exact(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[Fraction]:
    n = len(matrix)
    work = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise InternalCheckError("fixed-dimension matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [work[r][n] for r in range(n)]


def solve_omega_system(G: FiniteGroup, table: CharacterTable,
                       genera: Sequence[int]) -> OmegaSystem:
    """Solve for the multiplicities from the cyclic-subgroup quotient genera."""
    cyclic = G.cyclic_subgroup_classes
    if len(genera) != len(cyclic):
        raise GroupInputError(
            f"need one genus per cyclic subgroup class ({len(cyclic)}), got {len(genera)}"
        )
    matrix = []
    for cls in cyclic:
        H = cls.representative
        row = []
        for gc in table.galois_classes:
            row.append(sum(
                table.fixed_dim(table.characters[i], H) for i in gc.members
            ))
        matrix.append(tuple(row))
    rhs = tuple(2 * g for g in genera)
    solution = _solve_exact(matrix, rhs)
    for v in solution:
        if v.denominator != 1 or v < 0:
            raise InternalCheckError(
                f"linear system produced a non-admissible multiplicity {v}"
            )
    return OmegaSystem(
        matrix=tuple(matrix),
        rhs=rhs,
        solution=tuple(int(v) for v in solution),
    )


def factor_dimensions(G: FiniteGroup, table: CharacterTable,
                      sig: GeometricSignature) -> DecompositionReport:
    """Dimensions and exponents of the isogeny factors, fully cross-checked.

    The factor of a Galois class with k = schur_index * field_degree has
    dimension k[d(gamma-1) + (1/2) sum_j (d - d^{G_j})], which is k*n/2 for
    the multiplicity n of its characters in the homology action.
    """
    _branch_class_reps(G, sig)  # a plain signature is refused before any arithmetic
    gamma = sig.quotient_genus
    g = signature_genus(G, sig)
    multiplicities = complex_multiplicities(G, table, sig)

    records = []
    for gc in table.galois_classes:
        chi = table.characters[gc.representative]
        schur = gc.schur_index
        n = multiplicities[chi.index]
        if chi.degree % schur:
            raise InternalCheckError(
                f"Schur index {schur} does not divide degree {chi.degree}"
            )
        if n % schur:
            raise InternalCheckError(
                f"multiplicity {n} is not divisible by the Schur index {schur} "
                f"of character {chi.index}"
            )
        k = schur * gc.field_degree
        dim, rest = divmod(k * n, 2)
        if rest:
            raise InternalCheckError(f"factor dimension {k * n}/2 is not an integer")
        records.append(MultiplicityRecord(
            galois_class=gc, degree=chi.degree, n=n, e=n // schur,
            dim_B=dim, exponent=chi.degree // schur, k=k,
        ))

    # sum rule over all complex irreducibles, Galois conjugates included
    doubled = sum(rec.galois_class.field_degree * rec.degree * rec.n for rec in records)
    if doubled != 2 * g:
        raise InternalCheckError(
            f"multiplicities weigh to {doubled}, expected {2 * g}"
        )
    accounted = sum(rec.dim_B * rec.exponent for rec in records)
    if accounted != g:
        raise InternalCheckError(
            f"factor dimensions account for genus {accounted}, expected {g}"
        )

    # independent route: solve the linear system over the quotient genera
    genera = [
        quotient_genus(G, sig, cls.representative) for cls in G.cyclic_subgroup_classes
    ]
    omega = solve_omega_system(G, table, genera)
    expected = tuple(multiplicities[gc.representative] for gc in table.galois_classes)
    if omega.solution != expected:
        raise InternalCheckError(
            f"linear system solution {omega.solution} does not match "
            f"the closed form {expected}"
        )

    return DecompositionReport(
        records=tuple(records),
        total_genus=g,
        quotient_genus=gamma,
        omega=omega,
    )


@dataclass(frozen=True)
class TorusCaseConditions:
    """The four equivalent conditions for a factor to vanish when the quotient is a torus."""

    galois_representative: int
    degree: int
    dim_is_zero: bool
    stabilizers_in_kernel: bool
    kernel_cover_unramified: bool
    kernel_quotient_is_torus: bool

    @property
    def all_true(self) -> bool:
        return (self.dim_is_zero and self.stabilizers_in_kernel
                and self.kernel_cover_unramified and self.kernel_quotient_is_torus)

    def to_json(self) -> dict:
        return {
            "representative": self.galois_representative,
            "degree": self.degree,
            "dim_is_zero": self.dim_is_zero,
            "stabilizers_in_kernel": self.stabilizers_in_kernel,
            "kernel_cover_unramified": self.kernel_cover_unramified,
            "kernel_quotient_is_torus": self.kernel_quotient_is_torus,
        }


def gamma1_analysis(G: FiniteGroup, table: CharacterTable, sig: GeometricSignature,
                    report: Optional[DecompositionReport] = None,
                    ) -> tuple[TorusCaseConditions, ...]:
    """Evaluate the vanishing conditions for every nontrivial class when gamma = 1.

    report is factor_dimensions(G, table, sig), computed here when not given.
    """
    if sig.quotient_genus != 1:
        raise GroupInputError("this analysis applies only to quotient genus 1")
    if report is None:
        report = factor_dimensions(G, table, sig)
    reps = _branch_class_reps(G, sig)
    out = []
    for rec in report.records:
        chi = table.characters[rec.representative]
        if chi.index == table.trivial_character_index:
            continue
        ker = table.kernel(chi)
        c1 = rec.dim_B == 0
        c2 = not any(stab.mask & ~ker.mask for stab in reps)
        cover = cover_report(G, sig, ker)
        c3 = all(all(e == 1 for e in cs.entries) for cs in cover.cycle_structures)
        c4 = cover.genus == 1
        if not c1 == c2 == c3 == c4:
            raise InternalCheckError(
                f"vanishing conditions disagree for character {chi.index}: "
                f"{c1}, {c2}, {c3}, {c4}"
            )
        if c1 and chi.degree != 1:
            # a vanishing factor of higher degree cannot occur for an actual
            # action, so this input admits no realization
            raise GroupInputError(
                f"no action exists with this signature: the factor of character "
                f"{chi.index} (degree {chi.degree}) would vanish"
            )
        out.append(TorusCaseConditions(
            galois_representative=rec.representative,
            degree=chi.degree,
            dim_is_zero=c1,
            stabilizers_in_kernel=c2,
            kernel_cover_unramified=c3,
            kernel_quotient_is_torus=c4,
        ))
    return tuple(out)
