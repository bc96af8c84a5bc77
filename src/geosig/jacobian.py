"""Decomposition of the Jacobian action determined by a geometric signature.

For each Galois class of irreducible characters this module computes the
complex multiplicity in the homology representation, the rational
multiplicity, the dimension of the corresponding isogeny factor, and its
exponent.  The closed form, `_closed_form`, is the primary source, and
runs only after `complex_multiplicities` has refused the input it cannot
decide.  Routes that share no code with it are compared with it: in every
decomposition, the linear system over the cyclic-subgroup quotient genera
and Riemann–Hurwitz through the sum rule, and in the gamma = 1 analysis,
the cover of each character's kernel.  So a defect in any route cannot
pass silently.
"""

from __future__ import annotations

from typing import Sequence

from .chartable import SCHUR_COMPUTED, CharacterTable, text_table
from .covers import cover_report, quotient_genus
from .errors import GroupInputError, InternalCheckError, InvalidSignatureError
from .groups import FiniteGroup, FrozenRecord, require_subgroups
from .signature import GeometricSignature, branch_stabilizers, signature_genus


class MultiplicityRecord(FrozenRecord):
    """Multiplicities and factor data for one Galois class of characters: `n`
    is the multiplicity of each class member in the homology action, `e` that
    of the rational irreducible (n / schur_index), `dim_B` the dimension of
    the isogeny factor, and `exponent` its power (degree / schur_index)."""

    __slots__ = ("galois_class", "degree", "n", "e", "dim_B", "exponent")

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


class OmegaSystem(FrozenRecord):
    """The exactly solved linear system tying fixed dimensions to quotient genera:
    `matrix` has a row per cyclic class and a column per Galois class, `rhs`
    holds 2 * genus of each S/H_j, `solution` one multiplicity per Galois class."""

    __slots__ = ("matrix", "rhs", "solution")


class DecompositionReport(FrozenRecord):
    """Full isogeny decomposition data for one group action."""

    __slots__ = ("records", "total_genus", "quotient_genus", "omega")

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
        rows = [["class", "degree", "field", "schur", "n", "e", "dim B", "exponent"]]
        for rec in self.records:
            gc = rec.galois_class
            star = "*" if gc.schur_index_source != SCHUR_COMPUTED else ""
            rows.append([f"chi{rec.representative}{star}", *map(str, (
                rec.degree, gc.field_degree, gc.schur_index, rec.n, rec.e, rec.dim_B,
                rec.exponent))])
        lines = text_table(rows, 1)
        if any(row[0].endswith("*") for row in rows):
            lines.append("(* = user-supplied Schur index)")
        lines.append("")
        lines.append(f"genus {self.total_genus} = sum of dim * exponent; {self.summary()}")
        return "\n".join(lines)


def complex_multiplicities(G: FiniteGroup, table: CharacterTable,
                           sig: GeometricSignature) -> tuple[int, ...]:
    """Multiplicity of each irreducible character in the homology action, by
    the closed form.  A plain signature or one of another group, then one
    that Riemann–Hurwitz gives no genus (InvalidSignatureError), then a table
    of another group are refused, in that order, before any arithmetic."""
    reps = branch_stabilizers(G, sig)
    signature_genus(G, sig)
    require_subgroups(table.group, *reps)
    columns = [G.cyclic_subgroup_masks[stab.mask] for stab in reps]
    return _closed_form(table, columns, sig.quotient_genus)


def _closed_form(table: CharacterTable, columns: Sequence[int],
                 gamma: int) -> tuple[int, ...]:
    """n = 2d(gamma-1) + sum_j (d - d^{G_j}) for each character of degree d,
    and 2*gamma for the trivial one, where `columns` holds the cyclic class
    of each branch stabilizer G_j, a column of `table.fixed_dims`."""
    out = []
    for chi, dims in zip(table.characters, table.fixed_dims):
        if chi.index == table.trivial_character_index:
            out.append(2 * gamma)
            continue
        n = 2 * chi.degree * (gamma - 1)
        for c in columns:
            n += chi.degree - dims[c]
        if n < 0:
            raise InternalCheckError(
                f"character {chi.index} has negative multiplicity {n}; "
                "the signature is unrealizable or the table is defective"
            )
        out.append(n)
    return tuple(out)


def _solve_exact(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[int, list[int]]:
    """The exact solution of matrix · x = rhs as the integers (d, d·x), no
    Fraction: Bareiss's fraction-free elimination to upper-triangular form,
    then back-substitution.  Each division by the previous pivot is exact
    (Bareiss 1968); the last pivot d is ±det, so d·x is integral (Cramer) and
    each row's division in X_r = (d·b_r − Σ U[r][c]·X_c) / U[r][r] is exact."""
    n = len(matrix)
    work = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise InternalCheckError("fixed-dimension matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        top = work[col]
        for row in work[col + 1:]:
            lead, row[col] = row[col], 0
            for c in range(col + 1, n + 1):
                row[c], rest = divmod(top[col] * row[c] - lead * top[c], prev)
                if rest:
                    raise InternalCheckError(f"Bareiss division by the pivot {prev} is not exact")
        prev = top[col]
    scaled = [0] * n  # d·x
    for r in reversed(range(n)):
        row = work[r]
        known = sum(row[c] * scaled[c] for c in range(r + 1, n))
        scaled[r], rest = divmod(prev * row[n] - known, row[r])
        if rest:
            raise InternalCheckError(f"back-substitution of {prev}·x is not exact in row {r}")
    return prev, scaled


def solve_omega_system(G: FiniteGroup, table: CharacterTable,
                       genera: Sequence[int]) -> OmegaSystem:
    """Solve for the multiplicities from the cyclic-subgroup quotient genera:
    each is the int d·x_i // d, refused unless nonnegative with no remainder."""
    cyclic = G.cyclic_subgroup_classes
    if len(genera) != len(cyclic):
        raise GroupInputError(
            f"need one genus per cyclic subgroup class ({len(cyclic)}), got {len(genera)}"
        )
    require_subgroups(table.group, *(cls.representative for cls in cyclic))
    dims = table.fixed_dims
    matrix = [
        tuple(sum(dims[i][c] for i in gc.members) for gc in table.galois_classes)
        for c in range(len(cyclic))
    ]
    rhs = tuple(2 * g for g in genera)
    d, scaled = _solve_exact(matrix, rhs)
    solution = []
    for x in scaled:
        v, rest = divmod(x, d)
        if rest or v < 0:
            raise InternalCheckError(f"linear system gives a non-admissible multiplicity {x}/{d}")
        solution.append(v)
    return OmegaSystem(matrix=tuple(matrix), rhs=rhs, solution=tuple(solution))


def factor_dimensions(G: FiniteGroup, table: CharacterTable,
                      sig: GeometricSignature) -> DecompositionReport:
    """Dimensions and exponents of the isogeny factors, fully cross-checked.

    The factor of a Galois class with k = schur_index * field_degree has
    dimension k[d(gamma-1) + (1/2) sum_j (d - d^{G_j})], which is k*n/2 for
    the multiplicity n of its characters in the homology action.
    """
    multiplicities = complex_multiplicities(G, table, sig)
    gamma = sig.quotient_genus
    g = signature_genus(G, sig)

    records = []
    for gc in table.galois_classes:
        chi = table.characters[gc.representative]
        schur = gc.schur_index
        n = multiplicities[chi.index]
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
            dim_B=dim, exponent=chi.degree // schur,
        ))

    # sum rule over all complex irreducibles, Galois conjugates included; the
    # Schur index divides the degree, so dim_B * exponent is f * degree * n / 2
    # and the factor dimensions account for g exactly when this holds
    doubled = sum(rec.galois_class.field_degree * rec.degree * rec.n for rec in records)
    if doubled != 2 * g:
        raise InternalCheckError(f"multiplicities weigh to {doubled}, expected {2 * g}")

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


class TorusCaseConditions(FrozenRecord):
    """The four equivalent conditions for a factor to vanish when the quotient is a torus."""

    __slots__ = ("galois_representative", "degree", "dim_is_zero", "stabilizers_in_kernel",
                 "kernel_cover_unramified", "kernel_quotient_is_torus")

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


def gamma1_analysis(G: FiniteGroup, table: CharacterTable,
                    sig: GeometricSignature) -> tuple[TorusCaseConditions, ...]:
    """Evaluate the vanishing conditions for every nontrivial class when gamma = 1.

    dim B = k*n/2 with k >= 1, so the first condition is n = 0 for the
    closed-form multiplicity n; no decomposition is computed.  A vanishing
    factor of degree above 1 proves that no action has this signature
    (InvalidSignatureError).
    """
    if sig.quotient_genus != 1:
        raise GroupInputError("this analysis applies only to quotient genus 1")
    multiplicities = complex_multiplicities(G, table, sig)
    reps = branch_stabilizers(G, sig)
    out, by_kernel = [], {}  # one cover report per distinct kernel, by member mask
    for gc in table.galois_classes:
        chi = table.characters[gc.representative]
        if chi.index == table.trivial_character_index:
            continue
        ker = table.kernel(chi)
        c1 = multiplicities[chi.index] == 0
        c2 = not any(stab.mask & ~ker.mask for stab in reps)
        if ker.mask not in by_kernel:
            by_kernel[ker.mask] = cover_report(G, sig, ker)
        cover = by_kernel[ker.mask]
        c3 = all(all(e == 1 for e in cs) for cs in cover.cycle_structures)
        c4 = cover.genus == 1
        if not c1 == c2 == c3 == c4:
            raise InternalCheckError(
                f"vanishing conditions disagree for character {chi.index}: "
                f"{c1}, {c2}, {c3}, {c4}"
            )
        if c1 and chi.degree != 1:
            # a vanishing factor of higher degree cannot occur for an actual
            # action, so this input admits no realization
            raise InvalidSignatureError(
                f"no action exists with this signature: the factor of character "
                f"{chi.index} (degree {chi.degree}) would vanish"
            )
        out.append(TorusCaseConditions(
            galois_representative=chi.index,
            degree=chi.degree,
            dim_is_zero=c1,
            stabilizers_in_kernel=c2,
            kernel_cover_unramified=c3,
            kernel_quotient_is_torus=c4,
        ))
    return tuple(out)
