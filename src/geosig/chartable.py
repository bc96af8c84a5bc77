"""Exact complex character tables.

The table is computed by the modular class-algebra method (Dixon 1967;
Schneider 1990): the common eigenvectors of the class matrices are found
over a prime field F_p with p = 1 (mod exponent) and p > 2*sqrt(|G|), and
the character values are then lifted to exact cyclotomic numbers by
inverting the discrete Fourier transform over power maps, each eigenvalue
multiplicity weighting one row of a table of the powers of zeta_e.

The split projects rather than solves.  The identity-class vector e_0 meets
every common eigenspace, so it is the first leaf; each class matrix M in
class order splits every leaf u by u's minimal polynomial f under M, read
off the Krylov vectors u, Mu, M^2 u, ..., into the vectors q(M) u with
q = f / (x - lam), one per root lam, until there are s leaves.  No
characteristic polynomial or nullspace is computed.  The split does not
use seeded random combinations of all class matrices: building all s of
them costs |G|*s lookups, more than the whole split of symmetric(6), and
the output would hang on a seed.

The lift runs the inverse DFT once per class of cyclic subgroups, over the
classes along its power walk w_c^0, ..., w_c^(m-1); a class whose
representative is conjugate to w_c^a reads those multiplicities in place,
the one at k weighting zeta_m^(k*a).  The table keeps the multiplicity
a_0 of the eigenvalue 1 as the fixed-space dimension dim V_chi^<w_c>: by
DFT inversion it is congruent mod p to the average of chi over <w_c>, and
equal to it when the rows are the true characters.  At run time the table
checks the eigenvectors against every class matrix the split read, the
multiplicity sum of each DFT, which holds each a_k to an integer of at
most chi(1) < p, and the row and the column norms of the integer rows
that the same multiplicities produce; the identity's walk has the one
multiplicity chi(1), so its column norm is sum chi(1)^2 = |G|.  No
run-time check ties a_0 to the row average beyond that congruence; the
tests compare the two on a corpus of groups; each run-time check has a
test that makes it fire (tests/test_checks.py).  The prime is the smallest
qualifying one, zeta_e maps to the least root of Phi_e mod p, and the
finished rows are sorted by (degree, value sequence), so the table is
deterministic.  Any root of Phi_e gives the same table: another root
Galois-conjugates each lifted row, the set of rows is closed under
Gal(Q(zeta_e)/Q), and the sort puts every row back in its place.
`compute_table` is the one way in for a `CharacterTable`.

Character values are algebraic integers, and a character stores them in
one form only, its integer row `Character.row`: for each class, the phi(e)
coefficients of the value in the power basis of Z[zeta_e], e the group
exponent.  The norms, the Galois images, `CharacterTable.fixed_dim` and
the Frobenius-Schur indicators are integer sums over these rows, and
rationals appear only at the final exact division.  The JSON
and text output and the error messages print a value from its row entry
(`cyclotomic.value_json`, `value_str`); the package builds no other form.
Walks, inverses, squares and Galois actions come from the group's one power
map, `FiniteGroup.power_walks` and `walk_places`.
`CharacterTable.fixed_dims`, the fixed-space dimension of every character
on every cyclic-class representative, is the a_0 of each walk from the
lift, and is read by the Schur bounds, the closed-form multiplicities and
the omega system; `fixed_dim` averages a row over any subgroup.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from operator import mul
from typing import Mapping, Optional, Sequence

from .cyclotomic import (cyclotomic_polynomial, euler_phi, reduce_integral, value_json,
                         value_str)
from .errors import GroupInputError, InternalCheckError
from .groups import FiniteGroup, FrozenRecord, Subgroup, require_subgroups

SCHUR_COMPUTED = "computed-upper-bound"
SCHUR_OVERRIDE = "user-override"


class Character(FrozenRecord):
    """One irreducible complex character, with a value per conjugacy class.

    row[j] holds the phi(e) integer coefficients of the value on class j
    in the power basis of Z[zeta_e], e the group exponent.
    """

    __slots__ = ("index", "row", "degree")


class GaloisClass(FrozenRecord):
    """A Galois orbit of irreducible characters with its Schur data, built once.

    `schur_bound` (`_schur_upper_bound`) and the Frobenius-Schur `indicator`
    are Galois invariants, computed on the representative, the least member;
    `schur_index` is the override when one is given, else the bound."""

    __slots__ = ("members", "representative", "field_degree", "schur_bound", "indicator",
                 "schur_index", "schur_index_source")


def _admissible_schur_index(index: int, bound: int, indicator: int) -> bool:
    """Whether an override can be the Schur index m of a class: m divides the
    computed bound, and m is even under indicator -1, whose real Schur index 2
    divides m."""
    return index >= 1 and bound % index == 0 and not (indicator == -1 and index % 2)


class CharacterTable:
    """The exact character table of a finite group, with Galois structure."""

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use compute_table")

    @classmethod
    def _trusted(cls, group, characters, fixed_dims, schur_overrides) -> "CharacterTable":
        self = object.__new__(cls)
        self.group = group
        self.classes = group.conjugacy_classes
        self.characters = characters
        # fixed_dim(chi, H) for each character chi (rows, by index) and each
        # cyclic-class representative H (columns, in class order), as the lift
        # found them: the one source of the Schur bounds, the closed-form
        # multiplicities and the omega matrix
        self.fixed_dims = fixed_dims
        self.galois_classes = self._build_galois_classes(schur_overrides)
        if len(self.galois_classes) != len(group.cyclic_subgroup_classes):
            raise InternalCheckError(
                "Galois class count does not match cyclic subgroup classes"
            )
        return self

    # -- queries ---------------------------------------------------------

    def _rational(self, value: int) -> tuple[int, ...]:
        """The integer row entry of a rational integer."""
        return (value,) + (0,) * (euler_phi(self.group.exponent) - 1)

    @cached_property
    def trivial_character_index(self) -> int:
        one = self._rational(1)
        for chi in self.characters:
            if all(v == one for v in chi.row):
                return chi.index
        raise InternalCheckError("no trivial character found")

    def _weighted_sum(self, chi: Character, weights: Sequence[tuple[int, int]]) -> int:
        """Sum of n * chi(class j) over the (j, n) in weights, which must be rational."""
        row = chi.row
        total = [sum(column) for column in zip(*[
            row[j] if n == 1 else [n * c for c in row[j]] for j, n in weights])]
        if any(total[1:]):
            raise InternalCheckError(
                f"value is not rational: {value_str(self.group.exponent, total)}"
            )
        return total[0]

    def fixed_dim(self, chi: Character, H: Subgroup) -> int:
        """dim of the H-fixed subspace: the average of chi over H."""
        require_subgroups(self.group, H)
        total = self._weighted_sum(chi, H.class_counts)
        dim, rest = divmod(total, H.order)
        if rest or dim < 0:
            from fractions import Fraction  # only the message reads it
            raise InternalCheckError(
                "fixed-space dimension is not a nonnegative integer: "
                f"{Fraction(total, H.order)}"
            )
        return dim

    @cached_property
    def _square_weights(self) -> tuple[tuple[int, int], ...]:
        """(class of g^2, number of such g) over the group, from the power map."""
        weights = Counter()
        for j, cls in enumerate(self.classes):
            weights[self.group.class_power(j, 2)] += cls.size
        return tuple(weights.items())

    def frobenius_schur_indicator(self, chi: Character) -> int:
        """Average of chi(g^2); -1, 0 or +1 for an irreducible character."""
        total = self._weighted_sum(chi, self._square_weights)
        ind, rest = divmod(total, self.group.order)
        if rest or ind not in (-1, 0, 1):
            from fractions import Fraction  # only the message reads it
            raise InternalCheckError(
                "Frobenius-Schur indicator is not in -1..1: "
                f"{Fraction(total, self.group.order)}"
            )
        return ind

    def kernel(self, chi: Character) -> Subgroup:
        """Elements where the character reaches its degree; a normal subgroup."""
        top = self._rational(chi.degree)
        at_degree = {j for j, v in enumerate(chi.row) if v == top}
        members = [g for g, j in enumerate(self.group.class_of) if j in at_degree]
        return Subgroup._trusted(self.group, members, None, f"ker(chi{chi.index})")

    # -- construction ------------------------------------------------------

    def _build_galois_classes(self, overrides: Mapping[int, int]) -> tuple[GaloisClass, ...]:
        """One pass in character order, which meets each class at its least member."""
        for i in overrides:
            if not 0 <= i < len(self.characters):
                raise GroupInputError(
                    f"Schur override for character {i}: the characters are "
                    f"0..{len(self.characters) - 1}"
                )
        G, e = self.group, self.group.exponent
        # the Galois conjugate zeta -> zeta^k of chi is g -> chi(g^k): a
        # permutation of the classes, the same for many units k
        actions = {tuple(G.class_power(j, k) for j in range(len(self.classes)))
                   for k in range(1, e + 1) if math.gcd(k, e) == 1}
        row_index = {chi.row: chi.index for chi in self.characters}
        seen: set[int] = set()
        out = []
        for chi in self.characters:
            if chi.index in seen:
                continue
            images = {row_index.get(tuple(chi.row[c] for c in action))
                      for action in actions}
            if None in images:
                raise InternalCheckError(
                    "power map left the character table; lifting is inconsistent"
                )
            members = tuple(sorted(images))
            seen.update(members)
            bound = self._schur_upper_bound(chi)
            indicator = self.frobenius_schur_indicator(chi)
            # bound >= 1: the gcd includes the fixed dimension chi(1) on 1
            if indicator == -1 and bound % 2:
                raise InternalCheckError(f"computed Schur bound {bound} of character "
                                         f"{chi.index} is odd under indicator -1")
            given = {overrides[i] for i in members if i in overrides}
            if len(given) > 1:
                raise GroupInputError(
                    f"Schur overrides {sorted(given)} disagree within the Galois "
                    f"class {list(members)}"
                )
            index, source = bound, SCHUR_COMPUTED
            if given:
                index, source = given.pop(), SCHUR_OVERRIDE
                if not _admissible_schur_index(index, bound, indicator):
                    parity = " and be even, as the Frobenius-Schur indicator is -1"
                    raise GroupInputError(
                        f"Schur override of {index} on the Galois class {list(members)}: "
                        f"the index must be a positive divisor of the computed bound "
                        f"{bound}{parity if indicator == -1 else ''}"
                    )
            out.append(GaloisClass(members, chi.index, len(members), bound, indicator,
                                   index, source))
        return tuple(out)

    def _schur_upper_bound(self, chi: Character) -> int:
        """gcd of the nonzero multiplicities of chi in 1-inductions from cyclic subgroups.

        The true Schur index divides this bound; `schur_bound_is_verified`
        says whether every bound of the table is proven exact.
        """
        return math.gcd(*self.fixed_dims[chi.index])

    # -- rendering ---------------------------------------------------------

    def to_json(self) -> dict:
        indicator = {i: gc.indicator for gc in self.galois_classes for i in gc.members}
        e = self.group.exponent
        return {
            "group": {
                "name": self.group.name,
                "order": self.group.order,
                "exponent": e,
                "degree": self.group.degree,
                "hash": self.group.digest,
            },
            "classes": [
                {
                    "representative": str(c.representative),
                    "size": c.size,
                    "element_order": c.element_order,
                }
                for c in self.classes
            ],
            "characters": [
                {
                    "index": chi.index,
                    "degree": chi.degree,
                    "values": [value_json(e, v) for v in chi.row],
                    "frobenius_schur": indicator[chi.index],
                }
                for chi in self.characters
            ],
            "galois_classes": [
                {
                    "members": list(gc.members),
                    "field_degree": gc.field_degree,
                    "schur_index": gc.schur_index,
                    "schur_index_source": gc.schur_index_source,
                }
                for gc in self.galois_classes
            ],
        }

    def render_text(self) -> str:
        e = self.group.exponent
        rows = [["", *(str(c.representative) for c in self.classes)],
                ["size", *(str(c.size) for c in self.classes)],
                ["order", *(str(c.element_order) for c in self.classes)],
                *([f"chi{chi.index}", *(value_str(e, v) for v in chi.row)]
                  for chi in self.characters)]
        lines = text_table(rows, 3)
        lines.append("")
        for gc in self.galois_classes:
            members = ", ".join(f"chi{i}" for i in gc.members)
            lines.append(
                f"galois class [{members}]  field degree {gc.field_degree}  "
                f"schur index {gc.schur_index} ({gc.schur_index_source})"
            )
        return "\n".join(lines)


def text_table(rows: Sequence[Sequence[str]], head: int) -> list[str]:
    """The lines of a right-justified table whose columns are joined by two
    spaces, with a rule of dashes under its first `head` rows."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    lines.insert(head, "-" * len(lines[0]))
    return lines


def schur_bound_is_verified(table: CharacterTable) -> bool:
    """True when the computed Schur bound of every Galois class is proven exact.

    The bound is a multiple of the rational Schur index m.  A bound of 1 is
    therefore exact, and so is a bound of 2 on a character of indicator -1,
    whose real Schur index 2 divides m.  The flag reads the stored bound, not
    the index, so a `--schur-override` never enters it, and neither does the
    group's name.
    """
    return all(gc.schur_bound == 1 or (gc.schur_bound == 2 and gc.indicator == -1)
               for gc in table.galois_classes)


# -- modular linear algebra ---------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, math.isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def _choose_prime(order: int, exponent: int) -> int:
    p = exponent + 1
    while not (_is_prime(p) and p * p > 4 * order):
        p += exponent
    return p


def _poly_roots_modp(poly: list[int], p: int) -> list[int]:
    return [
        lam for lam in range(p)
        if not _eval_poly(poly, lam, p)
    ]


def _eval_poly(poly: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


# -- table computation ---------------------------------------------------------


def _class_matrix(G: FiniteGroup, i: int) -> list[list[tuple[int, int]]]:
    """The nonzero entries (k, n) of each row j, by column k: n is the number
    of y in the inverse class C_i' of class i with y * rep_k in class j.
    Conjugation moves y over C_i' and rep_k over C_k alike, so that count is
    |C_i'| / |C_k| times the number of z in C_k with y0 * z in class j, for
    one y0 of C_i'; y0 * z is conjugate to z * y0, so the one column
    z -> z * y0 serves the whole matrix, counted once per column."""
    classes = G.conjugacy_classes
    cls_of = G.class_of
    inverse = classes[G.class_power(i, -1)]
    times_y0 = G.right(inverse.indices[0])
    rows: list[list[tuple[int, int]]] = [[] for _ in classes]
    for k, cls in enumerate(classes):
        counts = Counter(map(cls_of.__getitem__, map(times_y0.__getitem__, cls.indices)))
        for j, count in counts.items():
            n, rest = divmod(count * inverse.size, cls.size)
            if rest:
                raise InternalCheckError(f"class matrix {i} has a fractional entry")
            rows[j].append((k, n))
    return rows


def _apply(sparse: list[list[tuple[int, int]]], vec: list[int], p: int) -> list[int]:
    """M * vec mod p, for M given by the nonzero entries of each row."""
    return [sum(v * vec[c] for c, v in entries) % p for entries in sparse]


def _split_leaf(u: list[int], sparse: list[list[tuple[int, int]]], p: int) -> list[list[int]]:
    """The projections of u onto the eigenspaces of the class matrix M that it meets.

    u, Mu, M^2 u, ... are reduced against one another until M^d u depends on
    the d vectors before it; that relation is u's minimal polynomial f.  M is
    diagonalizable over F_p, so f must have d distinct roots there, and for
    each root lam, q(M) u with q = f / (x - lam) is nonzero (f is minimal)
    and (M - lam) q(M) u = f(M) u = 0.
    """
    krylov: list[list[int]] = []
    # (pivot, reduced vector with 1 at the pivot, its combination of the krylov vectors)
    echelon: list[tuple[int, list[int], list[int]]] = []
    v = u
    while True:
        d = len(krylov)
        r, f = v, [0] * d + [1]
        for pivot, row, comb in echelon:
            c = r[pivot]
            if c:
                r = [(a - c * b) % p for a, b in zip(r, row)]
                for k, b in enumerate(comb):
                    f[k] = (f[k] - c * b) % p
        pivot = next((c for c, a in enumerate(r) if a), None)
        if pivot is None:
            break
        inv = pow(r[pivot], p - 2, p)
        echelon.append((pivot, [a * inv % p for a in r], [a * inv % p for a in f]))
        krylov.append(v)
        v = _apply(sparse, v, p)
    if d == 1:
        return [u]
    roots = _poly_roots_modp(f, p)
    if len(roots) != d:
        raise InternalCheckError(
            f"minimal polynomial {f} of a class-algebra vector does not have "
            f"{d} distinct roots mod {p}"
        )
    out = []
    for lam in roots:
        q = [1] * d  # f / (x - lam) by synthetic division from the top
        for k in range(d - 1, 0, -1):
            q[k - 1] = (f[k] + lam * q[k]) % p
        w = [0] * len(u)
        for c, vec in zip(q, krylov):
            if c:
                w = [a + c * b for a, b in zip(w, vec)]
        out.append([a % p for a in w])
    return out


def _split_spaces(G: FiniteGroup, p: int) -> list[list[int]]:
    """Common eigenvectors of all class matrices over F_p, one per character.

    The identity-class vector e_0 is the sum over chi of chi(1)^2/|G| times
    the eigenvector omega_chi, and no coefficient is 0 mod p, so e_0 meets
    every common eigenspace.  Each class matrix in turn splits every leaf,
    starting from e_0, into its projections onto the matrix's eigenspaces
    (`_split_leaf`), until there are s leaves.

    Each leaf is then checked to be an eigenvector of every matrix the split
    read.  A matrix that leaves a leaf whole has already shown Mu to be a
    multiple of u, so a leaf is multiplied out only by the matrices up to
    the one that made it.
    """
    classes = G.conjugacy_classes
    s = len(classes)
    leaves = [([1] + [0] * (s - 1), 0)]  # (vector, number of matrices read when made)
    read = []
    for i in range(1, s):
        if len(leaves) >= s:
            break
        sparse = _class_matrix(G, i)
        read.append(sparse)
        split = []
        for u, made in leaves:
            parts = _split_leaf(u, sparse, p)
            split += [(u, made)] if len(parts) == 1 else [(w, len(read)) for w in parts]
        leaves = split
    if len(leaves) != s:
        raise InternalCheckError("class matrices split the class algebra into "
                                 f"{len(leaves)} common eigenvectors, not {s}")
    for w, made in leaves:
        j = next(j for j, a in enumerate(w) if a)
        inv = pow(w[j], p - 2, p)
        for i, sparse in enumerate(read[:made], 1):
            image = _apply(sparse, w, p)
            lam = image[j] * inv % p
            if any((a - lam * b) % p for a, b in zip(image, w)):
                raise InternalCheckError(
                    f"a split vector is not an eigenvector of class matrix {i}"
                )
    return [w for w, _ in leaves]


def _zeta_powers(e: int) -> list[tuple[int, ...]]:
    """zeta_e^i in the power basis of Z[zeta_e] for i < e: each row is x times
    the one before, reduced by the monic Phi_e at the top coefficient."""
    cyclo = cyclotomic_polynomial(e)
    phi = len(cyclo) - 1
    row = (1,) + (0,) * (phi - 1)
    out = [row]
    for _ in range(e - 1):
        top = row[-1]
        row = tuple(a - top * c for a, c in zip((0,) + row[:-1], cyclo))
        out.append(row)
    return out


def _zeta_sum(mults: Sequence[int], zeta_rows: list[tuple[int, ...]], a: int) -> tuple[int, ...]:
    """sum of mults[k] * zeta_m^(k*a), m = len(mults) dividing e = len(zeta_rows),
    in the power basis of Z[zeta_e]: zeta_m^(k*a) is the row of zeta_e^(k*a*e/m)."""
    e = len(zeta_rows)
    step = a * e // len(mults)
    value = [0] * len(zeta_rows[0])
    for k, n in enumerate(mults):
        if n:
            value = [v + n * z for v, z in zip(value, zeta_rows[k * step % e])]
    return tuple(value)


def _check_norms(G: FiniteGroup, rows: Sequence[Sequence[tuple[int, ...]]],
                 inverse: Sequence[int]) -> None:
    """Row and column norms of the integer rows, from one set of products.

    With P(chi, j) = chi(g_j) chi(g_j^-1), where g_j^-1 lies in class
    inverse[j] and chi(g^-1) is the complex conjugate of chi(g), as an
    unreduced product in Z[zeta_e]: the row norm sum_j |C_j| P(chi, j) is
    |G| for every chi, and the column norm sum_chi P(chi, j) is |G|/|C_j|
    for every class j.
    """
    classes = G.conjugacy_classes
    e = G.exponent
    phi = euler_phi(e)
    width = 2 * phi - 1
    columns = [[0] * width for _ in classes]
    target = (G.order,) + (0,) * (phi - 1)
    for i, row in enumerate(rows):
        norm = [0] * width
        for j, cls in enumerate(classes):
            conj_row, column, size = row[inverse[j]], columns[j], cls.size
            for a_pos, a in enumerate(row[j]):
                if a:
                    for b_pos, b in enumerate(conj_row, a_pos):
                        if b:
                            term = a * b
                            column[b_pos] += term
                            norm[b_pos] += size * term
        if reduce_integral(norm, e) != target:
            raise InternalCheckError(f"character {i} fails self-orthogonality")
    for j, (cls, column) in enumerate(zip(classes, columns)):
        got = reduce_integral(column, e)
        want = (G.order // cls.size,) + (0,) * (phi - 1)
        if got != want:
            raise InternalCheckError(
                f"class {j} fails column orthogonality: the sum of chi(g) chi(g^-1) "
                f"over the characters is {value_str(e, got)}, expected {want[0]}"
            )


def compute_table(G: FiniteGroup,
                  schur_overrides: Optional[Mapping[int, int]] = None) -> CharacterTable:
    """Compute the exact character table of a group of order at most 2000."""
    classes = G.conjugacy_classes
    walks = G.power_walks
    s = len(classes)
    e = G.exponent
    p = _choose_prime(G.order, e)
    inv_sizes = [pow(cls.size, p - 2, p) for cls in classes]
    inverse = [G.class_power(j, -1) for j in range(s)]
    omegas = _split_spaces(G, p)
    zeta_rows = _zeta_powers(e)
    # the image of zeta_e in F_p: the least root of Phi_e, the one that
    # _zeta_powers reduces by, with phi(e) distinct roots mod p since p is
    # prime and p = 1 (mod e)
    cyclo = cyclotomic_polynomial(e)
    root = next(x for x in range(p) if not _eval_poly(cyclo, x, p))
    # per element order m: the rows k < m of images of zeta_m^(-k*u), u < m,
    # and the image of 1/m in F_p
    dft = {}
    for m in set(map(len, walks)):
        zeta_m = pow(root, e // m, p)
        zeta_inv = [pow(zeta_m, -t % m, p) for t in range(m)]
        dft[m] = ([[zeta_inv[k * u % m] for u in range(m)] for k in range(m)],
                  pow(m, p - 2, p))

    characters = []
    for w in omegas:
        # w[0] = 0 makes w, norm and d2 all 0, and no d < p squares to 0 mod
        # the prime p: the degree check below refuses it
        scale = pow(w[0], p - 2, p)
        w = [v * scale % p for v in w]
        norm = sum(w[j] * w[inverse[j]] * inv_sizes[j] for j in range(s)) % p
        d2 = G.order * pow(norm, p - 2, p) % p
        # p > 2*sqrt(|G|), so at most one d in 1..sqrt(|G|) squares to d2
        degree = next(
            (d for d in range(1, math.isqrt(G.order) + 1) if d * d % p == d2), None
        )
        if degree is None:
            raise InternalCheckError("lifted degree out of range")
        tvals = [degree * w[j] * inv_sizes[j] % p for j in range(s)]
        walk_mults = []
        for c, walk in enumerate(walks):
            # chi(w) = sum over k of a_k zeta_m^k, where a_k, the multiplicity
            # of the eigenvalue zeta_m^k of w, is an inverse DFT over w^u
            dft_rows, inv_m = dft[len(walk)]
            samples = [tvals[j] for j in walk]
            mults = [sum(map(mul, samples, dft_row)) * inv_m % p for dft_row in dft_rows]
            if sum(mults) != degree:
                raise InternalCheckError(f"eigenvalue multiplicities on the power walk of "
                                         f"cyclic class {c} do not sum to degree")
            walk_mults.append(mults)
        # rep_j conjugate to w_c^a: chi(rep_j) = sum over k of a_k zeta_m^(k*a)
        row = tuple(_zeta_sum(walk_mults[c], zeta_rows, a) for c, a in G.walk_places)
        # a_0 is dim V_chi^<w_c>: congruent mod p to the average of chi over
        # <w_c>, and equal to it when the rows are the true characters
        characters.append((degree, row, tuple(mults[0] for mults in walk_mults)))

    characters.sort()
    if len({row for _, row, _ in characters}) != s:
        raise InternalCheckError("duplicate character rows")
    _check_norms(G, [row for _, row, _ in characters], inverse)
    chars = tuple(
        Character(index=i, row=row, degree=deg)
        for i, (deg, row, _) in enumerate(characters)
    )
    return CharacterTable._trusted(G, chars, tuple(dims for _, _, dims in characters),
                                   schur_overrides or {})
