"""Exact complex character tables.

The table is computed by the modular class-algebra method: the common
eigenvectors of the class matrices are found over a prime field F_p with
p = 1 (mod exponent) and p > 2*sqrt(|G|), and the character values are then
lifted to exact cyclotomic numbers by inverting the discrete Fourier
transform over power maps, each eigenvalue multiplicity weighting one row of
a table of the powers of zeta_e.  The prime is the smallest qualifying one, the
subspace splitting is performed in a fixed order, and the finished rows are
sorted by (degree, value sequence), so the table is deterministic.

Character values are algebraic integers, and a character stores them in
one form only, its integer row `Character.row`: for each class, the phi(e)
coefficients of the value in the power basis of Z[zeta_e], e the group
exponent.  The lift, the self-orthogonality norms, the Galois images, the
fixed-space dimensions and the Frobenius-Schur indicators are integer sums
over these rows, and rationals appear only at the final exact division.
`Character.values`, the same values as `Cyclo` numbers, is built from the
row on first read, for the JSON and text output and for API callers.
Powers of class representatives come from the group's one class power map,
`FiniteGroup.class_powers`.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .cyclotomic import Cyclo, cyclotomic_polynomial, euler_phi, reduce_integral
from .errors import GroupInputError, InternalCheckError, NotRationalError
from .groups import FiniteGroup, FrozenRecord, Subgroup, require_subgroups

SCHUR_COMPUTED = "computed-upper-bound"
SCHUR_OVERRIDE = "user-override"


class Character(FrozenRecord):
    """One irreducible complex character, with a value per conjugacy class.

    row[j] holds the phi(conductor) integer coefficients of the value on
    class j in the power basis of Z[zeta_conductor].  The `__dict__` slot
    holds the cached `values`.
    """

    __slots__ = ("index", "row", "conductor", "degree", "__dict__")

    def __init__(self, index: int, row: tuple[tuple[int, ...], ...], conductor: int,
                 degree: int):
        self._init("index", index)
        self._init("row", row)
        self._init("conductor", conductor)
        self._init("degree", degree)

    @cached_property
    def values(self) -> tuple[Cyclo, ...]:
        return tuple(Cyclo(self.conductor, v) for v in self.row)


class GaloisClass(FrozenRecord):
    """A Galois orbit of irreducible characters with its Schur data, built once.

    `schur_bound` (`_schur_upper_bound`) and the Frobenius-Schur `indicator`
    are Galois invariants, computed on the representative, the least member;
    `schur_index` is the override when one is given, else the bound."""

    __slots__ = ("members", "representative", "field_degree", "schur_bound", "indicator",
                 "schur_index", "schur_index_source")

    def __init__(self, members: tuple[int, ...], representative: int, field_degree: int,
                 schur_bound: int, indicator: int, schur_index: int, schur_index_source: str):
        self._init("members", members)
        self._init("representative", representative)
        self._init("field_degree", field_degree)
        self._init("schur_bound", schur_bound)
        self._init("indicator", indicator)
        self._init("schur_index", schur_index)
        self._init("schur_index_source", schur_index_source)


def _admissible_schur_index(index: int, bound: int, indicator: int) -> bool:
    """Whether index can be the Schur index m of a class: m divides the computed
    bound, and m is even under indicator -1, whose real Schur index 2 divides m."""
    return index >= 1 and bound % index == 0 and not (indicator == -1 and index % 2)


class CharacterTable:
    """The exact character table of a finite group, with Galois structure."""

    def __init__(self, group: FiniteGroup, characters: Sequence[Character],
                 schur_overrides: Optional[Mapping[int, int]] = None):
        self.group = group
        self.classes = group.conjugacy_classes
        self.characters = tuple(characters)
        phi = euler_phi(group.exponent)
        for chi in self.characters:
            if chi.conductor != group.exponent or any(len(v) != phi for v in chi.row):
                raise InternalCheckError(
                    f"character {chi.index} is not a row over Z[zeta_{group.exponent}]"
                )
            bad = next((c for v in chi.row for c in v if not isinstance(c, int)), None)
            if bad is not None:
                raise InternalCheckError(
                    f"character {chi.index} has a non-integral coefficient: {bad}"
                )
        self._row_index = {chi.row: chi.index for chi in self.characters}
        self.galois_classes = self._build_galois_classes(schur_overrides or {})
        if len(self.galois_classes) != len(group.cyclic_subgroup_classes):
            raise InternalCheckError(
                "Galois class count does not match cyclic subgroup classes"
            )

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
        total = [0] * len(row[0])
        for j, n in weights:
            total = [t + n * c for t, c in zip(total, row[j])]
        if any(total[1:]):
            raise NotRationalError(
                f"value is not rational: {Cyclo(self.group.exponent, total)}"
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
        weights: dict[int, int] = {}
        for cls, powers in zip(self.classes, self.group.class_powers):
            sq = powers[2 % len(powers)]
            weights[sq] = weights.get(sq, 0) + cls.size
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

    def galois_class_of(self, char_index: int) -> GaloisClass:
        for gc in self.galois_classes:
            if char_index in gc.members:
                return gc
        raise GroupInputError(f"no character with index {char_index}")

    # -- construction ------------------------------------------------------

    def _galois_image(self, chi: Character, k: int) -> tuple[tuple[int, ...], ...]:
        """The row of the Galois conjugate zeta -> zeta^k of chi: g -> chi(g^k)."""
        return tuple(chi.row[powers[k % len(powers)]] for powers in self.group.class_powers)

    def _build_galois_classes(self, overrides: Mapping[int, int]) -> tuple[GaloisClass, ...]:
        """One pass in character order, which meets each class at its least member."""
        for i in overrides:
            if not 0 <= i < len(self.characters):
                raise GroupInputError(
                    f"Schur override for character {i}: the characters are "
                    f"0..{len(self.characters) - 1}"
                )
        e = self.group.exponent
        units = [k for k in range(1, e + 1) if math.gcd(k, e) == 1]
        seen: set[int] = set()
        out = []
        for chi in self.characters:
            if chi.index in seen:
                continue
            images = {self._row_index.get(self._galois_image(chi, k)) for k in units}
            if None in images:
                raise InternalCheckError(
                    "power map left the character table; lifting is inconsistent"
                )
            members = tuple(sorted(images))
            seen.update(members)
            bound = self._schur_upper_bound(chi)
            indicator = self.frobenius_schur_indicator(chi)
            if not _admissible_schur_index(bound, bound, indicator):
                raise InternalCheckError(
                    f"computed Schur bound {bound} of character {chi.index} is not "
                    f"an admissible Schur index under indicator {indicator}"
                )
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
        vals = []
        for cls in self.group.cyclic_subgroup_classes:
            m = self.fixed_dim(chi, cls.representative)
            if m:
                vals.append(m)
        return math.gcd(*vals)

    # -- rendering ---------------------------------------------------------

    def to_json(self) -> dict:
        indicator = {i: gc.indicator for gc in self.galois_classes for i in gc.members}
        return {
            "group": {
                "name": self.group.name,
                "order": self.group.order,
                "exponent": self.group.exponent,
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
                    "values": [v.to_json() for v in chi.values],
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
        headers = ["", *(str(c.representative) for c in self.classes)]
        rows = [headers, ["size", *(str(c.size) for c in self.classes)],
                ["order", *(str(c.element_order) for c in self.classes)]]
        for chi in self.characters:
            rows.append([f"chi{chi.index}", *(str(v) for v in chi.values)])
        widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
        ]
        lines.insert(3, "-" * len(lines[0]))
        lines.append("")
        for gc in self.galois_classes:
            members = ", ".join(f"chi{i}" for i in gc.members)
            lines.append(
                f"galois class [{members}]  field degree {gc.field_degree}  "
                f"schur index {gc.schur_index} ({gc.schur_index_source})"
            )
        return "\n".join(lines)


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


def _primitive_root(p: int) -> int:
    factors = set()
    m = p - 1
    q = 2
    while q * q <= m:
        while m % q == 0:
            factors.add(q)
            m //= q
        q += 1
    if m > 1:
        factors.add(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise InternalCheckError(f"no primitive root mod {p}")


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p; returns (rows, pivot columns)."""
    rows = [row[:] for row in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _nullspace(mat: list[list[int]], p: int) -> list[list[int]]:
    n = len(mat)
    rows, pivots = _rref(mat, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = (-row[fc]) % p
        basis.append(vec)
    return basis


def _coords_in_basis(vec: list[int], rows: list[list[int]], pivots: list[int],
                     p: int) -> list[int]:
    """Coordinates of vec in an RREF basis; vec must lie in the span."""
    v = vec[:]
    coords = []
    for row, pc in zip(rows, pivots):
        c = v[pc]
        coords.append(c)
        if c:
            v = [(a - c * b) % p for a, b in zip(v, row)]
    if any(v):
        raise InternalCheckError("vector left the invariant subspace")
    return coords


def _charpoly_modp(mat: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial mod p (ascending coefficients, monic)."""
    n = len(mat)
    h = [row[:] for row in mat]
    # reduce to upper Hessenberg form by a similarity transformation
    for c in range(n - 2):
        pivot = next((r for r in range(c + 1, n) if h[r][c]), None)
        if pivot is None:
            continue
        if pivot != c + 1:
            h[c + 1], h[pivot] = h[pivot], h[c + 1]
            for row in h:
                row[c + 1], row[pivot] = row[pivot], row[c + 1]
        inv = pow(h[c + 1][c], p - 2, p)
        for r in range(c + 2, n):
            f = h[r][c] * inv % p
            if f:
                h[r] = [(a - f * b) % p for a, b in zip(h[r], h[c + 1])]
                for row in h:
                    row[c + 1] = (row[c + 1] + f * row[r]) % p
    # recurrence over leading principal minors of xI - H
    polys = [[1]]
    for m in range(1, n + 1):
        cur = [0] + polys[m - 1]  # x * p_{m-1}
        diag = h[m - 1][m - 1]
        cur = [
            (a - diag * b) % p
            for a, b in zip(cur, polys[m - 1] + [0])
        ]
        mult = 1
        for i in range(1, m):
            mult = mult * h[m - i][m - i - 1] % p
            if not mult:
                break
            coeff = h[m - i - 1][m - 1] * mult % p
            if coeff:
                prev = polys[m - i - 1]
                cur = [
                    (a - coeff * (prev[j] if j < len(prev) else 0)) % p
                    for j, a in enumerate(cur)
                ]
        polys.append(cur)
    return polys[n]


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


def _class_matrix(G: FiniteGroup, i: int, times_reps: list[list[int]]) -> list[list[int]]:
    """Entry (j, k): the x in class i with x^-1 rep_k in class j; x^-1 spans the
    inverse class.  times_reps[k] is the column y -> y * rep_k."""
    classes = G.conjugacy_classes
    cls_of = G.class_of
    inverses = classes[G.class_powers[i][-1]].indices
    s = len(classes)
    mat = [[0] * s for _ in range(s)]
    for k, times_rep in enumerate(times_reps):
        for y in inverses:
            mat[cls_of[times_rep[y]]][k] += 1
    return mat


def _split_spaces(G: FiniteGroup, p: int) -> list[list[int]]:
    """Common eigenvectors of all class matrices over F_p, one per character."""
    s = len(G.conjugacy_classes)
    spaces: list[tuple[list[list[int]], list[int]]] = [
        _rref([[1 if i == j else 0 for j in range(s)] for i in range(s)], p)
    ]
    # every class matrix reads these columns; the group does not keep them
    times_reps = [G.right(cls.indices[0]) for cls in G.conjugacy_classes]
    for i in range(1, s):
        if all(len(rows) == 1 for rows, _ in spaces):
            break
        sparse = [[(c, v % p) for c, v in enumerate(row) if v]
                  for row in _class_matrix(G, i, times_reps)]
        refined = []
        for rows, pivots in spaces:
            d = len(rows)
            if d == 1:
                refined.append((rows, pivots))
                continue
            images = [[sum(v * vec[c] for c, v in entries) % p for entries in sparse]
                      for vec in rows]
            restr_cols = [_coords_in_basis(img, rows, pivots, p) for img in images]
            # restriction matrix: columns are images of basis vectors
            restr = [[restr_cols[j][i2] for j in range(d)] for i2 in range(d)]
            for lam in sorted(_poly_roots_modp(_charpoly_modp(restr, p), p)):
                shifted = [
                    [(restr[a][b] - (lam if a == b else 0)) % p for b in range(d)]
                    for a in range(d)
                ]
                null = _nullspace(shifted, p)
                if not null:
                    continue
                ambient = [
                    [sum(cv * rows[j][c] for j, cv in enumerate(coords)) % p
                     for c in range(s)]
                    for coords in null
                ]
                refined.append(_rref(ambient, p))
        spaces = refined
    if not all(len(rows) == 1 for rows, _ in spaces):
        raise InternalCheckError("class matrices failed to split the class algebra")
    if len(spaces) != s:
        raise InternalCheckError("wrong number of common eigenvectors")
    return [rows[0] for rows, _ in spaces]


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


def _zeta_sum(mults: Sequence[int], zeta_rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    """sum of mults[k] * zeta_m^k, m = len(mults) dividing e = len(zeta_rows),
    in the power basis of Z[zeta_e]: zeta_m^k is the row of zeta_e^(k*e/m)."""
    step = len(zeta_rows) // len(mults)
    value = [0] * len(zeta_rows[0])
    for k, a in enumerate(mults):
        if a:
            value = [v + a * z for v, z in zip(value, zeta_rows[k * step])]
    return tuple(value)


def compute_table(G: FiniteGroup,
                  schur_overrides: Optional[Mapping[int, int]] = None) -> CharacterTable:
    """Compute the exact character table of a group of order at most 2000."""
    classes = G.conjugacy_classes
    class_powers = G.class_powers
    s = len(classes)
    e = G.exponent
    phi = euler_phi(e)
    p = _choose_prime(G.order, e)
    inv_sizes = [pow(cls.size, p - 2, p) for cls in classes]
    inverse_class = [powers[-1] for powers in class_powers]
    omegas = _split_spaces(G, p)

    zeta_rows = _zeta_powers(e)
    root = pow(_primitive_root(p), (p - 1) // e, p)  # fixed image of zeta_e in F_p
    # per element order m: the images of zeta_m^-t, t < m, and of 1/m in F_p
    dft = {}
    for m in {len(powers) for powers in class_powers}:
        zeta_m = pow(root, e // m, p)
        dft[m] = ([pow(zeta_m, -t % m, p) for t in range(m)], pow(m, p - 2, p))

    characters = []
    degrees_sq = 0
    for w in omegas:
        if not w[0]:
            raise InternalCheckError("eigenvector vanishes on the identity class")
        scale = pow(w[0], p - 2, p)
        w = [v * scale % p for v in w]
        norm = sum(w[j] * w[inverse_class[j]] * inv_sizes[j] for j in range(s)) % p
        d2 = G.order * pow(norm, p - 2, p) % p
        # p > 2*sqrt(|G|), so at most one d in 1..sqrt(|G|) squares to d2
        degree = next(
            (d for d in range(1, math.isqrt(G.order) + 1) if d * d % p == d2), None
        )
        if degree is None:
            raise InternalCheckError("lifted degree out of range")
        degrees_sq += degree * degree
        tvals = [degree * w[j] * inv_sizes[j] % p for j in range(s)]
        row = []
        for powers in class_powers:
            # chi(g) = sum over k of a_k zeta_m^k, where a_k, the multiplicity
            # of the eigenvalue zeta_m^k of g, is an inverse DFT over g^u
            m = len(powers)
            zeta_inv, inv_m = dft[m]
            samples = [tvals[c] for c in powers]
            mults = [
                sum(t * zeta_inv[k * u % m] for u, t in enumerate(samples)) * inv_m % p
                for k in range(m)
            ]
            if sum(mults) != degree:
                raise InternalCheckError("eigenvalue multiplicities do not sum to degree")
            row.append(_zeta_sum(mults, zeta_rows))
        characters.append((degree, tuple(row)))
    if degrees_sq != G.order:
        raise InternalCheckError("sum of squared degrees does not match the group order")

    characters.sort()
    if len({row for _, row in characters}) != s:
        raise InternalCheckError("duplicate character rows")
    target = (G.order,) + (0,) * (phi - 1)
    for i, (_, row) in enumerate(characters):
        # sum over classes of |C| chi(g) chi(g^-1), where chi(g^-1) is the
        # complex conjugate of chi(g), as an unreduced product in Z[zeta_e]
        norm = [0] * (2 * phi - 1)
        for j, cls in enumerate(classes):
            conj_row = row[inverse_class[j]]
            for a_pos, a in enumerate(row[j]):
                if a:
                    weight = a * cls.size
                    for b_pos, b in enumerate(conj_row):
                        norm[a_pos + b_pos] += weight * b
        if reduce_integral(norm, e) != target:
            raise InternalCheckError(f"character {i} fails self-orthogonality")
    chars = tuple(
        Character(index=i, row=row, conductor=e, degree=deg)
        for i, (deg, row) in enumerate(characters)
    )
    return CharacterTable(G, chars, schur_overrides)
