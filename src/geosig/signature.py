"""Geometric signatures, Riemann-Hurwitz arithmetic, and the existence search.

A geometric signature is a quotient genus together with an ordered list of
branch entries [m, C], where C is a conjugacy class of cyclic subgroups of
order m.  An entry may leave C unspecified (a plain signature); such entries
constrain only the order, and `refinements` enumerates the ways to fill
them in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Optional, Sequence

from .errors import (
    GroupInputError,
    InvalidSignatureError,
    SearchBudgetExceeded,
)
from .groups import ConjugacyClassOfSubgroups, FiniteGroup, Perm, Subgroup, json_int

DEFAULT_SEARCH_BUDGET = 10 ** 8


@dataclass(frozen=True)
class BranchEntry:
    """One branch value: its stabilizer order and (optionally) the stabilizer class."""

    order: int
    cls: Optional[ConjugacyClassOfSubgroups] = None
    label: Optional[str] = None

    def __post_init__(self):
        if self.order < 2:
            raise GroupInputError(f"branch order must be at least 2, got {self.order}")
        if self.cls is not None:
            rep = self.cls.representative
            if not rep.is_cyclic:
                raise GroupInputError("branch stabilizer class must be cyclic")
            if rep.order != self.order:
                raise GroupInputError(
                    f"branch order {self.order} does not match the class order {rep.order}"
                )

    def display(self) -> str:
        if self.cls is None:
            return str(self.order)
        tag = self.label or self.cls.representative.label or "?"
        return f"[{self.order},<{tag}>]"


@dataclass(frozen=True)
class GeometricSignature:
    """Quotient genus plus ordered branch entries (possibly empty)."""

    quotient_genus: int
    entries: tuple[BranchEntry, ...] = ()

    def __post_init__(self):
        if self.quotient_genus < 0:
            raise GroupInputError("quotient genus cannot be negative")

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(e.order for e in self.entries)

    @property
    def is_geometric(self) -> bool:
        return all(e.cls is not None for e in self.entries)

    def __str__(self) -> str:
        body = ", ".join(e.display() for e in self.entries)
        return f"({self.quotient_genus}; {body})" if body else f"({self.quotient_genus};)"

    def to_json(self) -> dict:
        branches = []
        for e in self.entries:
            item: dict = {"order": e.order}
            if e.cls is not None:
                item["class_rep"] = e.label or e.cls.representative.label or "?"
            branches.append(item)
        return {"genus": self.quotient_genus, "branches": branches}


def signature_from_payload(G: FiniteGroup, payload: Mapping) -> GeometricSignature:
    """Build a signature from its JSON object, resolving class_rep words."""
    genus = json_int(payload, "genus", "signature spec needs an integer 'genus'")
    branches = payload.get("branches", [])
    if not isinstance(branches, Sequence) or isinstance(branches, str):
        raise GroupInputError("'branches' must be a list")
    entries = []
    for raw in branches:
        order = json_int(raw, "order", "each branch needs an integer 'order'")
        word = raw.get("class_rep")
        if word is None:
            entries.append(BranchEntry(order))
            continue
        g = G.element(str(word))
        if g.order() != order:
            raise GroupInputError(
                f"class_rep {word!r} has order {g.order()}, branch order is {order}"
            )
        sub = Subgroup.generated(G, [g], label=str(word))
        cls = G.cyclic_subgroup_classes[G.cyclic_class_index(sub)]
        entries.append(BranchEntry(order, cls, label=str(word)))
    return GeometricSignature(genus, tuple(entries))


def refinements(G: FiniteGroup, sig: GeometricSignature) -> tuple[GeometricSignature, ...]:
    """All ways to assign cyclic-subgroup classes to unconstrained entries."""
    pools = []
    for entry in sig.entries:
        if entry.cls is not None:
            pools.append((entry,))
        else:
            matching = [
                BranchEntry(entry.order, cls)
                for cls in G.cyclic_subgroup_classes
                if cls.order == entry.order
            ]
            pools.append(tuple(matching))
    if any(not pool for pool in pools):
        return ()
    return tuple(
        GeometricSignature(sig.quotient_genus, combo) for combo in product(*pools)
    )


def riemann_hurwitz_genus(group_order: int, quotient_genus: int,
                          orders: Sequence[int]) -> int:
    """Total genus forced by the branching data, or InvalidSignatureError."""
    if group_order < 1:
        raise GroupInputError("group order must be positive")
    if quotient_genus < 0:
        raise GroupInputError("quotient genus cannot be negative")
    for m in orders:
        if m < 2:
            raise GroupInputError(f"branch order must be at least 2, got {m}")
    g = Fraction(group_order * (quotient_genus - 1) + 1)
    for m in orders:
        g += Fraction(group_order, 2) * (1 - Fraction(1, m))
    if g.denominator != 1:
        raise InvalidSignatureError(f"branching data gives non-integral genus {g}", g)
    if g < 0:
        raise InvalidSignatureError(f"branching data gives negative genus {g}", g)
    return int(g)


def signature_genus(G: FiniteGroup, sig: GeometricSignature) -> int:
    return riemann_hurwitz_genus(G.order, sig.quotient_genus, sig.orders)


@dataclass(frozen=True)
class GeneratingVector:
    """Witness tuple (a_1..a_gamma, b_1..b_gamma, c_1..c_t)."""

    a: tuple[Perm, ...]
    b: tuple[Perm, ...]
    c: tuple[Perm, ...]

    def elements(self) -> tuple[Perm, ...]:
        return self.a + self.b + self.c

    def to_json(self) -> dict:
        return {
            "a": [str(g) for g in self.a],
            "b": [str(g) for g in self.b],
            "c": [str(g) for g in self.c],
        }


@dataclass
class VectorCheck:
    """Per-condition verdicts for a candidate generating vector."""

    orders_ok: bool
    classes_ok: bool
    product_ok: bool
    generates: bool

    @property
    def ok(self) -> bool:
        return self.orders_ok and self.classes_ok and self.product_ok and self.generates

    def failures(self) -> list[str]:
        out = []
        if not self.orders_ok:
            out.append("an element c_j does not have the required order m_j")
        if not self.classes_ok:
            out.append("a subgroup <c_j> lies outside the required conjugacy class")
        if not self.product_ok:
            out.append("the product of commutators and branch elements is not the identity")
        if not self.generates:
            out.append("the vector generates a proper subgroup")
        return out


def _commutator(a: Perm, b: Perm) -> Perm:
    return a * b * a.inverse() * b.inverse()


def verify_generating_vector(G: FiniteGroup, sig: GeometricSignature,
                             vec: GeneratingVector) -> VectorCheck:
    """Check the three existence conditions independently."""
    gamma, t = sig.quotient_genus, len(sig.entries)
    if len(vec.a) != gamma or len(vec.b) != gamma or len(vec.c) != t:
        raise GroupInputError(
            f"vector shape ({len(vec.a)},{len(vec.b)},{len(vec.c)}) does not match "
            f"signature shape ({gamma},{gamma},{t})"
        )
    for g in vec.elements():
        if g not in G:
            raise GroupInputError(f"vector element {g} is not in the group")

    orders_ok = all(c.order() == e.order for c, e in zip(vec.c, sig.entries))
    classes_ok = True
    for c, entry in zip(vec.c, sig.entries):
        if entry.cls is None:
            continue
        sub = Subgroup.generated(G, [c])
        if not entry.cls.contains_subgroup(sub):
            classes_ok = False
    prod = G.identity
    for x, y in zip(vec.a, vec.b):
        prod = prod * _commutator(x, y)
    for c in vec.c:
        prod = prod * c
    product_ok = prod.is_identity()
    generates = G.is_generated_by(vec.elements())
    return VectorCheck(orders_ok, classes_ok, product_ok, generates)


def _candidate_pool(G: FiniteGroup, entry: BranchEntry) -> tuple[int, ...]:
    """Indices of the elements of order m whose generated subgroup lies in the entry's class."""
    if entry.cls is None:
        return tuple(i for i, g in enumerate(G.elements) if g.order() == entry.order)
    idx = G.cyclic_class_index(entry.cls.representative)
    return G.merged_element_classes[idx].indices


def find_generating_vector(G: FiniteGroup, sig: GeometricSignature,
                           budget: int = DEFAULT_SEARCH_BUDGET) -> Optional[GeneratingVector]:
    """First generating vector in canonical order, or None after exhaustive search.

    The free choices are iterated in canonical element order: the 2*gamma
    handle elements over the whole group, then c_1..c_{t-1} over their
    candidate pools; c_t is forced by the product relation and membership-
    tested.  Every candidate considered costs one node against the budget.
    The search runs on element indices; the vector it returns holds `Perm`s.
    """
    signature_genus(G, sig)  # condition (i); raises InvalidSignatureError
    gamma, t = sig.quotient_genus, len(sig.entries)
    pools = [_candidate_pool(G, e) for e in sig.entries]
    if t and any(not pool for pool in pools):
        return None
    pool_sets = [frozenset(pool) for pool in pools]
    mul, inverses = G.product, G.inverses
    nodes = 0

    def spend(n: int = 1):
        nonlocal nodes
        nodes += n
        if nodes > budget:
            raise SearchBudgetExceeded(budget)

    def vector(ab: tuple[int, ...], cs: tuple[int, ...]) -> Optional[GeneratingVector]:
        """The vector of these indices, or None if they do not generate G."""
        a, b, c = (tuple(G.elements[i] for i in part) for part in (ab[:gamma], ab[gamma:], cs))
        return GeneratingVector(a, b, c) if G.is_generated_by(a + b + c) else None

    def search_c(ab: tuple[int, ...], acc: int, depth: int = 0,
                 chosen: tuple[int, ...] = ()) -> Optional[GeneratingVector]:
        """Backtrack over c_1..c_{t-1}; acc is commutators * chosen c's so far."""
        if depth >= t - 1:  # no free choice left: t = 0, or c_t is forced
            spend()
            if t == 0:
                return vector(ab, ()) if acc == 0 else None
            last = inverses[acc]
            return vector(ab, chosen + (last,)) if last in pool_sets[t - 1] else None
        for cand in pools[depth]:
            spend()
            out = search_c(ab, mul(acc, cand), depth + 1, chosen + (cand,))
            if out is not None:
                return out
        return None

    if gamma == 0:
        return search_c((), 0)
    for ab in product(range(G.order), repeat=2 * gamma):
        spend()
        prefix = 0
        for x, y in zip(ab[:gamma], ab[gamma:]):
            prefix = mul(prefix, mul(mul(x, y), mul(inverses[x], inverses[y])))
        found = search_c(ab, prefix)
        if found is not None:
            return found
    return None


def orbit_packages(G: FiniteGroup, stabilizer: Subgroup) -> tuple[int, int]:
    """(number of packages in the orbit, points per package) for a cyclic stabilizer."""
    if stabilizer.order == 1:
        raise GroupInputError("orbit packages need a nontrivial stabilizer")
    if not stabilizer.is_cyclic:
        raise GroupInputError("point stabilizers are cyclic; got a non-cyclic subgroup")
    n = stabilizer.normalizer()
    return G.order // n.order, n.order // stabilizer.order
