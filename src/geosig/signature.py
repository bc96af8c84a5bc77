"""Geometric signatures, Riemann-Hurwitz arithmetic, and the existence search.

A geometric signature is a quotient genus together with an ordered list of
branch entries [m, C], where C is a conjugacy class of cyclic subgroups of
order m.  An entry may leave C unspecified (a plain signature); such entries
constrain only the order, and `refinements` enumerates the ways to fill
them in.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Mapping, Optional, Sequence

from .errors import (
    GroupInputError,
    InvalidSignatureError,
    SearchBudgetExceeded,
)
from .groups import (DEFAULT_SEARCH_BUDGET, MAX_QUOTIENT_GENUS, ConjugacyClassOfSubgroups,
                     FiniteGroup, FrozenRecord, Perm, Record, Subgroup, json_int, json_keys,
                     require_subgroups)


class BranchEntry(FrozenRecord):
    """One branch value: its stabilizer order and (optionally) the stabilizer class."""

    __slots__ = ("order", "cls", "label")

    def __init__(self, order: int, cls: Optional[ConjugacyClassOfSubgroups] = None,
                 label: Optional[str] = None):
        if order < 2:
            raise GroupInputError(f"branch order must be at least 2, got {order}")
        if cls is not None:
            rep = cls.representative
            if not rep.is_cyclic:
                raise GroupInputError("branch stabilizer class must be cyclic")
            if rep.order != order:
                raise GroupInputError(
                    f"branch order {order} does not match the class order {rep.order}"
                )
        self._init("order", order)
        self._init("cls", cls)
        self._init("label", label)

    @property
    def tag(self) -> str:
        """A classed entry's name for its class: its label, else its representative's, else "?"."""
        return self.label or self.cls.representative.label or "?"

    def display(self) -> str:
        return str(self.order) if self.cls is None else f"[{self.order},<{self.tag}>]"


class GeometricSignature(FrozenRecord):
    """Quotient genus plus ordered branch entries (possibly empty)."""

    __slots__ = ("quotient_genus", "entries")

    def __init__(self, quotient_genus: int, entries: tuple[BranchEntry, ...] = ()):
        if quotient_genus < 0:
            raise GroupInputError("quotient genus cannot be negative")
        if quotient_genus > MAX_QUOTIENT_GENUS:
            raise GroupInputError(
                f"quotient genus exceeds the supported cap of {MAX_QUOTIENT_GENUS}"
            )
        self._init("quotient_genus", quotient_genus)
        self._init("entries", entries)

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
                item["class_rep"] = e.tag
            branches.append(item)
        return {"genus": self.quotient_genus, "branches": branches}


def signature_from_payload(G: FiniteGroup, payload: Mapping) -> GeometricSignature:
    """Build a signature from its JSON object, resolving class_rep words."""
    json_keys(payload, ("genus", "branches"), "signature spec")
    genus = json_int(payload, "genus", "signature spec needs an integer 'genus'")
    branches = payload.get("branches", [])
    if not isinstance(branches, Sequence) or isinstance(branches, str):
        raise GroupInputError("'branches' must be a list")
    entries = []
    for raw in branches:
        json_keys(raw, ("order", "class_rep"), "branch")
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
        sub = G.subgroup([g], label=str(word))
        cls = G.cyclic_subgroup_classes[G.cyclic_class_index(sub)]
        entries.append(BranchEntry(order, cls, label=str(word)))
    return GeometricSignature(genus, tuple(entries))


def check_branch_classes(G: FiniteGroup, sig: GeometricSignature) -> None:
    """Refuse a branch class of another group: it is malformed input."""
    if any(e.cls is not None and e.cls.representative.parent is not G for e in sig.entries):
        raise GroupInputError("a branch class of the signature belongs to another group")


def branch_stabilizers(G: FiniteGroup, sig: GeometricSignature) -> tuple[Subgroup, ...]:
    """The stabilizer G_j of each branch value, its class representative: the
    one place that decides a signature is fully geometric and of G."""
    if not sig.is_geometric:
        raise GroupInputError("this computation needs a fully geometric signature; "
                              "refine the plain entries first")
    check_branch_classes(G, sig)
    return tuple(e.cls.representative for e in sig.entries)


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
    # g = |G|(gamma - 1) + 1 + sum |G|(m - 1)/(2m), over the denominator 2 lcm(m)
    den = 2 * math.lcm(*orders)
    total = den * (group_order * (quotient_genus - 1) + 1)
    for m in orders:
        total += group_order * (m - 1) * (den // (2 * m))
    g, rest = divmod(total, den)
    if rest:
        k = math.gcd(total, den)
        raise InvalidSignatureError(
            f"branching data gives non-integral genus {total // k}/{den // k}")
    if g < 0:
        raise InvalidSignatureError(f"branching data gives negative genus {g}")
    return g


def signature_genus(G: FiniteGroup, sig: GeometricSignature) -> int:
    return riemann_hurwitz_genus(G.order, sig.quotient_genus, sig.orders)


class GeneratingVector(FrozenRecord):
    """Witness tuple (a_1..a_gamma, b_1..b_gamma, c_1..c_t)."""

    __slots__ = ("a", "b", "c")

    def elements(self) -> tuple[Perm, ...]:
        return self.a + self.b + self.c

    def to_json(self) -> dict:
        return {
            "a": [str(g) for g in self.a],
            "b": [str(g) for g in self.b],
            "c": [str(g) for g in self.c],
        }


class VectorCheck(Record):
    """Per-condition verdicts for a candidate generating vector."""

    __slots__ = ("orders_ok", "classes_ok", "product_ok", "generates")

    @property
    def ok(self) -> bool:
        return self.orders_ok and self.classes_ok and self.product_ok and self.generates


def _commutator(a: Perm, b: Perm) -> Perm:
    return a * b * a.inverse() * b.inverse()


def _cyclic_mask(G: FiniteGroup, c: Perm) -> int:
    """The member mask of <c>, its powers walked by `Perm` products."""
    mask, h = 1 << G.index(G.identity), c
    while h != G.identity:
        mask |= 1 << G.index(h)
        h = h * c
    return mask


def _generate_whole_group(G: FiniteGroup, elements: Sequence[Perm]) -> bool:
    """Whether elements generate G: a closure of their image tuples, composed
    directly and not read from the group's columns, that stops at |G|."""
    images = {g.image for g in elements}
    found, queue = {G.identity.image}, [G.identity.image]
    for a in queue:
        for s in images:
            b = tuple([s[i] for i in a])  # a * g
            if b not in found:
                found.add(b)
                if len(found) == G.order:
                    return True
                queue.append(b)
    return len(found) == G.order


def verify_generating_vector(G: FiniteGroup, sig: GeometricSignature,
                             vec: GeneratingVector) -> VectorCheck:
    """Check the three existence conditions independently of the search: the
    product relation and each <c_j> by `Perm` products, generation by a
    closure of its own over image tuples."""
    check_branch_classes(G, sig)
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
    classes_ok = all(entry.cls is None or _cyclic_mask(G, c) in entry.cls.member_masks
                     for c, entry in zip(vec.c, sig.entries))
    prod = G.identity
    for x, y in zip(vec.a, vec.b):
        prod = prod * _commutator(x, y)
    for c in vec.c:
        prod = prod * c
    product_ok = prod.is_identity()
    generates = _generate_whole_group(G, vec.elements())
    return VectorCheck(orders_ok, classes_ok, product_ok, generates)


def _candidate_pool(G: FiniteGroup, entry: BranchEntry) -> tuple[int, ...]:
    """Indices of the elements of order m whose generated subgroup lies in the entry's class."""
    if entry.cls is None:
        return tuple(sorted(g for c in G.merged_element_classes
                            if c.element_order == entry.order for g in c.indices))
    idx = G.cyclic_class_index(entry.cls.representative)
    return G.merged_element_classes[idx].indices


def find_generating_vector(G: FiniteGroup, sig: GeometricSignature,
                           budget: int = DEFAULT_SEARCH_BUDGET) -> Optional[GeneratingVector]:
    """First generating vector in canonical order, or None after exhaustive search.

    One backtrack over one explicit stack of free positions, each iterated
    in canonical element order: a_1..a_gamma and b_1..b_gamma over the
    whole group, then c_1..c_{t-1} over their candidate pools.  Element
    indices only: the running product of each depth extends its parent's
    by right-column reads, four for the commutator [a_i, b_i] that b_i
    closes (none when a_i or b_i is the identity) and one per c_j.  At a
    leaf, c_t is forced to be the inverse of the running product and tested
    against its pool (for t = 0 the product must be the identity).  Charges
    against the budget: one node per complete handle tuple (on the b_gamma
    choice), one per c candidate and one per leaf.  The generation test
    runs only where the product relation holds, on the free elements alone,
    since c_t lies in the subgroup they generate, and is `G.generates` on
    their indices; `Perm`s are built only for the vector returned.
    """
    check_branch_classes(G, sig)
    signature_genus(G, sig)  # condition (i); raises InvalidSignatureError
    gamma, t = sig.quotient_genus, len(sig.entries)
    pools = [_candidate_pool(G, e) for e in sig.entries]
    if any(not pool for pool in pools):
        return None
    free = [range(G.order)] * (2 * gamma) + pools[:-1]
    last_pool = frozenset(pools[-1]) if t else {0}
    n, right, inverses = len(free), G.right, G.inverses
    levels, chosen, accs, nodes = [], [0] * n, [0] * (n + 1), 0
    while True:
        if len(levels) < n:
            levels.append(iter(free[len(levels)]))
        else:  # a leaf: every free position chosen, c_t forced
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"search budget of {budget} nodes exhausted")
            last = inverses[accs[n]]
            if last in last_pool and G.generates(chosen):
                vec = [G.elements[i] for i in chosen + [last]]
                return GeneratingVector(tuple(vec[:gamma]), tuple(vec[gamma:2 * gamma]),
                                        tuple(vec[2 * gamma:2 * gamma + t]))
        while levels and (x := next(levels[-1], None)) is None:
            levels.pop()
        if not levels:
            return None
        d = len(levels) - 1
        chosen[d], acc = x, accs[d]
        if d >= 2 * gamma:  # c_{d - 2 gamma + 1}
            acc = right(x)[acc]
        elif d >= gamma:  # b_i closes [a_i, b_i] = a_i b_i a_i^-1 b_i^-1
            a = chosen[d - gamma]
            if a and x:  # else the commutator is the identity: no column is read
                acc = right(inverses[x])[right(inverses[a])[right(x)[right(a)[acc]]]]
        accs[d + 1] = acc
        if d >= 2 * gamma - 1:  # a complete handle tuple, or a c candidate
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"search budget of {budget} nodes exhausted")


def orbit_packages(G: FiniteGroup, stabilizer: Subgroup) -> tuple[int, int]:
    """(number of packages in the orbit, points per package) for a cyclic stabilizer."""
    require_subgroups(G, stabilizer)
    if stabilizer.order == 1:
        raise GroupInputError("orbit packages need a nontrivial stabilizer")
    if not stabilizer.is_cyclic:
        raise GroupInputError("point stabilizers are cyclic; got a non-cyclic subgroup")
    # one package per conjugate of the stabilizer, |N(K)| / |K| points each
    packages = len(stabilizer.conjugate_masks)
    return packages, G.order // (packages * stabilizer.order)
