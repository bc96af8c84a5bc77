"""Exact finite-permutation-group engine.

Elements are permutations of {0..n-1} stored as image tuples and composed
left to right: (g * h)(p) = h(g(p)), so the word x*a^2 acts by x first.
Cycle notation in input and output is 1-based.  Permutations order
lexicographically by image tuple, which puts the identity first and makes
every derived listing (element lists, class representatives, transversals)
deterministic.
"""

from __future__ import annotations

import hashlib
import math
import re
from functools import cached_property, total_ordering
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import GroupInputError, InternalCheckError

MAX_GROUP_ORDER = 2000


@total_ordering
class Perm:
    """A permutation of {0..degree-1}; immutable and hashable.

    Construction from outside input (`Perm(...)`, `from_cycles`, `parse`)
    validates; products, inverses and powers are trusted, not re-validated.
    """

    __slots__ = ("image",)

    def __init__(self, image: Iterable[int]):
        image = tuple(image)
        n = len(image)
        if n == 0:
            raise GroupInputError("a permutation needs degree at least 1")
        seen = [False] * n
        for v in image:
            if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise GroupInputError(f"not a permutation of 0..{n - 1}: {image!r}")
            seen[v] = True
        object.__setattr__(self, "image", image)

    @classmethod
    def _trusted(cls, image: tuple[int, ...]) -> "Perm":
        """Wrap an image tuple that is already known to be a permutation."""
        self = object.__new__(cls)
        object.__setattr__(self, "image", image)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Perm":
        """Build from 1-based cycles, applied left to right; fixed points omitted."""
        img = list(range(degree))
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise GroupInputError(f"repeated point in cycle {tuple(cyc)}")
            step = list(range(degree))
            for i, p in enumerate(cyc):
                q = cyc[(i + 1) % len(cyc)]
                if not (1 <= p <= degree and 1 <= q <= degree):
                    raise GroupInputError(
                        f"cycle point out of range 1..{degree}: {tuple(cyc)}"
                    )
                step[p - 1] = q - 1
            img = [step[v] for v in img]
        return cls(img)

    @classmethod
    def parse(cls, degree: int, text: str) -> "Perm":
        """Parse disjoint-cycle notation like "(1,2,3)(4,5)"; "()" is the identity."""
        s = text.replace(" ", "")
        if s in ("()", "e", "id", "1"):
            return cls.identity(degree)
        if not re.fullmatch(r"(\(\d+(,\d+)*\))+", s):
            raise GroupInputError(f"bad cycle notation: {text!r}")
        cycles = [
            [int(p) for p in part.split(",")] for part in re.findall(r"\(([\d,]+)\)", s)
        ]
        return cls.from_cycles(degree, cycles)

    @property
    def degree(self) -> int:
        return len(self.image)

    def __mul__(self, other: "Perm") -> "Perm":
        o = other.image
        if len(self.image) != len(o):
            raise GroupInputError("cannot compose permutations of different degree")
        return Perm._trusted(tuple(map(o.__getitem__, self.image)))

    def inverse(self) -> "Perm":
        img = [0] * len(self.image)
        for p, q in enumerate(self.image):
            img[q] = p
        return Perm._trusted(tuple(img))

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inverse() ** (-k)
        acc = Perm._trusted(tuple(range(len(self.image))))
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __call__(self, point: int) -> int:
        return self.image[point]

    def is_identity(self) -> bool:
        return all(v == p for p, v in enumerate(self.image))

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, 1-based, each starting at its least point, sorted."""
        seen = [False] * len(self.image)
        out = []
        for start in range(len(self.image)):
            if seen[start] or self.image[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            p = self.image[start]
            while p != start:
                cyc.append(p)
                seen[p] = True
                p = self.image[p]
            out.append(tuple(q + 1 for q in cyc))
        return tuple(sorted(out))

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Perm[{self}]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.image == other.image

    def __lt__(self, other: "Perm") -> bool:
        return self.image < other.image

    def __hash__(self) -> int:
        return hash(self.image)


def conj(t: Perm, g: Perm) -> Perm:
    """g conjugated by t, i.e. t * g * t^-1."""
    return t * g * t.inverse()


def _set_key(members) -> list[tuple[int, ...]]:
    """Canonical order on member sets: their sorted image tuples."""
    return sorted(p.image for p in members)


def _conj_set(t: Perm, members: frozenset[Perm], t_inv: Perm) -> frozenset[Perm]:
    return frozenset(t * h * t_inv for h in members)


def _closure(degree: int, generators: Sequence[Perm], limit: int) -> set[Perm]:
    """The elements the generators generate, or the first limit of them found."""
    ident = Perm.identity(degree)
    elems = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in generators:
                b = a * g
                if b not in elems:
                    elems.add(b)
                    if len(elems) == limit:
                        return elems
                    fresh.append(b)
        frontier = fresh
    return elems


class FiniteGroup:
    """A finite permutation group with its full, canonically ordered element list."""

    def __init__(
        self,
        degree: int,
        generators: Sequence[Perm] = (),
        named_generators: Optional[Mapping[str, Perm]] = None,
        name: Optional[str] = None,
    ):
        if degree < 1:
            raise GroupInputError("degree must be at least 1")
        named = dict(named_generators or {})
        gens = tuple(generators) if generators else tuple(named.values())
        for g in gens:
            if g.degree != degree:
                raise GroupInputError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
        for label, g in named.items():
            if g not in gens:
                raise GroupInputError(f"named generator {label!r} not in generator list")
        self.degree = degree
        self.generators = gens
        self.named_generators = named
        self.name = name
        elems = _closure(degree, gens, MAX_GROUP_ORDER + 1)
        if len(elems) > MAX_GROUP_ORDER:
            raise GroupInputError(
                f"group order exceeds the supported cap of {MAX_GROUP_ORDER} elements"
            )
        self.elements: tuple[Perm, ...] = tuple(sorted(elems))
        self.order = len(self.elements)
        self.identity = Perm.identity(degree)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def __contains__(self, g: Perm) -> bool:
        return g in self._index

    def __repr__(self) -> str:
        label = self.name or f"degree-{self.degree} group"
        return f"FiniteGroup({label}, order={self.order})"

    @cached_property
    def _index(self) -> dict[Perm, int]:
        return {g: i for i, g in enumerate(self.elements)}

    @cached_property
    def exponent(self) -> int:
        exp = math.lcm(*(g.order() for g in self.elements))
        if self.order % exp:
            raise InternalCheckError("group exponent does not divide the order")
        return exp

    def is_generated_by(self, generators: Sequence[Perm]) -> bool:
        """Whether the generators generate the whole group; the closure stops at |G|."""
        return len(_closure(self.degree, generators, self.order)) == self.order

    @cached_property
    def digest(self) -> str:
        blob = f"{self.degree}|" + ";".join(
            ",".join(map(str, g.image)) for g in self.elements
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # -- subgroups ---------------------------------------------------------

    def subgroup(self, generators: Sequence[Perm], label: Optional[str] = None) -> "Subgroup":
        return Subgroup.generated(self, generators, label=label)

    def subgroup_from_words(self, words: Sequence[str], label: Optional[str] = None) -> "Subgroup":
        gens = [self.element(w) for w in words]
        return Subgroup.generated(self, gens, label=label or ",".join(words))

    @cached_property
    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup.generated(self, (), label="e")

    @cached_property
    def full_subgroup(self) -> "Subgroup":
        return Subgroup._trusted(self, frozenset(self.elements), self.generators, "G")

    # -- conjugacy structure -----------------------------------------------

    @cached_property
    def _conjugators(self) -> tuple[tuple[Perm, Perm], ...]:
        """Each generator with its inverse, for the orbit walks under conjugation."""
        return tuple((t, t.inverse()) for t in self.generators)

    def _orbit(self, start, conjugate) -> set:
        """The orbit of start under conjugation, where conjugate(t, x, t^-1)
        is x conjugated by t; the orbits of G are those of its generators."""
        orbit = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for t, t_inv in self._conjugators:
                img = conjugate(t, cur, t_inv)
                if img not in orbit:
                    orbit.add(img)
                    stack.append(img)
        return orbit

    @cached_property
    def conjugacy_classes(self) -> tuple["ElementClass", ...]:
        """Element classes ordered by (element order, class size, representative)."""
        seen: set[Perm] = set()
        raw = []
        for g in self.elements:
            if g in seen:
                continue
            orbit = self._orbit(g, lambda t, h, t_inv: t * h * t_inv)
            seen |= orbit
            raw.append(tuple(sorted(orbit)))
        raw.sort(key=lambda mem: (mem[0].order(), len(mem), mem[0].image))
        return tuple(ElementClass(mem[0], mem) for mem in raw)

    @cached_property
    def class_index(self) -> dict[Perm, int]:
        out = {}
        for i, cls in enumerate(self.conjugacy_classes):
            for g in cls.members:
                out[g] = i
        return out

    @cached_property
    def class_powers(self) -> tuple[tuple[int, ...], ...]:
        """For each class, the class indices of rep^0, rep^1, ..., rep^(m-1).

        m is the element order of the class.  This is the one power map of
        the package: the class of g^k, for g in class j, is
        class_powers[j][k % m].
        """
        out = []
        for cls in self.conjugacy_classes:
            rep = cls.representative
            powers = [0]
            h = rep
            while not h.is_identity():
                powers.append(self.class_index[h])
                h = h * rep
            out.append(tuple(powers))
        return tuple(out)

    @cached_property
    def cyclic_subgroup_classes(self) -> tuple["ConjugacyClassOfSubgroups", ...]:
        """All cyclic subgroups up to conjugacy, trivial subgroup included."""
        # element -> the cyclic subgroup it generates, one frozenset per
        # subgroup, and its least generator; one power walk per subgroup
        # files all of its generators g^k, gcd(k, m) = 1
        generator_of: dict[frozenset[Perm], Perm] = {}
        self._cyclic_of = cyclic_of = {}
        for g in self.elements:
            if g in cyclic_of:
                continue
            powers = [self.identity]
            h = g
            while not h.is_identity():
                powers.append(h)
                h = h * g
            s = frozenset(powers)
            generator_of[s] = g
            m = len(powers)
            for k in range(m):
                if math.gcd(k, m) == 1:
                    cyclic_of[powers[k]] = s

        def conjugate(t, s, t_inv):
            # t s t^-1 is generated by the conjugate of any generator of s
            return cyclic_of[t * generator_of[s] * t_inv]

        assigned: set[frozenset[Perm]] = set()
        classes = []
        for base in sorted(generator_of, key=_set_key):
            if base in assigned:
                continue
            orbit = self._orbit(base, conjugate)
            rep_set = min(orbit, key=_set_key)
            gen = min(h for h in rep_set if h.order() == len(rep_set))
            rep = Subgroup._trusted(self, rep_set, (gen,), str(gen))
            classes.append(ConjugacyClassOfSubgroups(rep, len(orbit), frozenset(orbit)))
            assigned |= orbit
        classes.sort(
            key=lambda c: (c.order, c.class_size, _set_key(c.representative.members))
        )
        self._cyclic_class_of_set = {
            s: i for i, c in enumerate(classes) for s in c.member_sets
        }
        return tuple(classes)

    def cyclic_class_index(self, sub: "Subgroup") -> int:
        """Index of the cyclic-subgroup class containing sub."""
        self.cyclic_subgroup_classes
        try:
            return self._cyclic_class_of_set[sub.members]
        except KeyError:
            raise GroupInputError(f"subgroup {sub.label or ''} is not cyclic") from None

    @cached_property
    def merged_element_classes(self) -> tuple["ElementClass", ...]:
        """Elements fused by conjugacy of generated cyclic subgroups, one per cyclic class."""
        classes = self.cyclic_subgroup_classes
        buckets: list[list[Perm]] = [[] for _ in classes]
        for g in self.elements:
            buckets[self._cyclic_class_of_set[self._cyclic_of[g]]].append(g)
        return tuple(
            ElementClass(min(b), tuple(sorted(b))) for b in buckets
        )

    def subgroup_class(self, sub: "Subgroup") -> "ConjugacyClassOfSubgroups":
        """Conjugacy class of an arbitrary subgroup (computed fresh unless cyclic)."""
        if sub.is_cyclic:
            return self.cyclic_subgroup_classes[self.cyclic_class_index(sub)]
        orbit = self._orbit(sub.members, _conj_set)
        rep_set = min(orbit, key=_set_key)
        rep = sub if sub.members == rep_set else Subgroup._trusted(self, rep_set, None, None)
        return ConjugacyClassOfSubgroups(rep, len(orbit), frozenset(orbit))

    def are_conjugate_subgroups(self, a: "Subgroup", b: "Subgroup") -> bool:
        if a.order != b.order:
            return False
        return b.members in self.subgroup_class(a).member_sets

    # -- element input -----------------------------------------------------

    def element(self, text: str) -> Perm:
        """Parse an element: cycle notation, or a word in named generators.

        Words multiply left to right and accept optional '*' separators and
        integer exponents, e.g. "xa^2", "x*a^2", "xyab", "x^-1*y".
        """
        s = text.replace(" ", "")
        if not s:
            raise GroupInputError("empty element expression")
        if s.startswith("("):
            g = Perm.parse(self.degree, s)
            if g not in self:
                raise GroupInputError(f"{text!r} is not an element of the group")
            return g
        if s in ("e", "id", "1") and s not in self.named_generators:
            return self.identity
        names = sorted(self.named_generators, key=len, reverse=True)
        acc = self.identity
        i = 0
        while i < len(s):
            if s[i] == "*":
                i += 1
                continue
            for nm in names:
                if s.startswith(nm, i):
                    i += len(nm)
                    break
            else:
                raise GroupInputError(
                    f"cannot read {text!r}: no generator name at ...{s[i:]!r}"
                )
            exp = 1
            if i < len(s) and s[i] == "^":
                m = re.match(r"\^(-?\d+)", s[i:])
                if not m:
                    raise GroupInputError(f"bad exponent in {text!r}")
                exp = int(m.group(1))
                i += m.end()
            acc = acc * (self.named_generators[nm] ** exp)
        return acc


class Subgroup:
    """A subgroup given by its explicit member set inside a parent group.

    What depends on the subgroup alone is computed once and kept on it: the
    normalizer, the left transversal, the class counts, the left-coset map
    and the member sets of its conjugates (`conjugate_sets`), which the
    marked points and double-coset route 2 intersect with each H.
    """

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use Subgroup.generated or Subgroup.from_members")

    @classmethod
    def _trusted(cls, parent, members, generators, label) -> "Subgroup":
        self = object.__new__(cls)
        self.parent = parent
        self.members = members
        self.generators = tuple(generators) if generators else None
        self.label = label
        self.order = len(members)
        if parent.order % self.order:
            raise InternalCheckError("subgroup order does not divide group order")
        return self

    @classmethod
    def generated(cls, parent: FiniteGroup, generators: Sequence[Perm],
                  label: Optional[str] = None) -> "Subgroup":
        gens = tuple(generators)
        for g in gens:
            if g not in parent:
                raise GroupInputError(f"generator {g} lies outside the parent group")
        members = frozenset(_closure(parent.degree, gens, parent.order))
        return cls._trusted(parent, members, gens, label)

    @classmethod
    def from_members(cls, parent: FiniteGroup, members: Iterable[Perm],
                     label: Optional[str] = None) -> "Subgroup":
        mem = frozenset(members)
        if not mem:
            raise GroupInputError("a subgroup cannot be empty")
        for g in mem:
            if g not in parent:
                raise GroupInputError(f"member {g} lies outside the parent group")
            if g.inverse() not in mem:
                raise GroupInputError("member set is not closed under inversion")
        for g in mem:
            for h in mem:
                if g * h not in mem:
                    raise GroupInputError("member set is not closed under composition")
        return cls._trusted(parent, mem, None, label)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    @cached_property
    def is_cyclic(self) -> bool:
        return any(g.order() == self.order for g in self.members)

    def __contains__(self, g: Perm) -> bool:
        return g in self.members

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        tag = self.label or "subgroup"
        return f"Subgroup(<{tag}>, order={self.order})"

    def normalizer(self) -> "Subgroup":
        cached = getattr(self, "_normalizer", None)
        if cached is not None:
            return cached
        # t K t^-1 = K as soon as t conjugates K's generators into K
        gens = self.generators if self.generators is not None else self.members
        mem = []
        for t in self.parent.elements:
            t_inv = t.inverse()
            if all(t * h * t_inv in self.members for h in gens):
                mem.append(t)
        mem = frozenset(mem)
        tag = f"N({self.label})" if self.label else None
        self._normalizer = Subgroup._trusted(self.parent, mem, None, tag)
        return self._normalizer

    @cached_property
    def class_counts(self) -> tuple[tuple[int, int], ...]:
        """(class index, number of members in that class) for every class H meets."""
        counts: dict[int, int] = {}
        for h in self.members:
            j = self.parent.class_index[h]
            counts[j] = counts.get(j, 0) + 1
        return tuple(sorted(counts.items()))

    @cached_property
    def conjugate_sets(self) -> tuple[frozenset[Perm], ...]:
        """The member sets of l K l^-1, one for each l of the left transversal
        of N(K), in transversal order; each conjugate of K appears once."""
        return tuple(
            _conj_set(ell, self.members, ell.inverse())
            for ell in self.normalizer().left_transversal()
        )

    @cached_property
    def left_cosets(self) -> tuple[dict[Perm, int], tuple[Perm, ...]]:
        """The left cosets gH: a map from each element to its coset's number,
        and the least element of each coset, numbered in element order."""
        coset_of: dict[Perm, int] = {}
        reps: list[Perm] = []
        for g in self.parent.elements:
            if g in coset_of:
                continue
            cid = len(reps)
            reps.append(g)
            for h in self.members:
                coset_of[g * h] = cid
        return coset_of, tuple(reps)

    def left_transversal(self) -> tuple[Perm, ...]:
        """One representative per left coset gH, each the least element of its coset."""
        cached = getattr(self, "_transversal", None)
        if cached is not None:
            return cached
        covered: set[Perm] = set()
        reps = []
        for g in self.parent.elements:
            if g in covered:
                continue
            reps.append(g)
            covered.update(g * h for h in self.members)
        if len(reps) != self.index:
            raise InternalCheckError("left transversal has the wrong size")
        self._transversal = tuple(reps)
        return self._transversal


class ElementClass:
    """A class of group elements: a conjugacy class, or, in
    `merged_element_classes`, the generators of one cyclic-subgroup class."""

    __slots__ = ("representative", "members")

    def __init__(self, representative: Perm, members: tuple[Perm, ...]):
        self.representative = representative
        self.members = members

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def element_order(self) -> int:
        return self.representative.order()

    def __repr__(self) -> str:
        return f"ElementClass({self.representative}, size={self.size})"


class ConjugacyClassOfSubgroups:
    """A conjugacy class of subgroups, held by a canonical representative."""

    def __init__(self, representative: Subgroup, class_size: int,
                 member_sets: frozenset[frozenset[Perm]]):
        self.representative = representative
        self.class_size = class_size
        self.member_sets = member_sets

    @property
    def order(self) -> int:
        return self.representative.order

    def contains_subgroup(self, sub: Subgroup) -> bool:
        return sub.members in self.member_sets

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConjugacyClassOfSubgroups)
            and self.member_sets == other.member_sets
        )

    def __hash__(self) -> int:
        return hash(self.member_sets)

    def __repr__(self) -> str:
        tag = self.representative.label or "?"
        return f"SubgroupClass(<{tag}>, order={self.order}, size={self.class_size})"


# -- double cosets ----------------------------------------------------------


def double_coset_count(G: FiniteGroup, H: Subgroup, K: Subgroup) -> int:
    """|H\\G/K| computed three independent ways; they must agree exactly."""
    if H.parent is not G or K.parent is not G:
        raise GroupInputError("H and K must be subgroups of G")

    # (1) orbits of H on the left cosets gK under left multiplication; the
    # orbits of a finite group are those of any generating set.  K's coset
    # map is built once and cached on K; routes 2 and 3 do not use it
    coset_of, reps = K.left_cosets
    movers = H.generators if H.generators is not None else H.members
    seen: set[int] = set()
    direct = 0
    for cid, rep in enumerate(reps):
        if cid in seen:
            continue
        direct += 1
        stack = [rep]
        seen.add(cid)
        while stack:
            r = stack.pop()
            for h in movers:
                c2 = coset_of[h * r]
                if c2 not in seen:
                    seen.add(c2)
                    stack.append(reps[c2])

    # (2) transversal formula over the normalizer of K: sum over the
    # conjugates l K l^-1 of |N(K):K| · |l K l^-1 ∩ H|
    ratio = K.normalizer().order // K.order
    total = ratio * sum(len(conj_k & H.members) for conj_k in K.conjugate_sets)
    by_transversal, rest = divmod(total, H.order)
    if rest:
        raise InternalCheckError("transversal double-coset formula is not integral")

    # (3) class formula: average over a in H of |C_G(a)|·|K ∩ class(a)| / |K|,
    # with the centralizer order |C_G(a)| = |G| / |class(a)|, summed class by
    # class over the cached class counts of H and K
    classes = G.conjugacy_classes
    in_k = dict(K.class_counts)
    total = sum(
        n * (G.order // classes[i].size) * in_k.get(i, 0) for i, n in H.class_counts
    )
    by_classes, rest = divmod(total, K.order * H.order)
    if rest:
        raise InternalCheckError("class-sum double-coset formula is not integral")

    if not direct == by_transversal == by_classes:
        raise InternalCheckError(
            f"double-coset methods disagree: {direct}, {by_transversal}, {by_classes}"
        )
    return direct


# -- catalog and group input --------------------------------------------------

_CATALOG_RE = re.compile(r"^(cyclic|dihedral|symmetric|alternating)\((\d+)\)$")


def catalog(name: str) -> FiniteGroup:
    """Built-in groups with documented named generators."""
    key = name.replace(" ", "").lower()
    if key == "quaternion8":
        x = Perm.from_cycles(8, [(1, 2, 3, 4), (5, 6, 7, 8)])
        y = Perm.from_cycles(8, [(1, 5, 3, 7), (2, 8, 4, 6)])
        return FiniteGroup(8, named_generators={"x": x, "y": y}, name=key)
    if key == "wc3":
        gens = {
            "x": Perm.from_cycles(6, [(1, 4)]),
            "y": Perm.from_cycles(6, [(2, 5)]),
            "z": Perm.from_cycles(6, [(3, 6)]),
            "a": Perm.from_cycles(6, [(1, 2, 3), (4, 5, 6)]),
            "b": Perm.from_cycles(6, [(1, 2), (4, 5)]),
        }
        return FiniteGroup(6, named_generators=gens, name=key)
    m = _CATALOG_RE.match(key)
    if not m:
        raise GroupInputError(f"unknown catalog group {name!r}")
    family, n = m.group(1), int(m.group(2))
    if family == "cyclic":
        if n < 1:
            raise GroupInputError("cyclic(n) needs n >= 1")
        x = Perm.from_cycles(n, [tuple(range(1, n + 1))]) if n > 1 else Perm.identity(1)
        return FiniteGroup(max(n, 1), named_generators={"x": x}, name=key)
    if family == "dihedral":
        if n < 3:
            raise GroupInputError("dihedral(n) needs n >= 3")
        x = Perm.from_cycles(n, [tuple(range(1, n + 1))])
        y = Perm([(n - 2 - p) % n for p in range(n)])
        return FiniteGroup(n, named_generators={"x": x, "y": y}, name=key)
    if family == "symmetric":
        if n < 1:
            raise GroupInputError("symmetric(n) needs n >= 1")
        if n == 1:
            return FiniteGroup(1, named_generators={"a": Perm.identity(1)}, name=key)
        a = Perm.from_cycles(n, [tuple(range(1, n + 1))])
        b = Perm.from_cycles(n, [(1, 2)])
        return FiniteGroup(n, named_generators={"a": a, "b": b}, name=key)
    if n < 3:
        raise GroupInputError("alternating(n) needs n >= 3")
    a = Perm.from_cycles(n, [(1, 2, 3)])
    b = (
        Perm.from_cycles(n, [tuple(range(1, n + 1))])
        if n % 2
        else Perm.from_cycles(n, [tuple(range(2, n + 1))])
    )
    return FiniteGroup(n, named_generators={"a": a, "b": b}, name=key)


def group_from_payload(payload: Mapping) -> FiniteGroup:
    """Build a group from the JSON group-specification object."""
    try:
        degree = int(payload["degree"])
    except (KeyError, TypeError, ValueError):
        raise GroupInputError("group spec needs an integer 'degree'") from None
    raw = payload.get("generators")
    if not isinstance(raw, Mapping) or not raw:
        raise GroupInputError("group spec needs a non-empty 'generators' object")
    named = {}
    for label, text in raw.items():
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", label):
            raise GroupInputError(f"bad generator name {label!r}")
        named[label] = Perm.parse(degree, str(text))
    return FiniteGroup(degree, named_generators=named, name=payload.get("name"))
