"""Exact finite-permutation-group engine.

Elements are permutations of {0..n-1} stored as image tuples and composed
left to right: (g * h)(p) = h(g(p)), so the word x*a^2 acts by x first.
Cycle notation in input and output is 1-based.  Permutations order
lexicographically by image tuple, which puts the identity first and makes
every derived listing (element lists, class representatives, transversals)
deterministic.

Inside a group an element is its index 0..|G|-1 in that order (identity 0).
All arithmetic composes image tuples: `FiniteGroup.product`, and the columns
`right(g)`: x -> x*g and `left(g)`: x -> g*x, built lazily and cached on the
group.  Member sets are int bitmasks, so a meet is `(a & b).bit_count()`.
`Perm` objects appear only at the boundary: input, witnesses and output.
"""

from __future__ import annotations

import hashlib
import math
import re
from functools import cached_property, total_ordering
from typing import Iterable, Mapping, Optional, Sequence

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
        return Perm._trusted(_compose(self.image, o))

    def inverse(self) -> "Perm":
        return Perm._trusted(tuple(sorted(range(len(self.image)), key=self.image.__getitem__)))

    def __pow__(self, k: int) -> "Perm":
        base = self if k >= 0 else self.inverse()
        acc = Perm._trusted(tuple(range(len(self.image))))
        for _ in range(abs(k) % self.order()):
            acc = acc * base
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


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of a * b: a first, then b."""
    return tuple(map(b.__getitem__, a))


def _mask(indices: Iterable[int]) -> int:
    """The member bitmask of distinct element indices."""
    return sum(1 << i for i in indices)


def _bits(mask: int) -> list[int]:
    """The indices in a member mask, ascending: as a sort key, the image order."""
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def _closure(start, steps, limit: int) -> set:
    """What the step maps reach from start, or the first limit of it found."""
    found, queue = {start}, [start]
    for a in queue:
        for step in steps:
            b = step(a)
            if b not in found:
                found.add(b)
                if len(found) == limit:
                    return found
                queue.append(b)
    return found


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
        steps = [lambda a, g=g.image: _compose(a, g) for g in gens]
        found = _closure(tuple(range(degree)), steps, MAX_GROUP_ORDER + 1)
        if len(found) > MAX_GROUP_ORDER:
            raise GroupInputError(
                f"group order exceeds the supported cap of {MAX_GROUP_ORDER} elements"
            )
        self._images = tuple(sorted(found))
        self._index = {img: i for i, img in enumerate(self._images)}
        self.elements: tuple[Perm, ...] = tuple(map(Perm._trusted, self._images))
        self.order = len(self.elements)
        self.identity = self.elements[0]
        self._right: dict[int, list[int]] = {}
        self._left: dict[int, list[int]] = {}

    def __contains__(self, g: Perm) -> bool:
        return g.image in self._index

    def __repr__(self) -> str:
        label = self.name or f"degree-{self.degree} group"
        return f"FiniteGroup({label}, order={self.order})"

    # -- element arithmetic on indices ---------------------------------------

    def index(self, g: Perm) -> int:
        """The index of g, an element of the group, in the canonical order."""
        return self._index[g.image]

    def product(self, a: int, b: int) -> int:
        """The index of a * b."""
        return self._index[tuple(map(self._images[b].__getitem__, self._images[a]))]

    def right(self, g: int) -> list[int]:
        """The column x -> x * g over all element indices, built once per g."""
        if g not in self._right:
            idx, img = self._index, self._images[g].__getitem__
            self._right[g] = [idx[tuple(map(img, x))] for x in self._images]
        return self._right[g]

    def left(self, g: int) -> list[int]:
        """The column x -> g * x over all element indices, built once per g."""
        if g not in self._left:
            idx, img = self._index, self._images[g]
            self._left[g] = [idx[tuple(map(x.__getitem__, img))] for x in self._images]
        return self._left[g]

    @cached_property
    def inverses(self) -> list[int]:
        """The index of each element's inverse."""
        points = range(self.degree)
        return [self._index[tuple(sorted(points, key=x.__getitem__))] for x in self._images]

    def _generated(self, gens: Sequence[int]) -> set[int]:
        """The subgroup that element indices generate; the closure stops at |G|.
        It caches no columns: those of the search's many candidates would fill a table."""
        return _closure(0, [lambda x, g=g: self.product(x, g) for g in gens], self.order)

    @cached_property
    def exponent(self) -> int:
        exp = math.lcm(*(c.element_order for c in self.conjugacy_classes))
        if self.order % exp:
            raise InternalCheckError("group exponent does not divide the order")
        return exp

    def is_generated_by(self, generators: Iterable[Perm]) -> bool:
        """Whether the generators generate the whole group."""
        return len(self._generated([self.index(g) for g in generators])) == self.order

    @cached_property
    def digest(self) -> str:
        blob = f"{self.degree}|" + ";".join(",".join(map(str, x)) for x in self._images)
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
        return Subgroup._trusted(self, range(self.order), self.generators, "G")

    # -- conjugacy structure -----------------------------------------------

    @cached_property
    def conjugacy_classes(self) -> tuple["ElementClass", ...]:
        """Element classes ordered by (element order, class size, representative);
        the orbits of G under conjugation are those of its generators."""
        conjugators = [  # for each generator t, the column x -> t x t^-1
            [self.product(self.product(t, x), self.inverses[t]) for x in range(self.order)]
            for t in dict.fromkeys(map(self.index, self.generators))
        ]
        seen = [False] * self.order
        raw = []
        for g in range(self.order):
            if seen[g]:
                continue
            seen[g] = True
            orbit = [g]
            for x in orbit:
                for col in conjugators:
                    if not seen[col[x]]:
                        seen[col[x]] = True
                        orbit.append(col[x])
            raw.append(sorted(orbit))
        raw.sort(key=lambda mem: (self.elements[mem[0]].order(), len(mem), mem[0]))
        return tuple(ElementClass(self, tuple(mem)) for mem in raw)

    @cached_property
    def class_of(self) -> list[int]:
        """The class number of each element, by element index."""
        out = [0] * self.order
        for i, cls in enumerate(self.conjugacy_classes):
            for g in cls.indices:
                out[g] = i
        return out

    @cached_property
    def class_index(self) -> dict[Perm, int]:
        """The class number of each element, keyed by permutation."""
        return dict(zip(self.elements, self.class_of))

    @cached_property
    def class_powers(self) -> tuple[tuple[int, ...], ...]:
        """For each class, the class indices of rep^0, rep^1, ..., rep^(m-1), m the
        element order: the one power map, the class of g^k for g in class j being
        class_powers[j][k % m]."""
        return tuple(
            tuple(self.class_of[h] for h in self._powers(cls.indices[0]))
            for cls in self.conjugacy_classes
        )

    def _powers(self, g: int) -> list[int]:
        """g^0, g^1, ..., g^(m-1), for g of order m: the one power walk."""
        powers, h = [0], g
        while h:
            powers.append(h)
            h = self.product(h, g)
        return powers

    @cached_property
    def cyclic_subgroup_classes(self) -> tuple["ConjugacyClassOfSubgroups", ...]:
        """All cyclic subgroups up to conjugacy, trivial subgroup included."""
        # element -> mask of the cyclic subgroup it generates, and mask -> sorted
        # members; one power walk per subgroup files its generators g^k, gcd(k, m) = 1
        self._cyclic_of = cyclic_of = [0] * self.order
        members: dict[int, tuple[int, ...]] = {}
        for g in range(self.order):
            if cyclic_of[g]:
                continue
            powers = self._powers(g)
            s = _mask(powers)
            members[s] = tuple(sorted(powers))
            for k in range(len(powers)):
                if math.gcd(k, len(powers)) == 1:
                    cyclic_of[powers[k]] = s

        assigned: set[int] = set()
        classes = []
        for g in range(self.order):
            if cyclic_of[g] in assigned:
                continue
            # the conjugates of <g> are the <x>, x in the class of g
            orbit = {cyclic_of[x] for x in self.conjugacy_classes[self.class_of[g]].indices}
            rep_set = min(orbit, key=members.__getitem__)
            gen = next(x for x in members[rep_set] if cyclic_of[x] == rep_set)
            gen = self.elements[gen]
            rep = Subgroup._trusted(self, members[rep_set], (gen,), str(gen))
            classes.append(ConjugacyClassOfSubgroups(rep, len(orbit), frozenset(orbit)))
            assigned |= orbit
        classes.sort(key=lambda c: (c.order, c.class_size, c.representative.indices))
        return tuple(classes)

    @cached_property
    def cyclic_subgroup_masks(self) -> dict[int, int]:
        """The member mask of every cyclic subgroup -> the index of its class."""
        return {s: i for i, c in enumerate(self.cyclic_subgroup_classes) for s in c.member_masks}

    def cyclic_class_index(self, sub: "Subgroup") -> int:
        """Index of the cyclic-subgroup class containing sub."""
        try:
            return self.cyclic_subgroup_masks[sub.mask]
        except KeyError:
            raise GroupInputError(f"subgroup {sub.label or ''} is not cyclic") from None

    @cached_property
    def merged_element_classes(self) -> tuple["ElementClass", ...]:
        """Elements fused by conjugacy of generated cyclic subgroups, one per cyclic class."""
        classes = self.cyclic_subgroup_classes
        buckets: list[list[int]] = [[] for _ in classes]
        for g in range(self.order):
            buckets[self.cyclic_subgroup_masks[self._cyclic_of[g]]].append(g)
        return tuple(ElementClass(self, tuple(b)) for b in buckets)

    def subgroup_class(self, sub: "Subgroup") -> "ConjugacyClassOfSubgroups":
        """Conjugacy class of an arbitrary subgroup (its cached conjugates unless cyclic)."""
        if sub.is_cyclic:
            return self.cyclic_subgroup_classes[self.cyclic_class_index(sub)]
        orbit = frozenset(sub.conjugate_masks)
        rep_set = min(orbit, key=_bits)
        rep = sub if sub.mask == rep_set else Subgroup._trusted(self, _bits(rep_set), None, None)
        return ConjugacyClassOfSubgroups(rep, len(orbit), orbit)

    def are_conjugate_subgroups(self, a: "Subgroup", b: "Subgroup") -> bool:
        return a.order == b.order and b.mask in self.subgroup_class(a).member_masks

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
    """A subgroup given by its members, element indices held sorted (`indices`)
    and as a bitmask (`mask`).  What depends on the subgroup alone is computed
    once and kept on it: a generating set, the normalizer, the left transversal,
    the class counts, the left-coset map and the member masks of its conjugates
    (`conjugate_masks`), which the marks and double-coset route 2 meet with each H.
    """

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use Subgroup.generated or Subgroup.from_members")

    @classmethod
    def _trusted(cls, parent, members, generators, label) -> "Subgroup":
        """members are element indices, generators permutations."""
        self = object.__new__(cls)
        self.parent = parent
        self.indices = tuple(sorted(members))
        self.mask = _mask(self.indices)
        self.generators = tuple(generators) if generators else None
        self.label = label
        self.order = len(self.indices)
        if parent.order % self.order:
            raise InternalCheckError("subgroup order does not divide group order")
        return self

    @classmethod
    def generated(cls, parent: FiniteGroup, generators: Sequence[Perm],
                  label: Optional[str] = None) -> "Subgroup":
        generators = tuple(generators)
        for g in generators:
            if g not in parent:
                raise GroupInputError(f"generator {g} lies outside the parent group")
        members = parent._generated([parent.index(g) for g in generators])
        return cls._trusted(parent, members, generators, label)

    @classmethod
    def from_members(cls, parent: FiniteGroup, members: Iterable[Perm],
                     label: Optional[str] = None) -> "Subgroup":
        mem = frozenset(members)
        if not mem:
            raise GroupInputError("a subgroup cannot be empty")
        for g in mem:
            if g not in parent:
                raise GroupInputError(f"member {g} lies outside the parent group")
        idx = [parent.index(g) for g in mem]
        if len(parent._generated(idx)) != len(idx):
            raise GroupInputError("member set is not closed under composition")
        return cls._trusted(parent, idx, None, label)

    @property
    def members(self) -> frozenset[Perm]:
        return frozenset(map(self.parent.elements.__getitem__, self.indices))

    @cached_property
    def generating_set(self) -> tuple[int, ...]:
        """Indices generating H: its generators, or else, greedily, the least
        member not yet generated; each pick at least doubles the subgroup (Lagrange)."""
        if self.generators:
            return tuple(map(self.parent.index, self.generators))
        gens: list[int] = []
        reached = {0}
        for g in self.indices:
            if g not in reached:
                gens.append(g)
                reached = self.parent._generated(gens)
        return tuple(gens)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    @cached_property
    def is_cyclic(self) -> bool:
        return self.mask in self.parent.cyclic_subgroup_masks

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.parent is other.parent
                and self.mask == other.mask)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.mask))

    def __repr__(self) -> str:
        tag = self.label or "subgroup"
        return f"Subgroup(<{tag}>, order={self.order})"

    def normalizer(self) -> "Subgroup":
        cached = getattr(self, "_normalizer", None)
        if cached is not None:
            return cached
        # t K t^-1 = K as soon as t conjugates a generating set of K into K
        G, inverses = self.parent, self.parent.inverses
        mem = [t for t in range(G.order) if all(
            self.mask >> G.product(G.product(t, k), inverses[t]) & 1 for k in self.generating_set
        )]
        tag = f"N({self.label})" if self.label else None
        self._normalizer = Subgroup._trusted(G, mem, None, tag)
        return self._normalizer

    @cached_property
    def class_counts(self) -> tuple[tuple[int, int], ...]:
        """(class index, number of members in that class) for every class H meets."""
        counts: dict[int, int] = {}
        class_of = self.parent.class_of
        for h in self.indices:
            j = class_of[h]
            counts[j] = counts.get(j, 0) + 1
        return tuple(sorted(counts.items()))

    @cached_property
    def conjugate_masks(self) -> tuple[int, ...]:
        """The member masks of l K l^-1, one for each l of the left transversal
        of N(K), in transversal order; each conjugate of K appears once."""
        G = self.parent
        return tuple(
            _mask(G.product(G.product(ell, k), G.inverses[ell]) for k in self.indices)
            for ell in self.normalizer().transversal
        )

    @cached_property
    def left_cosets(self) -> tuple[list[int], tuple[int, ...]]:
        """The left cosets gH: each element's coset number, and the least
        element of each coset, numbered in element order."""
        G = self.parent
        coset_of, reps = [-1] * G.order, []
        for g in range(G.order):
            if coset_of[g] < 0:
                for h in self.indices:
                    coset_of[G.product(g, h)] = len(reps)
                reps.append(g)
        return coset_of, tuple(reps)

    @cached_property
    def transversal(self) -> tuple[int, ...]:
        """One element index per left coset gH, each the least of its coset."""
        G = self.parent
        covered, reps = 0, []
        for g in range(G.order):
            if not covered >> g & 1:
                reps.append(g)
                covered |= _mask(G.product(g, h) for h in self.indices)
        if len(reps) != self.index:
            raise InternalCheckError("left transversal has the wrong size")
        return tuple(reps)

    def left_transversal(self) -> tuple[Perm, ...]:
        """One representative per left coset gH, each the least element of its coset."""
        return tuple(map(self.parent.elements.__getitem__, self.transversal))


class ElementClass:
    """A class of group elements, held as sorted element indices: a conjugacy
    class, or, in `merged_element_classes`, the generators of one
    cyclic-subgroup class."""

    __slots__ = ("indices", "members", "representative", "size", "element_order")

    def __init__(self, group: FiniteGroup, indices: tuple[int, ...]):
        self.indices = indices
        self.members = tuple(map(group.elements.__getitem__, indices))
        self.representative = self.members[0]
        self.size = len(indices)
        self.element_order = self.representative.order()

    def __repr__(self) -> str:
        return f"ElementClass({self.representative}, size={self.size})"


class ConjugacyClassOfSubgroups:
    """A conjugacy class of subgroups, held by a canonical representative."""

    def __init__(self, representative: Subgroup, class_size: int,
                 member_masks: frozenset[int]):
        self.representative = representative
        self.class_size = class_size
        self.member_masks = member_masks

    @property
    def order(self) -> int:
        return self.representative.order

    def contains_subgroup(self, sub: Subgroup) -> bool:
        return sub.mask in self.member_masks

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConjugacyClassOfSubgroups)
                and self.member_masks == other.member_masks)

    def __hash__(self) -> int:
        return hash(self.member_masks)

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
    cols = [G.left(h) for h in H.generating_set]
    seen = [False] * len(reps)
    direct = 0
    for cid in range(len(reps)):
        if not seen[cid]:
            direct += 1
            seen[cid] = True
            orbit = [cid]
            for c in orbit:
                for col in cols:
                    c2 = coset_of[col[reps[c]]]
                    if not seen[c2]:
                        seen[c2] = True
                        orbit.append(c2)

    # (2) transversal formula over the normalizer of K: sum over the
    # conjugates l K l^-1 of |N(K):K| · |l K l^-1 ∩ H|
    ratio = K.normalizer().order // K.order
    total = ratio * sum((conj_k & H.mask).bit_count() for conj_k in K.conjugate_masks)
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


def json_int(payload, key: str, message: str) -> int:
    """payload[key] when payload is a JSON object and that value a JSON integer,
    an int that is not a bool; anything else raises GroupInputError(message)."""
    value = payload.get(key) if isinstance(payload, Mapping) else None
    if isinstance(value, bool) or not isinstance(value, int):
        raise GroupInputError(message)
    return value


def group_from_payload(payload: Mapping) -> FiniteGroup:
    """Build a group from the JSON group-specification object."""
    degree = json_int(payload, "degree", "group spec needs an integer 'degree'")
    raw = payload.get("generators")
    if not isinstance(raw, Mapping) or not raw:
        raise GroupInputError("group spec needs a non-empty 'generators' object")
    named = {}
    for label, text in raw.items():
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", label):
            raise GroupInputError(f"bad generator name {label!r}")
        named[label] = Perm.parse(degree, str(text))
    name = payload.get("name")
    if name is not None and not isinstance(name, str):
        raise GroupInputError("group spec 'name' must be a string")
    return FiniteGroup(degree, named_generators=named, name=name)
