"""Exact finite-permutation-group engine.

Elements are permutations of {0..n-1} stored as image tuples and composed
left to right: (g * h)(p) = h(g(p)), so the word x*a^2 acts by x first.
Cycle notation in input and output is 1-based.  Permutations order
lexicographically by image tuple, which puts the identity first and makes
every derived listing (element lists, class representatives, transversals)
deterministic.

Inside a group an element is its index 0..|G|-1 in that order (identity 0).
The walk that builds G composes each element with each generator s once
and keeps the results as integer columns x -> x*s.  Every other column is a
walk of list lookups over a spanning tree of the Cayley graph: `left(g)`
(x -> g*x) along x = p*s, `right(g)` (x -> x*g) along x = s*p, the inverses
and the generators' conjugation columns.  A subgroup K's conjugates are the
orbit of one action, G on the conjugates of K, walked once: t K t^-1 is
numbered for every t along t = s*p, and the least t with each number form
the left transversal of N(K) that keys them; the numbering is not kept.
What the group keeps follows one rule: each `left(g)` and `right(g)` column
is walked at most once and then kept, at most |G| per side (2*|G|^2*8 bytes
of list slots, about 64 MB at |G| = 2000), and every other kept value is a
cached property.  Every product in a group is a lookup in a kept column,
and `generates`, the generation test, is a closure over such columns; only
the build and `Perm` at the boundary compose image tuples.  One orbit
partition, `_orbits`, gives the element classes, the left cosets and
double-coset route 1; a single permutation's orbits are walked as its
cycles, with no queue, so route 1 counts the cycles of a one-generator H
on K's left cosets.  `double_coset_count` refuses a subgroup of another
group and compares three route functions that share no code: route 1,
`_by_orbits`; route 2, `_by_transversal`, over K's conjugate masks; and
route 3, `_by_class_sums`, over the class counts of H and K.  Powers are
walked along a right column once per class of cyclic subgroups, from each
element not yet filed, in ascending order (the least of its element
class); the conjugation columns carry each walk to the conjugate
subgroups, and a class's element order is its length.  The power map is
the class numbers along one walk w_c per class c of cyclic subgroups and
each element class's place (c, a), rep ~ w_c^a; the classes that share c
form one rational class.  Member sets are int bitmasks, so a
meet is `(a & b).bit_count()`.  `Perm` objects appear only at the boundary:
input, witnesses and output.
`Record` and `FrozenRecord` are the slotted bases of every module's result
records, here because every module imports this one: a record's fields are
its slots, and its constructor is generated in slot order unless the class
writes its own.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, reduce, total_ordering
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

from .errors import GroupInputError, InternalCheckError

MAX_GROUP_ORDER = 2000
MAX_DEGREE = 2000  # refused before any permutation is built; cyclic(2000) reaches it
MAX_QUOTIENT_GENUS = 2000  # the search walks 2 * genus elements; refused before it starts
DEFAULT_SEARCH_BUDGET = 10 ** 8  # search nodes; here so the CLI parser needs no search


def _check_cap(what: str, value: int, cap: int, unit: str) -> None:
    if value > cap:
        raise GroupInputError(f"{what} exceeds the supported cap of {cap} {unit}")


class Record:
    """A plain record: its fields are its slots, minus those named with a
    leading underscore.  Its constructor is generated in slot order unless the
    class writes its own `__init__`.  Two records are equal when they are of
    the same class with equal fields, so a record never equals a tuple; the
    repr is `Name(field=value, ...)`.  A mutable record is unhashable."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        if cls._fields:
            cls._key = attrgetter(*cls._fields)
            if "__init__" not in cls.__dict__:
                cls.__init__ = _generated_init(cls)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"


def _generated_init(cls):
    """`__init__(_self, f1, f2, ...)` over cls._fields, each set through its
    slot's member descriptor; compiled from the names, as `collections.namedtuple`
    builds its `__new__`, so calls and their `TypeError`s are a plain function's."""
    args = ", ".join(cls._fields)
    body = "".join(f"\n    _set_{f}(_self, {f})" for f in cls._fields)
    namespace = {f"_set_{f}": cls.__dict__[f].__set__ for f in cls._fields}
    namespace.update(__builtins__={}, __name__=cls.__module__)
    exec(f"def __init__(_self, {args}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class FrozenRecord(Record):
    """An immutable, hashable record.  A class that writes its own `__init__`
    sets each field with `self._init(name, value)`."""

    __slots__ = ()
    _init = object.__setattr__

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
                    raise GroupInputError(f"cycle point out of range 1..{degree}: {tuple(cyc)}")
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
        try:
            cycles = [
                [int(p) for p in part.split(",")] for part in re.findall(r"\(([\d,]+)\)", s)
            ]
        except ValueError:  # a point too long for int() is far out of range
            raise GroupInputError(f"cycle point out of range 1..{degree}") from None
        return cls.from_cycles(degree, cycles)

    @property
    def degree(self) -> int:
        return len(self.image)

    def __mul__(self, other: "Perm") -> "Perm":
        o = other.image
        if len(self.image) != len(o):
            raise GroupInputError("cannot compose permutations of different degree")
        return Perm._trusted(tuple([o[i] for i in self.image]))  # self first, then o

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


def _mask(indices: Iterable[int]) -> int:
    """The member bitmask of distinct element indices."""
    return sum(1 << i for i in indices)


def _bits(mask: int) -> list[int]:
    """The indices in a member mask, ascending: as a sort key, the image order."""
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def _spanning_tree(order: int, columns: Sequence[list[int]]) -> list[tuple[int, int, int]]:
    """A breadth-first spanning tree from 0 of the graph x -> columns[j][x] on
    0..order-1: edges (x, p, j) with x = columns[j][p], parents first."""
    tree, queue, seen = [], [0], [True] + [False] * (order - 1)
    for p in queue:
        for j, col in enumerate(columns):
            x = col[p]
            if not seen[x]:
                seen[x] = True
                tree.append((x, p, j))
                queue.append(x)
    return tree


def _tree_walk(start: int, tree: list[tuple[int, int, int]],
               columns: Sequence[list[int]]) -> list[int]:
    """The column out with out[0] = start and out[x] = columns[j][out[p]] along
    each tree edge (x, p, j): list lookups only, no composition."""
    out = [start] * (len(tree) + 1)
    for x, p, j in tree:
        out[x] = columns[j][out[p]]
    return out


def _orbits(n: int, columns: Sequence[Sequence[int]]) -> tuple[list[int], tuple[int, ...]]:
    """The orbits of 0..n-1 under the permutations x -> col[x]: each point's
    orbit number, and the least point of each orbit, numbered in that order.
    A single column's orbits are its cycles, walked in place with no queue;
    any other number of columns is searched breadth first."""
    orbit_of, least = [-1] * n, []
    if len(columns) == 1:
        col = columns[0]
        for start in range(n):
            if orbit_of[start] < 0:
                k, x = len(least), start
                while orbit_of[x] < 0:
                    orbit_of[x] = k
                    x = col[x]
                least.append(start)
        return orbit_of, tuple(least)
    for start in range(n):
        if orbit_of[start] < 0:
            orbit_of[start], orbit = len(least), [start]
            for x in orbit:
                for col in columns:
                    y = col[x]
                    if orbit_of[y] < 0:
                        orbit_of[y] = len(least)
                        orbit.append(y)
            least.append(start)
    return orbit_of, tuple(least)


class FiniteGroup:
    """A finite permutation group with its full, canonically ordered element list."""

    def __init__(
        self,
        degree: int,
        named_generators: Optional[Mapping[str, Perm]] = None,
        name: Optional[str] = None,
    ):
        if degree < 1:
            raise GroupInputError("degree must be at least 1")
        _check_cap("group degree", degree, MAX_DEGREE, "points")
        named = dict(named_generators or {})
        gens = tuple(named.values())
        for g in gens:
            if g.degree != degree:
                raise GroupInputError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
        self.degree = degree
        self.generators = gens
        self.named_generators = named
        self.name = name
        # the closure composes every element with every distinct generator
        # once: at[b] is b's place in the walk, and after[i*k + j] the place
        # of walk[i]*s_j; in element order they become the columns x -> x*s.
        # after is one list, not k: k lists growing side by side fragment the
        # heap (peak RSS 73 MB against 55 MB for 20 generators of degree 2000).
        # A product is a list comprehension of tuple reads: on Python 3.11,
        # 15 against 37 us at degree 720 for a map of the bound __getitem__;
        # n counts the walk
        identity = tuple(range(degree))
        distinct = [g for g in dict.fromkeys(g.image for g in gens) if g != identity]
        walk, at, after, n = [identity], {identity: 0}, [], 1
        for a in walk:
            for s in distinct:
                b = tuple([s[i] for i in a])
                place = at.setdefault(b, n)  # one hash per product
                if place == n:
                    walk.append(b)
                    n += 1
                after.append(place)
            if n > MAX_GROUP_ORDER:
                _check_cap("group order", n, MAX_GROUP_ORDER, "elements")
        images = sorted(walk)
        self._index = idx = {img: i for i, img in enumerate(images)}
        self.elements: tuple[Perm, ...] = tuple(map(Perm._trusted, images))
        self.order = len(self.elements)
        self.identity = self.elements[0]
        self._gens = tuple(idx[s] for s in distinct)
        rank, k = [idx[a] for a in walk], len(distinct)
        self._times = [[0] * self.order for _ in distinct]  # per s, x -> x*s
        for j, times_s in enumerate(self._times):
            for i, b in enumerate(after[j::k]):
                times_s[rank[i]] = rank[b]
        self._right_tree = _spanning_tree(self.order, self._times)
        self._right: dict[int, list[int]] = dict(zip(self._gens, self._times))
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

    def right(self, g: int) -> list[int]:
        """The column x -> x * g over all element indices, built once per g
        and kept: for x = s*p on the left tree, x*g = s*(p*g).  A generator's
        is the build's own.  At most |G| kept columns per side: 2*|G|^2*8
        bytes of list slots, about 64 MB at |G| = 2000."""
        if g not in self._right:
            self._right[g] = _tree_walk(g, *self._left_tree)
        return self._right[g]

    def left(self, g: int) -> list[int]:
        """The column x -> g * x over all element indices, built once per g: for
        x = p*s on the right tree, g*x = (g*p)*s."""
        if g not in self._left:
            self._left[g] = _tree_walk(g, self._right_tree, self._times)
        return self._left[g]

    @cached_property
    def _left_tree(self) -> tuple[list[tuple[int, int, int]], list[list[int]]]:
        """A spanning tree of the left Cayley graph, x = s*p, with the
        generator columns p -> s*p it walks."""
        times_s = [self.left(s) for s in self._gens]
        return _spanning_tree(self.order, times_s), times_s

    @cached_property
    def _undo(self) -> list[list[int]]:
        """For each generator s, the column x -> x * s^-1."""
        return [sorted(range(self.order), key=col.__getitem__) for col in self._times]

    @cached_property
    def inverses(self) -> list[int]:
        """The index of each element's inverse: for x = s*p, x^-1 = p^-1 * s^-1."""
        return _tree_walk(0, self._left_tree[0], self._undo)

    @cached_property
    def _conjugators(self) -> list[list[int]]:
        """For each generator t, the column x -> t x t^-1."""
        return [[back[y] for y in self.left(t)] for t, back in zip(self._gens, self._undo)]

    def _generated(self, gens: Iterable[int]) -> set[int]:
        """The subgroup that element indices generate, closed over the right
        columns of the distinct generators, each walked once and kept within
        the 64 MB bound of `right`; the closure stops at |G|."""
        cols = [self.right(g) for g in dict.fromkeys(gens) if g]
        found, queue = {0}, [0]
        for a in queue:
            for col in cols:
                b = col[a]
                if b not in found:
                    found.add(b)
                    if len(found) == self.order:
                        return found
                    queue.append(b)
        return found

    def generates(self, indices: Iterable[int]) -> bool:
        """Whether the elements with these indices generate the whole group:
        the existence search's generation test, on indices alone."""
        return len(self._generated(indices)) == self.order

    @cached_property
    def exponent(self) -> int:
        exp = math.lcm(*(c.element_order for c in self.conjugacy_classes))
        if self.order % exp:
            raise InternalCheckError("group exponent does not divide the order")
        return exp

    @cached_property
    def digest(self) -> str:
        """The group hash: the first 16 hex digits of the SHA-256 of the
        degree and the element images in canonical order.

        It takes sha256 from the interpreter's built-in module, the one
        hashlib itself falls back to (_sha2 on 3.12+, _sha256 before):
        hashlib would map OpenSSL's libcrypto for this one short hash, the
        largest memory cost of a JSON call.  Only a build that has neither
        built-in module imports hashlib.  The hash is the same either way."""
        try:
            from _sha2 import sha256
        except ImportError:
            try:
                from _sha256 import sha256
            except ImportError:
                from hashlib import sha256
        blob = f"{self.degree}|" + ";".join(",".join(map(str, g.image)) for g in self.elements)
        return sha256(blob.encode()).hexdigest()[:16]

    # -- subgroups ---------------------------------------------------------

    def subgroup(self, generators: Sequence[Perm], label: Optional[str] = None) -> "Subgroup":
        """The subgroup that generators, elements of this group, generate: the
        one way in from outside input.  Each generator is mapped to its index
        once, and the subgroup keeps those indices."""
        generators = tuple(generators)
        for g in generators:
            if g not in self:
                raise GroupInputError(f"generator {g} lies outside the parent group")
        gens = tuple(map(self.index, generators))
        return Subgroup._trusted(self, self._generated(gens), gens, label)

    def subgroup_from_words(self, words: Sequence[str], label: Optional[str] = None) -> "Subgroup":
        return self.subgroup([self.element(w) for w in words], label or ",".join(words))

    # -- conjugacy structure -----------------------------------------------

    @cached_property
    def conjugacy_classes(self) -> tuple["ElementClass", ...]:
        """Element classes ordered by (element order, class size, representative);
        each element order is the length of its cyclic subgroup's power walk."""
        orbit_of, least = _orbits(self.order, self._conjugators)
        cyclic_of, walks, _ = self._cyclic_subgroups
        members: list[list[int]] = [[] for _ in least]
        for g, n in enumerate(orbit_of):
            members[n].append(g)
        raw = sorted((len(walks[cyclic_of[g]]), len(mem), mem) for g, mem in zip(least, members))
        return tuple(ElementClass(self, tuple(mem), m) for m, _, mem in raw)

    @cached_property
    def class_of(self) -> list[int]:
        """The class number of each element, by element index: the group's
        one numbering of its element classes."""
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
    def power_walks(self) -> tuple[tuple[int, ...], ...]:
        """For each class c of cyclic subgroups, in `cyclic_subgroup_classes`
        order, the class numbers of w^0, w^1, ..., w^(m-1) along the power walk
        of one generator w of a subgroup in the class: with `walk_places`, the
        one power map."""
        class_of = self.class_of
        _, walks, orbits = self._cyclic_subgroups
        return tuple(tuple(map(class_of.__getitem__, walks[orbit[0]])) for orbit in orbits)

    @cached_property
    def walk_places(self) -> tuple[tuple[int, int], ...]:
        """For each conjugacy class j, the pair (c, a) with rep_j conjugate to
        w_c^a, gcd(a, m) = 1: each conjugate of w_c's walk is that walk read
        through the conjugation columns, so rep_j is walk[a] on the walk of
        <rep_j>.  The classes that share c form one rational class."""
        cyclic_of, walks, _ = self._cyclic_subgroups
        number = self.cyclic_subgroup_masks
        return tuple((number[cyclic_of[g]], walks[cyclic_of[g]].index(g))
                     for g in (cls.indices[0] for cls in self.conjugacy_classes))

    def class_power(self, j: int, k: int) -> int:
        """The class of g^k for g in class j and any integer k."""
        c, a = self.walk_places[j]
        walk = self.power_walks[c]
        return walk[a * k % len(walk)]

    def _powers(self, g: int) -> list[int]:
        """g^0, g^1, ..., g^(m-1), for g of order m, along g's right column;
        the identity's are [0], with no column walked."""
        if not g:
            return [0]
        times_g, powers, h = self.right(g), [0], g
        while h:
            powers.append(h)
            h = times_g[h]
        return powers

    @cached_property
    def _cyclic_subgroups(self) -> tuple[list[int], dict[int, list[int]], list[list[int]]]:
        """The mask of the cyclic subgroup <g> by element index g; by mask a
        power walk of each cyclic subgroup, its one record; and the masks of
        each class of cyclic subgroups, the least (by sorted members) first,
        in class order (order, class size, least sorted members).  Every walk
        of a class is the first walk read through conjugation columns, so
        all of them pass the same conjugacy classes.  Powers are walked from
        each element g not yet filed, in ascending order: no conjugate of g is
        filed either, so g is least in its conjugacy class.  The conjugation
        columns carry that walk to each t<g>t^-1 = <t g t^-1>, filed with its
        generators walk[k], gcd(k, m) = 1, when first reached."""
        cyclic_of = [0] * self.order
        walks: dict[int, list[int]] = {}
        orbits, filed = [], 0
        for g in range(self.order):
            if cyclic_of[g]:
                continue
            conjugates, masks = [self._powers(g)], []
            m = len(conjugates[0])
            units = [k for k in range(m) if math.gcd(k, m) == 1]
            for walk in conjugates:
                s = _mask(walk)
                masks.append(s)
                walks[s] = walk
                for k in units:
                    cyclic_of[walk[k]] = s
                for conj in self._conjugators:
                    if not cyclic_of[conj[walk[-1]]]:  # walk[-1] generates <walk>
                        image = [conj[x] for x in walk]
                        for k in units:
                            cyclic_of[image[k]] = -1  # reached; filed when walked
                        conjugates.append(image)
            filed += len(units) * len(conjugates)
            members = [sorted(walks[s]) for s in masks]
            least = members.index(min(members))
            masks[0], masks[least] = masks[least], masks[0]
            orbits.append((m, len(masks), members[least], masks))
        if filed != self.order or not all(c > 0 for c in cyclic_of):
            raise InternalCheckError(f"the cyclic subgroups file {filed} generators for "
                                     f"{self.order} elements, {cyclic_of.count(0)} unfiled")
        orbits.sort()
        return cyclic_of, walks, [masks for *_, masks in orbits]

    @cached_property
    def cyclic_subgroup_classes(self) -> tuple["ConjugacyClassOfSubgroups", ...]:
        """All cyclic subgroups up to conjugacy, trivial subgroup included: the
        orbits of the conjugation walk, each held by its least member."""
        cyclic_of, walks, orbits = self._cyclic_subgroups
        classes = []
        for orbit in orbits:
            rep_set = orbit[0]
            gen = min(x for x in walks[rep_set] if cyclic_of[x] == rep_set)
            rep = Subgroup._trusted(self, walks[rep_set], (gen,), str(self.elements[gen]))
            classes.append(ConjugacyClassOfSubgroups(rep, frozenset(orbit)))
        return tuple(classes)

    @cached_property
    def cyclic_subgroup_masks(self) -> dict[int, int]:
        """The member mask of every cyclic subgroup -> the index of its class."""
        return {s: c for c, orbit in enumerate(self._cyclic_subgroups[2]) for s in orbit}

    def cyclic_class_index(self, sub: "Subgroup") -> int:
        """Index of the cyclic-subgroup class containing sub."""
        require_subgroups(self, sub)
        try:
            return self.cyclic_subgroup_masks[sub.mask]
        except KeyError:
            raise GroupInputError(f"subgroup {sub.label or ''} is not cyclic") from None

    @cached_property
    def merged_element_classes(self) -> tuple["ElementClass", ...]:
        """Elements fused by conjugacy of generated cyclic subgroups, one per cyclic class."""
        cyclic_of, walks, orbits = self._cyclic_subgroups
        # the generators on its walks, each of order m, the walks' length
        return tuple(ElementClass(self, tuple(sorted(x for s in orbit for x in walks[s]
                                                     if cyclic_of[x] == s)),
                                  len(walks[orbit[0]])) for orbit in orbits)

    def subgroup_class(self, sub: "Subgroup") -> "ConjugacyClassOfSubgroups":
        """Conjugacy class of an arbitrary subgroup, the orbit of its cached
        conjugates, held by the least of them: sub itself, or an unlabelled
        subgroup."""
        require_subgroups(self, sub)
        orbit = frozenset(sub.conjugate_masks.values())
        # equal popcounts: the least by sorted members holds the lowest bit of each XOR
        rep_set = reduce(lambda a, b: b if (a ^ b) & -(a ^ b) & b else a, orbit)
        rep = sub if sub.mask == rep_set else Subgroup._trusted(self, _bits(rep_set), None, None)
        return ConjugacyClassOfSubgroups(rep, orbit)

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
        if not s.strip("*"):
            raise GroupInputError(f"cannot read {text!r}: no generator name in it")
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
                raise GroupInputError(f"cannot read {text!r}: no generator name at ...{s[i:]!r}")
            exp = 1
            if i < len(s) and s[i] == "^":
                m = re.match(r"\^(-?\d+)", s[i:])
                if not m:
                    raise GroupInputError(f"bad exponent in {text!r}")
                try:
                    exp = int(m.group(1))
                except ValueError:  # more digits than int() reads
                    raise GroupInputError(f"exponent too long to read in a word of "
                                          f"{len(s)} characters") from None
                i += m.end()
            acc = acc * (self.named_generators[nm] ** exp)
        return acc


class Subgroup:
    """A subgroup given by its members, element indices held sorted (`indices`)
    and as a bitmask (`mask`).  What depends on the subgroup alone is computed
    once and kept on it: a generating set, the class counts, the left-coset
    map, and the member masks of the conjugates keyed by the transversal of
    the normalizer (`conjugate_masks`), from one conjugation walk that is not
    kept.  The marks, double-coset route 2 and the orbit packages meet those
    masks with each H and take |N(K)| = |G| / (number of conjugates): no
    engine path builds N(K), which `normalizer` walks again for API callers.
    """

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use FiniteGroup.subgroup or FiniteGroup.subgroup_from_words")

    @classmethod
    def _trusted(cls, parent, members, generators, label) -> "Subgroup":
        """members and generators are element indices; generators may be None."""
        self = object.__new__(cls)
        self.parent = parent
        self.indices = tuple(sorted(members))
        self.mask = _mask(self.indices)
        self._generators = tuple(generators) if generators else None
        self.label = label
        self.order = len(self.indices)
        if parent.order % self.order:
            raise InternalCheckError("subgroup order does not divide group order")
        return self

    @property
    def members(self) -> frozenset[Perm]:
        return frozenset(map(self.parent.elements.__getitem__, self.indices))

    @property
    def generators(self) -> Optional[tuple[Perm, ...]]:
        """The generators H was built from, as permutations, or None."""
        if self._generators:
            return tuple(map(self.parent.elements.__getitem__, self._generators))
        return None

    @cached_property
    def generating_set(self) -> tuple[int, ...]:
        """Indices generating H: its distinct non-identity generators, or else,
        greedily, the least member not yet generated; each pick at least
        doubles the subgroup (Lagrange).  No identity is kept, so no column of
        the identity is walked for it."""
        if self._generators:
            return tuple(g for g in dict.fromkeys(self._generators) if g)
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

    def _conjugation(self) -> tuple[list[int], list[int]]:
        """G acting on the conjugates of K by conjugation, walked per call: the
        number of t K t^-1 for each element t, and the orbit's member masks by
        number.  The orbit is K's under the generators' conjugation columns,
        each generator's action on it kept as a list; then for t = s*p on the
        left tree, t K t^-1 = s (p K p^-1) s^-1 reads that list."""
        G = self.parent
        members, numbered = [self.indices], {self.mask: 0}
        acts: list[list[int]] = [[] for _ in G._conjugators]
        for conjugate in members:
            for act, conj in zip(acts, G._conjugators):
                image = [conj[k] for k in conjugate]
                n = numbered.setdefault(_mask(image), len(members))
                if n == len(members):
                    members.append(image)
                act.append(n)
        number = _tree_walk(0, G._left_tree[0], acts)
        # orbit-stabilizer: each conjugate is t K t^-1 for the |N(K)| elements
        # t of one left coset of N(K); `number` has one entry per element, so
        # equal sizes also give (number of conjugates) * |N(K)| = |G|
        sizes = [0] * len(members)
        for n in number:
            sizes[n] += 1
        if len(set(sizes)) != 1:
            raise InternalCheckError(f"the left cosets of the normalizer of a subgroup of "
                                     f"order {self.order} have sizes {sorted(set(sizes))}")
        return number, list(numbered)

    @cached_property
    def normalizer(self) -> "Subgroup":
        # the stabilizer of K under conjugation: the t with t K t^-1 = K
        mem = [t for t, n in enumerate(self._conjugation()[0]) if not n]
        tag = f"N({self.label})" if self.label else None
        return Subgroup._trusted(self.parent, mem, None, tag)

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
    def conjugate_masks(self) -> dict[int, int]:
        """The member mask of l K l^-1 for each l of the left transversal of
        N(K), keyed by l in ascending order: l is the least t with its walk
        number, which is the least element of its coset t N(K).  Each conjugate
        of K appears once, so |N(K)| = |G| / len(conjugate_masks)."""
        number, masks = self._conjugation()
        least: dict[int, int] = {}
        for t, n in enumerate(number):
            least.setdefault(n, t)
        return {t: masks[n] for n, t in least.items()}

    @cached_property
    def left_cosets(self) -> tuple[list[int], tuple[int, ...]]:
        """The left cosets gH, the orbits of right multiplication by the
        generating set: each element's coset number, and each coset's least,
        a left transversal of H."""
        G = self.parent
        return _orbits(G.order, [G.right(h) for h in self.generating_set])


class ElementClass:
    """A class of group elements, held as sorted element indices: a conjugacy
    class, or, in `merged_element_classes`, the generators of one
    cyclic-subgroup class.  Its builder knows the element order and passes it."""

    __slots__ = ("indices", "representative", "size", "element_order")

    def __init__(self, group: FiniteGroup, indices: tuple[int, ...], element_order: int):
        self.indices = indices
        self.representative = group.elements[indices[0]]
        self.size = len(indices)
        self.element_order = element_order

    def __repr__(self) -> str:
        return f"ElementClass({self.representative}, size={self.size})"


class ConjugacyClassOfSubgroups(FrozenRecord):
    """A conjugacy class of subgroups, held by a canonical representative, its
    least member; `member_masks` are the member masks of all its subgroups,
    so the class size is `len(member_masks)`."""

    __slots__ = ("representative", "member_masks")

    @property
    def order(self) -> int:
        return self.representative.order

    def __repr__(self) -> str:  # the record repr would print every member mask
        tag = self.representative.label or "?"
        return f"SubgroupClass(<{tag}>, order={self.order}, size={len(self.member_masks)})"


# -- double cosets ----------------------------------------------------------


def require_subgroups(G: FiniteGroup, *subgroups: Subgroup) -> None:
    """Refuse a subgroup of another group object: it is malformed input."""
    if any(H.parent is not G for H in subgroups):
        raise GroupInputError("a subgroup belongs to another group")


def _by_orbits(G: FiniteGroup, H: Subgroup, K: Subgroup) -> int:
    """Route 1: |H\\G/K| as the orbits of H on the coset numbers of gK under
    left multiplication by a generating set.  K's coset map is built once and
    cached on K; routes 2 and 3 do not use it.  For a single generator h,
    `_orbits` walks the cycles of its one column."""
    coset_of, reps = K.left_cosets
    acts = [[coset_of[col[r]] for r in reps] for col in map(G.left, H.generating_set)]
    return len(_orbits(len(reps), acts)[1])


def _by_transversal(G: FiniteGroup, H: Subgroup, K: Subgroup) -> int:
    """Route 2: |H\\G/K| by the transversal formula over the normalizer of K,
    the sum over the conjugates l K l^-1 of |N(K):K| · |l K l^-1 ∩ H|, over
    |H|, with |N(K)| read off the number of conjugates."""
    conjugates = K.conjugate_masks
    ratio = G.order // (len(conjugates) * K.order)
    total = ratio * sum((conj_k & H.mask).bit_count() for conj_k in conjugates.values())
    count, rest = divmod(total, H.order)
    if rest:
        raise InternalCheckError("transversal double-coset formula is not integral")
    return count


def _by_class_sums(G: FiniteGroup, H: Subgroup, K: Subgroup) -> int:
    """Route 3: |H\\G/K| by the class formula, the average over a in H of
    |C_G(a)|·|K ∩ class(a)| / |K|, with the centralizer order |C_G(a)| =
    |G| / |class(a)|, summed class by class over the cached class counts of
    H and K."""
    classes = G.conjugacy_classes
    in_k = dict(K.class_counts)
    total = sum(n * (G.order // classes[i].size) * in_k.get(i, 0) for i, n in H.class_counts)
    count, rest = divmod(total, K.order * H.order)
    if rest:
        raise InternalCheckError("class-sum double-coset formula is not integral")
    return count


def double_coset_count(G: FiniteGroup, H: Subgroup, K: Subgroup) -> int:
    """|H\\G/K| computed three independent ways, by `_by_orbits`,
    `_by_transversal` and `_by_class_sums`; they must agree exactly."""
    require_subgroups(G, H, K)
    direct = _by_orbits(G, H, K)
    by_transversal = _by_transversal(G, H, K)
    by_classes = _by_class_sums(G, H, K)
    if not direct == by_transversal == by_classes:
        raise InternalCheckError(
            f"double-coset methods disagree: {direct}, {by_transversal}, {by_classes}"
        )
    return direct


# -- catalog and group input --------------------------------------------------

_CATALOG_RE = re.compile(r"quaternion8|wc3|(cyclic|dihedral|symmetric|alternating)\((\d+)\)")


def _catalog_match(name: str) -> Optional[re.Match]:
    return _CATALOG_RE.fullmatch(name.replace(" ", "").lower())


def is_catalog_name(name: str) -> bool:
    """Whether `catalog` reads name: quaternion8, wc3, cyclic(n), dihedral(n),
    symmetric(n) or alternating(n), in any letter case and with any spaces."""
    return _catalog_match(name) is not None


def catalog(name: str) -> FiniteGroup:
    """Built-in groups with documented named generators."""
    m = _catalog_match(name)
    if not m:
        raise GroupInputError(f"unknown catalog group {name!r}")
    key = m.group(0)
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
    family, digits = m.group(1), m.group(2).lstrip("0")
    n = int(digits or "0") if len(digits) < 5 else MAX_GROUP_ORDER + 1
    least = 3 if family in ("dihedral", "alternating") else 1
    if n < least:
        raise GroupInputError(f"{family}(n) needs n >= {least}")
    # the order is refused before any permutation of degree n exists; an n of
    # five digits passes every family's cap, and n! and n!/2 pass it from n = 7
    order = {"cyclic": n, "dihedral": 2 * n, "symmetric": math.factorial(min(n, 7)),
             "alternating": math.factorial(min(n, 7)) // 2}[family]
    _check_cap("group order", order, MAX_GROUP_ORDER, "elements")
    cycle = Perm.from_cycles(n, [tuple(range(1, n + 1))])
    if family == "cyclic":
        return FiniteGroup(n, named_generators={"x": cycle}, name=key)
    if family == "dihedral":
        y = Perm([(n - 2 - p) % n for p in range(n)])
        return FiniteGroup(n, named_generators={"x": cycle, "y": y}, name=key)
    if family == "symmetric":
        gens = {"a": cycle, "b": Perm.from_cycles(n, [(1, 2)])} if n > 1 else {"a": cycle}
        return FiniteGroup(n, named_generators=gens, name=key)
    b = cycle if n % 2 else Perm.from_cycles(n, [tuple(range(2, n + 1))])
    return FiniteGroup(n, named_generators={"a": Perm.from_cycles(n, [(1, 2, 3)]), "b": b},
                       name=key)


def json_int(payload, key: str, message: str) -> int:
    """payload[key] when payload is a JSON object and that value a JSON integer,
    an int that is not a bool; anything else raises GroupInputError(message)."""
    value = payload.get(key) if isinstance(payload, Mapping) else None
    if isinstance(value, bool) or not isinstance(value, int):
        raise GroupInputError(message)
    return value


def json_keys(payload, allowed: tuple[str, ...], what: str) -> None:
    """Refuse the keys of a JSON object that are not in allowed, naming them:
    a misspelled key must not be read as an absent one.  Anything but an
    object is left to `json_int`, which refuses it."""
    if not isinstance(payload, Mapping):
        return
    unknown = [key for key in payload if key not in allowed]
    if unknown:
        raise GroupInputError(f"{what} has unknown key{'s' if len(unknown) > 1 else ''} "
                              f"{', '.join(map(repr, unknown))}; the keys are "
                              f"{', '.join(map(repr, allowed))}")


def group_from_payload(payload: Mapping) -> FiniteGroup:
    """Build a group from the JSON group-specification object."""
    json_keys(payload, ("name", "degree", "generators"), "group spec")
    degree = json_int(payload, "degree", "group spec needs an integer 'degree'")
    _check_cap("group degree", degree, MAX_DEGREE, "points")
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
