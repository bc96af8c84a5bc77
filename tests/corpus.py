"""Fixed signature corpus shared by the property and acceptance suites.

Each case is a catalog group with a realizable signature (gamma in {0,1,2},
at most four branch values) and optionally some named subgroups given by
generator words.  The list is frozen: tests rely on every case having a
generating vector.
"""

from dataclasses import dataclass
from functools import lru_cache

from geosig.groups import FiniteGroup, Perm, catalog
from geosig.signature import BranchEntry, GeometricSignature


@dataclass(frozen=True)
class CorpusCase:
    group_name: str
    gamma: int
    branch_words: tuple[str, ...]
    subgroup_words: tuple[tuple[str, ...], ...] = ()


CORPUS: tuple[CorpusCase, ...] = (
    CorpusCase("cyclic(2)", 1, ("x", "x")),
    CorpusCase("cyclic(2)", 2, ()),
    CorpusCase("cyclic(3)", 0, ("x", "x", "x")),
    CorpusCase("cyclic(4)", 1, ("x^2", "x^2")),
    CorpusCase("cyclic(4)", 0, ("x", "x", "x^2")),
    CorpusCase("cyclic(6)", 0, ("x", "x", "x^4")),
    CorpusCase("cyclic(6)", 2, ()),
    CorpusCase("cyclic(8)", 0, ("x", "x", "x^6")),
    CorpusCase("cyclic(12)", 0, ("x", "x", "x^10")),
    CorpusCase("dihedral(3)", 0, ("y", "xy", "x")),
    CorpusCase("dihedral(4)", 0, ("x", "y", "xy"), (("y",), ("x",))),
    CorpusCase("dihedral(4)", 1, ("y", "x^2*y")),
    CorpusCase("dihedral(4)", 2, ()),
    CorpusCase("dihedral(6)", 0, ("y", "xy", "x^2*y", "x^3*y")),
    CorpusCase("dihedral(8)", 0, ("y", "xy", "x")),
    CorpusCase("symmetric(3)", 1, ("a",)),
    CorpusCase("symmetric(3)", 2, ()),
    CorpusCase("symmetric(4)", 0, ("b", "ab", "a"), (("ab",),)),
    CorpusCase("symmetric(4)", 1, ("b", "b")),
    CorpusCase("alternating(4)", 0, ("ab", "a", "b")),
    CorpusCase("quaternion8", 0, ("x", "y", "xy"), (("x",),)),
    CorpusCase("quaternion8", 2, ()),
    CorpusCase("wc3", 0, ("xa^2", "xyab", "xyzb"),
               (("y", "z", "xyzab"), ("y", "z", "ab"))),
    CorpusCase("wc3", 0, ("xa^2", "yab", "yzab"),
               (("y", "z", "xyzab"), ("y", "z", "ab"))),
)


@lru_cache(maxsize=None)
def group(name: str) -> FiniteGroup:
    return catalog(name)


def geometric_signature(G: FiniteGroup, gamma: int,
                        words: tuple[str, ...]) -> GeometricSignature:
    entries = []
    for w in words:
        g = G.element(w)
        sub = G.subgroup([g], label=w)
        cls = G.cyclic_subgroup_classes[G.cyclic_class_index(sub)]
        entries.append(BranchEntry(g.order(), cls, label=w))
    return GeometricSignature(gamma, tuple(entries))


def conj(t: Perm, g: Perm) -> Perm:
    """g conjugated by t, t * g * t^-1, by `Perm` products."""
    return t * g * t.inverse()


def materialize(case: CorpusCase):
    """(group, signature, named subgroups) for one corpus case."""
    G = group(case.group_name)
    sig = geometric_signature(G, case.gamma, case.branch_words)
    subs = [
        G.subgroup_from_words(list(words), label=",".join(words))
        for words in case.subgroup_words
    ]
    return G, sig, subs
