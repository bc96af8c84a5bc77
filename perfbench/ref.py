"""Reference arithmetic for the benchmark's correctness checks.

Nothing here imports geosig.  Permutations are plain tuples of 0-based
images and multiply left to right, `mul(p, q)` = "apply p, then q", which
is the convention the paper and geosig's README use for words and for the
product relation prod[a_i, b_i] * prod c_j = 1 with [a, b] = a b a^-1 b^-1.
Every function raises `ReferenceFailure` or returns a list of problems;
none of them repairs its input.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction


class ReferenceFailure(Exception):
    """An output disagreed with a reference, or reference data is inconsistent."""


# -- permutations as tuples ----------------------------------------------------


def parse_cycles(degree: int, text: str) -> tuple:
    """1-based disjoint cycles such as "(1,2,3)(4,5)" to a 0-based image tuple."""
    img = list(range(degree))
    text = text.replace(" ", "")
    if text in ("", "()"):
        return tuple(img)
    if not re.fullmatch(r"(\(\d+(,\d+)+\))+", text):
        raise ReferenceFailure(f"bad cycle notation {text!r}")
    seen = set()
    for part in re.findall(r"\(([\d,]+)\)", text):
        pts = [int(p) - 1 for p in part.split(",")]
        if seen & set(pts) or len(set(pts)) != len(pts) or not all(0 <= p < degree for p in pts):
            raise ReferenceFailure(f"cycles in {text!r} are not disjoint points of 1..{degree}")
        seen |= set(pts)
        for i, p in enumerate(pts):
            img[p] = pts[(i + 1) % len(pts)]
    return tuple(img)


def mul(p: tuple, q: tuple) -> tuple:
    return tuple(q[v] for v in p)


def inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def order(p: tuple) -> int:
    seen, out = set(), 1
    for start in range(len(p)):
        if start in seen:
            continue
        n, v = 0, start
        while v not in seen:
            seen.add(v)
            v = p[v]
            n += 1
        out = math.lcm(out, n)
    return out


def sign(p: tuple) -> int:
    """+1 for even permutations, -1 for odd ones."""
    seen, s = set(), 1
    for start in range(len(p)):
        v, n = start, 0
        while v not in seen:
            seen.add(v)
            v = p[v]
            n += 1
        if n and n % 2 == 0:
            s = -s
    return s


def closure(gens, degree: int) -> frozenset:
    ident = tuple(range(degree))
    elems, frontier = {ident}, [ident]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in elems:
                    elems.add(y)
                    fresh.append(y)
        frontier = fresh
    return frozenset(elems)


def _small_generators(members, degree: int) -> list:
    """A generating set of at most log2 |members| elements, picked greedily."""
    gens, span = [], closure([], degree)
    for g in sorted(members):
        if g not in span:
            gens.append(g)
            span = closure(gens, degree)
    return gens


def commutator(a: tuple, b: tuple) -> tuple:
    return mul(mul(mul(a, b), inv(a)), inv(b))


# -- groups given by their own generator data ----------------------------------


class RefGroup:
    """A group rebuilt from generator cycles, checked against its known order."""

    def __init__(self, degree: int, generators: dict, known_order: int):
        self.degree = degree
        self.gens = {k: parse_cycles(degree, v) for k, v in generators.items()}
        self.elements = closure(self.gens.values(), degree)
        self.identity = tuple(range(degree))
        if len(self.elements) != known_order:
            raise ReferenceFailure(
                f"generators close to {len(self.elements)} elements, expected {known_order}"
            )

    def element(self, text: str) -> tuple:
        """Cycle notation, or a word in single-letter generator names such as "xa^2"."""
        if text.startswith("("):
            g = parse_cycles(self.degree, text)
        elif not re.fullmatch(r"([A-Za-z](\^-?\d+)?)+", text):
            raise ReferenceFailure(f"bad word {text!r}")
        else:
            g = self.identity
            for name, exp in re.findall(r"([A-Za-z])(?:\^(-?\d+))?", text):
                base = self.gens[name] if not exp or int(exp) >= 0 else inv(self.gens[name])
                for _ in range(abs(int(exp)) if exp else 1):
                    g = mul(g, base)
        if g not in self.elements:
            raise ReferenceFailure(f"{text!r} is not in the group")
        return g

    def class_count(self) -> int:
        gens = list(self.gens.values())
        left, count = set(self.elements), 0
        while left:
            orbit = {left.pop()}
            stack = list(orbit)
            while stack:
                h = stack.pop()
                for t in gens:
                    c = mul(mul(t, h), inv(t))
                    if c not in orbit:
                        orbit.add(c)
                        stack.append(c)
            left -= orbit
            count += 1
        return count

    def exponent(self) -> int:
        return math.lcm(*(order(g) for g in self.elements))

    def same_cyclic_class(self, c: tuple, rep: tuple) -> bool:
        """Is <c> conjugate to <rep>?"""
        target, g = set(), rep
        while g not in target:
            target.add(g)
            g = mul(g, rep)
        return any(mul(mul(t, c), inv(t)) in target for t in self.elements)

    def is_solvable(self) -> bool:
        """Walk the derived series, each term the normal closure of commutators."""
        gens, size = list(self.gens.values()), len(self.elements)
        while size > 1:
            sub = [commutator(x, y) for x in gens for y in gens]
            members = closure(sub, self.degree)
            while True:
                fresh = {mul(mul(t, s), inv(t)) for s in sub for t in gens} - members
                if not fresh:
                    break
                sub += sorted(fresh)
                members = closure(sub, self.degree)
            if len(members) == size:
                return False
            gens, size = _small_generators(members, self.degree), len(members)
        return True

    def vector_problems(self, gamma: int, orders, reps, vec: dict) -> list:
        """Recheck a witness {"a": [...], "b": [...], "c": [...]} in cycle notation."""
        try:
            a = [self.element(s) for s in vec["a"]]
            b = [self.element(s) for s in vec["b"]]
            c = [self.element(s) for s in vec["c"]]
        except ReferenceFailure as exc:
            return [str(exc)]
        if (len(a), len(b), len(c)) != (gamma, gamma, len(orders)):
            return [f"witness shape {(len(a), len(b), len(c))} for gamma {gamma}"]
        out = []
        for j, (cj, m) in enumerate(zip(c, orders)):
            if order(cj) != m:
                out.append(f"c{j + 1} has order {order(cj)}, not {m}")
            if reps[j] is not None and not self.same_cyclic_class(cj, self.element(reps[j])):
                out.append(f"<c{j + 1}> is not conjugate to <{reps[j]}>")
        prod = self.identity
        for x, y in zip(a, b):
            prod = mul(prod, commutator(x, y))
        for cj in c:
            prod = mul(prod, cj)
        if prod != self.identity:
            out.append("product relation fails")
        if closure(a + b + c, self.degree) != self.elements:
            out.append("witness does not generate the group")
        return out


# -- hand proofs of nonexistence -------------------------------------------------


def proof_problems(G: RefGroup, proof: str, gamma: int, orders, reps) -> list:
    """Check that the premise of a recorded nonexistence proof holds."""
    if proof == "parity":
        # commutators are even, so an odd product of branch classes cannot be 1
        if None in reps:
            return ["parity proof needs every branch class fixed"]
        if math.prod(sign(G.element(r)) for r in reps) != -1:
            return ["branch classes multiply to an even permutation"]
        return []
    if proof == "euclidean-triangle":
        # (0; p, q, r) with 1/p + 1/q + 1/r = 1 is a solvable crystallographic
        # group, so it has no quotient onto a non-solvable group
        if gamma != 0 or len(orders) != 3 or sum(Fraction(1, m) for m in orders) != 1:
            return ["signature is not a Euclidean triangle signature"]
        if G.is_solvable():
            return ["group is solvable, the proof does not apply"]
        return []
    if proof == "proper-normal-subgroup":
        # with gamma = 0 the branch elements lie in the normal closure of the
        # class representatives; if that is proper they cannot generate
        if gamma != 0 or None in reps:
            return ["proof needs gamma 0 and every branch class fixed"]
        sub = [G.element(r) for r in reps]
        members = closure(sub, G.degree)
        normal = all(mul(mul(t, s), inv(t)) in members for s in sub for t in G.gens.values())
        if not normal or len(members) == len(G.elements):
            return ["branch classes do not lie in a proper normal subgroup"]
        return []
    return [f"unknown proof {proof!r}"]


# -- genus arithmetic ------------------------------------------------------------


def riemann_hurwitz(group_order: int, gamma: int, orders) -> Fraction:
    """Genus g with 2g - 2 = |G| (2 gamma - 2 + sum (1 - 1/m))."""
    total = Fraction(2 * gamma - 2) + sum(1 - Fraction(1, m) for m in orders)
    return (group_order * total + 2) / 2


def cover_genus(degree: int, gamma: int, cycle_structures) -> Fraction:
    """Genus of a degree-n cover of a genus-gamma curve from its branch cycle types."""
    ramification = sum(e - 1 for cs in cycle_structures for e in cs)
    return (degree * (2 * gamma - 2) + ramification + 2) / Fraction(2)


def oracle_mismatch(report: dict) -> bool:
    """Does the embedded oracle differ from the closed form of a cover report?"""
    oracle = report.get("oracle")
    cycles = [bv["cycle_structure"] for bv in report["branch_values"]]
    return oracle is not None and (oracle["genus"], oracle["cycle_structures"]) != (
        report["genus"], cycles)


def report_problems(report: dict, gamma: int) -> list:
    """One cover report in geosig's JSON form: Riemann-Hurwitz, and the oracle if present."""
    cycles = [bv["cycle_structure"] for bv in report["branch_values"]]
    out = []
    if cover_genus(report["degree"], gamma, cycles) != report["genus"]:
        out.append(f"cover of degree {report['degree']} fails Riemann-Hurwitz")
    if oracle_mismatch(report):
        out.append(f"oracle disagrees with the closed form on degree {report['degree']}")
    return out


def decomposition_problems(dec: dict, genus: int) -> list:
    """The fields of a decomposition that do not depend on Schur indices.

    `summary`, `e`, `dim_B` and `exponent` each depend on the Schur index, which
    geosig only bounds; their product dim_B * exponent does not.
    """
    out = []
    classes = dec["classes"]
    ns = [c["n"] for c in classes]
    if dec["total_genus"] != genus:
        out.append(f"total genus {dec['total_genus']}, Riemann-Hurwitz gives {genus}")
    if dec["omega"]["solution"] != ns or min(ns) < 0:
        out.append("omega solution differs from the multiplicities, or one is negative")
    if sum(c["field_degree"] * c["degree"] * c["n"] for c in classes) != 2 * genus:
        out.append("sum of field_degree * degree * n is not 2g")
    if sum(c["dim_B"] * c["exponent"] for c in classes) != genus:
        out.append("sum of dim_B * exponent is not g")
    return out


# -- character tables ---------------------------------------------------------


def _value(v: dict) -> complex:
    e = int(v["conductor"])
    return sum(float(Fraction(c)) * cmath.exp(2j * math.pi * k / e)
               for k, c in enumerate(v["coeffs"]) if c != "0")


def table_problems(table: dict, order: int, classes: int, exponent=None,
                   degrees=None) -> list:
    """Check a chartab JSON payload against known invariants and orthogonality."""
    out = []
    head = table["group"]
    if head["order"] != order:
        out.append(f"order {head['order']}, expected {order}")
    if exponent is not None and head["exponent"] != exponent:
        out.append(f"exponent {head['exponent']}, expected {exponent}")
    sizes = [c["size"] for c in table["classes"]]
    chars = table["characters"]
    if len(sizes) != classes or len(chars) != classes:
        return out + [f"{len(sizes)} classes, {len(chars)} characters, expected {classes}"]
    if sum(sizes) != order or any(order % s for s in sizes):
        out.append("class sizes do not partition the group")
    got = sorted(ch["degree"] for ch in chars)
    if degrees is not None and got != sorted(degrees):
        out.append(f"degrees {got}, expected {sorted(degrees)}")
    if sum(d * d for d in got) != order:
        out.append("squared degrees do not sum to the group order")
    vals = [[_value(v) for v in ch["values"]] for ch in chars]
    tol = 1e-6 * order
    for i, row in enumerate(vals):
        if abs(row[0] - chars[i]["degree"]) > tol:
            out.append(f"chi{i} at the identity is not its degree")
        for j in range(i, classes):
            inner = sum(s * x * y.conjugate() for s, x, y in zip(sizes, row, vals[j]))
            if abs(inner - (order if i == j else 0)) > tol:
                out.append(f"rows {i}, {j} are not orthogonal")
    for k, s in enumerate(sizes):
        norm = sum(abs(row[k]) ** 2 for row in vals)
        if abs(norm - order / s) > tol:
            out.append(f"column {k} has the wrong norm")
    return out
