"""Exact arithmetic in the cyclotomic field Q(zeta_e).

Values are polynomials in zeta_e over the power basis 1, zeta, ...,
zeta^(phi(e)-1), with arbitrary-precision rational coefficients, always
reduced modulo the e-th cyclotomic polynomial.  The reduced form is unique,
so equality is a coefficient comparison.  No floating point is involved
anywhere.

Character values are algebraic integers, and the power basis is an
integral basis of Z[zeta_e], so the character table stores each value only
as a plain integer coefficient tuple (`reduce_integral` reduces products
modulo the monic Phi_e without leaving Z).  `Cyclo`, the Fraction-backed
value type, is the output and reference type: the table builds it for
JSON and text output, and the tests use it to recompute table quantities
independently.  It is a ring with division by scalars; nothing in the
engine inverts a cyclotomic number.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .errors import GroupInputError, NotRationalError

Scalar = Union[int, Fraction]


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_e, ascending degree, monic."""
    if e < 1:
        raise GroupInputError("conductor must be positive")
    if e == 1:
        return (-1, 1)
    # Phi_e = (x^e - 1) / prod of Phi_d over proper divisors d
    num = [-1] + [0] * (e - 1) + [1]
    for d in divisors(e)[:-1]:
        num = _exact_div(num, cyclotomic_polynomial(d))
    return tuple(num)


def _exact_div(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Divide integer polynomials (den monic); remainder must vanish."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact cyclotomic division")
    return q


@lru_cache(maxsize=None)
def euler_phi(e: int) -> int:
    return len(cyclotomic_polynomial(e)) - 1


class Cyclo:
    """An element of Q(zeta_e) in reduced power-basis form."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Iterable[Scalar]):
        phi = euler_phi(conductor)
        work = [Fraction(c) for c in coeffs]
        if len(work) > phi:
            work = _reduce(work, conductor)
        work += [Fraction(0)] * (phi - len(work))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(work))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo is immutable")

    @staticmethod
    def rational(value: Scalar, conductor: int = 1) -> "Cyclo":
        return Cyclo(conductor, [Fraction(value)])

    @staticmethod
    def zeta(conductor: int, power: int = 1) -> "Cyclo":
        k = power % conductor
        return Cyclo(conductor, [0] * k + [1])

    @staticmethod
    def zero(conductor: int = 1) -> "Cyclo":
        return Cyclo(conductor, [])

    # -- structure -----------------------------------------------------------

    def promoted(self, conductor: int) -> "Cyclo":
        """The same value viewed in Q(zeta_m) for a multiple m of the conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise GroupInputError(
                f"cannot embed conductor {self.conductor} into {conductor}"
            )
        step = conductor // self.conductor
        out = [Fraction(0)] * (euler_phi(self.conductor) * step + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] += c
        return Cyclo(conductor, out)

    def _pair(self, other: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        m = math.lcm(self.conductor, other.conductor)
        return self.promoted(m), other.promoted(m)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError(f"value is not rational: {self}")
        return self.coeffs[0]

    def integer_value(self) -> int:
        q = self.rational_value()
        if q.denominator != 1:
            raise NotRationalError(f"value is not an integer: {q}")
        return q.numerator

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "Cyclo":
        other = _coerce(other)
        a, b = self._pair(other)
        return Cyclo(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other) -> "Cyclo":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Cyclo":
        return _coerce(other) - self

    def __mul__(self, other) -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            return Cyclo(self.conductor, [c * other for c in self.coeffs])
        a, b = self._pair(_coerce(other))
        out = [Fraction(0)] * (2 * len(a.coeffs))
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    out[i + j] += x * y
        return Cyclo(a.conductor, out)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Cyclo":
        return Cyclo(self.conductor, [c / other for c in self.coeffs])

    def __pow__(self, k: int) -> "Cyclo":
        if k < 0:
            raise ValueError("negative powers of a cyclotomic number are not supported")
        acc = Cyclo.rational(1, self.conductor)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def conjugate(self) -> "Cyclo":
        """Complex conjugation, zeta -> zeta^-1."""
        if self.conductor <= 2:
            return self
        return self.galois(self.conductor - 1)

    def galois(self, k: int) -> "Cyclo":
        """The automorphism zeta -> zeta^k, for k coprime to the conductor."""
        e = self.conductor
        k %= e
        if math.gcd(k, e) != 1:
            raise GroupInputError(f"{k} is not coprime to the conductor {e}")
        out = [Fraction(0)] * e
        for i, c in enumerate(self.coeffs):
            out[(i * k) % e] += c
        return Cyclo(e, out)

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # mutable-free but compared across conductors; not hashable

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                z = f"z{self.conductor}" + (f"^{i}" if i > 1 else "")
                if c == 1:
                    term = z
                elif c == -1:
                    term = f"-{z}"
                else:
                    term = f"{c}*{z}"
                parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self) -> str:
        return f"Cyclo({self})"

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [str(c) for c in self.coeffs],
        }


def _coerce(value) -> Cyclo:
    if isinstance(value, Cyclo):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclo.rational(value)
    raise TypeError(f"cannot treat {value!r} as a cyclotomic number")


def reduce_integral(coeffs: Sequence[int], conductor: int) -> tuple[int, ...]:
    """The phi(e) power-basis coefficients of the integer polynomial
    sum coeffs[i] * zeta_e^i; Phi_e is monic, so they stay integers."""
    phi = euler_phi(conductor)
    work = _reduce(list(coeffs), conductor) if len(coeffs) > phi else list(coeffs)
    return tuple(work) + (0,) * (phi - len(work))


def _reduce(coeffs: list, conductor: int) -> list:
    """Reduce modulo Phi_e; integer input stays integer, Fraction input Fraction."""
    phi = cyclotomic_polynomial(conductor)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if not c:
            continue
        for j, pj in enumerate(phi):
            work[i - deg + j] -= c * pj
    return work[:deg]
