"""Exact arithmetic in the cyclotomic field Q(zeta_e).

Values are polynomials in zeta_e over the power basis 1, zeta, ...,
zeta^(phi(e)-1), with arbitrary-precision rational coefficients, always
reduced modulo the e-th cyclotomic polynomial.  The reduced form is unique,
so equality is a coefficient comparison.  No floating point is involved
anywhere.

`Cyclo` is the general, Fraction-backed value type.  Character values are
algebraic integers, and the power basis is an integral basis of Z[zeta_e],
so the character-table hot paths keep plain integer coefficient tuples
instead (`reduce_integral` reduces them modulo the monic Phi_e without
leaving Z); rationals appear there only at the final division.
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

    def is_zero(self) -> bool:
        return not any(self.coeffs)

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

    def __truediv__(self, other) -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            return Cyclo(self.conductor, [c / other for c in self.coeffs])
        return self * _coerce(other).inverse()

    def __pow__(self, k: int) -> "Cyclo":
        if k < 0:
            return (self ** (-k)).inverse()
        acc = Cyclo.rational(1, self.conductor)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_e."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        lead = next(c for c in reversed(r0) if c)
        return Cyclo(self.conductor, [c / lead for c in s0])

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

    @staticmethod
    def from_json(payload: dict) -> "Cyclo":
        return Cyclo(
            int(payload["conductor"]),
            [Fraction(c) for c in payload["coeffs"]],
        )


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


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    while den and not den[-1]:
        den = den[:-1]
    num = list(num)
    if len(num) < len(den):
        return [Fraction(0)], num
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    inv_lead = 1 / den[-1]
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] * inv_lead
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return q, num[: len(den) - 1]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]
