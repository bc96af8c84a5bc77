"""Reference arithmetic in the cyclotomic field Q(zeta_e), for the tests.

The engine keeps each character value only as its integer row over
Z[zeta_e] and computes every table quantity from integer sums over the
rows.  The tests recompute those quantities here, in a field arithmetic
that the package does not ship, so that no engine change can start to
read its own reference.

Values are polynomials in zeta_e over the power basis 1, zeta, ...,
zeta^(phi(e)-1), with exact rational coefficients, always reduced modulo
the e-th cyclotomic polynomial.  The reduced form is unique, so equality is
a coefficient comparison.  An integer coefficient is an `int`, any other a
`Fraction`, and only division by a scalar can leave Z.  A `Cyclo` prints
through the package's printer, so `str` and `to_json` are the output's.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from geosig.cyclotomic import cyclotomic_polynomial, euler_phi, value_json, value_str
from geosig.errors import GroupInputError

Scalar = Union[int, Fraction]


class NotRationalError(ArithmeticError):
    """A value asked for as a rational (or an integer) is not one."""


def character_values(chi, exponent: int) -> tuple["Cyclo", ...]:
    """The values of a character of a group of that exponent, one per class,
    built from its stored row."""
    return tuple(Cyclo(exponent, v) for v in chi.row)


def cyclo_average(chi, G, elements, divisor) -> int:
    """Sum chi over the elements of G one by one in Cyclo, then divide: the
    reference for the table's fixed dimensions and indicators."""
    values = character_values(chi, G.exponent)
    total = Cyclo.zero(G.exponent)
    for g in elements:
        total = total + values[G.class_index[g]]
    return (total / divisor).integer_value()


class Cyclo:
    """An element of Q(zeta_e) in reduced power-basis form."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Iterable[Scalar]):
        phi = euler_phi(conductor)
        work = [_exact(c) for c in coeffs]
        if len(work) > phi:
            work = [_exact(c) for c in _reduce(work, conductor)]
        work += [0] * (phi - len(work))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(work))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo is immutable")

    @staticmethod
    def rational(value: Scalar, conductor: int = 1) -> "Cyclo":
        return Cyclo(conductor, [value])

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
        out = [0] * (euler_phi(self.conductor) * step + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] += c
        return Cyclo(conductor, out)

    def _pair(self, other: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        m = math.lcm(self.conductor, other.conductor)
        return self.promoted(m), other.promoted(m)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Scalar:
        """The value as an `int` when it is an integer, else as a `Fraction`."""
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
        if not isinstance(other, Cyclo):
            k = _coerce(other).coeffs[0]  # a scalar scales each coefficient
            return Cyclo(self.conductor, [c * k for c in self.coeffs])
        a, b = self._pair(other)
        out = [0] * (2 * len(a.coeffs))
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    out[i + j] += x * y
        return Cyclo(a.conductor, out)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Cyclo":
        return Cyclo(self.conductor, [Fraction(c) / other for c in self.coeffs])

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
        out = [0] * e
        for i, c in enumerate(self.coeffs):
            out[(i * k) % e] += c
        return Cyclo(e, out)

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            a, b = self._pair(_coerce(other))
        except TypeError:
            return NotImplemented
        return a.coeffs == b.coeffs

    __hash__ = None  # compared across conductors, so not hashable

    def __str__(self) -> str:
        return value_str(self.conductor, self.coeffs)

    def __repr__(self) -> str:
        return f"Cyclo({self})"

    def to_json(self) -> dict:
        return value_json(self.conductor, self.coeffs)


def _exact(value) -> Scalar:
    """A coefficient as an int when it is an integer, else as a Fraction."""
    if isinstance(value, int):
        return int(value)  # a bool too
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def _coerce(value) -> Cyclo:
    """A Cyclo, or an exact scalar (an int, a bool or a Fraction) as a Cyclo."""
    if isinstance(value, Cyclo):
        return value
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot treat {value!r} as a cyclotomic number")
    return Cyclo.rational(value)


def _reduce(coeffs: list, conductor: int) -> list:
    """Reduce modulo Phi_e; integer input stays integer."""
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
