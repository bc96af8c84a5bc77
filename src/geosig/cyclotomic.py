"""Cyclotomic polynomials, integer reduction in Z[zeta_e], and the printer of
character values.

A value of Z[zeta_e] is the tuple of its phi(e) integer coefficients in the
power basis 1, zeta, ..., zeta^(phi(e)-1), which is an integral basis, so
the character table stores each value only in that form.  Phi_e is monic,
so `reduce_integral` reduces an integer polynomial in zeta modulo Phi_e
without leaving Z.  The package does no other arithmetic in Q(zeta_e): the
lift, the norms and the Galois data are integer sums over the rows (see
chartable.py), and `value_str` and `value_json` print a value from its
conductor and coefficients, for the JSON and text output and the error
messages.  No floating point is involved anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import GroupInputError, InternalCheckError


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_e, ascending degree, monic."""
    if e < 1:
        raise GroupInputError("conductor must be positive")
    if e == 1:
        return (-1, 1)
    # Phi_e = (x^e - 1) / prod of Phi_d over proper divisors d
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
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
        raise InternalCheckError("inexact cyclotomic division")
    return q


@lru_cache(maxsize=None)
def euler_phi(e: int) -> int:
    return len(cyclotomic_polynomial(e)) - 1


def reduce_integral(coeffs: Sequence[int], conductor: int) -> tuple[int, ...]:
    """The phi(e) power-basis coefficients of the integer polynomial
    sum coeffs[i] * zeta_e^i; Phi_e is monic, so they stay integers."""
    poly = cyclotomic_polynomial(conductor)
    deg = len(poly) - 1
    work = list(coeffs) + [0] * (deg - len(coeffs))
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, pj in enumerate(poly):
                work[i - deg + j] -= c * pj
    return tuple(work[:deg])


def value_str(conductor: int, coeffs: Sequence[int]) -> str:
    """The value sum coeffs[i] * zeta^i, coeffs in the power basis of
    Z[zeta_conductor], as the text table prints it: a rational value as its
    number, any other as its nonzero terms, such as `1+2*z5^2`."""
    if not any(coeffs[1:]):
        return str(coeffs[0])
    parts = []
    for i, c in enumerate(coeffs):
        if c:
            z = f"z{conductor}" + (f"^{i}" if i > 1 else "")
            term = str(c) if i == 0 else z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}"
            parts.append(term if not parts or term.startswith("-") else "+" + term)
    return "".join(parts)


def value_json(conductor: int, coeffs: Sequence[int]) -> dict:
    """The same value as the JSON output prints it."""
    return {"conductor": conductor, "coeffs": [str(c) for c in coeffs]}
