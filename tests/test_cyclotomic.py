"""The package's cyclotomic helpers (Phi_e, phi(e), the printer) and the
tests' reference field arithmetic, `Cyclo` of tests/cyclo_ref.py."""

import math
import random
from fractions import Fraction

import pytest

from cyclo_ref import Cyclo, NotRationalError
from geosig.cyclotomic import _exact_div, cyclotomic_polynomial, euler_phi, value_json, value_str
from geosig.errors import GroupInputError, InternalCheckError


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # first index with a coefficient other than 0, +-1 is e = 105
    assert 2 in {abs(c) for c in cyclotomic_polynomial(105)}


def test_an_inexact_cyclotomic_division_is_a_defect():
    # x^2 + 1 over x + 1 leaves the remainder 2
    with pytest.raises(InternalCheckError, match="^inexact cyclotomic division$"):
        _exact_div([1, 0, 1], (1, 1))


def test_phi():
    assert [euler_phi(e) for e in (1, 2, 3, 4, 8, 12)] == [1, 1, 2, 2, 4, 4]


def test_i_squared_is_minus_one():
    i = Cyclo.zeta(4)
    assert i * i == Cyclo.rational(-1)
    assert i * i == -1


def test_primitive_cube_roots_sum_to_minus_one():
    w = Cyclo.zeta(3)
    assert w + w * w == -1
    assert (w + w * w) + 1 == 0
    assert (w + w * w).rational_value() == Fraction(-1)


def test_conjugate_of_zeta5():
    z = Cyclo.zeta(5)
    # zeta^4 reduced by Phi_5: zeta^4 = -1 - z - z^2 - z^3
    assert z.conjugate() == Cyclo(5, [-1, -1, -1, -1])
    assert z.conjugate() == z ** 4


def test_rational_value_errors():
    assert Cyclo.rational(Fraction(7, 2)).rational_value() == Fraction(7, 2)
    with pytest.raises(NotRationalError):
        Cyclo.zeta(4).rational_value()
    with pytest.raises(NotRationalError):
        Cyclo.rational(Fraction(1, 2)).integer_value()


def test_galois_basic():
    z5 = Cyclo.zeta(5)
    v = z5 + z5 ** 4
    assert v.galois(1) == v
    assert v.galois(2) == z5 ** 2 + z5 ** 3
    i = Cyclo.zeta(4)
    assert i.galois(3) == -i
    with pytest.raises(GroupInputError):
        Cyclo.zeta(4).galois(2)


def test_galois_composition_law():
    rng = random.Random(7)
    for e in (5, 8, 12):
        units = [k for k in range(1, e) if math.gcd(k, e) == 1]
        v = Cyclo(e, [Fraction(rng.randint(-3, 3)) for _ in range(euler_phi(e))])
        for k1 in units:
            for k2 in units:
                assert v.galois(k2).galois(k1) == v.galois((k1 * k2) % e)


def test_galois_fixed_field_is_rational():
    rng = random.Random(11)
    for e in (3, 4, 5, 12):
        units = [k for k in range(1, e) if math.gcd(k, e) == 1]
        for _ in range(20):
            v = Cyclo(e, [Fraction(rng.randint(-4, 4)) for _ in range(euler_phi(e))])
            if all(v.galois(k) == v for k in units):
                assert v.is_rational()
        # and a value built as a full Galois orbit sum is always rational
        w = sum((Cyclo.zeta(e, k) for k in units), Cyclo.zero(e))
        assert w.is_rational()


def test_field_axioms_random():
    rng = random.Random(3)
    for e in range(1, 25):
        phi = euler_phi(e)
        vals = [
            Cyclo(e, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(phi)])
            for _ in range(3)
        ]
        a, b, c = vals
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0


def test_mixed_conductor_arithmetic():
    # zeta_3 embedded into conductor 6: zeta_6^2
    z3 = Cyclo.zeta(3)
    z6 = Cyclo.zeta(6)
    assert z3 == z6 ** 2
    assert z3 + z6 == z6 * z6 + z6
    assert (z6 ** 3) == -1


def test_scalar_operations():
    v = Cyclo.zeta(8)
    assert (v * 2) / 2 == v
    assert v * Fraction(1, 3) == v / 3
    assert 1 + v - 1 == v


def test_integers_stay_int():
    # an integer coefficient is an int whatever scalar it came as; only a
    # division that leaves Z builds a Fraction
    v = Cyclo.zeta(12) * 3 + Cyclo(12, [Fraction(4, 2), True, 0, -1, 1])
    assert all(type(c) is int for c in v.coeffs)
    assert all(type(c) is int for c in (v.galois(5) * v).promoted(24).coeffs)
    assert type(Cyclo.rational(Fraction(6, 3)).rational_value()) is int
    assert type(((Cyclo.rational(1) / 2) * 2).rational_value()) is int
    half = (Cyclo.rational(1) / 2).rational_value()
    assert type(half) is Fraction and half == Fraction(1, 2)


def test_exact_scalars_only():
    for scalar in (2, True, Fraction(3, 2)):
        assert Cyclo(3, [1]) * scalar == Cyclo(3, [scalar])
    with pytest.raises(TypeError):
        Cyclo(3, [1]) * 1.5
    with pytest.raises(TypeError):
        1.5 * Cyclo(3, [1])
    with pytest.raises(TypeError):
        Cyclo(3, [1]) + "1"
    assert Cyclo(3, [1]) != 1.0 and Cyclo(3, [1]) != None  # noqa: E711


def test_json_roundtrip():
    v = Cyclo(12, [Fraction(1, 2), 0, Fraction(-3), 1])
    payload = v.to_json()
    assert payload["conductor"] == 12


def test_str_forms():
    assert str(Cyclo.rational(5)) == "5"
    assert str(Cyclo.zeta(4)) == "z4"
    assert str(-Cyclo.zeta(4)) == "-z4"
    assert str(Cyclo(5, [1, 0, 2])) == "1+2*z5^2"


def test_printer_reads_integer_rows():
    # the output prints a row entry of phi(e) integer coefficients directly
    assert value_str(5, (1, 0, 2, 0)) == "1+2*z5^2"
    assert value_str(4, (0, -1)) == "-z4"
    assert value_str(12, (3, 0, 0, 0)) == "3"
    assert value_str(12, (0, 0, -2, 1)) == "-2*z12^2+z12^3"
    assert value_json(4, (0, 1)) == {"conductor": 4, "coeffs": ["0", "1"]}
    v = Cyclo(12, [0, 0, -2, 1])
    assert (str(v), v.to_json()) == (value_str(12, v.coeffs), value_json(12, v.coeffs))


def test_negative_power_is_refused():
    # the engine never inverts a cyclotomic number, so Cyclo has no inverse
    with pytest.raises(ValueError, match="negative powers"):
        Cyclo.zeta(5) ** -1
