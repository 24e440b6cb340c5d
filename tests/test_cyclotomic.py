import math
import random
from fractions import Fraction

import pytest

from hopfgrow.cyclotomic import CycloField, cyclotomic_polynomial, euler_phi


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_zeta_powers_and_relations():
    f = CycloField(5)
    z = f.zeta()
    assert (z ** 5).is_one()
    total = f.zero()
    for i in range(5):
        total = total + f.zeta(i)
    assert total.is_zero()
    # high powers reduce through the lazy table
    assert f.zeta(7) == z ** 7 == z ** 2


def test_minus_one_in_odd_conductor():
    f = CycloField(3)
    minus_one = f.rational(-1)
    assert minus_one.unity_order() == 2
    assert (-f.zeta()).unity_order() == 6
    assert f.unity_order == 6


def test_unity_orders():
    f = CycloField(6)
    assert f.zeta().unity_order() == 6
    assert f.zeta(2).unity_order() == 3
    assert f.zeta(3).unity_order() == 2
    assert f.one().unity_order() == 1
    assert (f.zeta() + f.one()).unity_order() is None
    assert f.rational(Fraction(2, 3)).unity_order() is None


def _order_by_powering(x):
    """Reference order: the least n <= lcm(2, N) with x^n = 1, else None.

    Every root of unity of Q(zeta_N) has order dividing lcm(2, N).
    """
    power = x
    for n in range(1, x.field.unity_order + 1):
        if power.is_one():
            return n
        power = power * x
    return None


@pytest.mark.parametrize("conductor", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15])
def test_unity_order_matches_powering(conductor):
    f = CycloField(conductor)
    for a in range(conductor):
        for sign in (1, -1):
            for r in (1, Fraction(2, 3)):
                x = f.zeta(a) * (sign * r)
                assert x.unity_order() == _order_by_powering(x), (a, sign, r)
        y = f.one() + f.zeta(a)
        if not y.is_zero():
            assert y.unity_order() == _order_by_powering(y), a
    assert f.zero().unity_order() is None
    if conductor != 3:  # 1 + zeta_3 = -zeta_3^2 is a root of unity
        assert (f.one() + f.zeta()).unity_order() is None


def _random_element(f, rng):
    return f.from_coeffs([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(f.degree)])


@pytest.mark.parametrize("conductor", [1, 2, 3, 4, 5, 6, 8, 12])
def test_field_axioms_random(conductor):
    rng = random.Random(1000 + conductor)
    f = CycloField(conductor)
    for _ in range(25):
        a = _random_element(f, rng)
        b = _random_element(f, rng)
        c = _random_element(f, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert (a * a.inverse()).is_one()
            assert a / a == f.one()


def test_inverse_of_zero_raises():
    f = CycloField(4)
    with pytest.raises(ZeroDivisionError):
        f.zero().inverse()


def _oracle_element(f, rng):
    """A seeded element with negative coefficients and denominators up to
    10^6: a common denominator, per-coefficient ones, or a rational."""
    kind = rng.randrange(3)
    if kind == 0:
        den = rng.randint(1, 10 ** 6)
        coeffs = [Fraction(rng.randint(-10 ** 6, 10 ** 6), den)
                  for _ in range(f.degree)]
    elif kind == 1:
        coeffs = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                  if rng.random() < 0.7 else Fraction(0) for _ in range(f.degree)]
    else:
        coeffs = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))]
    return f.from_coeffs(coeffs)


@pytest.mark.parametrize("conductor", [1, 2, 3, 4, 5, 7, 8, 9, 12, 15])
def test_arithmetic_matches_sympy(conductor):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    modulus = sympy.Poly(sympy.cyclotomic_poly(conductor, x), x, domain="QQ")
    assert tuple(int(c) for c in reversed(modulus.all_coeffs())) \
        == cyclotomic_polynomial(conductor)
    f = CycloField(conductor)

    def to_poly(e):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(e.coeffs)], x, domain="QQ")

    def coeffs_of(poly):
        low = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
        return tuple(low + [Fraction(0)] * (f.degree - len(low)))

    def check_canonical(e):
        assert e.den >= 1 and len(e.nums) == f.degree
        assert math.gcd(e.den, *e.nums) == 1
        assert all(isinstance(n, int) for n in e.nums)
        assert f.from_coeffs(e.coeffs) == e
        assert hash(f.from_coeffs(e.coeffs)) == hash(e)

    rng = random.Random(500 + conductor)
    for _ in range(12):
        a, b = _oracle_element(f, rng), _oracle_element(f, rng)
        pa, pb = to_poly(a), to_poly(b)
        assert coeffs_of(pa) == a.coeffs
        results = [(a + b, pa + pb), (a - b, pa - pb), (a * b, (pa * pb).rem(modulus))]
        if not a.is_zero():
            inv = pa.invert(modulus)
            results.append((a.inverse(), inv))
            n = rng.randint(-3, -1)
            results.append((a ** n, (inv ** -n).rem(modulus)))
        n = rng.randint(0, 4)
        results.append((a ** n, (pa ** n).rem(modulus)))
        for ours, theirs in results:
            check_canonical(ours)
            assert ours.coeffs == coeffs_of(theirs)
        # equal values built in different ways share one form and one hash
        assert a * b == b * a and hash(a * b) == hash(b * a)
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert f.zero().nums == (0,) * f.degree and f.zero().den == 1
    assert (f.rational(Fraction(3, 7)) - f.rational(Fraction(3, 7))).den == 1


@pytest.mark.parametrize("conductor", [1, 2, 3, 4, 5, 7, 8, 9, 12, 15])
def test_zeta_multiple_recovers_the_rational_factor(conductor):
    f = CycloField(conductor)
    for a in range(conductor):
        for r in (1, -1, Fraction(1, 2), Fraction(-3, 7), Fraction(10 ** 6, 999983)):
            x = f.zeta(a) * r
            b, s = f.zeta_multiple(x)
            assert b <= a and f.zeta(b) * s == x, (a, r)
            assert (x.unity_order() is None) == (r not in (1, -1)), (a, r)
    assert f.zeta_multiple(f.zero()) is None
