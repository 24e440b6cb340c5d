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
