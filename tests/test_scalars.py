import math
import random
from fractions import Fraction

import pytest

from hopfgrow.scalars import (INFINITE, Scalar, ScalarDomain, ScalarShapeError,
                              UnitMonomial, _lp_add, _lp_eq, _lp_mul,
                              multiplicative_order, quantum_binomial,
                              subgroup_rank)


def binom(n, s):
    return math.comb(n, s)


@pytest.fixture
def dom():
    return ScalarDomain(12, ("q1", "q2"))


def test_basic_arithmetic(dom):
    q1 = dom.q(0)
    q2 = dom.q(1)
    assert q1 * q2 == q2 * q1
    assert (q1 + q2) - q2 == q1
    assert q1 * q1.inverse() == dom.one()
    x = (dom.one() + q1) / (dom.one() - q1)
    assert x * (dom.one() - q1) == dom.one() + q1
    assert (q1 ** -2) * (q1 ** 2) == dom.one()


def test_equality_by_cross_multiplication(dom):
    q1 = dom.q(0)
    one = dom.one()
    # (1 - q^2)/(1 - q) equals 1 + q without any gcd normalization
    a = (one - q1 * q1) / (one - q1)
    assert a == one + q1


def test_quantum_binomial_base_case(dom):
    lam = dom.q(0)
    assert quantum_binomial(2, 1, lam) == dom.one() + lam


def test_quantum_binomial_classical_limit(dom):
    one = dom.one()
    for n in range(9):
        for s in range(n + 1):
            assert quantum_binomial(n, s, one) == dom.rational(binom(n, s))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quantum_binomial_vanishes_at_primitive_root(p):
    dom = ScalarDomain(p)
    zp = dom.zeta()
    for s in range(1, p):
        assert quantum_binomial(p, s, zp).is_zero()


def test_quantum_binomial_s_above_n(dom):
    assert quantum_binomial(3, 4, dom.q(0)).is_zero()


def test_quantum_binomial_symmetry(dom):
    for lam in [dom.q(0), dom.zeta(4), dom.rational(-1)]:
        for n in range(9):
            for s in range(n + 1):
                assert quantum_binomial(n, s, lam) == quantum_binomial(n, n - s, lam)


def test_quantum_binomial_pascal_identity(dom):
    lam = dom.q(0)
    for n in range(1, 9):
        for s in range(1, n):
            lhs = quantum_binomial(n, s, lam)
            rhs = quantum_binomial(n - 1, s - 1, lam) + (lam ** s) * quantum_binomial(n - 1, s, lam)
            assert lhs == rhs


def test_quantum_binomial_vanishing_structure():
    # A middle Gaussian binomial vanishes only at roots of unity of order
    # 1 < d <= n, and all of them vanish exactly at primitive n-th roots.
    for conductor in range(1, 13):
        dom = ScalarDomain(conductor)
        values = [dom.zeta(a) for a in range(conductor)]
        values += [dom.rational(-1) * v for v in values]
        for lam in values:
            d = multiplicative_order(lam)
            for n in range(2, 9):
                mids = [quantum_binomial(n, s, lam) for s in range(1, n)]
                if any(v.is_zero() for v in mids):
                    assert d is not None and d is not INFINITE and 1 < d <= n
                all_vanish = all(v.is_zero() for v in mids)
                assert all_vanish == (d == n)


def test_multiplicative_order_examples():
    dom = ScalarDomain(6, ("q1",))
    assert multiplicative_order(dom.one()) == 1
    assert multiplicative_order(dom.zeta()) == 6
    assert multiplicative_order(dom.q(0)) is INFINITE
    assert multiplicative_order(dom.rational(-1)) == 2
    # not unit monomials: order undecidable here
    assert multiplicative_order(dom.rational(2)) is None
    assert multiplicative_order(dom.rational(2) * dom.q(0)) is None
    assert multiplicative_order(dom.one() + dom.q(0)) is None
    with pytest.raises(ZeroDivisionError):
        multiplicative_order(dom.zero())


def test_subgroup_rank_examples():
    dom = ScalarDomain(4, ("q1", "q2"))
    assert subgroup_rank([dom.zeta()]) == 0
    assert subgroup_rank([dom.q(0), dom.q(0) ** 2]) == 1
    assert subgroup_rank([dom.q(0), dom.q(1), dom.q(0) * dom.q(1)]) == 2
    assert subgroup_rank([]) == 0


def test_subgroup_rank_invariances():
    dom = ScalarDomain(4, ("q1", "q2"))
    gens = [dom.q(0), dom.zeta() * dom.q(1), dom.q(0) * dom.q(1) ** -3]
    base = subgroup_rank(gens)
    rng = random.Random(7)
    for _ in range(5):
        perm = gens[:]
        rng.shuffle(perm)
        flipped = [g.inverse() if rng.random() < 0.5 else g for g in perm]
        assert subgroup_rank(flipped) == base


def test_subgroup_rank_rejects_non_unit_monomial():
    dom = ScalarDomain(4, ("q1",))
    bad = dom.one() + dom.q(0)
    with pytest.raises(ScalarShapeError) as err:
        subgroup_rank([dom.q(0), bad])
    assert err.value.scalar is bad


def _random_scalar(dom, rng, allow_fraction=True):
    terms = dom.zero()
    for _ in range(rng.randint(1, 3)):
        coeff = dom.zeta(rng.randrange(dom.conductor)) * dom.rational(
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
        exps = tuple(rng.randint(-1, 1) for _ in range(dom.nvars))
        terms = terms + coeff * dom.monomial(1, exps)
    if allow_fraction and rng.random() < 0.3:
        den = dom.one() + dom.q(rng.randrange(dom.nvars))
        terms = terms / den
    return terms


def test_field_axioms_random_scalars():
    dom = ScalarDomain(6, ("q1", "q2"))
    rng = random.Random(42)
    for _ in range(20):
        a = _random_scalar(dom, rng)
        b = _random_scalar(dom, rng)
        c = _random_scalar(dom, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == dom.one()


def test_unit_monomial_detection(dom):
    um = (dom.zeta(3) * dom.q(0) ** 2 * dom.q(1) ** -1).as_unit_monomial()
    assert um is not None
    assert um.exps == (2, -1)
    assert um.root == dom.field.zeta(3)
    assert (dom.one() + dom.q(0)).as_unit_monomial() is None
    assert (dom.rational(2) * dom.q(0)).as_unit_monomial() is None
    # quotients of monomials normalize into unit-monomial shape
    assert (dom.q(0) / dom.q(1)).as_unit_monomial() is not None
    # the exponent of the root is kept modulo the number of roots
    w = dom.field.unity_order
    assert UnitMonomial(dom, w + 3, (2, -1)) == um
    assert UnitMonomial(dom, -w + 3, (2, -1)).to_scalar() == um.to_scalar()


@pytest.mark.parametrize("conductor", [1, 2, 3, 4, 6, 9, 12])
def test_unit_monomial_arithmetic_matches_scalars(conductor):
    dom = ScalarDomain(conductor, ("q1",))
    units = [(dom.zeta(a) * dom.rational(sign) * dom.q(0, e)).as_unit_monomial()
             for a in range(conductor) for sign in (1, -1) for e in (0, 1, -2)]
    scalars = [u.to_scalar() for u in units]
    for u, s in zip(units, scalars):
        for v, t in zip(units, scalars):
            assert (u == v) == (s == t)
            if u == v:
                assert hash(u) == hash(v)
    rng = random.Random(conductor)
    for _ in range(30):
        i, j = rng.randrange(len(units)), rng.randrange(len(units))
        u, v, s, t = units[i], units[j], scalars[i], scalars[j]
        n = rng.randint(-7, 7)
        assert (u * v).to_scalar() == s * t
        assert u.inverse().to_scalar() == s.inverse()
        assert (u ** n).to_scalar() == s ** n
        assert (u ** n).is_one() == (s ** n).is_one()
        if any(u.exps):
            assert u.order() is INFINITE
        else:
            power = s
            for order in range(1, dom.field.unity_order + 1):
                if power.is_one():
                    break
                power = power * s
            assert u.order() == order


def _by_hand(a, b):
    """Sum, product and equality of a and b by cross-multiplying num/den."""
    total = (_lp_add(_lp_mul(a.num, b.den), _lp_mul(b.num, a.den)),
             _lp_mul(a.den, b.den))
    product = (_lp_mul(a.num, b.num), _lp_mul(a.den, b.den))
    equal = _lp_eq(_lp_mul(a.num, b.den), _lp_mul(b.num, a.den))
    return total, product, equal


def _has_value(x, value):
    num, den = value
    return _lp_eq(_lp_mul(x.num, den), _lp_mul(num, x.den))


def _check_invariant(x):
    assert all(not c.is_zero() for c in x.num.values())
    assert all(not c.is_zero() for c in x.den.values())
    if len(x.den) == 1:
        assert x.den == {x.domain._e0: x.domain.field.one()}


def test_laurent_fast_path_matches_cross_multiplication():
    dom = ScalarDomain(12, ("q1", "q2"))
    rng = random.Random(20261018)
    q1, q2 = dom.q(0), dom.q(1)
    fraction_dens = [dom.one() + q1, q1 - dom.zeta() * q2, q1 * q1 + dom.rational(3)]
    pool = []
    for _ in range(12):
        x = _random_scalar(dom, rng, allow_fraction=False)
        pool.append(x)
        pool.append(x / fraction_dens[rng.randrange(len(fraction_dens))])
    pool += [dom.zero(), dom.one(), q1, -q1, q1 * q2 ** -2]
    # equal values built in different ways, on both paths
    pool += [q1 * q2, q2 * q1, (q1 + q2) - q2, (dom.one() - q1 * q1) / (dom.one() - q1),
             dom.one() + q1]
    laurent = 0
    for a in pool:
        _check_invariant(a)
        for b in pool:
            total, product, equal = _by_hand(a, b)
            s, p = a + b, a * b
            _check_invariant(s)
            _check_invariant(p)
            assert _has_value(s, total)
            assert _has_value(p, product)
            assert (a == b) == equal
            if len(a.den) == 1 and len(b.den) == 1:
                laurent += 1
                assert len(s.den) == 1 and len(p.den) == 1
    assert 0 < laurent < len(pool) ** 2
