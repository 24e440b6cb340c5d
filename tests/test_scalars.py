import math
import operator
import random
from fractions import Fraction

import pytest

from hopfgrow.cyclotomic import cyclotomic_polynomial
from hopfgrow.scalars import (INFINITE, Scalar, ScalarDomain, ScalarShapeError,
                              UnitMonomial, _is_prime, _lp_add, _lp_mul, _point,
                              _powers_cancel, multiplicative_order, quantum_binomial,
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


def test_exact_fraction_is_a_laurent_polynomial(dom):
    # a denominator that divides the numerator is divided out: the scalar
    # keeps the denominator 1 and prints as a Laurent polynomial
    q1 = dom.q(0)
    one = dom.one()
    a = (one - q1 * q1) / (one - q1)
    assert len(a.den) == 1 and repr(a) == "1 + q1"
    assert len((one / (one + q1)).den) == 2


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


@pytest.mark.parametrize("conductor", [1, 2, 3, 6])
def test_powers_cancel_matches_scalar_powers(conductor):
    # u^a v^b = 1 decided on the exponents, against the scalar product
    dom = ScalarDomain(conductor, ("q1", "q2"))
    units = [(dom.zeta(a) * dom.rational(sign) * dom.q(0, e) * dom.q(1, -e))
             .as_unit_monomial()
             for a in range(conductor) for sign in (1, -1) for e in (0, 1, -2)]
    exponents = range(-2, 5)
    powers = [{a: u.to_scalar() ** a for a in exponents} for u in units]
    rng = random.Random(conductor)
    cancels = set()
    for _ in range(1500):
        i, j = rng.randrange(len(units)), rng.randrange(len(units))
        a, b = rng.choice(exponents), rng.choice(exponents)
        expected = (powers[i][a] * powers[j][b]).is_one()
        assert _powers_cancel(units[i], a, units[j], b) == expected, (i, a, j, b)
        cancels.add(expected)
    assert cancels == {True, False}


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
    equal = _lp_mul(a.num, b.den) == _lp_mul(b.num, a.den)
    return total, product, equal


def _has_value(x, value):
    num, den = value
    return _lp_mul(x.num, den) == _lp_mul(num, x.den)


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


@pytest.mark.parametrize("conductor", [1, 2, 3, 12, 1000])
def test_point_shape(conductor):
    prime, zeta_powers, qs = _point(conductor, 2)
    assert prime < 2 ** 30 and (prime - 1) % conductor == 0
    assert all(prime % d for d in range(2, math.isqrt(prime) + 1))
    # zeta goes to a root of Phi_N mod P, so Q(zeta_N) maps into Z/P
    zeta = zeta_powers[1] if len(zeta_powers) > 1 else (-1) ** (conductor - 1)
    phi = cyclotomic_polynomial(conductor)
    assert sum(c * pow(zeta, i, prime) for i, c in enumerate(phi)) % prime == 0
    assert zeta_powers == tuple(pow(zeta, i, prime) for i in range(len(phi) - 1))
    assert len(qs) == 2 and all(0 < q < prime for q in qs)
    assert _point(conductor, 2) is _point(conductor, 2)


def test_value_at_point_is_a_homomorphism(dom):
    point = _point(12, 2)
    prime = point[0]
    rng = random.Random(5)
    pool = [dom.zeta(rng.randrange(12)) * dom.q(0, rng.randint(-2, 2))
            * dom.q(1, rng.randint(-2, 2)) * dom.rational(Fraction(rng.randint(-3, 3), 7))
            for _ in range(12)]
    for _ in range(60):
        a = pool[rng.randrange(12)] + pool[rng.randrange(12)] * pool[rng.randrange(12)]
        b = pool[rng.randrange(12)] - pool[rng.randrange(12)]
        va, vb = a._at(point), b._at(point)
        assert (a + b)._at(point) == (va + vb) % prime
        assert (a * b)._at(point) == va * vb % prime
        if vb:
            assert (a / b)._at(point) == va * pow(vb, -1, prime) % prime


def test_value_at_point_missing(dom):
    # no value where P divides a rational denominator, or where a true
    # fraction's denominator vanishes at the point
    prime, _, (q1, _) = point = _point(12, 2)
    assert dom.rational(Fraction(3, prime))._at(point) is None
    assert dom.rational(Fraction(prime, 3))._at(point) == 0
    assert (dom.one() / (dom.q(0) - dom.rational(q1)))._at(point) is None
    assert (dom.q(0) / (dom.q(0) - dom.rational(q1 + 1)))._at(point) == prime - q1


# -- the one shortcuts: x * 1 returns x, dict == decides equality, and no
# operation changes an operand's num or den.  The oracle multiplies and
# adds num/den dicts with its own loops, so it shares no code with
# scalars._lp_mul, _lp_add or elements.add_term.
def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out[e] + ca * cb if e in out else ca * cb
    return {e: c for e, c in out.items() if not c.is_zero()}


def _poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if not c.is_zero()}


def _same_value(x, num, den):
    """Whether x = num/den, by cross-multiplication."""
    return _poly_mul(x.num, den) == _poly_mul(num, x.den)


def _snapshot(*scalars):
    return [sorted((e, c.nums, c.den) for e, c in side.items())
            for x in scalars for side in (x.num, x.den)]


def _shortcut_pool(conductor, seed):
    dom = ScalarDomain(conductor, ("q1", "q2"))
    rng = random.Random(seed)
    one, q1, q2 = dom.one(), dom.q(0), dom.q(1)
    dens = [one + q1, q1 - dom.zeta() * q2, q1 * q1 + dom.rational(3)]
    pool = [dom.zero(), one, -one, q1, q1 * q2 ** -1, dom.zeta(), one + q1,
            q1 / (one + q1), (one + q1) / (one + q1), (one + q1) / (q1 + one),
            (q2 - q1) / (q1 - dom.zeta() * q2) * (q1 - dom.zeta() * q2) / (q2 - q1)]
    for _ in range(10):
        x = _random_scalar(dom, rng, allow_fraction=False)
        pool += [x, x / dens[rng.randrange(len(dens))]]
    return dom, pool


@pytest.mark.parametrize("conductor", [1, 3, 4])
def test_shortcuts_match_cross_multiplication(conductor):
    dom, pool = _shortcut_pool(conductor, 2026 + conductor)
    one = dom.one()
    assert sum(len(x.den) > 1 for x in pool) >= 5
    assert sum(x.is_one() for x in pool) >= 3
    # an int or Fraction factor becomes a Scalar first, also beside one
    for value in (3, Fraction(1, 2)):
        assert isinstance(one * value, Scalar) and one * value == dom.rational(value)
    for a in pool:
        _check_invariant(a)
        assert a.is_one() == _same_value(a, one.num, one.den)
        # a * one is a; one * a is a unless a is one too, when it is one
        assert a * one is a and a * 1 is a
        assert one * a is a or a.is_one() and one * a is one
        for b in pool:
            assert (a == b) == (_poly_mul(a.num, b.den) == _poly_mul(b.num, a.den))
            den = _poly_mul(a.den, b.den)
            s, p = a + b, a * b
            _check_invariant(s)
            _check_invariant(p)
            assert _same_value(s, _poly_add(_poly_mul(a.num, b.den),
                                            _poly_mul(b.num, a.den)), den)
            assert _same_value(p, _poly_mul(a.num, b.num), den)


@pytest.mark.parametrize("conductor", [1, 3, 4])
def test_operations_leave_operands_unchanged(conductor):
    dom, pool = _shortcut_pool(conductor, 7 * conductor)
    unary = [operator.neg, lambda x: x ** 2, Scalar.is_one]
    nonzero = [Scalar.inverse, lambda x: x ** -2]
    binary = [operator.add, operator.sub, operator.mul, operator.eq]
    results = []
    one_lp = {dom._e0: dom.field.one()}
    assert dom._one_lp == one_lp

    def run(op, *operands):
        before = _snapshot(dom.one(), *operands)
        results.append(op(*operands))
        assert _snapshot(dom.one(), *operands) == before, (op, operands)

    for a in pool:
        for op in unary + (nonzero if not a.is_zero() else []):
            run(op, a)
        for b in pool:
            for op in binary + ([operator.truediv] if not b.is_zero() else []):
                run(op, a, b)
    # every Laurent scalar, results included, shares the domain's one dict
    assert dom._one_lp == one_lp and dom.one().num is dom._one_lp
    scalars = pool + [x for x in results if isinstance(x, Scalar)]
    assert all(x.den is dom._one_lp for x in scalars if len(x.den) == 1)


def _prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    # every n below 20,000 holds the strong pseudoprimes to base 2 there
    # (2047, 3277, 4033, ...); then every candidate the search of _point
    # visits for N = 1..60, and random n below 2^30
    candidates = list(range(20000))
    for conductor in range(1, 61):
        n = (2 ** 30 - 2) // conductor * conductor + 1
        while not _prime_by_trial_division(n):
            candidates.append(n)
            n -= conductor
        candidates.append(n)
    rng = random.Random(1313)
    candidates += [rng.randrange(2 ** 30) for _ in range(2000)]
    for n in candidates:
        assert _is_prime(n) == _prime_by_trial_division(n), n


@pytest.mark.parametrize("conductor, prime", [
    (1, 1073741789), (3, 1073741719), (7, 1073741789), (12, 1073741689)])
def test_point_prime_is_pinned(conductor, prime):
    assert _point(conductor, 1)[0] == prime
