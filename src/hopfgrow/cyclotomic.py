"""Exact arithmetic in the cyclotomic field Q(zeta_N).

An element is a polynomial in zeta_N of degree < phi(N) = deg Phi_N with
integer coefficients over one common positive denominator, divided through
by their gcd (the nf_elem form of FLINT/Antic), so equality is
coefficient-wise.  Phi_N is monic with integer coefficients, so a product
is an integer convolution and reduction.  Fractions appear only at input
and output (rational, from_coeffs, coeffs) and within each division step
of inverse, which runs extended Euclid against Phi_N, makes each
remainder a primitive integer polynomial and keeps its Bezout
coefficients as field elements; one polynomial division serves it and
the construction of Phi_N.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .intmat import primitive_vector


def _poly_divmod(num, den):
    """(quotient, remainder) of coefficient lists (low-to-high) over Q,
    the remainder stripped of trailing zeros; den's top coefficient is
    nonzero.  Integer lists stay integer when den is monic."""
    rem = list(num)
    n = len(den) - 1
    lead = den[n]
    quo = [0] * max(0, len(rem) - n)
    for shift in range(len(rem) - n - 1, -1, -1):
        c = rem[shift + n]
        if c:
            if lead != 1:
                c = Fraction(c, lead)
            quo[shift] = c
            for i in range(n):
                rem[shift + i] -= c * den[i]
    del rem[n:]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients (low-to-high, ints) of the n-th cyclotomic polynomial."""
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    num = [-1] + [0] * (n - 1) + [1]
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            phi_d = cyclotomic_polynomial(d)
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                if a:
                    for j, b in enumerate(phi_d):
                        new[i + j] += a * b
            den = new
    return tuple(_poly_divmod(num, den)[0])


class CycloField:
    """The field Q(zeta_N) for a fixed conductor N.

    Keeps a lazily extended table of integer rows expressing zeta^m in the
    power basis for m >= phi(N) (Phi_N is monic with integer coefficients),
    so reduction of arbitrary products is integer arithmetic.

    The roots of unity of the field are exactly +-zeta^a.  They form a
    cyclic group of order unity_order = lcm(2, N), generated by rho = zeta
    for even N and rho = -zeta for odd N; every decision about roots of
    unity goes through the exponent k of rho^k, found by one lookup in an
    index built on first use.
    """

    def __init__(self, conductor):
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        self.conductor = conductor
        modulus = cyclotomic_polynomial(conductor)
        self.degree = len(modulus) - 1
        # zeta^degree = -(lower part of Phi_N), Phi_N being monic
        self._ext_rows = [tuple(-c for c in modulus[:-1])]
        self._zero = CycloRational(self, (0,) * self.degree, 1)
        self._one = CycloRational(self, (1,) + (0,) * (self.degree - 1), 1)
        self.unity_order = conductor if conductor % 2 == 0 else 2 * conductor
        self._root_index = None

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def rational(self, value):
        value = Fraction(value)
        return CycloRational(self, (value.numerator,) + (0,) * (self.degree - 1),
                             value.denominator)

    def zeta(self, power=1):
        """zeta_N^power as a field element."""
        power %= self.conductor
        if power < self.degree:
            nums = [0] * self.degree
            nums[power] = 1
            return CycloRational(self, tuple(nums), 1)
        return CycloRational(self, self._power_row(power), 1)

    def _power_row(self, m):
        d = self.degree
        while len(self._ext_rows) <= m - d:
            prev = self._ext_rows[-1]
            shifted = (0,) + prev[:-1]
            top = prev[-1]
            if top:
                base = self._ext_rows[0]
                shifted = tuple(shifted[i] + top * base[i] for i in range(d))
            self._ext_rows.append(shifted)
        return self._ext_rows[m - d]

    def _reduce(self, nums):
        """Integer coefficients of sum nums[m] * zeta^m in the power basis."""
        d = self.degree
        out = list(nums[:d])
        out.extend([0] * (d - len(out)))
        for m in range(d, len(nums)):
            c = nums[m]
            if c:
                row = self._power_row(m)
                for i in range(d):
                    out[i] += c * row[i]
        return tuple(out)

    def from_coeffs(self, coeffs):
        """The element sum coeffs[m] * zeta^m for rational coeffs."""
        coeffs = [Fraction(c) for c in coeffs]
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        nums = self._reduce([c.numerator * (den // c.denominator) for c in coeffs])
        return _canonical(self, nums, den)

    def zeta_multiple(self, x):
        """(a, r) with x = r * zeta^a for a rational r and the least a >= 0,
        or None when x is zero or no rational multiple of a root of unity.

        The index maps the primitive integer vector of zeta^a (its
        coefficients divided by their gcd, the first nonzero one made
        positive) to a and the factor s with zeta^a = s * vector; every
        rational multiple of zeta^a has the same key.  Building it costs
        O(N * phi(N)) once.
        """
        if x.is_zero():
            return None
        if self._root_index is None:
            index = {}
            for a in range(self.conductor):
                key, s = primitive_vector(self.zeta(a).nums)
                index.setdefault(key, (a, s))
            self._root_index = index
        key, s = primitive_vector(x.nums)
        hit = self._root_index.get(key)
        if hit is None:
            return None
        a, head = hit
        return a, Fraction(s, x.den * head)

    def root_exponent(self, x):
        """k in [0, unity_order) with x = rho^k, or None for a non-root."""
        hit = self.zeta_multiple(x)
        if hit is None or hit[1] not in (1, -1):
            return None
        a, r = hit
        # zeta = rho^(N+1) for odd N, and -1 = rho^(unity_order/2)
        k = a if self.conductor % 2 == 0 else a * (self.conductor + 1)
        if r == -1:
            k += self.unity_order // 2
        return k % self.unity_order

    def root_power(self, k):
        """rho^k as a field element."""
        root = self.zeta(k)
        return -root if self.conductor % 2 and k % 2 else root

    def root_order(self, k):
        """Multiplicative order of rho^k."""
        return self.unity_order // gcd(k, self.unity_order)

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.conductor == self.conductor

    def __hash__(self):
        return hash(("CycloField", self.conductor))

    def __repr__(self):
        return "CycloField(%d)" % self.conductor


def _canonical(field, nums, den):
    """The element nums / den (den > 0), divided through by the gcd."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(n // g for n in nums)
            den //= g
    return CycloRational(field, nums, den)


def _power(x, n, one):
    """x^n for an integer n by square-and-multiply, one being the unit of
    x's ring; a negative n raises x.inverse()."""
    if n == 0:
        return one
    base = x if n > 0 else x.inverse()
    n = abs(n)
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


class CycloRational:
    """An element nums / den of Q(zeta_N) in the power basis mod Phi_N.

    nums is a tuple of phi(N) integers and den a positive integer with
    gcd(den, *nums) = 1; zero is ((0, ...), 1).  The form is canonical,
    so equality and hashing compare (nums, den).  The constructor trusts
    its arguments to be canonical.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, nums, den):
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coeffs(self):
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self):
        return not any(self.nums)

    def is_one(self):
        return self.den == 1 and self.nums == self.field._one.nums

    def is_rational(self):
        return not any(self.nums[1:])

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed cyclotomic conductors %d and %d"
                             % (self.field.conductor, other.field.conductor))

    def __add__(self, other):
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            nums = tuple(a + b for a, b in zip(self.nums, other.nums))
            if da == 1:
                return CycloRational(self.field, nums, 1)
            return _canonical(self.field, nums, da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        nums = tuple(a * ma + b * mb for a, b in zip(self.nums, other.nums))
        return _canonical(self.field, nums, da * ma)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CycloRational(self.field, tuple(-a for a in self.nums), self.den)

    def _scale(self, p, q):
        """self * p / q for integers p, q with q > 0."""
        if q == 1 and p == 1:
            return self
        if not p:
            return self.field.zero()
        return _canonical(self.field, tuple(a * p for a in self.nums), self.den * q)

    def __mul__(self, other):
        if not isinstance(other, CycloRational):
            q = Fraction(other)
            return self._scale(q.numerator, q.denominator)
        self._check(other)
        a, b = self.nums, other.nums
        if not any(b[1:]):
            return self._scale(b[0], other.den)
        if not any(a[1:]):
            return other._scale(a[0], self.den)
        field = self.field
        d = field.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        nums = field._reduce(prod)
        den = self.den * other.den
        if den == 1:
            return CycloRational(field, nums, 1)
        return _canonical(field, nums, den)

    __rmul__ = __mul__

    def inverse(self):
        """1 / self by extended Euclid of nums against Phi_N: each Bezout
        coefficient is a field element s with s * nums(zeta) = r(zeta) for
        the current remainder r, and once r is a constant c the inverse of
        nums / den is s * den / c.  A remainder that goes on is made a
        primitive integer polynomial, its s scaled to match, so that the
        coefficients do not grow as Fractions do."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.field.conductor)
        if self.is_rational():
            return self.field.rational(Fraction(self.den, self.nums[0]))
        field = self.field
        r0, r1 = cyclotomic_polynomial(field.conductor), list(self.nums)
        while not r1[-1]:
            r1.pop()
        s0, s1 = field.zero(), field.one()
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            s0, s1 = s1, s0 - field.from_coeffs(q) * s1
            if len(r) > 1:
                d = lcm(*(c.denominator for c in r))
                r = [c.numerator * (d // c.denominator) for c in r]
                g = gcd(*r)
                if d != 1 or g != 1:
                    r = [c // g for c in r]
                    s1 = s1 * Fraction(d, g)
            r0, r1 = r1, r
        if not r1:
            # Phi_N is irreducible over Q, so the gcd must be a constant
            raise ArithmeticError("cyclotomic inversion failed")
        return s1 * Fraction(self.den, r1[0])

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        return _power(self, n, self.field.one())

    def __eq__(self, other):
        if not isinstance(other, CycloRational):
            if isinstance(other, (int, Fraction)):
                return self.is_rational() and Fraction(self.nums[0], self.den) == other
            return NotImplemented
        return (self.nums == other.nums and self.den == other.den
                and self.field == other.field)

    def __hash__(self):
        return hash((self.field.conductor, self.nums, self.den))

    def _at(self, prime, zeta_powers):
        """The image mod prime under zeta -> zeta_powers[1], or None when
        prime divides den; zeta_powers[i] is the image of zeta^i."""
        v = sum(n * z for n, z in zip(self.nums, zeta_powers))
        if self.den == 1:
            return v % prime
        if self.den % prime == 0:
            return None
        return v * pow(self.den, -1, prime) % prime

    def unity_order(self):
        """Multiplicative order if this is a root of unity, else None."""
        k = self.field.root_exponent(self)
        return None if k is None else self.field.root_order(k)

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                bits.append(str(c))
            else:
                z = "z" if i == 1 else "z^%d" % i
                if c == 1:
                    bits.append(z)
                elif c == -1:
                    bits.append("-" + z)
                else:
                    bits.append("%s*%s" % (c, z))
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out
