"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are represented as polynomials in zeta_N of degree < phi(N),
reduced modulo the N-th cyclotomic polynomial, with Fraction coefficients.
Equality is coefficient-wise, so the representation is canonical.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

_ZERO = Fraction(0)
_ONE = Fraction(1)


def euler_phi(n):
    """Euler totient of a positive integer."""
    if n < 1:
        raise ValueError("euler_phi needs a positive integer")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod_int(num, den):
    """Exact division of integer coefficient lists (low-to-high).

    Raises if the division leaves a remainder; used only where divisibility
    is guaranteed (cyclotomic polynomial recursion).
    """
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        out[shift] = q
        if q:
            for i, d in enumerate(den):
                num[shift + i] -= q * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients (low-to-high, ints) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
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
    return tuple(_poly_divmod_int(num, den))


class CycloField:
    """The field Q(zeta_N) for a fixed conductor N.

    Keeps a lazily extended table expressing zeta^m in the power basis for
    m >= phi(N), so reduction of arbitrary products stays cheap.

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
        self.degree = euler_phi(conductor)
        modulus = cyclotomic_polynomial(conductor)
        self._modulus = tuple(Fraction(c) for c in modulus)
        # zeta^degree = -(lower part of Phi_N), Phi_N being monic
        self._ext_rows = [tuple(-Fraction(c) for c in modulus[:-1])]
        self._zero = CycloRational(self, (_ZERO,) * self.degree)
        one = [_ZERO] * self.degree
        one[0] = _ONE
        self._one = CycloRational(self, tuple(one))
        self.unity_order = conductor if conductor % 2 == 0 else 2 * conductor
        self._root_index = None

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def rational(self, value):
        coeffs = [_ZERO] * self.degree
        coeffs[0] = Fraction(value)
        return CycloRational(self, tuple(coeffs))

    def zeta(self, power=1):
        """zeta_N^power as a field element."""
        power %= self.conductor
        if power < self.degree:
            coeffs = [_ZERO] * self.degree
            coeffs[power] = _ONE
            return CycloRational(self, tuple(coeffs))
        return CycloRational(self, self._power_row(power))

    def _power_row(self, m):
        d = self.degree
        while len(self._ext_rows) <= m - d:
            prev = self._ext_rows[-1]
            shifted = [_ZERO] + list(prev[:-1])
            top = prev[-1]
            if top:
                base = self._ext_rows[0]
                shifted = [shifted[i] + top * base[i] for i in range(d)]
            self._ext_rows.append(tuple(shifted))
        return self._ext_rows[m - d]

    def _reduce(self, coeffs):
        d = self.degree
        if len(coeffs) <= d:
            return tuple(list(coeffs) + [_ZERO] * (d - len(coeffs)))
        out = list(coeffs[:d])
        for m in range(d, len(coeffs)):
            c = coeffs[m]
            if not c:
                continue
            row = self._power_row(m)
            for i in range(d):
                if row[i]:
                    out[i] += c * row[i]
        return tuple(out)

    def from_coeffs(self, coeffs):
        return CycloRational(self, self._reduce([Fraction(c) for c in coeffs]))

    def zeta_multiple(self, x):
        """(a, r) with x = r * zeta^a for a rational r and the least a >= 0,
        or None when x is zero or no rational multiple of a root of unity.

        The index maps the coefficients of zeta^a, scaled to a leading 1,
        to a and that leading coefficient; every rational multiple of
        zeta^a has the same key.  Building it costs O(N * phi(N)) once.
        """
        lead = next((c for c in x.coeffs if c), None)
        if lead is None:
            return None
        if self._root_index is None:
            index = {}
            for a in range(self.conductor):
                row = self.zeta(a).coeffs
                head = next(c for c in row if c)
                index.setdefault(_scaled(row, head), (a, head))
            self._root_index = index
        hit = self._root_index.get(_scaled(x.coeffs, lead))
        if hit is None:
            return None
        a, head = hit
        return a, lead / head

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


def _scaled(coeffs, lead):
    return coeffs if lead == 1 else tuple(c / lead for c in coeffs)


def _poly_mul_frac(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_ext_gcd_frac(a, m):
    """Extended Euclid over Q[x]: returns (g, u) with u*a = g mod m."""
    r0, r1 = list(m), list(a)
    s0, s1 = [_ZERO], [_ONE]
    while any(r1):
        rem = list(r0)
        while rem and not rem[-1]:
            rem.pop()
        r1t = list(r1)
        while r1t and not r1t[-1]:
            r1t.pop()
        q = [_ZERO] * max(1, len(rem) - len(r1t) + 1)
        while True:
            while rem and not rem[-1]:
                rem.pop()
            if not rem or len(rem) < len(r1t):
                break
            c = rem[-1] / r1t[-1]
            shift = len(rem) - len(r1t)
            q[shift] += c
            for i in range(len(r1t)):
                rem[shift + i] -= c * r1t[i]
            rem.pop()
        prod = _poly_mul_frac(q, s1)
        new_s = list(s0) + [_ZERO] * max(0, len(prod) - len(s0))
        for i, v in enumerate(prod):
            new_s[i] -= v
        r0, r1 = r1, rem
        s0, s1 = s1, new_s
    return r0, s0


class CycloRational:
    """An element of Q(zeta_N), canonical in the power basis mod Phi_N."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def is_zero(self):
        return not any(self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def is_rational(self):
        return not any(self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not a rational element: %r" % (self,))
        return self.coeffs[0]

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("mixed cyclotomic conductors %d and %d"
                             % (self.field.conductor, other.field.conductor))

    def __add__(self, other):
        self._check(other)
        return CycloRational(self.field,
                             tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return CycloRational(self.field,
                             tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycloRational(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloRational(self.field, tuple(a * q for a in self.coeffs))
        self._check(other)
        if self.is_zero() or other.is_zero():
            return self.field.zero()
        if other.is_rational():
            q = other.coeffs[0]
            return CycloRational(self.field, tuple(a * q for a in self.coeffs))
        if self.is_rational():
            q = self.coeffs[0]
            return CycloRational(self.field, tuple(a * q for a in other.coeffs))
        prod = _poly_mul_frac(self.coeffs, other.coeffs)
        return CycloRational(self.field, self.field._reduce(prod))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.field.conductor)
        if self.is_rational():
            return self.field.rational(1 / self.coeffs[0])
        g, u = _poly_ext_gcd_frac(list(self.coeffs), list(self.field._modulus))
        while g and not g[-1]:
            g.pop()
        if len(g) != 1:
            # Phi_N is irreducible over Q, so the gcd must be a constant
            raise ArithmeticError("cyclotomic inversion failed")
        c = g[0]
        inv = [x / c for x in u]
        return CycloRational(self.field, self.field._reduce(inv))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n == 0:
            return self.field.one()
        base = self if n > 0 else self.inverse()
        n = abs(n)
        result = self.field.one()
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, CycloRational):
            if isinstance(other, (int, Fraction)):
                return self.is_rational() and self.coeffs[0] == other
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.conductor, self.coeffs))

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
