"""The coefficient domain Q(zeta_N)(q_1, ..., q_k).

A Scalar is a fraction of Laurent polynomials in the transcendentals
q_1..q_k with Q(zeta_N) coefficients.  The representation is not canonical;
equality is decided by cross-multiplication.  A light normalization (fold a
monomial denominator into the numerator, strip common monomial content)
keeps sizes bounded without multivariate gcd machinery.

A one-term denominator is always the constant 1, so a scalar with
len(den) == 1 is a Laurent polynomial.  Sums, products and comparisons of
two Laurent polynomials work on the numerators alone; only true fractions
such as 1/(1 + q) take the cross-multiplication path.  Nothing mutates a
scalar's num or den once it is built, so every Laurent polynomial shares
its domain's one dict as den, and a product by one returns the other
operand itself.

Unit monomials -- scalars of the shape (root of unity) * q^e -- are the
only scalars that take part in group-theoretic analysis (multiplicative
order, subgroup rank).  Anything else in such a position is a hard error,
never a guess.

Every domain shape (N, k) has one point: a prime P = 1 (mod N) below
2^30, an image of zeta_N that is a primitive N-th root of unity mod P,
and nonzero images of q_1..q_k, all from a fixed seed.  A scalar has a
value there when P divides no denominator of its Q(zeta_N) coefficients
and its denominator does not vanish there; the value map is a ring
homomorphism from those scalars onto Z/P.
"""

import random
from fractions import Fraction
from functools import lru_cache
from operator import add, sub

from .cyclotomic import _power, CycloField, cyclotomic_polynomial
from .elements import add_term
from .intmat import integer_rank

INFINITE = float("inf")


class ScalarShapeError(ValueError):
    """A scalar was not of the shape an operation requires."""

    def __init__(self, message, scalar=None):
        super().__init__(message)
        self.scalar = scalar


def _lp_prune(d):
    return {e: c for e, c in d.items() if not c.is_zero()}


def _lp_add(a, b):
    out = dict(a)
    for e, c in b.items():
        add_term(out, e, c)
    return out


def _lp_neg(a):
    return {e: -c for e, c in a.items()}


def _lp_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            add_term(out, tuple(map(add, ea, eb)), ca * cb)
    return out


def _lp_divexact(a, b):
    """a / b when b divides a as Laurent polynomials, else None.

    Both are shifted to ordinary polynomials that no variable divides, so
    a quotient, if any, is an ordinary polynomial too, with each exponent
    between 0 and deg(a) - deg(b) in that variable.  The remainder is
    divided by the lex-leading term of b until it is zero; a quotient
    exponent outside that box means there is no quotient.  Each step
    lowers the remainder's lex-leading exponent, so no quotient exponent
    repeats and the loop ends within the box.
    """
    if not a:
        return {}
    nvars = len(next(iter(b)))
    sa = tuple(min(e[i] for e in a) for i in range(nvars))
    sb = tuple(min(e[i] for e in b) for i in range(nvars))
    rem = {tuple(map(sub, e, sa)): c for e, c in a.items()}
    divisor = {tuple(map(sub, e, sb)): c for e, c in b.items()}
    top = tuple(max(e[i] for e in rem) - max(e[i] for e in divisor)
                for i in range(nvars))
    lead = max(divisor)
    lead_inv = divisor[lead].inverse()
    quotient = {}
    while rem:
        e = max(rem)
        m = tuple(map(sub, e, lead))
        if any(x < 0 or x > t for x, t in zip(m, top)):
            return None
        c = quotient[m] = rem[e] * lead_inv
        rem = _lp_add(rem, _lp_mul({m: -c}, divisor))  # cancels rem[e]
    shift = tuple(map(sub, sa, sb))
    return {tuple(map(add, e, shift)): c for e, c in quotient.items()}


def _lp_at(a, point):
    """The value of a Laurent polynomial at the point, or None."""
    prime, zeta_powers, qs = point
    total = 0
    for e, c in a.items():
        v = c._at(prime, zeta_powers)
        if v is None:
            return None
        for q, k in zip(qs, e):
            if k:
                v = v * pow(q, k, prime)
        total += v
    return total % prime


def _is_prime(n):
    """Whether n is prime, for n < 4,759,123,141: the strong probable-prime
    tests to the bases 2, 7 and 61 have no common false positive below
    that bound (Jaeschke, Math. Comp. 61, 1993)."""
    for b in (2, 7, 61):
        if n % b == 0:
            return n == b
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 7, 61):
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _point(conductor, nvars):
    """(P, images of zeta^0..zeta^(phi(N) - 1), images of q_1..q_k): P the
    largest prime kN + 1 below 2^30, so residues and their sums of
    products stay small ints."""
    prime = (2 ** 30 - 2) // conductor * conductor + 1
    while not _is_prime(prime):
        prime -= conductor
    rng = random.Random(1)
    while True:
        zeta = pow(rng.randrange(2, prime), (prime - 1) // conductor, prime)
        if all(pow(zeta, d, prime) != 1 for d in range(1, conductor) if conductor % d == 0):
            break
    degree = len(cyclotomic_polynomial(conductor)) - 1
    zeta_powers = tuple(pow(zeta, i, prime) for i in range(degree))
    return prime, zeta_powers, tuple(rng.randrange(1, prime) for _ in range(nvars))


class ScalarDomain:
    """Fixed coefficient domain: conductor N and named transcendentals."""

    def __init__(self, conductor=1, transcendentals=()):
        self.field = CycloField(conductor)
        self.transcendentals = tuple(transcendentals)
        self.nvars = len(self.transcendentals)
        self._e0 = (0,) * self.nvars
        self._one_lp = {self._e0: self.field.one()}
        self._zero = Scalar(self, {}, self._one_lp, _normalized=True)
        self._one = Scalar(self, self._one_lp, self._one_lp, _normalized=True)

    @property
    def conductor(self):
        return self.field.conductor

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def rational(self, value):
        value = Fraction(value)
        if value == 0:
            return self._zero
        return Scalar(self, {self._e0: self.field.rational(value)}, self._one_lp)

    def from_cyclo(self, c):
        if c.is_zero():
            return self._zero
        return Scalar(self, {self._e0: c}, self._one_lp)

    def zeta(self, power=1):
        return self.from_cyclo(self.field.zeta(power))

    def q(self, index, power=1):
        """The transcendental q_<index+1> (or by name) raised to a power."""
        if isinstance(index, str):
            index = self.transcendentals.index(index)
        if not 0 <= index < self.nvars:
            raise IndexError("no transcendental with index %r" % (index,))
        e = [0] * self.nvars
        e[index] = power
        return Scalar(self, {tuple(e): self.field.one()}, self._one_lp)

    def monomial(self, coeff, exps):
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent vector must have length %d" % self.nvars)
        if isinstance(coeff, (int, Fraction)):
            coeff = self.field.rational(coeff)
        if coeff.is_zero():
            return self._zero
        return Scalar(self, {exps: coeff}, self._one_lp)

    def __eq__(self, other):
        return (isinstance(other, ScalarDomain)
                and other.field == self.field
                and other.transcendentals == self.transcendentals)

    def __hash__(self):
        return hash((self.field.conductor, self.transcendentals))

    def __repr__(self):
        return "ScalarDomain(N=%d, q=%r)" % (self.conductor, list(self.transcendentals))


class Scalar:
    """A fraction of Laurent polynomials over Q(zeta_N).

    A one-term denominator is always the constant 1: the constructor folds
    it into the numerator, and divides out a longer one that divides the
    numerator, so a scalar equal to a Laurent polynomial has den 1.  Zero,
    one, negation and the Laurent polynomial paths of +, * skip the fold
    and take the domain's one dict as that denominator.  num and den are
    never mutated, so scalars share them; x * 1 and 1 * x return x itself.
    """

    __slots__ = ("domain", "num", "den")

    def __init__(self, domain, num, den, _normalized=False):
        self.domain = domain
        if _normalized:
            self.num = num
            self.den = den
            return
        num = _lp_prune(num)
        den = _lp_prune(den)
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not num:
            self.num = {}
            self.den = domain._one_lp
            return
        if len(den) == 1:
            # fold a monomial denominator into the numerator
            (e, c), = den.items()
            if any(e) or not c.is_one():
                cinv = c.inverse()
                num = {tuple(x - y for x, y in zip(en, e)): cn * cinv
                       for en, cn in num.items()}
            self.num = num
            self.den = domain._one_lp
            return
        quotient = _lp_divexact(num, den)
        if quotient is not None:
            self.num = quotient
            self.den = domain._one_lp
            return
        # strip common monomial content so exponents stay near zero
        keys = list(num.keys()) + list(den.keys())
        shift = tuple(min(k[i] for k in keys) for i in range(domain.nvars))
        if any(shift):
            num = {tuple(x - s for x, s in zip(e, shift)): c for e, c in num.items()}
            den = {tuple(x - s for x, s in zip(e, shift)): c for e, c in den.items()}
        self.num = num
        self.den = den

    # ------------------------------------------------------------------
    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == self.den

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise TypeError("expected Scalar, got %r" % (other,))
        if self.domain is not other.domain and self.domain != other.domain:
            raise ValueError("scalars from different domains")

    def __add__(self, other):
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if len(self.den) == 1 and len(other.den) == 1:
            num = _lp_add(self.num, other.num)
            if not num:
                return self.domain.zero()
            return Scalar(self.domain, num, self.domain._one_lp, _normalized=True)
        num = _lp_add(_lp_mul(self.num, other.den), _lp_mul(other.num, self.den))
        return Scalar(self.domain, num, _lp_mul(self.den, other.den))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Scalar(self.domain, _lp_neg(self.num), self.den, _normalized=True)

    def __mul__(self, other):
        if not isinstance(other, Scalar) and isinstance(other, (int, Fraction)):
            other = self.domain.rational(other)
        if other is self.domain._one:
            return self
        self._check(other)
        if self.is_zero() or other.is_zero():
            return self.domain.zero()
        if other.is_one():
            return self
        if self.is_one():
            return other
        if len(self.den) == 1 and len(other.den) == 1:
            # nonzero Laurent polynomials have a nonzero product
            return Scalar(self.domain, _lp_mul(self.num, other.num),
                          self.domain._one_lp, _normalized=True)
        return Scalar(self.domain, _lp_mul(self.num, other.num),
                      _lp_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self.is_zero():
            return self.domain.zero()
        return Scalar(self.domain, _lp_mul(self.num, other.den),
                      _lp_mul(self.den, other.num))

    def _divexact(self, other):
        """self / other as a Laurent polynomial, or None when other does
        not divide self in the Laurent polynomial ring (or either is a
        fraction)."""
        if len(self.den) != 1 or len(other.den) != 1:
            return None
        num = _lp_divexact(self.num, other.num)
        if num is None:
            return None
        return Scalar(self.domain, num, self.domain._one_lp, _normalized=True)

    def _at(self, point):
        """The value mod P at the point (see _point), or None when the
        scalar has none there."""
        num = _lp_at(self.num, point)
        if num is None or len(self.den) == 1:
            return num
        den = _lp_at(self.den, point)
        if not den:
            return None
        return num * pow(den, -1, point[0]) % point[0]

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero scalar")
        return Scalar(self.domain, self.den, self.num)

    def __pow__(self, n):
        return _power(self, n, self.domain.one())

    def __eq__(self, other):
        if not isinstance(other, Scalar) and isinstance(other, (int, Fraction)):
            other = self.domain.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.domain is not other.domain and self.domain != other.domain:
            return False
        if len(self.den) == 1 and len(other.den) == 1:
            return self.num == other.num
        return _lp_mul(self.num, other.den) == _lp_mul(other.num, self.den)

    __hash__ = None  # representation is non-canonical

    # ------------------------------------------------------------------
    def as_unit_monomial(self):
        """The UnitMonomial form, or None if not of that shape.

        Unit monomial means (root of unity in Q(zeta_N)) times a monomial
        in the transcendentals.
        """
        if len(self.num) != 1 or len(self.den) != 1:
            return None
        (exps, c), = self.num.items()
        k = self.domain.field.root_exponent(c)
        if k is None:
            return None
        return UnitMonomial(self.domain, k, exps)

    def __repr__(self):
        if self.is_zero():
            return "0"
        num = _lp_repr(self.num, self.domain)
        if self.den == self.domain._one_lp:
            return num
        return "(%s)/(%s)" % (num, _lp_repr(self.den, self.domain))


def _lp_repr(lp, domain):
    bits = []
    for e in sorted(lp.keys()):
        c = lp[e]
        mono = "*".join(
            "%s^%d" % (domain.transcendentals[i], e[i]) if e[i] != 1
            else domain.transcendentals[i]
            for i in range(domain.nvars) if e[i])
        cs = repr(c)
        if ("+" in cs or "-" in cs[1:]) and mono:
            cs = "(%s)" % cs
        if mono:
            bits.append(mono if c.is_one() else "%s*%s" % (cs, mono))
        else:
            bits.append(cs)
    out = bits[0]
    for b in bits[1:]:
        out += " - " + b[1:] if b.startswith("-") else " + " + b
    return out


class UnitMonomial:
    """rho^k * q_1^e_1 ... q_n^e_n, the group-analyzable scalars.

    rho generates the roots of unity of the field (see CycloField) and k
    is kept modulo their number, so the form is canonical and hashable and
    its arithmetic is integer arithmetic.
    """

    __slots__ = ("domain", "k", "exps")

    def __init__(self, domain, k, exps):
        self.domain = domain
        self.k = k % domain.field.unity_order
        self.exps = tuple(exps)

    @property
    def root(self):
        return self.domain.field.root_power(self.k)

    def to_scalar(self):
        return self.domain.monomial(self.root, self.exps)

    def is_torsion(self):
        return not any(self.exps)

    def is_one(self):
        return self.k == 0 and not any(self.exps)

    def order(self):
        """Multiplicative order: an integer, or INFINITE."""
        if not self.is_torsion():
            return INFINITE
        return self.domain.field.root_order(self.k)

    def __mul__(self, other):
        return UnitMonomial(self.domain, self.k + other.k,
                            tuple(x + y for x, y in zip(self.exps, other.exps)))

    def inverse(self):
        return UnitMonomial(self.domain, -self.k, tuple(-x for x in self.exps))

    def __pow__(self, n):
        return UnitMonomial(self.domain, n * self.k,
                            tuple(n * x for x in self.exps))

    def __eq__(self, other):
        return (isinstance(other, UnitMonomial) and self.k == other.k
                and self.exps == other.exps and self.domain == other.domain)

    def __hash__(self):
        return hash((self.k, self.exps))

    def __repr__(self):
        return repr(self.to_scalar())


def _powers_cancel(u1, a, u2, b):
    """Whether u1^a u2^b = 1 for unit monomials, decided on the integers:
    a k1 + b k2 vanishes modulo the number of roots of unity, and
    a e1 + b e2 vanishes."""
    return ((a * u1.k + b * u2.k) % u1.domain.field.unity_order == 0
            and all(a * x + b * y == 0 for x, y in zip(u1.exps, u2.exps)))


# ----------------------------------------------------------------------
def quantum_binomial(n, s, lam):
    """Gaussian binomial coefficient evaluated at a scalar.

    Computed by the q-Pascal recurrence
        [m choose j] = [m-1 choose j-1] + lam^j [m-1 choose j],
    so the result is a polynomial in lam with nonnegative integer
    coefficients; at lam = 1 it is the ordinary binomial.  Returns zero
    for s > n.
    """
    if n < 0 or s < 0:
        raise ValueError("quantum_binomial needs nonnegative arguments")
    dom = lam.domain
    if s > n:
        return dom.zero()
    if s == 0 or s == n:
        return dom.one()
    lam_pows = [dom.one()]
    for _ in range(s):
        lam_pows.append(lam_pows[-1] * lam)
    row = [dom.one()]
    for m in range(1, n + 1):
        width = min(m, s)
        new = [dom.one()]
        for j in range(1, width + 1):
            left = row[j - 1]
            right = row[j] if j < len(row) else dom.zero()
            new.append(left + lam_pows[j] * right)
        row = new
    return row[s]


def multiplicative_order(x):
    """Order of a scalar in the multiplicative group.

    Returns a positive integer, INFINITE for a unit monomial with a
    nonzero transcendental exponent, or None when the scalar is not a
    unit monomial (order undecidable in this domain).  Zero is an error.
    """
    if x.is_zero():
        raise ZeroDivisionError("zero is not a unit")
    if x.is_one():
        return 1
    um = x.as_unit_monomial()
    if um is None:
        return None
    return um.order()


def subgroup_rank(gens):
    """Torsion-free rank of the multiplicative group generated by scalars.

    Every generator must be a unit monomial; roots of unity contribute
    torsion only, so the rank is the rank of the integer lattice spanned
    by the transcendental exponent vectors.
    """
    rows = []
    for x in gens:
        if x.is_zero():
            raise ZeroDivisionError("zero is not a unit")
        um = x.as_unit_monomial()
        if um is None:
            raise ScalarShapeError("not a unit monomial: %r" % (x,), x)
        rows.append(um.exps)
    return integer_rank(rows)
