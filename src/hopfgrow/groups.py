"""Finitely generated abelian groups of group-like elements.

Elements of Z^r x prod Z/m_j are exponent tuples (free coordinates first).
The group algebra of such a group has polynomial growth of degree r, which
is what the coradical contributes to every bound.
"""

import itertools
import math
import operator

from .intmat import integer_kernel, integer_rank, primitive_vector
from .scalars import INFINITE


class GroupData:
    """Z^free_rank x prod Z/m_j with componentwise addition."""

    def __init__(self, free_rank=0, torsion=()):
        if type(free_rank) is not int or free_rank < 0:
            raise ValueError("free rank must be a nonnegative integer")
        torsion = tuple(int(m) for m in torsion)
        if any(m < 2 for m in torsion):
            raise ValueError("torsion orders must be >= 2")
        self.free_rank = free_rank
        self.torsion = torsion
        self.ngens = free_rank + len(torsion)
        self._products = {}  # (a, b) -> a b reduced, for this instance only

    # -- elements ------------------------------------------------------
    def identity(self):
        return (0,) * self.ngens

    def reduce(self, elt):
        elt = tuple(elt)
        if len(elt) != self.ngens:
            raise ValueError("element of wrong length for %r" % (self,))
        r = self.free_rank
        return elt[:r] + tuple(x % m for x, m in zip(elt[r:], self.torsion))

    def mul(self, a, b):
        """a b reduced, for exponent tuples a and b, memoized per pair: a
        torsion reduction runs once.  A pair of the wrong length raises,
        and nothing is stored."""
        key = (a, b)
        found = self._products.get(key)
        if found is None:
            found = tuple(map(operator.add, a, b))
            if self.torsion or len(found) != self.ngens:
                found = self.reduce(found)
            self._products[key] = found
        return found

    def inv(self, a):
        return self.reduce(tuple(-x for x in a))

    def power(self, a, n):
        return self.reduce(tuple(n * x for x in a))

    def generator(self, i):
        if not 0 <= i < self.ngens:
            raise IndexError("no group generator %d" % i)
        e = [0] * self.ngens
        e[i] = 1
        return tuple(e)

    def generators(self):
        return [self.generator(i) for i in range(self.ngens)]

    def is_identity(self, a):
        if self.torsion or len(a) != self.ngens:
            a = self.reduce(a)
        return not any(a)

    def word_length(self, a):
        a = self.reduce(a)
        r = self.free_rank
        total = sum(abs(x) for x in a[:r])
        total += sum(min(x, m - x) for x, m in zip(a[r:], self.torsion))
        return total

    def element_order(self, a):
        a = self.reduce(a)
        if any(a[:self.free_rank]):
            return INFINITE
        order = 1
        for x, m in zip(a[self.free_rank:], self.torsion):
            if x:
                order = math.lcm(order, m // math.gcd(x, m))
        return order

    def ball(self, radius):
        """All elements of word length <= radius, in sorted order, built
        one coordinate at a time from the length the earlier ones left."""
        partial = [((), radius)]  # (leading coordinates, length left)
        for i in range(self.ngens):
            values = [self._coordinate_values(i, left) for left in range(radius + 1)]
            partial = [(head + (x,), left - d) for head, left in partial
                       for x, d in values[left]]
        return [head for head, _ in partial]

    def _coordinate_values(self, i, budget):
        """The values of coordinate i of word length <= budget, sorted, as
        (value, length) pairs: x and -x on Z, d and m - d on Z/m."""
        if i < self.free_rank:
            return [(x, abs(x)) for x in range(-budget, budget + 1)]
        m = self.torsion[i - self.free_rank]
        top = min(budget, m // 2)
        return ([(d, d) for d in range(top + 1)]
                + [(m - d, d) for d in range(top, 0, -1) if m - d != d])

    def ball_sizes(self, n):
        """|B_0|, ..., |B_n| without listing an element.

        Word length adds up over the coordinates, so a coordinate whose
        values of length d number s(d) takes the sizes B of the others to
        B'(l) = sum_d s(d) B(l - d), one prefix sum of B per coordinate.
        On Z/m, s(0) = 1, s(d) = 2 for 0 < d < m/2 (d and m - d) and
        s(m/2) = 1; within radius n, Z is Z/m with m = 2n + 1.
        """
        sizes = [1] * (n + 1)
        for m in [2 * n + 1] * self.free_rank + list(self.torsion):
            half = (m - 1) // 2
            mid = m // 2 if m % 2 == 0 else n + 1  # no value of length m/2 when m is odd
            prefix = [0, *itertools.accumulate(sizes)]
            sizes = [sizes[l] + 2 * (prefix[l] - prefix[max(l - half, 0)])
                     + (sizes[l - mid] if l >= mid else 0) for l in range(n + 1)]
        return sizes

    def gk_dimension(self):
        """GK-dimension of the group algebra: the free rank."""
        return self.free_rank

    # -- subgroup analysis ---------------------------------------------
    def subgroup_free_rank(self, gens):
        return integer_rank([self.reduce(g)[:self.free_rank] for g in gens])

    def subgroup_is_torsionfree(self, gens):
        """Whether the subgroup generated by gens has no nonzero torsion.

        A torsion element of the subgroup is an integer combination whose
        free part vanishes; the kernel lattice of the free-part matrix is
        computed exactly, and each kernel basis vector must map to zero in
        the torsion coordinates.
        """
        gens = [self.reduce(g) for g in gens if not self.is_identity(g)]
        if not gens:
            return True
        r = self.free_rank
        if not self.torsion:
            return True
        for vec in integer_kernel([g[:r] for g in gens]):
            tors = [sum(c * g[r + j] for c, g in zip(vec, gens)) % m
                    for j, m in enumerate(self.torsion)]
            if any(tors):
                return False
        return True

    def format_element(self, a):
        bits = ["g%d" % (i + 1) if x == 1 else "g%d^%d" % (i + 1, x)
                for i, x in enumerate(self.reduce(a)) if x]
        return " ".join(bits) or "1"

    def __eq__(self, other):
        return (isinstance(other, GroupData)
                and other.free_rank == self.free_rank
                and other.torsion == self.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        parts = ["Z"] * self.free_rank + ["Z/%d" % m for m in self.torsion]
        return "GroupData(%s)" % (" x ".join(parts) if parts else "trivial")


def cyclic_support(group, a, b):
    """Common cyclic support of two group elements.

    Returns (x, d1, d2) with a = x^d1 and b = x^d2 when the subgroup
    generated by a and b is visibly cyclic (both torsion-free, or both
    supported on a single torsion factor); otherwise None.
    """
    a = group.reduce(a)
    b = group.reduce(b)
    r = group.free_rank
    a_free, a_tors = a[:r], a[r:]
    b_free, b_tors = b[:r], b[r:]
    if not any(a) and not any(b):
        return None
    if not any(a_tors) and not any(b_tors):
        if not any(a):
            x, d2 = primitive_vector(b_free)
            return (x + (0,) * len(group.torsion), 0, d2)
        if not any(b):
            x, d1 = primitive_vector(a_free)
            return (x + (0,) * len(group.torsion), d1, 0)
        x, d1 = primitive_vector(a_free)
        # b must be an integer multiple of the same primitive direction
        xb, d2 = primitive_vector(b_free)
        if xb != x and xb != tuple(-c for c in x):
            return None
        if xb != x:
            d2 = -d2
        return (x + (0,) * len(group.torsion), d1, d2)
    if not any(a_free) and not any(b_free):
        support = {j for j, t in enumerate(a_tors) if t}
        support |= {j for j, t in enumerate(b_tors) if t}
        if len(support) != 1:
            return None
        j = support.pop()
        m = group.torsion[j]
        g = math.gcd(math.gcd(a_tors[j], b_tors[j]), m)
        x = [0] * group.ngens
        x[r + j] = g
        return (tuple(x), a_tors[j] // g, b_tors[j] // g)
    return None
