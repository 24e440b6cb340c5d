"""Exact linear algebra over the scalar domain.

Vectors are sparse columns: dicts mapping a hashable, sortable row key to
a nonzero Scalar.  Elimination is fraction-free.  Pivots are indexed by
their row key, so a column visits only the pivots whose rows it holds, in
insertion order; a step that brings in the row of a later pivot queues
that pivot.  A pivot entry that is a unit monomial u clears a column's
entry c in place: col += (-c u^-1) pivot, over the pivot column's keys
only, with -u^-1 computed when a column first meets the pivot.  Any other
pivot entry p takes the cross step p*col - c*pivot, after which the
column and its combination are divided by the previous such entry of the
same reduction whenever that divides every entry of both exactly
(Bareiss's divisor).  Nothing is rescaled for content, so entries stay
polynomial-sized without multivariate gcds.

_dependences_mod eliminates residue columns mod a prime P instead.  The
primitive search maps a block's columns to Z/P by the ring homomorphism
of scalars._point.  A minor that is nonzero there is nonzero over the
domain, so the rank at the point bounds the exact rank from below
(Schwartz, J. ACM 27(4), 1980; Zippel, EUROSAM 1979), and columns
independent there are independent.  Every dependence found there is
checked by an exact solve on its own support, and the block falls back
to ScalarElimination whole when a check fails or an entry has no value
at the point.  A bad point therefore costs time, never a wrong answer:
results do not depend on the point.
"""

from heapq import heapify, heappop, heappush

from .elements import add_term

_UNSEEN = object()  # a pivot's -u^-1 slot before any column meets it


def _scale_sub(p, col, c, pcol):
    """p*col - c*pcol as a pruned sparse column; p is a nonzero pivot
    entry, so no product p*v vanishes."""
    out = {k: p * v for k, v in col.items()}
    for k, v in pcol.items():
        add_term(out, k, -(c * v))
    return out


def _add_multiple(col, f, pcol):
    """col += f*pcol in place, touching pcol's keys only."""
    for k, v in pcol.items():
        add_term(col, k, f * v)


def _neg_inv(pivot):
    """-u^-1 for the pivot's entry u if that is a unit monomial, else None;
    computed when a column first meets the pivot."""
    if pivot[3] is _UNSEEN:
        um = pivot[1][pivot[0]].as_unit_monomial()
        pivot[3] = -um.inverse().to_scalar() if um is not None else None
    return pivot[3]


def _divide_exact(col, combo, d):
    """(col/d, combo/d), or None unless d divides every entry of both."""
    out = []
    for vec in (col, combo):
        quotient = {}
        for k, v in vec.items():
            w = v._divexact(d)
            if w is None:
                return None
            quotient[k] = w
        out.append(quotient)
    return out


class ScalarElimination:
    """Incremental fraction-free elimination with combination tracking."""

    def __init__(self, domain):
        self.domain = domain
        # [row_key, column, combo, -1/entry if the entry is a unit
        # monomial else None, or _UNSEEN until a column meets the pivot],
        # in insertion order
        self.pivots = []
        self._position = {}  # row key -> index in pivots

    def _reduce(self, col, combo):
        # each step adds only keys of the pivot column, whose rows of
        # earlier pivots are already clear, so the pivots col meets form a
        # heap of positions that grows only past the one being taken
        position = self._position
        heap = [position[k] for k in col if k in position]
        heapify(heap)
        prev = None  # the last non-unit pivot entry col was multiplied by
        while heap:
            pivot = self.pivots[heappop(heap)]
            rk, pcol, pcombo, _ = pivot
            c = col.get(rk)
            if c is None:
                continue
            for k in pcol:
                if k not in col and k in position:
                    heappush(heap, position[k])
            neg_inv = _neg_inv(pivot)
            if neg_inv is not None:
                f = c * neg_inv
                _add_multiple(col, f, pcol)
                _add_multiple(combo, f, pcombo)
                continue
            p = pcol[rk]
            col = _scale_sub(p, col, c, pcol)
            combo = _scale_sub(p, combo, c, pcombo)
            if prev is not None:
                col, combo = _divide_exact(col, combo, prev) or (col, combo)
            prev = p
        return col, combo

    def insert(self, col, tag):
        """Feed one column; returns a kernel combination dict or None.

        The column is copied, never changed.  The returned dict maps
        previously inserted tags to scalars; the combination of the tagged
        columns with those coefficients is zero.
        """
        combo = {tag: self.domain.one()}
        col, combo = self._reduce(dict(col), combo)
        if not col:
            return combo
        # prefer a pivot entry that is a unit monomial: reducing by it
        # needs no cross step; a one-entry column has no choice to make
        keys = sorted(col)
        rk, neg_inv = keys[0], _UNSEEN
        if len(keys) > 1:
            for k in keys:
                if col[k].as_unit_monomial() is not None:
                    rk = k
                    break
            else:
                neg_inv = None
        self._position[rk] = len(self.pivots)
        self.pivots.append([rk, col, combo, neg_inv])
        return None

    @property
    def rank(self):
        return len(self.pivots)


def _dependences_mod(columns, prime):
    """Gaussian elimination of residue columns mod prime, in order.

    Returns (j, support) for each column j that reduces to zero, support
    the sorted indices of the earlier columns in its relation: column j is
    a combination of exactly those columns mod prime.  The columns are
    reduced in place.
    """
    pivots = []  # (row key, column, combination, inverse of the row's entry)
    out = []
    for j, col in enumerate(columns):
        combo = {j: 1}
        for rk, pcol, pcombo, inv in pivots:
            c = col.get(rk)
            if c is None:
                continue
            f = c * inv % prime
            for vec, pvec in ((col, pcol), (combo, pcombo)):
                for k, v in pvec.items():
                    w = (vec.get(k, 0) - f * v) % prime
                    if w:
                        vec[k] = w
                    else:
                        del vec[k]
        if col:
            rk = next(iter(col))
            pivots.append((rk, col, combo, pow(col[rk], -1, prime)))
        else:
            out.append((j, sorted(k for k in combo if k != j)))
    return out


def nullspace_of_columns(domain, columns, tags=None):
    """Kernel of the column family, as combination dicts keyed by tag."""
    if tags is None:
        tags = list(range(len(columns)))
    elim = ScalarElimination(domain)
    kernel = []
    for col, tag in zip(columns, tags):
        combo = elim.insert(col, tag)
        if combo is not None:
            kernel.append(combo)
    return kernel

