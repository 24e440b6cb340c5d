"""Exact linear algebra over the scalar domain.

Vectors are sparse columns: dicts mapping a hashable, sortable row key to
a nonzero Scalar.  Elimination is fraction-free.  A pivot entry that is a
unit monomial u is stored with -u^-1, and clears a column's entry c in
place: col += (-c u^-1) pivot, over the pivot column's keys only.  Any
other pivot entry p takes the cross step p*col - c*pivot, after which the
column and its combination are divided by the previous such entry of the
same reduction whenever that divides every entry of both exactly
(Bareiss's divisor).  Nothing is rescaled for content, so entries stay
polynomial-sized without multivariate gcds.
"""


def _scale_sub(p, col, c, pcol):
    """p*col - c*pcol as a pruned sparse column."""
    out = {}
    for k, v in col.items():
        w = p * v
        if not w.is_zero():
            out[k] = w
    for k, v in pcol.items():
        w = c * v
        if w.is_zero():
            continue
        cur = out.get(k)
        if cur is None:
            out[k] = -w
        else:
            s = cur - w
            if s.is_zero():
                del out[k]
            else:
                out[k] = s
    return out


def _add_multiple(col, f, pcol):
    """col += f*pcol in place, touching pcol's keys only."""
    for k, v in pcol.items():
        w = f * v
        cur = col.get(k)
        if cur is None:
            col[k] = w
        else:
            s = cur + w
            if s.is_zero():
                del col[k]
            else:
                col[k] = s


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
        # (row_key, column, combo, -1/entry if the entry is a unit
        # monomial else None), in insertion order
        self.pivots = []

    def _reduce(self, col, combo):
        prev = None  # the last non-unit pivot entry col was multiplied by
        for rk, pcol, pcombo, neg_inv in self.pivots:
            c = col.get(rk)
            if c is None:
                continue
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
        # needs no cross step
        candidates = sorted(col.keys())
        rk, um = candidates[0], None
        for k in candidates:
            um = col[k].as_unit_monomial()
            if um is not None:
                rk = k
                break
        neg_inv = -um.inverse().to_scalar() if um is not None else None
        self.pivots.append((rk, col, combo, neg_inv))
        return None

    def solve(self, target):
        """Coefficients by tag expressing target in the span of the
        inserted columns, or None; target is copied and nothing is
        inserted."""
        sentinel = object()
        col, combo = self._reduce(dict(target), {sentinel: self.domain.one()})
        if col:
            return None
        # combo says: scale*target + sum(c_i * column_i) == 0
        neg_inv = -(combo.pop(sentinel).inverse())
        return {tag: neg_inv * c for tag, c in combo.items()}

    @property
    def rank(self):
        return len(self.pivots)


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

