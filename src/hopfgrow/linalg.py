"""Exact linear algebra over the scalar domain.

Vectors are sparse columns: dicts mapping a hashable, sortable row key to
a nonzero Scalar.  Elimination is fraction-free in the Bareiss spirit:
rows are cleared by cross-scaling (p*col - c*pivot) rather than division,
and columns are rescaled by unit-monomial content when that is exact and
cheap, so entries stay polynomial-sized without multivariate gcds.
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


def _content_normalize(col, combo):
    """Divide both by a unit-monomial content when one exists (exact)."""
    if not col:
        return col, combo
    key = min(col.keys())
    um = col[key].as_unit_monomial()
    if um is None or um.is_one():
        return col, combo
    inv = um.inverse().to_scalar()
    col = {k: inv * v for k, v in col.items()}
    combo = {k: inv * v for k, v in combo.items()}
    return col, combo


class ScalarElimination:
    """Incremental fraction-free elimination with combination tracking."""

    def __init__(self, domain):
        self.domain = domain
        self.pivots = []  # (row_key, column, combo), in insertion order

    def _reduce(self, col, combo):
        for rk, pcol, pcombo in self.pivots:
            c = col.get(rk)
            if c is None:
                continue
            p = pcol[rk]
            col = _scale_sub(p, col, c, pcol)
            combo = _scale_sub(p, combo, c, pcombo)
        return _content_normalize(col, combo)

    def insert(self, col, tag):
        """Feed one column; returns a kernel combination dict or None.

        The returned dict maps previously inserted tags to scalars; the
        combination of the tagged columns with those coefficients is zero.
        """
        combo = {tag: self.domain.one()}
        col, combo = self._reduce(col, combo)
        if not col:
            return combo
        # prefer a pivot entry that is a unit monomial: later divisions stay exact
        candidates = sorted(col.keys())
        rk = None
        for k in candidates:
            if col[k].as_unit_monomial() is not None:
                rk = k
                break
        if rk is None:
            rk = candidates[0]
        self.pivots.append((rk, col, combo))
        return None

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
        combo = elim.insert(dict(col), tag)
        if combo is not None:
            kernel.append(combo)
    return kernel


def rank_of_columns(domain, columns):
    elim = ScalarElimination(domain)
    for i, col in enumerate(columns):
        elim.insert(dict(col), i)
    return elim.rank


def solve_in_span(domain, basis_columns, target, tags=None):
    """Coefficients expressing target in the span, or None.

    Returns a dict tag -> Scalar with sum(coeff * basis) == target.
    """
    if tags is None:
        tags = list(range(len(basis_columns)))
    elim = ScalarElimination(domain)
    for col, tag in zip(basis_columns, tags):
        elim.insert(dict(col), tag)
    sentinel = object()
    combo = elim.insert(dict(target), sentinel)
    if combo is None:
        return None
    scale = combo.pop(sentinel)
    # combo says: scale*target + sum(c_i * basis_i) == 0
    neg_inv = -(scale.inverse())
    return {tag: neg_inv * c for tag, c in combo.items()}
