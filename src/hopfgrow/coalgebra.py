"""Coproduct, counit, antipode, and skew-primitive search.

The coalgebra structure is determined on generators by

    Delta(g) = g (x) g,   Delta(y_i) = y_i (x) 1 + mu_i (x) y_i,
    eps(g) = 1, eps(y_i) = 0,   S(g) = g^{-1}, S(y_i) = -mu_i^{-1} y_i,

and extended multiplicatively (anti-multiplicatively for S) over normal
words.  All of it requires a confluent presentation: without a basis the
results would be meaningless.
"""

from .elements import AlgebraElement, TensorElement, add_term, word_key, y_counts
from .linalg import ScalarElimination, nullspace_of_columns, solve_in_span
from .scalars import quantum_binomial


def delta_word(p, word):
    """Coproduct of a single normal word, as a TensorElement."""
    cached = p._coproduct_cache.get(word)
    if cached is not None:
        return cached
    h, yw = word
    one = p.domain.one()
    branches = [(one, (("g", h),), (("g", h),))]
    for i in yw:
        mu = p.gens[i].weight
        new = []
        for c, left, right in branches:
            new.append((c, left + (("y", i),), right))
            new.append((c, left + (("g", mu),), right + (("y", i),)))
        branches = new
    acc = {}
    for c, left, right in branches:
        lelt = p.normalize([(c, left)])
        relt = p.normalize([(one, right)])
        for wl, cl in lelt.terms.items():
            for wr, cr in relt.terms.items():
                add_term(acc, (wl, wr), cl * cr)
    result = TensorElement(acc)
    p._coproduct_cache[word] = result
    return result


def delta(p, a):
    """Coproduct of an element, each tensor component in normal form."""
    p.require_confluent()
    acc = {}
    for word, c in a.terms.items():
        for pair, cc in delta_word(p, word).terms.items():
            add_term(acc, pair, c * cc)
    return TensorElement(acc)


def delta_power_formula(p, i, n):
    """Closed-form coproduct of y_i^n from the Gaussian binomial expansion.

    Returns (tensor, partial).  With b_ii = tau_i(mu_i) = 0 the formula

        Delta(y_i^n) = sum_s [n choose s]_{lambda_ii} mu_i^s y_i^{n-s} (x) y_i^s

    is exact; otherwise only this leading (multidegree-n) part is
    determined and the result is flagged partial.
    """
    p.require_confluent()
    mu = p.gens[i].weight
    lam_ii = p.char_value(i, mu)
    partial = not p.tau_value(i, mu).is_zero()
    one = p.domain.one()
    acc = {}
    for s in range(n + 1):
        coeff = quantum_binomial(n, s, lam_ii)
        if coeff.is_zero():
            continue
        left = p.normalize([(coeff, (("g", p.group.power(mu, s)),)
                             + (("y", i),) * (n - s))])
        right = p.normalize([(one, (("y", i),) * s)])
        for wl, cl in left.terms.items():
            for wr, cr in right.terms.items():
                add_term(acc, (wl, wr), cl * cr)
    return TensorElement(acc), partial


def counit(p, a):
    """The counit: kills every y and sends group elements to 1."""
    total = p.domain.zero()
    for (h, yw), c in a.terms.items():
        if not yw:
            total = total + c
    return total


def antipode(p, a):
    """The antipode, extended anti-multiplicatively over normal words."""
    p.require_confluent()
    acc = {}
    for (h, yw), c in a.terms.items():
        letters = []
        for i in reversed(yw):
            letters.append(("g", p.group.inv(p.gens[i].weight)))
            letters.append(("y", i))
        letters.append(("g", p.group.inv(h)))
        sign = p.domain.one() if len(yw) % 2 == 0 else p.domain.rational(-1)
        nf = p.normalize([(c * sign, tuple(letters))])
        for w, cc in nf.terms.items():
            add_term(acc, w, cc)
    return AlgebraElement(acc)


def is_skew_primitive(p, z):
    """The weight g with Delta(z) = z(x)1 + g(x)z, or None."""
    if z.is_zero():
        return None
    t = delta(p, z)
    for w, c in z.terms.items():
        add_term(t.terms, (w, (p.group.identity(), ())), -c)
    by_left = {}
    for (wl, wr), c in t.terms.items():
        if wl[1]:
            return None
        by_left.setdefault(wl[0], {})[wr] = c
    if len(by_left) != 1:
        return None
    g, rest = by_left.popitem()
    if AlgebraElement(rest) == z:
        return g
    return None


class SkewPrimitiveSpace:
    """Basis of the (1,g)-primitives found within the stated bounds."""

    def __init__(self, presentation, weight, basis, degree_bound,
                 group_word_bound, has_coradical_line):
        self.presentation = presentation
        self.weight = weight
        self.basis = basis
        self.degree_bound = degree_bound
        self.group_word_bound = group_word_bound
        self.has_coradical_line = has_coradical_line

    @property
    def dim(self):
        return len(self.basis)

    def coradical_line(self):
        """The element weight - 1 (zero when the weight is the identity)."""
        p = self.presentation
        return p.group_element(self.weight) - p.one()

    def witnesses(self):
        """Basis vectors outside the coradical, reduced mod k(weight - 1)."""
        if not self.has_coradical_line:
            return list(self.basis)
        return self.basis[1:]

    def __repr__(self):
        return "<SkewPrimitiveSpace weight=%s dim=%d>" % (self.weight, self.dim)


def _defect_column(p, word, weight):
    """Column of z -> Delta(z) - z(x)1 - weight(x)z at a basis word."""
    col = {}
    for pair, c in delta_word(p, word).terms.items():
        add_term(col, pair, c)
    ident = (p.group.identity(), ())
    add_term(col, (word, ident), -p.domain.one())
    add_term(col, ((weight, ()), word), -p.domain.one())
    return col


def _kernel_elements(p, candidates, weight):
    columns = [_defect_column(p, w, weight) for w in candidates]
    kernel = nullspace_of_columns(p.domain, columns, tags=candidates)
    out = []
    for combo in kernel:
        elt = AlgebraElement(dict(combo))
        lead = max(elt.terms.keys(), key=lambda w: word_key(w, p.ny))
        out.append(elt.scale(elt.terms[lead].inverse()))
    return out


def find_skew_primitives(p, weight, degree_bound=6, group_word_bound=6):
    """Solve for all (1,weight)-primitives within the given bounds.

    The search space is the span of normal words with total y-degree at
    most degree_bound and group part of word length at most
    group_word_bound.  For multigraded presentations the kernel splits
    into independent blocks: one pure-group block, and for each y-word
    multidegree a block whose group part is forced by the weight.
    """
    p.require_confluent()
    weight = p.group.reduce(weight)
    ball = p.group.ball(group_word_bound)
    words_by_degree = p.irreducible_ywords(degree_bound)
    basis = []
    if p.is_multigraded:
        group_block = [(h, ()) for h in ball]
        basis.extend(_kernel_elements(p, group_block, weight))
        blocks = {}
        for d in range(1, degree_bound + 1):
            for yw in words_by_degree[d]:
                blocks.setdefault(y_counts(yw, p.ny), []).append(yw)
        for counts in sorted(blocks):
            mu_total = p.group.identity()
            for i, e in enumerate(counts):
                if e:
                    mu_total = p.group.mul(mu_total, p.group.power(p.gens[i].weight, e))
            h = p.group.mul(weight, p.group.inv(mu_total))
            if p.group.word_length(h) > group_word_bound:
                continue
            candidates = [(h, yw) for yw in blocks[counts]]
            basis.extend(_kernel_elements(p, candidates, weight))
    else:
        candidates = [(h, ()) for h in ball]
        for d in range(1, degree_bound + 1):
            for yw in words_by_degree[d]:
                for h in ball:
                    candidates.append((h, yw))
        basis = _kernel_elements(p, candidates, weight)
    basis.sort(key=lambda e: max(word_key(w, p.ny) for w in e.terms))

    # canonicalize against the coradical line k(weight - 1): when the line
    # lies in the span, re-derive a basis with the line first and the rest
    # reduced against it (and against each other)
    has_line = False
    if not p.group.is_identity(weight):
        line = p.group_element(weight) - p.one()
        line_cols = [dict(e.terms) for e in basis]
        has_line = solve_in_span(p.domain, line_cols, dict(line.terms)) is not None
        if has_line:
            elim = ScalarElimination(p.domain)
            stacked = []
            for idx, e in enumerate([line] + basis):
                if elim.insert(dict(e.terms), idx) is None:
                    reduced = AlgebraElement(dict(elim.pivots[-1][1]))
                    lead = max(reduced.terms.keys(), key=lambda w: word_key(w, p.ny))
                    stacked.append(reduced.scale(reduced.terms[lead].inverse()))
            basis = stacked
    return SkewPrimitiveSpace(p, weight, basis, degree_bound,
                              group_word_bound, has_line)
