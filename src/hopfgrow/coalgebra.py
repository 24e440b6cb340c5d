"""Coproduct, counit, antipode, and skew-primitive search.

The coalgebra structure is determined on generators by

    Delta(g) = g (x) g,   Delta(y_i) = y_i (x) 1 + mu_i (x) y_i,
    eps(g) = 1, eps(y_i) = 0,   S(g) = g^{-1}, S(y_i) = -mu_i^{-1} y_i,

and extended multiplicatively (anti-multiplicatively for S) over normal
words.  All of it requires a confluent presentation: without a basis the
results would be meaningless.

Coproducts of words grow from cached suffixes: every suffix of an
irreducible y-word is irreducible, so Delta(y_i w) = Delta(y_i) Delta(w)
multiplies a normal word by one letter on the left of each side, through
the presentation's left-product kernel, and Delta(h w) = (h (x) h)
Delta(w) only shifts group parts.  The cache on the presentation is keyed
by the pure y-word w.
"""

from .elements import AlgebraElement, TensorElement, add_term, word_key
from .linalg import ScalarElimination, nullspace_of_columns
from .scalars import quantum_binomial


def _delta_yword(p, yw):
    """Coproduct of a pure y-word as {(left word, right word): coeff}.

    Built from the cached coproduct of its suffix by
    Delta(y_i w) = (y_i (x) 1 + mu_i (x) y_i) Delta(w); every suffix of an
    irreducible word is irreducible, so each side takes one kernel step,
    and mu_i only relabels a group part.
    """
    cache = p._coproduct_cache
    cached = cache.get(yw)
    if cached is not None:
        return cached
    if not yw:
        e = p.group.identity()
        result = cache[yw] = {((e, ()), (e, ())): p.domain.one()}
        return result
    i = yw[0]
    mu = p.gens[i].weight
    mul = p.group.mul
    acc = {}
    for (left, right), c in _delta_yword(p, yw[1:]).items():
        for left2, c2 in p._y_times(i, {left: c}).items():
            add_term(acc, (left2, right), c2)
        moved = (mul(mu, left[0]), left[1])
        for right2, c2 in p._y_times(i, {right: c}).items():
            add_term(acc, (moved, right2), c2)
    cache[yw] = acc
    return acc


def delta_word(p, word):
    """Coproduct of a single normal word h w, as a fresh TensorElement.

    Delta(h w) = (h (x) h) Delta(w): the coproduct of the y-word w comes
    from the cache on the presentation, and h only shifts both group parts.
    """
    h, yw = word
    terms = _delta_yword(p, yw)
    if p.group.is_identity(h):
        return TensorElement(dict(terms))
    mul = p.group.mul
    return TensorElement({((mul(h, hl), ul), (mul(h, hr), ur)): c
                          for ((hl, ul), (hr, ur)), c in terms.items()})


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

    def witnesses(self):
        """Basis vectors outside the coradical, reduced mod k(weight - 1)."""
        if not self.has_coradical_line:
            return list(self.basis)
        return self.basis[1:]

    def __repr__(self):
        return "<SkewPrimitiveSpace weight=%s dim=%d>" % (self.weight, self.dim)


def _defect_column(p, word, weight, minus_one):
    """Column of z -> Delta(z) - z(x)1 - weight(x)z at a basis word."""
    col = delta_word(p, word).terms
    add_term(col, (word, (p.group.identity(), ())), minus_one)
    add_term(col, ((weight, ()), word), minus_one)
    return col


def _kernel_elements(p, candidates, weight):
    minus_one = -p.domain.one()
    columns = [_defect_column(p, w, weight, minus_one) for w in candidates]
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
    group_word_bound.  The kernel splits along the presentation's grading:
    a normal word h w has degree (counts(w) mod L, h mu(w) mod M), where
    no rewriting step leaves a degree.  Give a (x) b the degree of
    counts(a) + counts(b) and the group content of a; then the defect
    z -> Delta(z) - z(x)1 - weight(x)z keeps the degree of z except for
    its weight(x)z part, and Delta(x) = x(x)1 forces x into k1.  So each
    count class c is one block: the words of degree (c, weight M), and in
    the class c = 0 also those of degree (0, M), for the coradical line.
    """
    p.require_confluent()
    group = p.group
    weight = group.reduce(weight)
    ball_by_class = {}
    for h in group.ball(group_word_bound):
        ball_by_class.setdefault(p._group_class(h), []).append(h)
    blocks = {}
    for words in p.irreducible_ywords(degree_bound):
        for yw in words:
            counts, content = p._degree((group.identity(), yw))
            classes = {p._group_class([a - b for a, b in zip(weight, content)])}
            if not any(counts):
                classes.add(p._group_class([-b for b in content]))
            group_parts = sorted(h for cls in classes for h in ball_by_class.get(cls, ()))
            blocks.setdefault(counts, []).extend((h, yw) for h in group_parts)
    basis = []
    for candidates in blocks.values():
        basis.extend(_kernel_elements(p, candidates, weight))
    basis.sort(key=lambda e: max(word_key(w, p.ny) for w in e.terms))

    # canonicalize against the coradical line k(weight - 1): the line lies
    # in the span of the independent basis exactly when eliminating it
    # first leaves len(basis) pivots; the basis is then re-derived from
    # them, the line first and the rest reduced against it (and against
    # each other)
    has_line = False
    if not p.group.is_identity(weight):
        elim = ScalarElimination(p.domain)
        line = p.group_element(weight) - p.one()
        for idx, e in enumerate([line] + basis):
            elim.insert(e.terms, idx)
        has_line = elim.rank == len(basis)
        if has_line:
            basis = []
            for _, col, _, _ in elim.pivots:
                reduced = AlgebraElement(dict(col))
                lead = max(reduced.terms.keys(), key=lambda w: word_key(w, p.ny))
                basis.append(reduced.scale(reduced.terms[lead].inverse()))
    return SkewPrimitiveSpace(p, weight, basis, degree_bound,
                              group_word_bound, has_line)
