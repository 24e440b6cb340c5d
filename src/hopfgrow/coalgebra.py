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
by the pure y-word w.  The primitive search runs the same fold at one
point mod P, from kernel steps read there, into a cache beside it.
"""

from .elements import AlgebraElement, TensorElement, add_term, word_key, y_counts
from .linalg import ScalarElimination, _dependences_mod, nullspace_of_columns
from .presentation import _reduce_mod
from .scalars import _point, quantum_binomial


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


def _shifted(p, h, terms):
    """(h (x) h) times the tensor terms {(left, right): value}, as a fresh
    dict: h only shifts both group parts."""
    if p.group.is_identity(h):
        return dict(terms)
    mul = p.group.mul
    return {((mul(h, hl), ul), (mul(h, hr), ur)): c
            for ((hl, ul), (hr, ur)), c in terms.items()}


def delta_word(p, word):
    """Coproduct of a single normal word h w, as a fresh TensorElement.

    Delta(h w) = (h (x) h) Delta(w): the coproduct of the y-word w comes
    from the cache on the presentation, and h only shifts both group parts.
    """
    h, yw = word
    return TensorElement(_shifted(p, h, _delta_yword(p, yw)))


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
    """Basis of the (1,g)-primitives found within the stated bounds.

    has_coradical_line says whether the coradical line k(g - 1) lies in
    the space: exactly when g != 1 and g lies in the group ball of the
    bounds.  The basis then starts with g - 1, scaled to lead coefficient
    1, and the rest are reduced against it."""

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


def _delta_yword_at(p, yw, point):
    """_delta_yword(p, yw) at the point: {(left, right): value mod P} on
    the same keys, zero values dropped, or None when a coefficient of a
    kernel step has no value there; cached by y-word.

    The same fold as _delta_yword, from the suffix's image, with each
    kernel step y_i (h v) read at the point (Presentation._letter_times_at):
    the value map is a ring homomorphism where it is defined, so every
    value is the exact coefficient's, and the exact coproduct is not built.
    """
    cache = p._coproduct_point_cache
    if yw in cache:
        return cache[yw]
    if not yw:
        e = p.group.identity()
        image = cache[yw] = {((e, ()), (e, ())): 1}
        return image
    rest = _delta_yword_at(p, yw[1:], point)
    image = None
    if rest is not None:
        i = yw[0]
        mu = p.gens[i].weight
        mul = p.group.mul
        step = p._letter_times_at
        prime = point[0]
        acc = {}
        for (left, right), v in rest.items():
            lefts, rights = step(i, left, point), step(i, right, point)
            if lefts is None or rights is None:
                break
            for left2, v2 in lefts.items():
                k = (left2, right)
                acc[k] = (acc.get(k, 0) + v * v2) % prime
            moved = (mul(mu, left[0]), left[1])
            for right2, v2 in rights.items():
                k = (moved, right2)
                acc[k] = (acc.get(k, 0) + v * v2) % prime
        else:
            image = {k: v for k, v in acc.items() if v}
    cache[yw] = image
    return image


def _defect_column_at(p, word, weight, point):
    """_defect_column at the point, on the same keys, or None when it has
    no value there."""
    image = _delta_yword_at(p, word[1], point)
    if image is None:
        return None
    col = _shifted(p, word[0], image)
    prime = point[0]
    for key in ((word, (p.group.identity(), ())), ((weight, ()), word)):
        v = (col.get(key, 0) - 1) % prime
        if v:
            col[key] = v
        else:
            del col[key]
    return col


def _certified_kernel(p, candidates, weight):
    """The kernel that nullspace_of_columns finds on the defect columns of
    the candidates, from their ranks at the point, or None.

    Columns independent at the point are independent, since every minor
    that is nonzero there is nonzero.  Each column j dependent at the
    point is solved exactly against its support S there alone: when j is
    in the span of S, which is independent, the relation is unique up to
    a scalar, which _kernel_elements fixes by the lead coefficient, and
    the full elimination finds it too.  When every such j passes, each
    prefix has the same rank as at the point, so the full elimination
    finds no other dependent column.  None (a column with no value, or a
    j outside the span of its S) leaves the block to the full elimination.
    """
    point = _point(p.domain.conductor, p.domain.nvars)
    columns = []
    for w in candidates:
        col = _defect_column_at(p, w, weight, point)
        if col is None:
            return None
        columns.append(col)
    minus_one = -p.domain.one()
    kernel = []
    for j, support in _dependences_mod(columns, point[0]):
        tags = [candidates[i] for i in support] + [candidates[j]]
        exact = [_defect_column(p, w, weight, minus_one) for w in tags]
        relations = nullspace_of_columns(p.domain, exact, tags=tags)
        if len(relations) != 1 or candidates[j] not in relations[0]:
            return None
        kernel.append(relations[0])
    return kernel


def _lead_normalized(p, terms):
    """The element with terms {word: coeff}, scaled so that its word_key
    largest word has coefficient 1."""
    elt = AlgebraElement(dict(terms))
    lead = max(elt.terms, key=lambda w: word_key(w, p.ny))
    return elt.scale(elt.terms[lead].inverse())


def _kernel_elements(p, candidates, weight):
    kernel = _certified_kernel(p, candidates, weight)
    if kernel is None:
        minus_one = -p.domain.one()
        columns = [_defect_column(p, w, weight, minus_one) for w in candidates]
        kernel = nullspace_of_columns(p.domain, columns, tags=candidates)
    return [_lead_normalized(p, combo) for combo in kernel]


def _search_space(p, degree_bound, group_word_bound):
    """The search space within the bounds, built once per pair and cached
    on the presentation: the irreducible y-words of degree at most
    degree_bound, in the order of irreducible_ywords, each with its
    deg-lex key, its degree (counts(w) mod L, mu(w) mod M) and mu(w)
    reduced; the sorted group ball B_r of radius group_word_bound split by
    class mod M; and the weights worth searching: the mu(w) of the
    nonempty y-words w that lie in B_r, in ball order.

    One lemma prunes the search, on every presentation: if z is a kernel
    vector of the defect at the weight g outside the span of group
    elements, and c h w a term of z at its deg-lex largest y-word w, then
    h = 1 and mu(w) = g.  On the row h w (x) h, the all-left term of
    Delta(h w) puts c.  No other term of Delta(z) reaches it: the all-left
    term of Delta(h' w') is h' w' (x) h', and each of its other terms has
    fewer y-letters on the left than w', so than w.  g (x) z has none on
    the left, and z (x) 1 puts -c there only when h = 1.  The right words
    of Delta(h' w') are deg-lex at most w', with equality only in the
    all-right term h' mu(w') (x) h' w', of coefficient 1, and z (x) 1 has
    no y-letter on the right: on the row mu(w) (x) w only c w puts an
    entry, c, and g (x) z cancels it only when g = mu(w).

    So a block's top word, the largest y-word w with mu(w) = g, keeps
    only the candidate 1 w, and the words above it go
    (find_skew_primitives).  And at a weight that no y-word reaches, the
    kernel lies in the span of group elements, where Delta(sum c_h h) -
    (sum c_h h) (x) 1 - g (x) (sum c_h h) vanishes on k(g - 1) alone, and
    on 0 when g = 1: at most the coradical line, and no witness (where
    every rule term keeps a y-letter, find_skew_primitives opens no block
    there at all).  A third use bounds the conjugation closure
    (invariants.closure_mod_coradical).
    """
    key = (degree_bound, group_word_bound)
    found = p._search_spaces.get(key)
    if found is None:
        ywords = []
        for words in p.irreducible_ywords(degree_bound):
            for yw in words:
                # yword_key and p._degree((1, yw)), from one count and
                # one content
                counts, content = y_counts(yw, p.ny), p._content(yw)
                ywords.append((yw, (len(yw), counts, yw),
                               _reduce_mod(counts, p._count_lattice),
                               p._group_class(content), p.group.reduce(content)))
        ball = p.group.ball(group_word_bound)
        ball_by_class = {}
        for h in ball:
            ball_by_class.setdefault(p._group_class(h), []).append(h)
        reached = {mu for yw, _, _, _, mu in ywords if yw}
        weights = [g for g in ball if g in reached]
        found = p._search_spaces[key] = ywords, ball_by_class, weights
    return found


def _below_top_word(block, weight, e):
    """The candidates h w of a block that can lie in a kernel vector, in
    search order; the block lists (y-word, deg-lex key, group parts,
    mu(w) reduced) by y-word, and its top word, the largest y-word with
    mu(w) = weight, keeps only the group part e = 1 (see _search_space)."""
    top = max((key for yw, key, _, mu in block if yw and mu == weight), default=None)
    out = []
    for yw, key, parts, _ in block:
        if yw and key == top:
            parts = [e]
        elif yw and (top is None or key > top):
            continue
        out.extend((h, yw) for h in parts)
    return out


def _canonical_block(p, keyed, line):
    """The (top key, vector) pairs of one block, in top-key order, as one
    elimination of the line (if not None) and then their vectors leaves
    them: each vector reduced against the pivots before it and scaled to
    lead coefficient 1, and a vector that those span dropped."""
    elim = ScalarElimination(p.domain)
    if line is not None:
        elim.insert(line.terms, -1)
    out = []
    for idx, (key, z) in enumerate(keyed):
        if elim.insert(z.terms, idx) is None:
            out.append((key, _lead_normalized(p, elim.pivots[-1][1])))
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
    the class c = 0 also those of degree (0, M), the group elements among
    them.

    Among those, the group candidates h split off from the y-words where
    every rule term keeps a y-letter (Presentation.y_terms_only).  Call a
    row h (x) h' with both sides pure group a group row.  The column of h,
    h (x) h - h (x) 1 - weight (x) h, lies on group rows alone.  No column
    of a y-word candidate h w reaches one.  Rewrite a nonempty y-word: a
    rule term c g u puts u != () after g, and moving g left past y_j, to
    lambda_j(g) g y_j + tau_j(g) g (mu_j - 1), keeps what followed g, so
    in every term each group letter has a y-letter after it, and no rule
    term is empty: every term of the normal form keeps a y-letter.  Now
    Delta(h w) is the sum over the sets S of letters of w of
    h left_S (x) h NF(y_S), the letters of S going right as y_S and left
    as their weights.  S empty gives h w (x) h, with a y-letter on the
    left, and any other S a right side whose terms keep a y-letter;
    h w (x) 1 has one on the left and weight (x) h w one on the right.
    So each block's kernel is that of its group candidates plus that of
    its y-word candidates.  On the group rows, sum c_h h is in the kernel
    when c_h = 0 for h not 1 or weight (the row h (x) h) and
    c_1 + c_weight = 0 (the row weight (x) 1), and at weight = 1 when
    c_1 = 0: the group kernel is k(weight - 1) when weight != 1 and both
    1 and weight are candidates, that is, weight lies in the ball, and 0
    otherwise.  So under y_terms_only the empty y-word gets no group part, and
    the line costs no column.  Off it the group candidates stay, and the
    same test reads has_coradical_line: weight - 1 is (1,weight)-primitive
    on every presentation, and lies in the span of the candidates exactly
    when weight is one.

    Under y_terms_only, too, a nonempty y-word w enters only with the
    group part 1.  A word h w with h != 1 has a private row h w (x) 1
    in the defect D.  Delta(h' w') is the sum over subwords S of w' of
    h' left_S (x) h' NF(y_S).  S empty gives h' w' (x) h', which reaches
    that row only if h' = 1, and then h' w' != h w.  Any other S gives a
    right factor whose terms all keep a y-letter, as shown above.
    weight (x) z has no y-letter on the left.  So only z (x) 1 of h w
    itself reaches the row, with entry -1: the column is a pivot of every
    elimination and lies in no kernel vector.  Without it, each dependent
    column keeps its unique relation, and the basis and its order do not
    change.

    In every block, the candidates above the top word, and h w with
    h != 1 at it, lie in no kernel vector either (the lemma in
    _search_space).  Dropping them keeps each relation and the basis, as
    above; a block left with no candidate is skipped.

    A block opens only when a y-word brings it a candidate, and is first
    eliminated at one point mod P (_certified_kernel): columns
    independent there are independent, and only each dependence found
    there is solved exactly, on its own support.  A block with no
    dependence there, such as one column nonzero there, has no kernel.
    When a check fails, or a coefficient has no value at the point, the
    block is eliminated exactly as a whole.  Either way the kernel is the
    one the exact elimination of the whole block finds, so the basis
    never depends on the point.

    The basis is sorted by top word.  When it holds the line, it is the
    line, scaled to lead coefficient 1, then the rest as one elimination
    of [line] + basis leaves it (_canonical_block).  Blocks share no word,
    so no vector meets another block's pivot, and under y_terms_only none
    meets the line's: only a block with two or more kernel vectors, and
    off y_terms_only the block that holds the group candidates, with the
    line first, is eliminated; there the one vector the line makes
    dependent drops out.
    """
    p.require_confluent()
    group = p.group
    weight = group.reduce(weight)
    e = group.identity()
    has_line = not group.is_identity(weight) and group.word_length(weight) <= group_word_bound
    ywords, ball_by_class, _ = _search_space(p, degree_bound, group_word_bound)
    blocks = {}
    # the group parts depend on the y-word only through its content class
    # and whether its counts vanish
    parts_of = {}
    for yw, key, counts, content, mu in ywords:
        if not yw and p.y_terms_only:
            continue  # its group candidates give the line alone
        memo = (content, not any(counts))
        group_parts = parts_of.get(memo)
        if group_parts is None:
            classes = {p._group_class([a - b for a, b in zip(weight, content)])}
            if memo[1]:
                classes.add(p._group_class([-b for b in content]))
            if p.y_terms_only:
                group_parts = [e] if e in classes else []
            else:
                group_parts = sorted(h for cls in classes for h in ball_by_class.get(cls, ()))
            parts_of[memo] = group_parts
        if group_parts:
            blocks.setdefault(counts, []).append((yw, key, group_parts, mu))
    line = p.group_element(weight) - p.one() if has_line else None
    keyed = []  # (top word key, kernel vector)
    for block in blocks.values():
        candidates = _below_top_word(block, weight, e)
        if not candidates:
            continue
        kernel = sorted(((max(word_key(w, p.ny) for w in z.terms), z)
                         for z in _kernel_elements(p, candidates, weight)),
                        key=lambda pair: pair[0])
        # the empty y-word, if it is here, is the block's first candidate
        holds_line = not candidates[0][1]
        if has_line and (holds_line or len(kernel) > 1):
            kernel = _canonical_block(p, kernel, line if holds_line else None)
        keyed.extend(kernel)
    keyed.sort(key=lambda pair: pair[0])
    basis = [z for _, z in keyed]
    if has_line:
        basis.insert(0, _lead_normalized(p, line.terms))
    return SkewPrimitiveSpace(p, weight, basis, degree_bound,
                              group_word_bound, has_line)
