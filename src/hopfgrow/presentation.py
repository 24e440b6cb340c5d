"""Presentations of pointed Hopf algebras and their rewriting engine.

A presentation consists of a scalar domain, an abelian group of group-like
elements, skew-primitive generators y_i (each with a weight mu_i, a
multiplicative character lambda_i, and an additive character tau_i), and
oriented rewrite rules between y-words.  The commutation

    y_i g = lambda_i(g) g y_i + tau_i(g) g (mu_i - 1)

is implied by the generator data and never listed among the rules.

Normal forms collect the group part on the left: every element is a
combination of words g y_{i_1} ... y_{i_s} with the y-word irreducible.
Rules must be oriented by the deg-lex order (total y-degree, multidegree,
letter sequence; group letters weigh nothing), which makes rewriting
terminate; confluence is checked, never assumed.

Every product goes through one left-product kernel, NF(y_i w) for a normal
y-word w.  A redex of y_i w can only start at position 0, so one rule test
decides whether y_i w is normal; otherwise the rule's right-hand side folds
onto the rest of w through cached products by smaller words (deg-lex
rewriting is compatible with concatenation: Bergman, The diamond lemma for
ring theory, Adv. Math. 29, 1978).  Normal forms of words, normalize,
multiply, both reductions of each confluence overlap and coproducts are
folds of that kernel.
The tests check it against whole-word rewriting in random order, an
oracle in tests/oracles.py that evaluates the characters itself.
"""

import math

from .elements import AlgebraElement, add_term, y_counts, yword_key
from .errors import NonConfluentError, PresentationError
from .intmat import row_echelon

# the largest y-power, free rank or cyclotomic order a file may ask for, and
# the largest growth horizon; each is checked before anything of that size
# is built
_SIZE_CEILING = 1000


def _echelon_lattice(rows):
    """The lattice the integer rows span, as echelon (pivot column, row)
    pairs with every pivot positive."""
    lattice = []
    for row in row_echelon(rows):
        col = next(k for k, x in enumerate(row) if x)
        lattice.append((col, row if row[col] > 0 else [-x for x in row]))
    return lattice


def _char_at(domain, character, h):
    """The character with the images `character` of the group generators,
    at the group element h: the product of c_k^(h_k)."""
    val = domain.one()
    for c, e in zip(character, h):
        if e:
            val = val * c ** e
    return val


def _reduce_mod(vec, lattice):
    """The canonical representative of vec modulo an echelon lattice: each
    pivot column brought into [0, pivot)."""
    vec = list(vec)
    for col, row in lattice:
        quot = vec[col] // row[col]
        if quot:
            vec = [a - quot * b for a, b in zip(vec, row)]
    return tuple(vec)


class SkewGenerator:
    """A skew-primitive generator: name, weight, characters."""

    __slots__ = ("name", "weight", "character", "tau")

    def __init__(self, name, weight, character, tau=None):
        self.name = name
        self.weight = tuple(weight)
        self.character = tuple(character)
        self.tau = tuple(tau) if tau is not None else None

    def __repr__(self):
        return "SkewGenerator(%r)" % self.name


class RewriteRule:
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = tuple(lhs)
        self.rhs = rhs

    def __repr__(self):
        return "RewriteRule(%r -> %r)" % (self.lhs, self.rhs)


class OverlapFailure:
    """An unresolved critical pair found by the confluence check."""

    def __init__(self, kind, word, detail, first, second):
        self.kind = kind          # "yy" or "ygroup"
        self.word = word          # the ambiguous word (y-indices, maybe + group)
        self.detail = detail
        self.first = first        # AlgebraElement from one reduction order
        self.second = second      # AlgebraElement from the other

    def difference(self):
        return self.first - self.second

    def describe(self):
        return "%s overlap on %s" % (self.kind, self.detail)

    def __repr__(self):
        return "OverlapFailure(%s)" % self.describe()


class ConfluenceResult:
    def __init__(self, failures):
        self.failures = failures

    @property
    def confluent(self):
        return not self.failures


class Presentation:
    def __init__(self, domain, group, generators, rules=(), name=None):
        self.domain = domain
        self.group = group
        self.gens = list(generators)
        self.name = name
        self.ny = len(self.gens)
        self.rules = [RewriteRule(lhs, self._coerce_rhs(rhs)) for lhs, rhs in rules]
        self._validate()
        self._letter_cache = {}  # (i, normal y-word w) -> NF(y_i w)
        self._char_cache = {}
        self._tau_cache = {}
        self._coproduct_cache = {}  # y-word -> {(left, right): coeff}
        self._coproduct_point_cache = {}  # y-word -> that at the point, or None
        # (degree bound, group bound) -> (y-words, ball by class, weights)
        self._search_spaces = {}
        self._confluence = None
        self._automaton = None  # successor states of each rule automaton state
        self._rules_by_first = {}  # first letter -> [(rest of lhs, rule)]
        for rule in self.rules:
            self._rules_by_first.setdefault(rule.lhs[0], []).append((rule.lhs[1:], rule))
        self.tau_free = all(t.is_zero() for g in self.gens for t in g.tau)
        self.letter_weight = self._letter_weight()
        # count-graded: every rule term c g u keeps the letter counts of its
        # left-hand side, with g = 1 unless tau vanishes (moving g left past
        # y_j then drops no letter), so the normal form of a y-word is a sum
        # of words with its letter counts
        self.count_graded = all(
            y_counts(u, self.ny) == y_counts(rule.lhs, self.ny)
            and (self.tau_free or self.group.is_identity(g))
            for rule in self.rules for g, u in rule.rhs.terms)
        self._count_lattice, self._group_lattice = self._grading()

    def _letter_weight(self):
        """W = max(1, |mu_i| over the tau-generators, ceil(|g| / (|lhs| - |u|))
        over the rule terms c g u with |u| < |lhs|): a weight of a y-letter,
        against 1 for a group letter, at which no rule step and no tau step
        g mu_i raises the weighted length |h| + W|w| of a word h w.  A rule
        term with |u| = |lhs| and g != 1 raises it at every weight, and
        deg-lex leaves no |u| > |lhs|.  Such a term may vanish once u is
        rewritten, so where the rules as given leave no W it is read from
        the normal forms of their right-hand sides: the rules
        lhs -> NF(rhs) have the same left-hand sides and span the same
        ideal.  None where those leave no W either."""
        length = self.group.word_length
        base = max([1] + [length(gen.weight) for gen in self.gens
                          if any(not t.is_zero() for t in gen.tau)])

        def weight(rhs):
            found = base
            for rule in self.rules:
                for g, u in rhs(rule).terms:
                    drop = len(rule.lhs) - len(u)
                    if drop:
                        found = max(found, -(-length(g) // drop))
                    elif not self.group.is_identity(g):
                        return None
            return found

        found = weight(lambda rule: rule.rhs)
        return found if found is not None else weight(lambda rule: self.normalize(rule.rhs))

    # ------------------------------------------------------------------
    def _coerce_rhs(self, rhs):
        if isinstance(rhs, AlgebraElement):
            return rhs
        if isinstance(rhs, dict):
            return AlgebraElement({(self.group.reduce(g), tuple(yw)): c
                                   for (g, yw), c in rhs.items() if not c.is_zero()})
        raise PresentationError("rule right-hand side must be an element")

    def _validate(self):
        ngens = self.group.ngens
        r = self.group.free_rank
        names = set()
        for i, gen in enumerate(self.gens):
            if gen.name in names:
                raise PresentationError("duplicate generator name %r" % gen.name)
            names.add(gen.name)
            gen.weight = self.group.reduce(gen.weight)
            if len(gen.character) != ngens:
                raise PresentationError(
                    "generator %r: character needs %d group images" % (gen.name, ngens))
            if any(v.is_zero() for v in gen.character):
                raise PresentationError(
                    "generator %r: character images must be invertible" % gen.name)
            for j, m in enumerate(self.group.torsion):
                if not (gen.character[r + j] ** m).is_one():
                    raise PresentationError(
                        "generator %r: character image at torsion generator %d "
                        "is not an %d-th root of unity" % (gen.name, r + j + 1, m))
            if gen.tau is None:
                gen.tau = tuple(self.domain.zero() for _ in range(ngens))
            if len(gen.tau) != ngens:
                raise PresentationError(
                    "generator %r: tau needs %d group images" % (gen.name, ngens))
            trivial = all(v.is_one() for v in gen.character)
            if not trivial and any(not t.is_zero() for t in gen.tau):
                raise PresentationError(
                    "generator %r: tau must vanish unless the character is trivial"
                    % gen.name)
            if any(not gen.tau[r + j].is_zero() for j in range(len(self.group.torsion))):
                raise PresentationError(
                    "generator %r: tau must vanish on torsion generators" % gen.name)
        seen_lhs = set()
        for rule in self.rules:
            if not rule.lhs:
                raise PresentationError("empty rule left-hand side")
            if any(not 0 <= i < self.ny for i in rule.lhs):
                raise PresentationError("rule %r uses unknown y-generator" % (rule.lhs,))
            if rule.lhs in seen_lhs:
                raise PresentationError("duplicate rule for %r" % (rule.lhs,))
            seen_lhs.add(rule.lhs)
            lkey = yword_key(rule.lhs, self.ny)
            for (g, yw) in rule.rhs.terms:
                if yword_key(yw, self.ny) >= lkey:
                    raise PresentationError(
                        "rule %r -> ... is not deg-lex decreasing at word %r"
                        % (rule.lhs, yw))

    # -- the grading rewriting respects ----------------------------------
    def _content(self, yword):
        """mu(w), the product of the weights of the letters, as an integer
        vector (torsion coordinates unreduced)."""
        vec = [0] * self.group.ngens
        for i in yword:
            vec = [a + b for a, b in zip(vec, self.gens[i].weight)]
        return vec

    def _grading(self):
        """Lattices L in Z^ny and M in Z^ngens, in echelon form.

        A normal word h w has degree (counts(w) mod L, h mu(w) mod M), and
        no rewriting step leaves a degree.  A rule term c g u of lhs moves
        the counts by counts(u) - counts(lhs) and the group content by
        g mu(u) mu(lhs)^-1, which is g alone when u keeps the letters of
        lhs; the tau terms of y_i h drop y_i and move the group content by
        1 or mu_i^-1.  M also holds the torsion rows m_j e_j, so that it
        reduces group elements as well.  Each distinct nonzero row enters
        the elimination once.
        """
        count_rows, group_rows = {}, {}  # distinct rows, in first-seen order
        for rule in self.rules:
            counts = y_counts(rule.lhs, self.ny)
            for g, u in rule.rhs.terms:
                u_counts = y_counts(u, self.ny)
                if u_counts == counts:
                    group_rows[g] = None
                    continue
                count_rows[tuple(a - b for a, b in zip(counts, u_counts))] = None
                group_rows[tuple(a - b - c for a, b, c in zip(
                    self._content(rule.lhs), g, self._content(u)))] = None
        for i, gen in enumerate(self.gens):
            if any(not t.is_zero() for t in gen.tau):
                count_rows[tuple(int(k == i) for k in range(self.ny))] = None
                group_rows[tuple(gen.weight)] = None
        r = self.group.free_rank
        for j, m in enumerate(self.group.torsion):
            group_rows[tuple(m if k == r + j else 0 for k in range(self.group.ngens))] = None
        return (_echelon_lattice([row for row in count_rows if any(row)]),
                _echelon_lattice([row for row in group_rows if any(row)]))

    def _group_class(self, vec):
        """The canonical representative of a group element mod M."""
        return _reduce_mod(vec, self._group_lattice)

    def _degree(self, word):
        """The degree (counts(w) mod L, h mu(w) mod M) of a normal word h w."""
        h, yw = word
        counts = _reduce_mod(y_counts(yw, self.ny), self._count_lattice)
        content = self._content(yw)
        return counts, self._group_class([a + b for a, b in zip(h, content)])

    # -- scalar-valued character data ----------------------------------
    def char_value(self, i, h):
        """lambda_i evaluated at the group element h.  Reduced or not, h
        has one value: _validate checks lambda_i(t_j)^m_j = 1."""
        key = (i, h)
        cached = self._char_cache.get(key)
        if cached is not None:
            return cached
        val = self._char_cache[key] = _char_at(self.domain, self.gens[i].character, h)
        return val

    def tau_value(self, i, h):
        """tau_i (additive character) evaluated at h; supported on the free
        part, so h need not be reduced."""
        key = (i, h)
        cached = self._tau_cache.get(key)
        if cached is not None:
            return cached
        val = self.domain.zero()
        for img, e in zip(self.gens[i].tau, h[:self.group.free_rank]):
            if e and not img.is_zero():
                val = val + img * e
        self._tau_cache[key] = val
        return val

    # -- element constructors ------------------------------------------
    def one(self):
        return AlgebraElement({(self.group.identity(), ()): self.domain.one()})

    def group_element(self, h):
        return AlgebraElement({(self.group.reduce(h), ()): self.domain.one()})

    def y(self, i):
        if not 0 <= i < self.ny:
            raise PresentationError("no y-generator with index %d" % i)
        return AlgebraElement({(self.group.identity(), (i,)): self.domain.one()})

    # -- left products: the rewriting kernel ------------------------------
    def _front_rule(self, i, w):
        """The first rule whose left-hand side is a prefix of y_i w, or None."""
        for rest, rule in self._rules_by_first.get(i, ()):
            if w[:len(rest)] == rest:
                return rule
        return None

    def _letter_times(self, i, w):
        """NF(y_i w) for a normal y-word w, as a {(h, word): coeff} dict.

        With no rule matching at position 0, y_i w is normal; otherwise
        _rule_fold rewrites the match.  The products a fold asks for come
        from the cache or are computed on an explicit stack of suspended
        folds, since words can be far longer than the recursion limit.
        Results are cached and shared: callers must not change them.  A
        rule-free presentation caches nothing.
        """
        if not self.rules:
            return {(self.group.identity(), (i,) + w): self.domain.one()}
        cache = self._letter_cache
        key = (i, w)
        found = cache.get(key)
        if found is not None:
            return found
        stack = []  # (key, suspended rule fold waiting for a product)
        while True:
            # key is a cache miss: folds suspend on nothing else
            rule = self._front_rule(*key)
            if rule is None:
                found = cache[key] = {
                    (self.group.identity(), (key[0],) + key[1]): self.domain.one()}
            else:
                found = None
                stack.append((key, self._rule_fold(rule, key[1])))
            while stack:
                top, fold = stack[-1]
                try:
                    key = fold.send(found)
                    break
                except StopIteration as done:
                    found = cache[top] = done.value
                    stack.pop()
            else:
                return found

    def _rule_fold(self, rule, w):
        """NF(lhs s) for the rule matching y_i w at position 0, w = lhs[1:] s.

        The sum of c g (u s) over the right-hand side terms c g u, where the
        letters of u fold onto the normal word s from the right.  A
        generator: it reads the products it needs from the kernel's cache,
        yields each (letter, normal y-word) pair the cache lacks, is sent
        that product, and returns the sum.
        """
        e = self.group.identity()
        cache = self._letter_cache
        s = w[len(rule.lhs) - 1:]
        acc = {}
        for (g, u), c in rule.rhs.terms.items():
            terms = {(e, s): c}
            for i in reversed(u):
                new = {}
                for (h, v), cv in terms.items():
                    nf = cache.get((i, v))
                    if nf is None:
                        nf = yield i, v
                    self._add_letter_times(new, i, h, v, cv, nf)
                terms = new
            for (h, v), cv in terms.items():
                add_term(acc, (self.group.mul(g, h), v), cv)
        return acc

    def _add_letter_times(self, acc, i, h, v, c, nf):
        """Add c y_i (h v) to acc, for a normal word h v and nf = NF(y_i v):

            y_i h v = lambda_i(h) h NF(y_i v) + tau_i(h) h (mu_i - 1) v.

        At h = 1 that is c NF(y_i v), as tau_i(1) = 0.  No product by the
        domain's one is taken.
        """
        one = self.domain._one
        if not any(h):
            for word, c3 in nf.items():
                add_term(acc, word, c if c3 is one else c * c3)
            return
        mul = self.group.mul
        lam = self.char_value(i, h)
        lam = c if lam is one else c * lam
        for (h3, v3), c3 in nf.items():
            add_term(acc, (mul(h, h3), v3), lam if c3 is one else lam * c3)
        if not self.tau_free:
            tau = self.tau_value(i, h)
            if not tau.is_zero():
                tau = c * tau
                add_term(acc, (mul(h, self.gens[i].weight), v), tau)
                add_term(acc, (h, v), -tau)

    def _y_times(self, i, terms):
        """y_i times {(h, normal y-word): coeff}, in normal form."""
        cache = self._letter_cache
        out = {}
        for (h, v), c in terms.items():
            nf = cache.get((i, v))
            if nf is None:
                nf = self._letter_times(i, v)
            self._add_letter_times(out, i, h, v, c, nf)
        return out

    def _fold(self, yword, terms):
        """The y-word times {(h, normal y-word): coeff}, in normal form: a
        right fold of _y_times."""
        for i in reversed(yword):
            terms = self._y_times(i, terms)
        return terms

    def normal_form_yword(self, yword):
        """Normal form of a pure y-word as an AlgebraElement.

        A right fold of left products, y_{i_1} (y_{i_2} (... y_{i_s})): each
        step multiplies a normal word by one letter through the kernel, so
        rules are tested at position 0 only and the products of shorter
        suffixes come from its cache.
        """
        return AlgebraElement(
            self._fold(tuple(yword), {(self.group.identity(), ()): self.domain.one()}))

    # -- products ----------------------------------------------------------
    def normalize(self, raw):
        """Normal form of raw input.

        Accepts an AlgebraElement (re-normalized) or a list of (Scalar,
        letters) terms, where a letter is ("g", group element) or ("y",
        index).  Each letter sequence is a right fold: a group letter
        relabels the group parts, a y-letter is a kernel step.
        """
        if isinstance(raw, AlgebraElement):
            terms = [(c, (("g", g),) + tuple(("y", i) for i in yw))
                     for (g, yw), c in raw.terms.items()]
        else:
            terms = [(c, tuple(letters)) for c, letters in raw]
        mul = self.group.mul
        acc = {}
        for coeff, letters in terms:
            if coeff.is_zero():
                continue
            branches = {(self.group.identity(), ()): coeff}
            for kind, val in reversed(letters):
                if kind == "g":
                    branches = {(mul(val, h), v): c for (h, v), c in branches.items()}
                elif kind == "y":
                    if not 0 <= val < self.ny:
                        raise PresentationError("unknown y-generator index %r" % (val,))
                    branches = self._y_times(val, branches)
                else:
                    raise PresentationError("unknown letter kind %r" % (kind,))
            for word, c in branches.items():
                add_term(acc, word, c)
        return AlgebraElement(acc)

    def multiply(self, a, b):
        """Product of two elements, in normal form: the letters of each word
        h1 u of a fold onto b from the right, then h1 relabels."""
        mul = self.group.mul
        acc = {}
        for (h1, u), c1 in a.terms.items():
            for (h, v), c in self._fold(u, b.terms).items():
                add_term(acc, (mul(h1, h), v), c1 * c)
        return AlgebraElement(acc)

    def word_times_letter(self, word, letter):
        """Support of letter * (normal word h w), as a list of normal words.

        A group letter x only joins the group part: x h w = (x h) w.  A
        y-letter is one kernel step, y_i h w = lambda_i(h) h NF(y_i w)
        + tau_i(h) h (mu_i - 1) w, with NF(y_i w) from the left-product
        kernel.  The tau terms merge exactly; when tau_i(h) = 0 every
        coefficient is nonzero and none is computed.
        """
        h, yw = word
        kind, val = letter
        group = self.group
        if kind == "g":
            return [(group.mul(val, h), yw)]
        nf = self._letter_times(val, yw)
        tau = None if self.tau_free else self.tau_value(val, h)
        if tau is None or tau.is_zero():
            return [(group.mul(h, h3), ys3) for (h3, ys3) in nf]
        out = {}
        self._add_letter_times(out, val, h, yw, self.domain.one(), nf)
        return list(out)

    # -- irreducible word enumeration -----------------------------------
    def irreducible_ywords(self, max_degree):
        """All rule-irreducible y-words of total degree <= max_degree, by degree."""
        by_degree = [[()]]
        for _ in range(max_degree):
            # y_i w with w irreducible can only have a redex at position 0
            by_degree.append([(i,) + w for i in range(self.ny) for w in by_degree[-1]
                              if self._front_rule(i, w) is None])
        return by_degree

    # -- confluence -------------------------------------------------------
    def check_confluence(self):
        """Resolve every overlap ambiguity.

        For each ordered pair of rules u -> a, v -> b and each position s at
        which v meets u, the word u v[|u| - s:] reduces by the first rule at
        0 and by the second at s: shared boundaries, where v reaches the end
        of u, by growing overlap, then containments left to right.  Each u
        times each positive group generator x reduces by its rule and by
        commuting x to the left through u.  A finite rule set has finitely
        many overlaps, each of length at most |u| + |v| - 1 (Bergman's
        diamond lemma).  Returns a ConfluenceResult listing every critical
        pair whose two reductions differ.

        A pair (u, v) is tried only when v's first letter occurs in u: at
        every position s it meets u, be it a shared boundary, a containment
        or u a prefix of v (s = 0), u[s] = v[0], so no overlap is lost.
        Both reductions of an overlap are right folds of the left-product
        kernel over normal terms (_overlap_reduction); so is u x.

        A group overlap u x of the rule u -> sum c g w is settled by the
        character grading, and not reduced, when
        1. the presentation is tau-free,
        2. every right-hand side word w has the letter counts of u, and
        3. no other rule's left-hand side occurs in u, at any position.
        Let N be the kernel's right fold.  With tau = 0 each fold step is
        y_i (h v) = lambda_i(h) h N(y_i v), so N(u x) = lambda_u(x) x N(u)
        and N(g w x) = lambda_w(x) x g N(w), lambda_u the product of the
        lambda of the letters of u.  By 2, lambda_w = lambda_u.  By 3 every
        proper suffix of u is normal and u's own rule is its front rule, so
        N(u) = N(sum c g w).  Both reductions are lambda_u(x) x N(u): the
        overlap resolves, and the failure list is the one that reducing it
        would give.  Without any one condition an overlap can fail: a
        tau-generator with y1 y1 -> 0, skew_trunc with bad_gen, and the
        rules y1 -> y2, y2 y1 -> 0 over Z.
        """
        if self._confluence is not None:
            return self._confluence
        e = self.group.identity()
        lhs_set = {rule.lhs for rule in self.rules}
        lhs_lengths = {len(lhs) for lhs in lhs_set}

        def settled_by_grading(rule):
            u = rule.lhs
            counts = y_counts(u, self.ny)
            return (self.tau_free
                    and all(y_counts(w, self.ny) == counts for _, w in rule.rhs.terms)
                    and not any(u[a:a + n] in lhs_set for n in lhs_lengths
                                if n < len(u) for a in range(len(u) - n + 1)))

        failures = []
        for ra in self.rules:
            u = ra.lhs
            meets = set(u)
            for rb in self.rules:
                v = rb.lhs
                if v[0] not in meets:
                    continue
                for s in [*range(len(u) - 1, max(len(u) - len(v), 0) - 1, -1),
                          *range(1, len(u) - len(v))]:
                    # at 0, v inside a longer u is the pair the other way round
                    if (s == 0 and len(u) == len(v)) or u[s:s + len(v)] != v[:len(u) - s]:
                        continue
                    word = u + v[len(u) - s:]
                    first = self._overlap_reduction((), ra, word[len(u):], e)
                    second = self._overlap_reduction(word[:s], rb, word[s + len(v):], e)
                    if first == second:
                        continue
                    if s + len(v) < len(u):
                        detail = "rule %s inside %s" % (self._yname(v), self._yname(u))
                    else:
                        detail = "rules %s and %s on word %s" % (
                            self._yname(u), self._yname(v), self._yname(word))
                    failures.append(OverlapFailure("yy", word, detail, first, second))
        for rule in self.rules:
            if settled_by_grading(rule):
                continue
            for gi in range(self.group.ngens):
                x = self.group.generator(gi)
                first = self._overlap_reduction((), rule, (), x)
                second = AlgebraElement(self._fold(rule.lhs, {(x, ()): self.domain.one()}))
                if first != second:
                    failures.append(OverlapFailure(
                        "ygroup", rule.lhs + (("g", x),),
                        "rule %s against group generator g%d"
                        % (self._yname(rule.lhs), gi + 1),
                        first, second))
        result = ConfluenceResult(failures)
        self._confluence = result
        return result

    def _overlap_reduction(self, head, rule, rest, x):
        """NF(head a rest x) for the rule's right-hand side a, the y-words
        head and rest and the group element x: rest folds onto x, each term
        c g w of a folds w onto that and relabels by g, and head folds onto
        the sum, all through the left-product kernel."""
        if not rule.rhs.terms:
            return AlgebraElement()
        tail = self._fold(rest, {(x, ()): self.domain.one()})
        mul = self.group.mul
        acc = {}
        for (g, w), c in rule.rhs.terms.items():
            for (h, v), cv in self._fold(w, tail).items():
                add_term(acc, (mul(g, h), v), c * cv)
        return AlgebraElement(self._fold(head, acc))

    def require_confluent(self):
        result = self.check_confluence()
        if not result.confluent:
            raise NonConfluentError(result.failures)

    def _yname(self, yword):
        return " ".join(self.gens[i].name for i in yword) if yword else "1"

    # -- filtration dimensions -------------------------------------------
    def filtration_dims(self, n_max):
        """dim F_n for n <= n_max, F_n the span of the normal words h w of
        weighted length |h| + W|w| <= n, W = letter_weight: dims[n] is
        sum_t Y(t) |B_{n - Wt}|, Y(t) the normal y-words of length t from
        _word_levels and |B_r| from GroupData.ball_sizes.  No word is
        listed.

        No rule step and no tau step raises the weighted length (see
        _growth_verdict), so F is an algebra filtration.  Let V be the
        span of 1, the group generators and their inverses, and the y's.
        At W = 1, F_n is V^n: each normal word h v of |h| + |v| <= n is a
        product of its n letters, v built from 1 by its y-letters using
        tau_i(1) = 0, and V^n lies in F_n.  At W > 1, F_n lies in V^n and
        V^n in F_Wn, a different filtration with the same growth.

        Raises PresentationError where letter_weight is None, and
        ValueError, before any work, when n_max is above the size ceiling
        _SIZE_CEILING: the sequence holds n_max + 1 entries.
        """
        if n_max > _SIZE_CEILING:
            raise ValueError("n_max %d is above the size ceiling %d"
                             % (n_max, _SIZE_CEILING))
        self.require_confluent()
        weight = self._require_weight()
        ys = [y for _, y in zip(range(n_max // weight + 1), self._word_levels())]
        ball = self.group.ball_sizes(n_max)
        return [sum(y * ball[n - weight * t] for t, y in enumerate(ys[:n // weight + 1]))
                for n in range(n_max + 1)]

    def _require_weight(self):
        """letter_weight, or a PresentationError where there is none.

        Then the normal form of some rule's right-hand side has a term
        c h u with |u| = |lhs| and h != 1, and a confluent presentation is
        no Hopf algebra.  Filter A by y-length: no rewriting step raises it,
        so the normal words of y-length s are a basis of gr_s A, and
        Delta(y_i) = y_i (x) 1 + mu_i (x) y_i makes
        rho = (id (x) pi) gr Delta an algebra map gr A -> gr A (x) kG, pi
        the projection onto y-length 0, with rho(y_i) = y_i (x) 1 and
        rho(g) = g (x) g.  At the top y-length s = |lhs| the relation
        lhs = NF(rhs) reads lhs = sum c g u over its terms with |u| = s,
        and rho gives lhs (x) 1 = sum c g u (x) g.  So the terms with g = h
        sum to 0 in gr_s A, which for the normal words u forces c = 0: the
        relations span no Hopf ideal.
        """
        if self.letter_weight is None:
            raise PresentationError(
                "no letter weight: a rule term as long as its left-hand side "
                "keeps a group part in normal form, which no Hopf ideal allows")
        return self.letter_weight

    def _rule_automaton(self):
        """Per state, its successors by the letters y_i that may be prepended.
        The state of a normal y-word w (0 for w = 1) is its longest prefix s
        that is a proper suffix of a left-hand side, so y_i w is normal iff
        y_i s is, and its state is the longest such prefix of y_i s."""
        if self._automaton is None:
            suffixes = {()}.union(rule.lhs[k:] for rule in self.rules
                                  for k in range(1, len(rule.lhs)))
            states, index, self._automaton = [()], {(): 0}, []
            for s in states:  # breadth-first: the list grows as it is read
                out = []
                for w in [(i,) + s for i in range(self.ny) if not self._front_rule(i, s)]:
                    t = next(w[:k] for k in range(len(w), -1, -1) if w[:k] in suffixes)
                    if index.setdefault(t, len(states)) == len(states):
                        states.append(t)
                    out.append(index[t])
                self._automaton.append(out)
        return self._automaton

    def _growth_verdict(self):
        """The growth of filtration_dims (Ufnarovski, Math. Notes 31, 1982):
        exponential if a strongly connected component of the rule automaton
        has more edges than states, else of degree r + d, r the free rank
        and d the most cyclic components on a path from state 0, and
        dimension sum_b Y(b) |G| if r + d = 0.  Raises PresentationError
        where letter_weight is None (_require_weight).  Proof: with the
        weight W = letter_weight, no rule step c g u of lhs raises the
        weighted length |h| + W|w| of a word h w, as |g| <= W(|lhs| - |u|),
        and moving g left past y_j gives lambda_j(g) g y_j, tau_j(g) g mu_j
        and -tau_j(g) g, where |g mu_j| <= |g| + W for a tau-generator.  So
        F_n = span{h w : |h| + W|w| <= n} is an algebra filtration, and its
        words are reached by |h| + |w| <= n letters, each of weighted
        length <= W: the products of n letters lie between F_n and F_Wn,
        which has the same growth (Krause and Lenagan, Growth of
        Algebras and Gelfand-Kirillov Dimension, 2000).
        dim F_n = sum_t Y(t) |B_{n - Wt}|, Y(t) the paths of length t from
        state 0.  (1) Such a component has a state with two edges inside
        it, each closing to a cycle; k blocks of either, raised to one
        length, give 2^k paths.  (2) Else a path is fixed, up to finitely
        many choices, by its turns round at most d cycles:
        S(n) = sum_{t <= n} Y(t) is Theta(n^d), |B_n| is Theta(n^r), and
        |B_{n/2}| S(n/2W) <= dim F_n <= |B_n| S(n).  Tarjan's algorithm
        (SIAM J. Comput. 1, 1972) ends each component after all it
        reaches."""
        self._require_weight()
        edges = self._rule_automaton()
        num, low, comp, depth = {0: 0}, [0] * len(edges), {}, []  # depth: d per component
        stack, calls = [0], [(0, iter(edges[0]))]
        while calls:
            v, succ = calls[-1]
            for w in succ:
                if w not in num:
                    num[w] = low[w] = len(num)
                    stack.append(w)
                    calls.append((w, iter(edges[w])))
                    break
                if w not in comp:  # still on the stack
                    low[v] = min(low[v], num[w])
            else:
                calls.pop()
                if calls:
                    low[calls[-1][0]] = min(low[calls[-1][0]], low[v])
                if low[v] < num[v]:
                    continue
                c, members = len(depth), []
                while v not in comp:
                    members.append(stack.pop())
                    comp[members[-1]] = c
                targets = [comp[w] for u in members for w in edges[u]]
                if targets.count(c) > len(members):
                    return {"kind": "exponential"}
                depth.append(max([depth[t] for t in targets if t < c], default=0)
                             + (c in targets))
        out = {"kind": "polynomial", "degree": self.group.free_rank + depth[-1]}
        if not out["degree"]:
            out["dimension"] = sum(self._word_levels()) * math.prod(self.group.torsion)
        return out

    def _word_levels(self):
        """Yield Y(b) for b = 0, 1, ... before the first b with Y(b) = 0,
        Y(b) the normal y-words of length b: the paths of length b from
        state 0 of the rule automaton, counted level by level."""
        edges, profile = self._rule_automaton(), {0: 1}
        while profile:
            yield sum(profile.values())
            new = {}
            for s, m in profile.items():
                for t in edges[s]:
                    new[t] = new.get(t, 0) + m
            profile = new

    def __repr__(self):
        label = self.name or "presentation"
        return "<Presentation %s: %r, %d y-gens, %d rules>" % (
            label, self.group, self.ny, len(self.rules))
