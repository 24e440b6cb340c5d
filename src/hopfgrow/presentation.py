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
multiply, coproducts and the growth closure are folds of that kernel.
The tests check it against whole-word rewriting in random order, an
oracle in tests/oracles.py that evaluates the characters itself.
"""

import itertools

from .elements import AlgebraElement, add_term, y_counts, yword_key
from .errors import NonConfluentError, PresentationError, ResourceCeilingError
from .intmat import row_reduce_with_transform


def _echelon_lattice(rows):
    """The lattice the integer rows span, as echelon (pivot column, row)
    pairs with every pivot positive."""
    lattice = []
    for row in row_reduce_with_transform(rows)[0]:
        col = next((k for k, x in enumerate(row) if x), None)
        if col is not None:
            lattice.append((col, row if row[col] > 0 else [-x for x in row]))
    return lattice


def _reduce_mod(vec, lattice):
    """The canonical representative of vec modulo an echelon lattice: each
    pivot column brought into [0, pivot)."""
    vec = list(vec)
    for col, row in lattice:
        quot = vec[col] // row[col]
        if quot:
            vec = [a - quot * b for a, b in zip(vec, row)]
    return tuple(vec)


def _times(a, b):
    """a * b for scalars, without a product when either factor is 1."""
    if b.is_one():
        return a
    if a.is_one():
        return b
    return a * b


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
        self._confluence = None
        self._rules_by_first = {}  # first letter -> [(rest of lhs, rule)]
        for rule in self.rules:
            self._rules_by_first.setdefault(rule.lhs[0], []).append((rule.lhs[1:], rule))
        self.tau_free = all(
            t.is_zero() for g in self.gens for t in (g.tau or []))
        self._count_lattice, self._group_lattice = self._grading()
        # multigraded: rewriting keeps both the y-counts and the group
        # content of a word, i.e. L = 0 and M is trivial
        self.is_multigraded = not self._count_lattice and all(
            self.group.is_identity(row) for _, row in self._group_lattice)

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
        g mu(u) mu(lhs)^-1; the tau terms of y_i h drop y_i and move the
        group content by 1 or mu_i^-1.  M also holds the torsion rows
        m_j e_j, so that it reduces group elements as well.
        """
        count_rows, group_rows = [], []
        for rule in self.rules:
            counts = y_counts(rule.lhs, self.ny)
            content = self._content(rule.lhs)
            for g, u in rule.rhs.terms:
                count_rows.append([a - b for a, b in zip(counts, y_counts(u, self.ny))])
                group_rows.append([a - b - c for a, b, c
                                   in zip(content, g, self._content(u))])
        for i, gen in enumerate(self.gens):
            if any(not t.is_zero() for t in gen.tau):
                count_rows.append([int(k == i) for k in range(self.ny)])
                group_rows.append(list(gen.weight))
        r = self.group.free_rank
        for j, m in enumerate(self.group.torsion):
            group_rows.append([m if k == r + j else 0 for k in range(self.group.ngens)])
        return _echelon_lattice(count_rows), _echelon_lattice(group_rows)

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
        """lambda_i evaluated at the group element h."""
        h = self.group.reduce(h)
        key = (i, h)
        cached = self._char_cache.get(key)
        if cached is not None:
            return cached
        val = self.domain.one()
        for img, e in zip(self.gens[i].character, h):
            if e:
                val = val * img ** e
        self._char_cache[key] = val
        return val

    def tau_value(self, i, h):
        """tau_i (additive character) evaluated at h; supported on free part."""
        h = self.group.reduce(h)
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

    def gen_index(self, name):
        for i, g in enumerate(self.gens):
            if g.name == name:
                return i
        raise PresentationError("unknown generator %r" % name)

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
            found = cache.get(key)
            if found is None:
                rule = self._front_rule(*key)
                if rule is None:
                    found = cache[key] = {
                        (self.group.identity(), (key[0],) + key[1]): self.domain.one()}
                else:
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
        generator: it yields each (letter, normal y-word) pair whose product
        it needs, is sent that product, and returns the sum.
        """
        e = self.group.identity()
        s = w[len(rule.lhs) - 1:]
        acc = {}
        for (g, u), c in rule.rhs.terms.items():
            terms = {(e, s): c}
            for i in reversed(u):
                new = {}
                for (h, v), cv in terms.items():
                    nf = yield i, v
                    self._add_letter_times(new, i, h, v, cv, nf)
                terms = new
            for (h, v), cv in terms.items():
                add_term(acc, (self.group.mul(g, h), v), cv)
        return acc

    def _add_letter_times(self, acc, i, h, v, c, nf):
        """Add c y_i (h v) to acc, for a normal word h v and nf = NF(y_i v):

            y_i h v = lambda_i(h) h NF(y_i v) + tau_i(h) h (mu_i - 1) v.
        """
        mul = self.group.mul
        lam = _times(c, self.char_value(i, h))
        for (h3, v3), c3 in nf.items():
            add_term(acc, (mul(h, h3), v3), _times(lam, c3))
        if not self.tau_free:
            tau = self.tau_value(i, h)
            if not tau.is_zero():
                tau = _times(c, tau)
                add_term(acc, (mul(h, self.gens[i].weight), v), tau)
                add_term(acc, (h, v), -tau)

    def _y_times(self, i, terms):
        """y_i times {(h, normal y-word): coeff}, in normal form."""
        out = {}
        for (h, v), c in terms.items():
            self._add_letter_times(out, i, h, v, c, self._letter_times(i, v))
        return out

    def normal_form_yword(self, yword):
        """Normal form of a pure y-word as an AlgebraElement.

        A right fold of left products, y_{i_1} (y_{i_2} (... y_{i_s})): each
        step multiplies a normal word by one letter through the kernel, so
        rules are tested at position 0 only and the products of shorter
        suffixes come from its cache.
        """
        terms = {(self.group.identity(), ()): self.domain.one()}
        for i in reversed(tuple(yword)):
            terms = self._y_times(i, terms)
        return AlgebraElement(terms)

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
            terms = b.terms
            for i in reversed(u):
                terms = self._y_times(i, terms)
            for (h, v), c in terms.items():
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
        normalize(u x), which commutes x to the left.  A finite rule set has
        finitely many overlaps, each of length at most |u| + |v| - 1
        (Bergman's diamond lemma), so none is skipped.  Returns a
        ConfluenceResult listing every critical pair whose two reductions
        differ.
        """
        if self._confluence is not None:
            return self._confluence

        def letters(yword):
            return tuple(("y", i) for i in yword)

        def reduced(word, pos, rule, tail=()):
            """NF of word with the redex of rule at pos replaced by its
            right-hand side, times the letters tail."""
            head = letters(word[:pos])
            rest = letters(word[pos + len(rule.lhs):]) + tail
            return self.normalize([(c, head + (("g", g),) + letters(yw) + rest)
                                   for (g, yw), c in rule.rhs.terms.items()])

        failures = []
        for ra, rb in itertools.product(self.rules, repeat=2):
            u, v = ra.lhs, rb.lhs
            for s in [*range(len(u) - 1, max(len(u) - len(v), 0) - 1, -1),
                      *range(1, len(u) - len(v))]:
                # at 0, v inside a longer u is the pair the other way round
                if (s == 0 and len(u) == len(v)) or u[s:s + len(v)] != v[:len(u) - s]:
                    continue
                word = u + v[len(u) - s:]
                first, second = reduced(word, 0, ra), reduced(word, s, rb)
                if first == second:
                    continue
                if s + len(v) < len(u):
                    detail = "rule %s inside %s" % (self._yname(v), self._yname(u))
                else:
                    detail = "rules %s and %s on word %s" % (
                        self._yname(u), self._yname(v), self._yname(word))
                failures.append(OverlapFailure("yy", word, detail, first, second))
        for rule in self.rules:
            for gi in range(self.group.ngens):
                x = (("g", self.group.generator(gi)),)
                first = reduced(rule.lhs, 0, rule, x)
                second = self.normalize([(self.domain.one(), letters(rule.lhs) + x)])
                if first != second:
                    failures.append(OverlapFailure(
                        "ygroup", rule.lhs + x,
                        "rule %s against group generator g%d"
                        % (self._yname(rule.lhs), gi + 1),
                        first, second))
        result = ConfluenceResult(failures)
        self._confluence = result
        return result

    def require_confluent(self):
        result = self.check_confluence()
        if not result.confluent:
            raise NonConfluentError(result.failures)

    def _yname(self, yword):
        return " ".join(self.gens[i].name for i in yword) if yword else "1"

    # -- filtration dimensions -------------------------------------------
    def default_generating_letters(self):
        letters = []
        for i in range(self.group.ngens):
            g = self.group.generator(i)
            letters.append(("g", g))
            letters.append(("g", self.group.inv(g)))
        for i in range(self.ny):
            letters.append(("y", i))
        return letters

    def filtration_dims(self, n_max, max_words=None):
        """Number of distinct normal words in products of <= n generators.

        dims[n] counts the words reached by products of at most n letters
        of default_generating_letters (1 included), each letter multiplying
        on the left and reaching the support of its product.  That is the
        size of a spanning set of normal words, so an upper bound on
        dim F_n, equal to it when no combination of reached words cancels.

        The presentation is length-filtered when it is tau-free and every
        rule term c g u has dist(g) + |u| <= |lhs|, dist the word length
        over the group letters.  Without tau a y-step commutes with the
        group, and by induction over the kernel fold every word h v reached
        by b y-letters has dist(h) <= b - |v|, while each normal y-word v is
        reached by |v| of them with group part 1.  So dims[n] is
        sum_t Y(t) ball[n - t], Y(t) the normal y-words of length t from
        _word_levels, summed on the side with fewer nonzero terms up to n.

        Everything else takes the breadth-first closure _closure_dims: a
        tau term tau_i(h) h (mu_i - 1) w depends on h, and a rule term
        with dist(g) + |u| > |lhs| reaches a y-word at a group part outside
        the ball around its first one.  The ball runs only to n_max, so with
        n_max < |lhs| the choice falls to the closure too.

        Raises ResourceCeilingError at the first level whose count passes
        max_words, attaching the sequence of the levels before it.  A ball
        cut at its horizon holds more than max_words words, so the count
        raises by that level, before it reads the ball past the cut.
        """
        self.require_confluent()
        if not self.tau_free:
            return self._closure_dims(n_max, max_words)
        dist, spheres, _ = self._letter_ball(n_max, max_words)
        if not self._length_filtered(dist):
            return self._closure_dims(n_max, max_words)
        last = len(spheres) - 1
        ball = list(itertools.accumulate(len(sphere) for sphere in spheres))
        by_level, upto, nonzero = [], [], []  # Y(t), its partial sums, t with Y(t) > 0
        levels = self._word_levels()
        dims = []
        for n in range(n_max + 1):
            new = next(levels, 0)
            by_level.append(new)
            upto.append(new + (upto[-1] if n else 0))
            if new:
                nonzero.append(n)
            if len(nonzero) <= min(n, last):
                count = sum(by_level[t] * ball[min(n - t, last)] for t in nonzero)
            else:
                count = sum(len(spheres[j]) * upto[n - j] for j in range(min(n, last) + 1))
            if dims and count > dims[-1] and max_words is not None and count > max_words:
                raise ResourceCeilingError(
                    "enumeration exceeded %d words" % max_words, partial=dims)
            dims.append(count)
            if nonzero[-1] < n and n >= nonzero[-1] + last:
                # Y has ended and every ball B_{n-t} is full: the count stays
                return dims + [count] * (n_max - n)
        return dims

    def _letter_ball(self, n_max, max_words=None):
        """Word lengths over the group letters, as {k: dist}, the spheres
        spheres[r] = [k : dist[k] = r] up to the last nonempty one, and the
        horizon: n_max, or the first radius whose ball grows past max_words.
        dims >= ball, so the closure passes the ceiling by the horizon."""
        mul = self.group.mul
        group_letters = [val for kind, val in self.default_generating_letters()
                         if kind == "g"]
        dist = {self.group.identity(): 0}
        spheres = [list(dist)]
        for r in range(1, n_max + 1):
            sphere = []
            for k in spheres[-1]:
                for x in group_letters:
                    k2 = mul(x, k)
                    if k2 not in dist:
                        dist[k2] = r
                        sphere.append(k2)
            if not sphere:
                break
            spheres.append(sphere)
            if max_words is not None and len(dist) > max_words:
                return dist, spheres, r
        return dist, spheres, n_max

    def _length_filtered(self, dist):
        """Whether every rule term c g u has dist(g) + |u| <= |lhs|, an
        element outside dist failing."""
        return all(g in dist and dist[g] + len(u) <= len(rule.lhs)
                   for rule in self.rules for g, u in rule.rhs.terms)

    def _word_levels(self):
        """Yield Y(b) for b = 0, 1, ... before the first b with Y(b) = 0,
        Y(b) the normal y-words of length b: a transfer count over the
        first K - 1 letters of a word, K the longest left-hand side, which
        decide the rule test of y_i w."""
        k = max((len(rule.lhs) for rule in self.rules), default=1) - 1
        states = {(): 1}
        while states:
            yield sum(states.values())
            new = {}
            for s, m in states.items():
                for i in range(self.ny):
                    if self._front_rule(i, s) is None:
                        s2 = ((i,) + s)[:k]
                        new[s2] = new.get(s2, 0) + m
            states = new

    def _closure_dims(self, n_max, max_words=None):
        """filtration_dims by breadth-first closure, F_n = V F_{n-1}: level
        n adds the support of letter * w for each word w first reached at
        level n - 1.  The path of every presentation that is not
        length-filtered, and the test oracle of the count."""
        letters = self.default_generating_letters()
        seen = {(self.group.identity(), ())}
        frontier = list(seen)
        dims = [1]
        for _ in range(n_max):
            new_frontier = []
            for word in frontier:
                for letter in letters:
                    for w2 in self.word_times_letter(word, letter):
                        if w2 not in seen:
                            seen.add(w2)
                            new_frontier.append(w2)
                            if max_words is not None and len(seen) > max_words:
                                raise ResourceCeilingError(
                                    "enumeration exceeded %d words" % max_words,
                                    partial=dims)
            dims.append(len(seen))
            frontier = new_frontier
        return dims

    def __repr__(self):
        label = self.name or "presentation"
        return "<Presentation %s: %r, %d y-gens, %d rules>" % (
            label, self.group, self.ny, len(self.rules))
