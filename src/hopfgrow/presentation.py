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
"""

import itertools

from .elements import AlgebraElement, add_term, y_counts, yword_key
from .errors import (NonConfluentError, PresentationError,
                     ResourceCeilingError, RewriteInternalError)


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
        self._nf_cache = {}
        self._char_cache = {}
        self._coproduct_cache = {}
        self._confluence = None
        self._rules_by_first = {}
        for rule in self.rules:
            self._rules_by_first.setdefault(rule.lhs[0], []).append(rule)
        self._max_lhs = max((len(r.lhs) for r in self.rules), default=0)
        self.tau_free = all(
            t.is_zero() for g in self.gens for t in (g.tau or []))
        self.is_multigraded = self.tau_free and all(
            self._rule_is_graded(r) for r in self.rules)

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

    def _rule_is_graded(self, rule):
        target = y_counts(rule.lhs, self.ny)
        for (g, yw) in rule.rhs.terms:
            if y_counts(yw, self.ny) != target or not self.group.is_identity(g):
                return False
        return True

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
        val = self.domain.zero()
        for img, e in zip(self.gens[i].tau, h[:self.group.free_rank]):
            if e and not img.is_zero():
                val = val + img * e
        return val

    # -- element constructors ------------------------------------------
    def zero_element(self):
        return AlgebraElement({})

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

    # -- rewriting -------------------------------------------------------
    def _commute_group_left(self, yword, h):
        """Move a group element from the right of a y-word to its left.

        Returns {(group element, kept y-word): coeff}; the additive
        character tau adds terms that drop one y and pick up an extra
        weight factor in the group part.  Equal terms merge after each
        letter, so cancelling branches never multiply.
        """
        h = self.group.reduce(h)
        if not yword or self.group.is_identity(h):
            return {(h, tuple(yword)): self.domain.one()}
        terms = {(h, ()): self.domain.one()}
        for letter in reversed(yword):
            new = {}
            for (hh, kept), c in terms.items():
                add_term(new, (hh, (letter,) + kept), c * self.char_value(letter, hh))
                if not self.tau_free:
                    tau = self.tau_value(letter, hh)
                    if not tau.is_zero():
                        ct = c * tau
                        add_term(new, (self.group.mul(hh, self.gens[letter].weight), kept), ct)
                        add_term(new, (hh, kept), -ct)
            terms = new
        return terms

    def _redexes(self, word, start=0):
        """Yield (pos, rule) for each redex at pos >= start: leftmost first,
        in rule order at each position."""
        by_first = self._rules_by_first
        for pos in range(start, len(word)):
            for rule in by_first.get(word[pos], ()):
                if word[pos:pos + len(rule.lhs)] == rule.lhs:
                    yield pos, rule

    def _leftmost_redex(self, word):
        return next(self._redexes(word), None)

    def _rewrite(self, yword, choose):
        """Normal form of a y-word, resolving the redex choose(word) picks
        until it returns None."""
        bound = len(yword)
        acc = {}
        stack = [(self.domain.one(), self.group.identity(), yword)]
        while stack:
            c, h, w = stack.pop()
            if len(w) > bound:
                raise RewriteInternalError(
                    "intermediate degree %d exceeds input degree %d" % (len(w), bound))
            hit = choose(w)
            if hit is None:
                add_term(acc, (h, w), c)
                continue
            pos, rule = hit
            prefix = w[:pos]
            suffix = w[pos + len(rule.lhs):]
            for (g2, ys2), coeff in rule.rhs.terms.items():
                if self.group.is_identity(g2):
                    stack.append((c * coeff, h, prefix + ys2 + suffix))
                else:
                    for (h3, kept), c3 in self._commute_group_left(prefix, g2).items():
                        stack.append((c * coeff * c3, self.group.mul(h, h3),
                                      kept + ys2 + suffix))
        return AlgebraElement(acc)

    def normal_form_yword(self, yword):
        """Normal form of a pure y-word as an AlgebraElement (memoized)."""
        yword = tuple(yword)
        if not self.rules:
            return AlgebraElement({(self.group.identity(), yword): self.domain.one()})
        cached = self._nf_cache.get(yword)
        if cached is None:
            cached = self._nf_cache[yword] = self._rewrite(yword, self._leftmost_redex)
        return cached

    def normal_form_yword_random(self, yword, rng):
        """Like normal_form_yword but resolving redexes in random order.

        Confluence makes the result independent of the strategy; this
        exists so that independence can be tested, not for production use.
        """
        def choose(w):
            redexes = list(self._redexes(w))
            return rng.choice(redexes) if redexes else None
        return self._rewrite(tuple(yword), choose)

    def normalize(self, raw):
        """Normal form of raw input.

        Accepts an AlgebraElement (re-normalized), a single letter sequence,
        or a list of (Scalar, letters) terms, where a letter is ("g", group
        element) or ("y", index).
        """
        if isinstance(raw, AlgebraElement):
            terms = [(c, (("g", g),) + tuple(("y", i) for i in yw))
                     for (g, yw), c in raw.terms.items()]
        elif raw and isinstance(raw, (list, tuple)) and isinstance(raw[0], tuple) \
                and len(raw) and isinstance(raw[0][0], str):
            terms = [(self.domain.one(), tuple(raw))]
        else:
            terms = [(c, tuple(letters)) for c, letters in raw]
        acc = {}
        for coeff, letters in terms:
            if coeff.is_zero():
                continue
            branches = {(self.group.identity(), ()): coeff}
            for kind, val in letters:
                if kind == "g":
                    new = {}
                    for (hf, ys), c in branches.items():
                        for (h2, kept), c2 in self._commute_group_left(ys, val).items():
                            add_term(new, (self.group.mul(hf, h2), kept), c * c2)
                    branches = new
                elif kind == "y":
                    if not 0 <= val < self.ny:
                        raise PresentationError("unknown y-generator index %r" % (val,))
                    branches = {(hf, ys + (val,)): c for (hf, ys), c in branches.items()}
                else:
                    raise PresentationError("unknown letter kind %r" % (kind,))
            for (hf, ys), c in branches.items():
                nf = self.normal_form_yword(ys)
                for (h3, ys3), c3 in nf.terms.items():
                    add_term(acc, (self.group.mul(hf, h3), ys3), c * c3)
        return AlgebraElement(acc)

    def multiply(self, a, b):
        """Product of two elements, in normal form."""
        acc = {}
        for (h1, u), c1 in a.terms.items():
            for (h2, v), c2 in b.terms.items():
                c12 = c1 * c2
                for (h3, kept), c3 in self._commute_group_left(u, h2).items():
                    nf = self.normal_form_yword(kept + v)
                    hh = self.group.mul(h1, h3)
                    for (h4, ys4), c4 in nf.terms.items():
                        add_term(acc, (self.group.mul(hh, h4), ys4), c12 * c3 * c4)
        return AlgebraElement(acc)

    def power(self, a, n):
        result = self.one()
        for _ in range(n):
            result = self.multiply(result, a)
        return result

    def word_times_letter(self, word, letter):
        """Support of (normal word) * letter; exact, with a tau-free fast path."""
        h, yw = word
        kind, val = letter
        if kind == "g":
            if self.tau_free:
                return [(self.group.mul(h, val), yw)]
            out = {}
            for (h2, kept), c2 in self._commute_group_left(yw, val).items():
                hh = self.group.mul(h, h2)
                for (h3, ys3), c3 in self.normal_form_yword(kept).terms.items():
                    add_term(out, (self.group.mul(hh, h3), ys3), c2 * c3)
            return sorted(out)
        nf = self.normal_form_yword(yw + (val,))
        return sorted((self.group.mul(h, h3), ys3) for (h3, ys3) in nf.terms)

    # -- irreducible word enumeration -----------------------------------
    def irreducible_ywords(self, max_degree):
        """All rule-irreducible y-words of total degree <= max_degree, by degree."""
        by_degree = [[()]]
        for d in range(1, max_degree + 1):
            # words of degree d - 1 are irreducible, so any redex ends at the last letter
            start = max(0, d - self._max_lhs)
            level = []
            for w in by_degree[d - 1]:
                for i in range(self.ny):
                    cand = w + (i,)
                    if next(self._redexes(cand, start), None) is None:
                        level.append(cand)
            by_degree.append(level)
        return by_degree

    # -- confluence -------------------------------------------------------
    def check_confluence(self):
        """Resolve every overlap ambiguity.

        Checks y-rule/y-rule overlaps (shared boundary and containment) and
        y-rule/group-commutation overlaps against each positive group
        generator.  A finite rule set has finitely many overlaps, each of
        length at most |u| + |v| - 1 (Bergman's diamond lemma), so none is
        skipped.  Returns a ConfluenceResult listing every critical pair
        whose two reductions differ.
        """
        if self._confluence is not None:
            return self._confluence
        failures = []

        def close(raw_terms):
            return self.normalize(raw_terms)

        for ra, rb in itertools.product(self.rules, repeat=2):
            u, v = ra.lhs, rb.lhs
            # shared-boundary overlaps: u = a c, v = c b with c nonempty
            for c_len in range(1, min(len(u), len(v)) + 1):
                if c_len == len(u) and c_len == len(v):
                    continue
                if u[len(u) - c_len:] != v[:c_len]:
                    continue
                word = u + v[c_len:]
                # reduce the left redex first
                first = close([(c, (("g", g),) + tuple(("y", i) for i in yw)
                                + tuple(("y", i) for i in v[c_len:]))
                               for (g, yw), c in ra.rhs.terms.items()])
                second = close([(c, tuple(("y", i) for i in u[:len(u) - c_len])
                                 + (("g", g),) + tuple(("y", i) for i in yw))
                                for (g, yw), c in rb.rhs.terms.items()])
                if first != second:
                    failures.append(OverlapFailure(
                        "yy", word,
                        "rules %s and %s on word %s"
                        % (self._yname(u), self._yname(v), self._yname(word)),
                        first, second))
            # containment: v strictly inside u
            if len(v) < len(u):
                for pos in range(0, len(u) - len(v) + 1):
                    if u[pos:pos + len(v)] != v:
                        continue
                    if pos == 0 or pos + len(v) == len(u):
                        continue  # boundary cases are shared-boundary overlaps
                    first = self.normalize(ra.rhs)
                    second = close([(c, tuple(("y", i) for i in u[:pos]) + (("g", g),)
                                     + tuple(("y", i) for i in yw)
                                     + tuple(("y", i) for i in u[pos + len(v):]))
                                    for (g, yw), c in rb.rhs.terms.items()])
                    if first != second:
                        failures.append(OverlapFailure(
                            "yy", u,
                            "rule %s inside %s" % (self._yname(v), self._yname(u)),
                            first, second))
        # y-rule versus group commutation: the word (lhs)g reduced both ways
        for rule in self.rules:
            u = rule.lhs
            for gi in range(self.group.ngens):
                x = self.group.generator(gi)
                first = close([(c, (("g", g),) + tuple(("y", i) for i in yw) + (("g", x),))
                               for (g, yw), c in rule.rhs.terms.items()])
                # commute x one step left, then reduce
                last = u[-1]
                lam = self.char_value(last, x)
                raw = [(lam, tuple(("y", i) for i in u[:-1]) + (("g", x), ("y", last)))]
                tau = self.tau_value(last, x)
                if not tau.is_zero():
                    mu = self.gens[last].weight
                    raw.append((tau, tuple(("y", i) for i in u[:-1])
                                + (("g", self.group.mul(x, mu)),)))
                    raw.append((-tau, tuple(("y", i) for i in u[:-1]) + (("g", x),)))
                second = close(raw)
                if first != second:
                    failures.append(OverlapFailure(
                        "ygroup", u + (("g", x),),
                        "rule %s against group generator g%d"
                        % (self._yname(u), gi + 1),
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

    def filtration_dims(self, letters, n_max, max_words=None):
        """Number of distinct normal words in products of <= n generators.

        Breadth-first closure: dims[n] counts the words reachable by
        products of at most n letters from the generating set (1 included).
        Raises ResourceCeilingError past max_words, attaching the partial
        sequence.
        """
        self.require_confluent()
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

    def filtration_dim(self, letters, n, max_words=None):
        return self.filtration_dims(letters, n, max_words=max_words)[n]

    def __repr__(self):
        label = self.name or "presentation"
        return "<Presentation %s: %r, %d y-gens, %d rules>" % (
            label, self.group, self.ny, len(self.rules))
