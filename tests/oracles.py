"""Oracles that several test modules check the program against.

The rewriting oracles compute normal forms and coproducts from the
generator data and the rules of a presentation by a path of their own, so
that they share no code with the left-product kernel they check:
characters are evaluated here, group elements move left through whole
y-words, and y-words rewrite at redexes chosen at random anywhere in the
word.  The confluence oracle reduces every overlap through the program's
own normalize, so it checks which overlaps check_confluence tries and how
it reduces them.  The coalgebra axioms are checked through the program's
own delta, counit and antipode.  The line-and-basis oracle reduces the
kernel vectors of a primitive search, from all blocks at once, against
the coradical line in one elimination, where the program reduces only
the blocks that need it.  The growth oracles read the growth off
the slopes of dp_word_counts, which keeps an automaton of its own, and
list the words that products of at most n generators reach, by a
breadth-first closure over the program's left products.  The eigen-split
oracle splits an element under conjugation by linear algebra, with
matrices, their powers, nullspaces and a solve, where the program reads
the split off the characters of the words.  The commutation oracles find
a commutation scalar as the ratio of z h to h z and shift a witness by
its conjugation remainder divided by gamma - 1, where the program reads
both off the character grading.
"""

import itertools
import math
import random

from hopfgrow import invariants
from hopfgrow.coalgebra import antipode, counit, delta, delta_word
from hopfgrow.elements import AlgebraElement, TensorElement, add_term, word_key
from hopfgrow.groups import GroupData
from hopfgrow.growth import dp_word_counts
from hopfgrow.linalg import ScalarElimination, nullspace_of_columns
from hopfgrow.presentation import Presentation, SkewGenerator
from hopfgrow.scalars import ScalarDomain

from conftest import random_element


def box_ball(group, radius):
    """The elements of word length <= radius, sorted: the whole box
    [-radius, radius]^free_rank x prod Z/m, filtered by word length."""
    ranges = [range(-radius, radius + 1)] * group.free_rank
    ranges += [range(m) for m in group.torsion]
    return sorted(e for e in itertools.product(*ranges)
                  if group.word_length(e) <= radius)


def char_value(p, i, h):
    """lambda_i(h), from the images of the group generators."""
    val = p.domain.one()
    for img, e in zip(p.gens[i].character, p.group.reduce(h)):
        val = val * img ** e
    return val


def tau_value(p, i, h):
    """tau_i(h), from the images of the free group generators."""
    val = p.domain.zero()
    for img, e in zip(p.gens[i].tau, p.group.reduce(h)[:p.group.free_rank]):
        val = val + img * e
    return val


def commute_group_left(p, yword, h):
    """y-word times h, as {(group element, kept y-word): coeff} with the
    group parts on the left.  Each letter y_i h = lambda_i(h) h y_i
    + tau_i(h) h (mu_i - 1) keeps y_i or drops it; equal terms merge after
    each letter, so cancelling branches never multiply."""
    group = p.group
    h = group.reduce(h)
    if group.is_identity(h):
        return {(h, tuple(yword)): p.domain.one()}
    terms = {(h, ()): p.domain.one()}
    for letter in reversed(yword):
        new = {}
        for (hh, kept), c in terms.items():
            add_term(new, (hh, (letter,) + kept), c * char_value(p, letter, hh))
            tau = tau_value(p, letter, hh)
            if not tau.is_zero():
                add_term(new, (group.mul(hh, p.gens[letter].weight), kept), c * tau)
                add_term(new, (hh, kept), -(c * tau))
        terms = new
    return terms


def redexes(p, word):
    """Every (position, rule) whose left-hand side occurs in word there."""
    return [(pos, rule) for pos in range(len(word)) for rule in p.rules
            if word[pos:pos + len(rule.lhs)] == rule.lhs]


def normal_form_yword_random(p, yword, rng):
    """Normal form of a y-word, rewriting a random redex of each word
    until none is left; a rule term's group part moves left through the
    prefix before the redex.  Confluence makes the result independent of
    the choices."""
    yword = tuple(yword)
    acc = {}
    stack = [(p.domain.one(), p.group.identity(), yword)]
    while stack:
        c, h, w = stack.pop()
        # deg-lex decreasing rules never lengthen a word
        assert len(w) <= len(yword), (w, yword)
        found = redexes(p, w)
        if not found:
            add_term(acc, (h, w), c)
            continue
        pos, rule = rng.choice(found)
        prefix, suffix = w[:pos], w[pos + len(rule.lhs):]
        for (g, u), coeff in rule.rhs.terms.items():
            for (h2, kept), c2 in commute_group_left(p, prefix, g).items():
                stack.append((c * coeff * c2, p.group.mul(h, h2), kept + u + suffix))
    return AlgebraElement(acc)


def normalize_random_order(p, letters, rng):
    """Normal form of a sequence of ("g", element) and ("y", index)
    letters: each group letter moves left through the y-letters before it,
    then each y-word rewrites in random order."""
    group = p.group
    branches = {(group.identity(), ()): p.domain.one()}
    for kind, val in letters:
        if kind == "y":
            branches = {(h, ys + (val,)): c for (h, ys), c in branches.items()}
            continue
        new = {}
        for (h, ys), c in branches.items():
            for (h2, kept), c2 in commute_group_left(p, ys, val).items():
                add_term(new, (group.mul(h, h2), kept), c * c2)
        branches = new
    acc = {}
    for (h, ys), c in branches.items():
        for (h3, ys3), c3 in normal_form_yword_random(p, ys, rng).terms.items():
            add_term(acc, (group.mul(h, h3), ys3), c * c3)
    return AlgebraElement(acc)


def confluence_failures_by_normalizing(p):
    """check_confluence's failures as (kind, word, detail, first, second),
    found the long way: every ordered pair of rules at every position
    where they meet, and every rule against every group generator, with
    each reduction normalized from its letters.  No pair is pruned and no
    group overlap is settled by the grading: those that the program skips
    must resolve here."""
    def ys(yword):
        return tuple(("y", i) for i in yword)

    def name(yword):
        return " ".join(p.gens[i].name for i in yword)

    def reduced(word, pos, rule, tail=()):
        """word with the rule's left-hand side at pos replaced by its
        right-hand side, times the letters tail, normalized."""
        head = ys(word[:pos])
        rest = ys(word[pos + len(rule.lhs):]) + tail
        return p.normalize([(c, head + (("g", g),) + ys(w) + rest)
                            for (g, w), c in rule.rhs.terms.items()])

    out = []
    for ra, rb in itertools.product(p.rules, repeat=2):
        u, v = ra.lhs, rb.lhs
        # shared boundaries by growing overlap, then containments; at 0,
        # v as long as u is u itself and v shorter is the pair reversed
        boundaries = [s for s in reversed(range(len(u))) if s + len(v) >= len(u)]
        inside = [s for s in range(1, len(u)) if s + len(v) < len(u)]
        for s in boundaries + inside:
            if (s == 0 and len(u) == len(v)) or u[s:s + len(v)] != v[:len(u) - s]:
                continue
            word = u + v[len(u) - s:]
            first, second = reduced(word, 0, ra), reduced(word, s, rb)
            if first == second:
                continue
            if s + len(v) < len(u):
                detail = "rule %s inside %s" % (name(v), name(u))
            else:
                detail = "rules %s and %s on word %s" % (name(u), name(v), name(word))
            out.append(("yy", word, detail, first, second))
    for rule in p.rules:
        for gi, x in enumerate(p.group.generators()):
            first = reduced(rule.lhs, 0, rule, (("g", x),))
            second = p.normalize([(p.domain.one(), ys(rule.lhs) + (("g", x),))])
            if first != second:
                out.append(("ygroup", rule.lhs + (("g", x),),
                            "rule %s against group generator g%d" % (name(rule.lhs), gi + 1),
                            first, second))
    return out


def delta_word_expanded(p, word):
    """Delta(h y_{i_1} ... y_{i_d}) expanded into its 2^d products of
    generator coproducts, each side normalized by normalize_random_order."""
    h, yw = word
    one = p.domain.one()
    rng = random.Random(len(yw))
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
        lelt = normalize_random_order(p, left, rng)
        relt = normalize_random_order(p, right, rng)
        for wl, cl in lelt.terms.items():
            for wr, cr in relt.terms.items():
                add_term(acc, (wl, wr), c * cl * cr)
    return TensorElement(acc)


def line_and_basis(p, weight, kernel):
    """The basis and has_coradical_line of a primitive search whose blocks
    have the kernel vectors kernel, from one elimination of them all: the
    vectors sorted by top word, and when the line k(weight - 1) lies in
    their span, the pivots of [line] + vectors instead, each scaled to
    lead coefficient 1."""
    def top(elt):
        return max(word_key(w, p.ny) for w in elt.terms)

    basis = sorted(kernel, key=top)
    if p.group.is_identity(weight):
        return basis, False
    elim = ScalarElimination(p.domain)
    for idx, e in enumerate([p.group_element(weight) - p.one()] + basis):
        elim.insert(e.terms, idx)
    if elim.rank != len(basis):
        return basis, False
    out = []
    for _, col, _, _ in elim.pivots:
        elt = AlgebraElement(dict(col))
        lead = max(elt.terms, key=lambda w: word_key(w, p.ny))
        out.append(elt.scale(elt.terms[lead].inverse()))
    return out, True


def check_coalgebra_axioms(p, rng, samples=30, max_degree=3):
    for _ in range(samples):
        check_axioms_at(p, random_element(p, rng, max_degree=max_degree))


def check_axioms_at(p, a):
    """Coassociativity, counit and antipode axioms on the element a."""
    t = delta(p, a)
    # coassociativity
    left = {}
    right = {}
    for (l, r), c in t.terms.items():
        for (l2, m2), c2 in delta_word(p, l).terms.items():
            add_term(left, (l2, m2, r), c * c2)
        for (m2, r2), c2 in delta_word(p, r).terms.items():
            add_term(right, (l, m2, r2), c * c2)
    assert left == right
    # counit axiom both sides
    recovered_l = AlgebraElement({})
    recovered_r = AlgebraElement({})
    for (l, r), c in t.terms.items():
        eps_l = counit(p, AlgebraElement({l: c}))
        recovered_l = recovered_l + AlgebraElement({r: p.domain.one()}).scale(eps_l)
        eps_r = counit(p, AlgebraElement({r: c}))
        recovered_r = recovered_r + AlgebraElement({l: p.domain.one()}).scale(eps_r)
    assert recovered_l == a
    assert recovered_r == a
    # antipode axiom both sides: m(S(x)id)Delta = eps * 1 = m(id(x)S)Delta
    eps_a = counit(p, a)
    target = p.one().scale(eps_a)
    left_s = AlgebraElement({})
    right_s = AlgebraElement({})
    for (l, r), c in t.terms.items():
        sl = antipode(p, AlgebraElement({l: c}))
        left_s = left_s + p.multiply(sl, AlgebraElement({r: p.domain.one()}))
        sr = antipode(p, AlgebraElement({r: p.domain.one()}))
        right_s = right_s + p.multiply(AlgebraElement({l: c}), sr)
    assert left_s == target
    assert right_s == target


def conjugation_closure(p, vectors, conjugators):
    """The closure of the vectors under inverse conjugation by the
    conjugators in full terms, the coradical included: a vector
    independent of those kept before is kept and its conjugates queued.
    It ends as invariants.closure_mod_coradical does: the
    (1,g)-primitives of bounded y-degree exceed their image modulo the
    coradical by at most the line k(g - 1)."""
    elim = ScalarElimination(p.domain)
    basis = []
    queue = list(vectors)
    for v in queue:  # grows while it is read
        if elim.insert(v.terms, len(basis)) is None:
            basis.append(v)
            queue.extend(invariants.conjugate(p, h, v) for h in conjugators)
    return basis


def _solve(domain, columns, target):
    """Coefficients by index expressing target in the span of the
    columns, or None: the kernel combination that a sentinel column
    holding target finds, divided by the sentinel's coefficient."""
    elim = ScalarElimination(domain)
    for j, col in enumerate(columns):
        elim.insert(col, j)
    sentinel = object()
    combo = elim.insert(target, sentinel)
    if combo is None:
        return None
    f = -(combo.pop(sentinel).inverse())
    return {j: f * c for j, c in combo.items()}


def _mat_apply(matrix, vec):
    out = {}
    for j, c in vec.items():
        for i, m in matrix[j].items():
            add_term(out, i, m * c)
    return out


def _matrix_level(domain, shifted, vec):
    """Least n with every product of n of the nilpotent matrices killing
    the nonzero vec."""
    frontier = [vec]
    for level in itertools.count(1):
        images = [img for n in shifted for v in frontier if (img := _mat_apply(n, v))]
        if not images:
            return level
        assert level < len(shifted[0]), "shifted matrices are not nilpotent"
        elim = ScalarElimination(domain)
        frontier = [v for i, v in enumerate(images) if elim.insert(v, i) is None]


def eigen_split(p, y, conjugators):
    """The joint generalized eigencomponents of the element y outside the
    coradical under the inverse conjugations by the conjugators, by
    linear algebra: [(eigenvalues, level, component modulo the
    coradical)].

    Each conjugation is a matrix on the coordinates of a space that holds
    y and is stable under the conjugations modulo the coradical: the
    closure of the words of y, one at a time, which keeps the entries
    small.  Its eigenvalues are among the character products over the
    y-words of the closure (it is triangular on normal words); the
    generalized eigenspace of c is the kernel of (M - c)^dim, and a vector
    splits by solving it in the union of those kernels.  The level is the
    nilpotency index of the shifted matrices on the component."""
    strip = invariants._strip_coradical
    dom = p.domain
    words = [AlgebraElement({w: dom.one()}) for w in strip(y)]
    lifts = invariants.closure_mod_coradical(p, words, conjugators)
    images = [strip(v) for v in lifts]
    dim = len(lifts)
    comps = [((), [], _solve(dom, images, strip(y)))]
    for h in conjugators:
        matrix = [_solve(dom, images, strip(invariants.conjugate(p, h, v))) for v in lifts]
        candidates = []
        for v in lifts:
            for _, yw in v.terms:
                val = dom.one()
                for i in yw:
                    val = val * char_value(p, i, h)
                if yw and not any(val == c for c in candidates):
                    candidates.append(val)
        spaces, union = [], []
        for c in candidates:
            n = [dict(col) for col in matrix]
            for j, col in enumerate(n):
                add_term(col, j, -c)
            power = n
            for _ in range(dim - 1):
                power = [_mat_apply(n, col) for col in power]
            kernel = nullspace_of_columns(dom, power)
            spaces.append((c, n, len(union), len(union) + len(kernel)))
            union += kernel
        assert len(union) == dim, "eigenspaces do not cover the closure"
        split = []
        for key, shifted, vec in comps:
            sol = _solve(dom, union, vec)
            for c, n, lo, hi in spaces:
                part = {}
                for b, coeff in sol.items():
                    if lo <= b < hi:
                        for i, v in union[b].items():
                            add_term(part, i, coeff * v)
                if part:
                    split.append((key + (c,), shifted + [n], part))
        comps = split
    out = []
    for key, shifted, vec in comps:
        level = _matrix_level(dom, shifted, vec) if shifted else 1
        elt = {}
        for j, c in vec.items():
            for w, v in images[j].items():
                add_term(elt, w, c * v)
        out.append((key, level, elt))
    return out


def commutation_scalar_by_products(p, z, h):
    """The scalar lam with z h = lam h z modulo the coradical, or None:
    the ratio of the two products at one word of their y-parts, checked
    at every other word."""
    mu = p.group_element(h)
    ka = invariants._strip_coradical(p.multiply(z, mu))
    kb = invariants._strip_coradical(p.multiply(mu, z))
    if not ka and not kb:
        return p.domain.one()
    if set(ka) != set(kb):
        return None
    w0 = next(iter(kb))
    lam = ka[w0] / kb[w0]
    if any(ka[w] != lam * c for w, c in kb.items()):
        return None
    return lam


def normalize_witness_by_shift(p, weight, gamma, element):
    """A level-1 witness z shifted by (gamma - 1)^{-1} t (weight - 1) when
    T(z) - gamma z = t (weight - 1) and gamma != 1: then T scales it by
    gamma exactly.  Returned unchanged for gamma = 1."""
    remainder = invariants.conjugate(p, weight, element) - element.scale(gamma)
    if remainder.is_zero() or not remainder.group_support_only():
        return element
    if gamma.is_one():
        return element
    return element + remainder.scale((gamma - p.domain.one()).inverse())


def invariants_over_ball(p, degree_bound, group_word_bound, power_bound):
    """compute_invariants with its weight loop over the whole group ball:
    every weight is searched, and one whose primitives have no witness is
    left out of the report."""
    return invariants._report_at(p, p.group.ball(group_word_bound), degree_bound,
                                 group_word_bound, power_bound)


def report_data(report):
    """What an InvariantReport holds, as plain data that compares with ==:
    the weights in their order, the dimension per weight, every field of
    each witness, the (weight, commutator) pairs, the commutators, the
    diagnostics and the summary counts."""
    return {
        "weights": report.weights,
        "power_weights": report.weights_with_primitive_power,
        "free_weights": report.weights_with_free_commutator,
        "per_weight_dim": list(report.per_weight_dim.items()),
        "witnesses": [(r.weight, r.element.terms, r.gamma, r.level, r.gamma_class,
                       r.character, r.char_level, r.power_primitive_n,
                       r.power_predicted_n) for r in report.witnesses],
        "weight_commutators": [(wc.weight, wc.gamma, wc.level, wc.gamma_class)
                               for wc in report.weight_commutators],
        "commutators": report.commutators,
        "diagnostics": report.diagnostics,
        "counts": report.summary_counts(),
        "bounds": report.bounds_used,
    }


def growth_by_slope(p, n=256):
    """The growth of p as (kind, degree), read off the log-log slopes of
    dp_word_counts at the horizon n, for p with no group part on a rule
    term as long as its left-hand side.

    The count runs on the monomial shadow of p: its y-generators over the
    trivial group, each left-hand side rewritten to 0.  The shadow has the
    normal y-words of p, and its dims[m] is S(m) = sum_{t <= m} Y(t), with
    no ball of p's group to list; the group's free rank r adds r to the
    degree, since p's growth is that of sum_t Y(t) |B_{m - Wt}| for a
    weight W per y-letter.  With s1 and s2 the slopes log2 S(x) / S(x / 2)
    at x = n / 2 and x = n, the growth is exponential when s2 > 1.5 s1 +
    0.5, as the slope of an exponential doubles with x, and otherwise
    polynomial of degree r + round(s2).
    """
    shadow = Presentation(ScalarDomain(1), GroupData(0),
                          [SkewGenerator(gen.name, (), ()) for gen in p.gens],
                          [(rule.lhs, {}) for rule in p.rules])
    sums = dp_word_counts(shadow, n)
    s1, s2 = (math.log2(sums[x]) - math.log2(sums[x // 2]) for x in (n // 2, n))
    if s2 > 1.5 * s1 + 0.5:
        return "exponential", None
    return "polynomial", p.group.free_rank + round(s2)


def generating_letters(p):
    """The letters ("g", group element) or ("y", index) of the default
    generating set: the group generators, their inverses and the y's."""
    return ([("g", g) for x in p.group.generators() for g in (x, p.group.inv(x))]
            + [("y", i) for i in range(p.ny)])


def closure_dims(p, n_max):
    """The number of normal words reached by products of at most n
    generating letters, for n <= n_max, each letter multiplying on the
    left and reaching the support of its product
    (Presentation.word_times_letter).  Level n adds the products of each
    letter with the words first reached at level n - 1.  On a presentation
    of letter weight W that is dim F_n of filtration_dims where W = 1, and
    lies between dims[n] and dims[Wn] where W > 1."""
    letters = generating_letters(p)
    seen = {(p.group.identity(), ())}
    frontier = list(seen)
    dims = [1]
    for _ in range(n_max):
        new_frontier = []
        for word in frontier:
            for letter in letters:
                for w2 in p.word_times_letter(word, letter):
                    if w2 not in seen:
                        seen.add(w2)
                        new_frontier.append(w2)
        dims.append(len(seen))
        frontier = new_frontier
    return dims
