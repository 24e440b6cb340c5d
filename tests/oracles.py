"""Oracles that several test modules check the program against.

The rewriting oracles compute normal forms and coproducts from the
generator data and the rules of a presentation by a path of their own, so
that they share no code with the left-product kernel they check:
characters are evaluated here, group elements move left through whole
y-words, and y-words rewrite at redexes chosen at random anywhere in the
word.  The coalgebra axioms are checked through the program's own delta,
counit and antipode.
"""

import random

from hopfgrow.coalgebra import antipode, counit, delta, delta_word
from hopfgrow.elements import AlgebraElement, TensorElement, add_term

from conftest import random_element


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
