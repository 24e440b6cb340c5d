import random
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfgrow.catalog import (exterior_presentation, qplane_presentation,
                              skew_free_presentation, skew_trunc_presentation,
                              taft_presentation)
from hopfgrow.coalgebra import (_kernel_elements, antipode, counit, delta,
                                delta_power_formula, delta_word,
                                find_skew_primitives, is_skew_primitive)
from hopfgrow.elements import (AlgebraElement, TensorElement, add_term,
                               word_key, y_counts)
from hopfgrow.errors import NonConfluentError
from hopfgrow.groups import GroupData
from hopfgrow.linalg import ScalarElimination
from hopfgrow.presentation import Presentation, SkewGenerator
from hopfgrow.scalars import ScalarDomain

from conftest import confluent_random_presentation, random_presentation
from oracles import (check_axioms_at, check_coalgebra_axioms, delta_word_expanded,
                     normalize_random_order)

ALL_BUILTINS = [
    lambda: skew_free_presentation(v=2),
    lambda: skew_free_presentation(v=1, tau=1),
    lambda: taft_presentation(3),
    lambda: qplane_presentation(2),
    lambda: exterior_presentation(2),
    lambda: skew_trunc_presentation(3, beta=1, v=2),
]


def tensor(p, a, b):
    out = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            add_term(out, (wa, wb), ca * cb)
    return TensorElement(out)


def test_delta_on_generators():
    p = skew_free_presentation(v=2)
    g = p.group.generator(0)
    assert delta(p, p.group_element(g)) == tensor(p, p.group_element(g),
                                                  p.group_element(g))
    mu = p.gens[0].weight
    expected = tensor(p, p.y(0), p.one()) + tensor(p, p.group_element(mu), p.y(0))
    assert delta(p, p.y(0)) == expected


def test_delta_square_taft_like():
    # with lambda = -1 the middle Gaussian coefficient vanishes
    p = taft_presentation(2, free=True)
    y2 = p.multiply(p.y(0), p.y(0))
    expected = tensor(p, y2, p.one()) + tensor(p, p.one(), y2)  # g^2 = 1 here
    assert delta(p, y2) == expected


def test_delta_power_formula_small():
    p = skew_free_presentation(v=1)
    mu = p.group_element(p.gens[0].weight)
    t1, partial = delta_power_formula(p, 0, 1)
    assert not partial
    assert t1 == tensor(p, p.y(0), p.one()) + tensor(p, mu, p.y(0))
    q = p.domain.q(0)
    t2, _ = delta_power_formula(p, 0, 2)
    y = p.y(0)
    y2 = p.multiply(y, y)
    gy = p.multiply(mu, y)
    mid = tensor(p, gy, y).scale(p.domain.one() + q)
    g2 = p.group_element(p.group.power(p.gens[0].weight, 2))
    assert t2 == tensor(p, y2, p.one()) + mid + tensor(p, g2, y2)


@pytest.mark.parametrize("label", ["one", "minus_one", "zeta3", "q"])
def test_delta_power_formula_matches_multiplicative(label):
    if label == "one":
        p = skew_free_presentation(v=1, tau=1)  # trivial character via tau route
        p = skew_free_presentation(v=1, conductor=1)
        # build trivial character directly
        dom = ScalarDomain(1, ("q1",))
        group = GroupData(1)
        p = Presentation(dom, group, [SkewGenerator("y", group.generator(0),
                                                    (dom.one(),))])
    elif label == "minus_one":
        dom = ScalarDomain(2)
        group = GroupData(1)
        p = Presentation(dom, group, [SkewGenerator("y", group.generator(0),
                                                    (dom.rational(-1),))])
    elif label == "zeta3":
        dom = ScalarDomain(3)
        group = GroupData(1)
        p = Presentation(dom, group, [SkewGenerator("y", group.generator(0),
                                                    (dom.zeta(),))])
    else:
        p = skew_free_presentation(v=1)
    for n in range(7):
        closed, partial = delta_power_formula(p, 0, n)
        assert not partial
        assert closed == delta(p, reduce(p.multiply, [p.y(0)] * n, p.one()))


def test_delta_power_formula_partial_flag():
    p = skew_free_presentation(v=1, tau=1)
    _, partial = delta_power_formula(p, 0, 2)
    assert partial


def test_counit():
    p = skew_free_presentation(v=2)
    g = p.group.generator(0)
    elt = p.multiply(p.y(0), p.y(1)) + p.group_element(g).scale(p.domain.rational(3))
    assert counit(p, elt) == p.domain.rational(3)
    assert counit(p, p.y(0)).is_zero()


def test_antipode_examples():
    p = skew_free_presentation(v=1)
    g = p.group.generator(0)
    assert antipode(p, p.group_element(g)) == p.group_element(p.group.inv(g))
    mu_inv = p.group_element(p.group.inv(p.gens[0].weight))
    assert antipode(p, p.y(0)) == p.multiply(mu_inv, p.y(0)).scale(p.domain.rational(-1))


@pytest.mark.parametrize("builder", ALL_BUILTINS)
def test_coalgebra_axioms(builder, rng):
    check_coalgebra_axioms(builder(), rng)


def test_axioms_need_confluence():
    bad = skew_trunc_presentation(3, beta=1, bad_gen=True, v=2)
    with pytest.raises(NonConfluentError):
        delta(bad, bad.y(0))


def test_is_skew_primitive():
    p = skew_free_presentation(v=2)
    assert is_skew_primitive(p, p.y(0)) == p.gens[0].weight
    assert is_skew_primitive(p, p.multiply(p.y(0), p.y(1))) is None
    g = p.group.power(p.group.generator(0), 2)
    assert is_skew_primitive(p, p.group_element(g) - p.one()) == g
    assert is_skew_primitive(p, AlgebraElement({})) is None


def test_find_primitives_identity_weight_degree0():
    for p in [skew_free_presentation(v=1), taft_presentation(3)]:
        space = find_skew_primitives(p, p.group.identity(), degree_bound=0,
                                     group_word_bound=3)
        assert space.dim == 0
        assert not space.has_coradical_line


def test_find_primitives_weight_line_only():
    p = skew_free_presentation(v=1)
    g2 = p.group.power(p.group.generator(0), 2)
    space = find_skew_primitives(p, g2, degree_bound=0, group_word_bound=4)
    assert space.dim == 1
    assert space.has_coradical_line
    assert space.witnesses() == []
    assert space.basis[0] == p.group_element(g2) - p.one()


def test_find_primitives_taft_power_before_quotient():
    p = taft_presentation(2, free=True)
    space = find_skew_primitives(p, p.group.identity(), degree_bound=2,
                                 group_word_bound=2)
    y2 = p.multiply(p.y(0), p.y(0))
    assert any(e == y2 for e in space.basis)
    # after the quotient the power is zero and no longer shows up
    pq = taft_presentation(2)
    space_q = find_skew_primitives(pq, pq.group.identity(), degree_bound=2,
                                   group_word_bound=2)
    assert space_q.dim == 0


def test_find_primitives_exterior():
    p = exterior_presentation(2)
    x = p.group.generator(0)
    space = find_skew_primitives(p, x, degree_bound=2, group_word_bound=2)
    assert space.has_coradical_line
    assert space.dim == 3
    witnesses = space.witnesses()
    assert p.y(0) in witnesses and p.y(1) in witnesses


def test_primitive_search_matches_direct_check(rng):
    for p in [qplane_presentation(2), exterior_presentation(2)]:
        for h in p.group.ball(2):
            space = find_skew_primitives(p, h, degree_bound=3, group_word_bound=3)
            for e in space.basis:
                assert is_skew_primitive(p, e) == p.group.reduce(h)


def test_degree_two_primitive_weight_product_constraint():
    # in the unquotiented anticommuting model, y_i y_j + y_j y_i and y_i^2
    # are primitives of degree 2; their terms obey the sign product rule
    p = exterior_presentation(2, free=True)
    x2 = p.group.identity()  # weight of degree-2 primitives is x^2 = 1
    space = find_skew_primitives(p, x2, degree_bound=2, group_word_bound=2)
    deg2 = [e for e in space.basis if max(len(yw) for _, yw in e.terms) == 2]
    assert deg2, "no degree-2 primitives found"
    for e in deg2:
        for _, yw in e.terms:
            if len(yw) < 2:
                continue
            counts = [yw.count(i) for i in range(p.ny)]
            prod = p.domain.one()
            for i in range(p.ny):
                lam_ii = p.char_value(i, p.gens[i].weight)
                prod = prod * lam_ii ** (counts[i] * (counts[i] - 1))
                for j in range(i + 1, p.ny):
                    lam_ij = p.char_value(i, p.gens[j].weight)
                    lam_ji = p.char_value(j, p.gens[i].weight)
                    prod = prod * (lam_ij * lam_ji) ** (counts[i] * counts[j])
            assert prod.is_one()


def _in_span(p, elements, target):
    elim = ScalarElimination(p.domain)
    for idx, e in enumerate(elements):
        elim.insert(e.terms, idx)
    return elim.solve(target.terms) is not None


def _find_skew_primitives_full(p, weight, degree_bound, group_word_bound):
    """Oracle: one kernel over every normal word of the bounds, the ball
    times all irreducible y-words, with no grading.  Returns the sorted
    basis, with the coradical line first when it lies in the span, and
    whether it does."""
    weight = p.group.reduce(weight)
    ball = p.group.ball(group_word_bound)
    candidates = [(h, yw) for words in p.irreducible_ywords(degree_bound)
                  for yw in words for h in ball]
    basis = _kernel_elements(p, candidates, weight)
    basis.sort(key=lambda e: max(word_key(w, p.ny) for w in e.terms))
    if p.group.is_identity(weight):
        return basis, False
    line = p.group_element(weight) - p.one()
    if not _in_span(p, basis, line):
        return basis, False
    elim = ScalarElimination(p.domain)
    stacked = []
    for idx, e in enumerate([line] + basis):
        if elim.insert(e.terms, idx) is None:
            reduced = AlgebraElement(dict(elim.pivots[-1][1]))
            lead = max(reduced.terms.keys(), key=lambda w: word_key(w, p.ny))
            stacked.append(reduced.scale(reduced.terms[lead].inverse()))
    return stacked, True


def _assert_matches_full_search(p, weight, degree_bound, group_word_bound):
    space = find_skew_primitives(p, weight, degree_bound, group_word_bound)
    basis, has_line = _find_skew_primitives_full(p, weight, degree_bound,
                                                 group_word_bound)
    assert space.basis == basis, (p, weight)
    assert space.has_coradical_line == has_line, (p, weight)


PRIMITIVE_BUILTINS = [
    (lambda: skew_trunc_presentation(2, v=2), 4, 3),
    (lambda: skew_trunc_presentation(3, v=2), 4, 3),
    (lambda: skew_trunc_presentation(4, v=2), 4, 3),
    (lambda: skew_free_presentation(v=2), 4, 3),
    (lambda: skew_free_presentation(v=1, tau=1), 4, 3),
    (lambda: skew_free_presentation(v=2, tau=1), 3, 2),
    (lambda: qplane_presentation(3), 4, 3),
    (lambda: taft_presentation(5), 4, 3),
    (lambda: exterior_presentation(3), 4, 3),
]


@pytest.mark.parametrize("builder,degree,radius", PRIMITIVE_BUILTINS)
def test_primitives_match_full_search(builder, degree, radius):
    p = builder()
    for weight in p.group.ball(radius):
        _assert_matches_full_search(p, weight, degree, radius)


def test_primitives_match_full_search_random():
    rng = random.Random(1902)
    for _ in range(40):
        p = confluent_random_presentation(rng)
        for weight in p.group.ball(1):
            _assert_matches_full_search(p, weight, 3, 1)
        if not p.tau_free:
            # a primitive that mixes count classes through tau, such as
            # y1 y2 - y2 y1 - tau y1, has the weight mu1 mu2 of length 2
            for weight in p.group.ball(2):
                _assert_matches_full_search(p, weight, 2, 2)


@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_primitives_match_full_search_property(seed, data):
    p = confluent_random_presentation(random.Random(seed))
    ball = p.group.ball(1)
    weight = ball[data.draw(st.integers(0, len(ball) - 1), label="weight")]
    _assert_matches_full_search(p, weight, 3, 1)


def test_tau_primitive_spans_two_count_classes():
    # y2 has the trivial character and tau2(g1) = 1, and lambda1(mu2) = 1,
    # so z = y1 y2 - y2 y1 - y1 is (1, g1 g2)-primitive while none of its
    # y-degree parts is: y2 g1 = g1 y2 + g1 (g2 - 1) puts a term of counts
    # (1, 0) into Delta(y2 y1)
    dom = ScalarDomain(1, ("q1",))
    group = GroupData(2)
    g1, g2 = group.generators()
    one, zero = dom.one(), dom.zero()
    gens = [SkewGenerator("y1", g1, (dom.q(0), one)),
            SkewGenerator("y2", g2, (one, one), (one, zero))]
    p = Presentation(dom, group, gens)
    weight = group.mul(g1, g2)
    z = p.multiply(p.y(0), p.y(1)) - p.multiply(p.y(1), p.y(0)) - p.y(0)
    assert is_skew_primitive(p, z) == weight
    space = find_skew_primitives(p, weight, 2, 2)
    assert _in_span(p, space.basis, z)
    _assert_matches_full_search(p, weight, 2, 2)


def _rules_are_graded(p):
    """The former definition of is_multigraded: no tau, and every rule term
    keeps the y-counts of its left-hand side and has no group part."""
    return p.tau_free and all(
        y_counts(u, p.ny) == y_counts(rule.lhs, p.ny) and p.group.is_identity(g)
        for rule in p.rules for g, u in rule.rhs.terms)


def test_is_multigraded_matches_graded_rules():
    builtins = [skew_free_presentation(v=2), skew_free_presentation(v=1, tau=1),
                skew_free_presentation(v=2, tau=1), taft_presentation(5),
                taft_presentation(3, free=True), qplane_presentation(3),
                exterior_presentation(3), skew_trunc_presentation(3, beta=0, v=2)]
    builtins += [skew_trunc_presentation(p, v=2) for p in (2, 3, 4)]
    rng = random.Random(4411)
    randoms = [random_presentation(rng) for _ in range(100)]
    for p in builtins + randoms:
        assert p.is_multigraded == _rules_are_graded(p), p
    assert {p.is_multigraded for p in randoms} == {True, False}
    # a rule term with a group part of finite order moves words out of
    # their degree as much as one of infinite order
    dom = ScalarDomain(2)
    group = GroupData(0, (2,))
    gens = [SkewGenerator("y%d" % k, (1,), (dom.rational(-1),)) for k in (1, 2)]
    p = Presentation(dom, group, gens, [((1, 0), {((1,), (0, 1)): dom.one()})])
    assert not p.is_multigraded and not _rules_are_graded(p)


def _normal_words(p, degree, radius):
    return [(h, yw) for words in p.irreducible_ywords(degree) for yw in words
            for h in p.group.ball(radius)]


ORACLE_BUILTINS = [
    lambda: skew_trunc_presentation(3, v=2),
    lambda: skew_trunc_presentation(2, v=1),
    lambda: qplane_presentation(3),
    lambda: skew_free_presentation(v=1, tau=1),
    lambda: skew_free_presentation(v=2, tau=1),
    lambda: taft_presentation(7),
    lambda: exterior_presentation(3),
]


@pytest.mark.parametrize("builder", ORACLE_BUILTINS)
def test_delta_word_matches_expansion(builder):
    p = builder()
    for word in _normal_words(p, 3, 1):
        assert delta_word(p, word) == delta_word_expanded(p, word), word


@pytest.mark.parametrize("builder", ORACLE_BUILTINS)
def test_oracles_share_no_code_with_the_kernel(builder, monkeypatch):
    # with the kernel's steps and its character lookups made to raise, the
    # oracles still normalize and expand: they evaluate lambda_i(h) and
    # tau_i(h) from the generator data, and every rule fires once in them
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle went through the left-product kernel")

    p = builder()
    rng = random.Random(4242)
    words = _normal_words(p, 3, 1)
    ball = p.group.ball(1)
    sequences = [[("g", rng.choice(ball)) if rng.random() < 0.4
                  else ("y", rng.randrange(p.ny)) for _ in range(rng.randint(0, 6))]
                 for _ in range(10)]
    sequences += [[("g", g) for g in ball] + [("y", i) for i in rule.lhs] + [("g", g)]
                  for rule in p.rules for g in ball]
    with monkeypatch.context() as m:
        for name in ("_letter_times", "_rule_fold", "_add_letter_times", "_y_times",
                     "char_value", "tau_value"):
            m.setattr(Presentation, name, refuse)
        expanded = [delta_word_expanded(p, word) for word in words]
        forms = [normalize_random_order(p, letters, rng) for letters in sequences]
    assert expanded == [delta_word(p, word) for word in words]
    assert forms == [p.normalize([(p.domain.one(), letters)]) for letters in sequences]


def test_delta_word_matches_expansion_random():
    rng = random.Random(707)
    for _ in range(25):
        p = confluent_random_presentation(rng)
        for word in _normal_words(p, 3, 1):
            assert delta_word(p, word) == delta_word_expanded(p, word), (p, word)


def test_delta_word_normalizes_kept_words():
    # y2 has a trivial character and tau, so moving mu across y1 y2 y1
    # keeps y1 y1, which the truncation y1^2 = mu1^2 - 1 rewrites
    dom = ScalarDomain(2)
    group = GroupData(1)
    g = group.generator(0)
    gens = [SkewGenerator("y1", g, (dom.rational(-1),)),
            SkewGenerator("y2", g, (dom.one(),), (dom.one(),))]
    rhs = {(group.power(g, 2), ()): dom.one(), (group.identity(), ()): -dom.one()}
    p = Presentation(dom, group, gens, [((0, 0), rhs)])
    assert p.check_confluence().confluent
    for word in _normal_words(p, 4, 1):
        assert delta_word(p, word) == delta_word_expanded(p, word), word


def test_delta_word_returns_a_fresh_element():
    p = skew_free_presentation(v=1, tau=1)
    word = (p.group.identity(), (0, 0))
    t = delta_word(p, word)
    t.terms.clear()
    assert delta_word(p, word) == delta_word_expanded(p, word)


@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_delta_word_property(seed, data):
    p = confluent_random_presentation(random.Random(seed))
    words = _normal_words(p, 3, 1)
    word = words[data.draw(st.integers(0, len(words) - 1), label="word")]
    assert delta_word(p, word) == delta_word_expanded(p, word)
    check_axioms_at(p, AlgebraElement({word: p.domain.one()}))
