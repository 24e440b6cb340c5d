import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfgrow.catalog import (build_example, exterior_presentation,
                              qplane_presentation, skew_free_presentation,
                              skew_trunc_presentation, taft_presentation)
from hopfgrow.cli import _parse_param
from hopfgrow.elements import AlgebraElement, y_counts, yword_key
from hopfgrow.errors import NonConfluentError, PresentationError
from hopfgrow.groups import GroupData
from hopfgrow.presentation import (Presentation, SkewGenerator, _echelon_lattice,
                                   _reduce_mod)
from hopfgrow.scalars import ScalarDomain

from conftest import (CHECK_SETTINGS, confluent_random_presentation, random_element,
                      random_presentation, random_quadratic_presentation,
                      random_truncation, random_weighted_presentation)
from oracles import (confluence_failures_by_normalizing, normal_form_yword_random,
                     normalize_random_order)


def test_commute_y_past_group():
    p = skew_free_presentation(v=1)
    g = p.group.generator(0)
    q = p.domain.q(0)
    one = p.domain.one()
    result = p.normalize([(one, [("y", 0), ("g", g)])])
    assert result == p.normalize([(one, [("g", g), ("y", 0)])]).scale(q)
    assert list(result.terms.keys()) == [(g, (0,))]
    assert result.terms[(g, (0,))] == q


def test_group_inverse_cancels():
    p = skew_free_presentation(v=1)
    g = p.group.generator(0)
    one = p.domain.one()
    result = p.normalize([(one, [("g", g), ("g", p.group.inv(g))])])
    assert result == p.one()


def test_exterior_rules():
    p = exterior_presentation(s=2)
    minus = p.domain.rational(-1)
    one = p.domain.one()
    assert p.normalize([(one, [("y", 1), ("y", 0)])]) == \
        p.normalize([(one, [("y", 0), ("y", 1)])]).scale(minus)
    assert p.normalize([(one, [("y", 0), ("y", 0)])]).is_zero()


def test_tau_commutation():
    # trivial character with additive character: y g = g y + g(mu - 1)
    p = skew_free_presentation(v=1, tau=1)
    g = p.group.generator(0)
    one = p.domain.one()
    result = p.normalize([(one, [("y", 0), ("g", g)])])
    gy = p.normalize([(one, [("g", g), ("y", 0)])])
    g2 = p.group_element(p.group.power(g, 2))
    expected = gy + g2 - p.group_element(g)
    assert result == expected


def test_taft_power_vanishes():
    p = taft_presentation(p=2)
    y = p.y(0)
    assert p.multiply(y, y).is_zero()


def test_normalize_idempotent_random(rng):
    for pres in [taft_presentation(3), exterior_presentation(2),
                 qplane_presentation(2), skew_trunc_presentation(2, beta=1)]:
        for _ in range(12):
            deg = rng.randint(0, 8)
            yw = tuple(rng.randrange(pres.ny) for _ in range(deg))
            h = pres.group.ball(2)[rng.randrange(len(pres.group.ball(2)))]
            once = pres.normalize([(pres.domain.one(),
                                    (("g", h),) + tuple(("y", i) for i in yw))])
            assert pres.normalize(once) == once


def test_confluent_presentations():
    assert skew_free_presentation(v=2).check_confluence().confluent
    assert skew_free_presentation(v=1, tau=1).check_confluence().confluent
    assert taft_presentation(5).check_confluence().confluent
    assert exterior_presentation(3).check_confluence().confluent
    assert qplane_presentation(3).check_confluence().confluent
    assert skew_trunc_presentation(3, beta=0).check_confluence().confluent
    assert skew_trunc_presentation(3, beta=1).check_confluence().confluent
    assert skew_trunc_presentation(3, beta=1, bad_gen=True, v=1) is not None


def test_truncation_confluence_dichotomy():
    # beta = 0: confluent even with the transcendental action
    ok = skew_trunc_presentation(3, beta=0, bad_gen=True, v=2)
    assert ok.check_confluence().confluent
    # beta != 0 and lambda1(g2)^p != 1: exactly one unresolved overlap
    bad = skew_trunc_presentation(3, beta=1, bad_gen=True, v=2)
    result = bad.check_confluence()
    assert not result.confluent
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.kind == "ygroup"
    assert "g2" in failure.detail
    # the two reductions differ by (lambda1(g2)^p - 1) * beta * g2 (mu1^p - 1)
    dom = bad.domain
    group = bad.group
    g2 = group.generator(1)
    mu1p = group.power(group.generator(0), 3)
    lam_p = dom.q(0) ** 3
    coeff = lam_p - dom.one()
    expected = (bad.group_element(group.mul(g2, mu1p))
                - bad.group_element(g2)).scale(coeff)
    diff = failure.difference()
    assert diff == expected or diff == -expected
    with pytest.raises(NonConfluentError):
        bad.require_confluent()


def test_long_overlaps_are_checked():
    # y1^13 -> y2 overlaps itself in 12 words of length 14..25: in each,
    # the two reductions leave y2 y1^k and y1^k y2, both irreducible
    dom = ScalarDomain(13)
    group = GroupData(1)
    g = group.generator(0)
    gens = [SkewGenerator("y1", g, (dom.zeta(),)),
            SkewGenerator("y2", group.power(g, 13), (dom.one(),))]
    rule = ((0,) * 13, {(group.identity(), (1,)): dom.one()})
    p = Presentation(dom, group, gens, [rule])
    result = p.check_confluence()
    assert not result.confluent
    assert len(result.failures) == 12
    assert sorted(len(f.word) for f in result.failures) == list(range(14, 26))
    with pytest.raises(NonConfluentError):
        p.require_confluent()


def _two_rule_presentation(rank, lhs):
    """y1 -> y2 and lhs -> 0, with y1 and y2 of weight g and lambda = q1
    over Z (rank 1), or over the trivial group (rank 0)."""
    dom = ScalarDomain(1, ("q1",))
    group = GroupData(rank)
    weight, char = ((group.generator(0), (dom.q(0),)) if rank else ((), ()))
    gens = [SkewGenerator("y1", weight, char), SkewGenerator("y2", weight, char)]
    rules = [((0,), {(group.identity(), (1,)): dom.one()}), (lhs, {})]
    return Presentation(dom, group, gens, rules)


@pytest.mark.parametrize("rank, lhs, expected", [
    # y1 is a proper suffix of y2 y1: a shared boundary of one letter
    (1, (1, 0), [("yy", "rules y2 y1 and y1 on word y2 y1"),
                 ("ygroup", "rule y2 y1 against group generator g1")]),
    # y1 lies strictly inside y2 y1 y2; no group generator to commute
    (0, (1, 0, 1), [("yy", "rule y1 inside y2 y1 y2")]),
    # y1 is a proper prefix of y1 y2
    (0, (0, 1), [("yy", "rules y1 and y1 y2 on word y1 y2")]),
], ids=["suffix", "containment", "prefix"])
def test_overlap_kinds_are_each_checked(rank, lhs, expected):
    failures = _two_rule_presentation(rank, lhs).check_confluence().failures
    assert [(f.kind, f.detail) for f in failures] == expected


def _tau_square_zero():
    """y1 y1 -> 0 over Z for a tau-generator y1 of weight g1: trivial
    character, tau(g1) = 2."""
    dom, z = ScalarDomain(1), GroupData(1)
    gen = SkewGenerator("y1", z.generator(0), (dom.one(),), (dom.rational(2),))
    return Presentation(dom, z, [gen], [((0, 0), {})])


def _long_head():
    """y3 y2 y1 -> 0 and y1 y1 -> y2 y2 over the trivial group: the second
    reduction of y3 y2 y1 y1 puts y2 y2 after the two-letter head y3 y2."""
    dom, group = ScalarDomain(1, ("q1",)), GroupData(0)
    gens = [SkewGenerator("y%d" % (i + 1), (), ()) for i in range(3)]
    rules = [((2, 1, 0), {}), ((0, 0), {((), (1, 1)): dom.one()})]
    return Presentation(dom, group, gens, rules)


def test_check_confluence_matches_normalizing_oracle():
    # check_confluence prunes rule pairs, settles group overlaps by the
    # character grading and reduces by kernel folds; its failures must be
    # the oracle's, field by field and in order.  The counterexamples each
    # fail: a tau square, a group overlap not settled by the grading, each
    # kind of yy overlap, and a head of two distinct letters.  The draws
    # are not filtered for confluence; some hold tau and a truncation, and
    # the quadratic ones often fail
    rng = random.Random(3232)
    pool = [build_example(name, dict(_parse_param(prm) for prm in params))[0]
            for name, params in CHECK_SETTINGS]
    counterexamples = [skew_trunc_presentation(3, beta=1, v=2, bad_gen=True),
                       _tau_square_zero(), _two_rule_presentation(1, (1, 0)),
                       _two_rule_presentation(0, (1, 0, 1)),
                       _two_rule_presentation(0, (0, 1)), _long_head()]
    draws = [random_presentation(rng) for _ in range(150)]
    draws += [random_weighted_presentation(rng) for _ in range(150)]
    quadratic = [random_quadratic_presentation(rng) for _ in range(150)]
    for p in pool + counterexamples + draws + quadratic:
        found = [(f.kind, f.word, f.detail, f.first, f.second)
                 for f in p.check_confluence().failures]
        assert found == confluence_failures_by_normalizing(p), p
    assert all(not p.check_confluence().confluent for p in counterexamples)
    assert sum(bool(p.rules) and not p.tau_free for p in draws) >= 3
    kinds = [{f.kind for f in p.check_confluence().failures} for p in quadratic]
    assert sum("yy" in k for k in kinds) >= 30
    assert sum("ygroup" in k for k in kinds) >= 30


def test_confluent_draws_are_bounded():
    # a draw that is never confluent ends in a failure that names it,
    # instead of a loop without end
    def tau_square_draw(rng):
        return _tau_square_zero()

    with pytest.raises(AssertionError, match="no confluent presentation in 1000 "
                                             "draws of tau_square_draw"):
        confluent_random_presentation(random.Random(1), tau_square_draw)


@pytest.mark.parametrize("build, overlaps", [
    (lambda: exterior_presentation(4), 20), (lambda: qplane_presentation(3), 1),
], ids=["exterior-s=4", "qplane-v=3"])
def test_group_overlaps_settled_by_grading_are_not_normalized(monkeypatch, build, overlaps):
    # every group overlap of these two is settled by the grading: the only
    # reductions are the two of each yy overlap, none times a group letter
    p = build()
    tails = []
    reduction = Presentation._overlap_reduction
    monkeypatch.setattr(Presentation, "_overlap_reduction",
                        lambda self, head, rule, rest, x:
                        tails.append(x) or reduction(self, head, rule, rest, x))
    assert p.check_confluence().confluent
    assert len(tails) == 2 * overlaps
    assert all(p.group.is_identity(x) for x in tails)


def test_randomized_reduction_order_agrees(rng):
    builtins = [taft_presentation(3), exterior_presentation(3),
                qplane_presentation(3), skew_trunc_presentation(2, beta=1, v=2),
                skew_trunc_presentation(3, beta=1, v=2),
                skew_free_presentation(v=2, tau=1)]
    for pres in builtins + [confluent_random_presentation(rng) for _ in range(25)]:
        count = 0
        while count < 30:
            deg = rng.randint(0, 6)
            yw = tuple(rng.randrange(pres.ny) for _ in range(deg))
            reference = pres.normal_form_yword(yw)
            assert normal_form_yword_random(pres, yw, rng) == reference, yw
            count += 1


@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_normal_form_matches_random_order_property(seed, data):
    rng = random.Random(seed)
    pres = confluent_random_presentation(rng)
    yw = tuple(data.draw(st.lists(st.integers(0, pres.ny - 1), max_size=6),
                         label="word"))
    assert pres.normal_form_yword(yw) == normal_form_yword_random(pres, yw, rng)


def test_normalize_matches_random_order_with_group_letters():
    rng = random.Random(909)
    builtins = [skew_free_presentation(v=1, tau=1), skew_free_presentation(v=2, tau=1),
                skew_trunc_presentation(3, beta=1, v=2), qplane_presentation(2)]
    for pres in builtins + [confluent_random_presentation(rng) for _ in range(15)]:
        ball = pres.group.ball(1)
        for _ in range(12):
            letters = [("g", rng.choice(ball)) if rng.random() < 0.4
                       else ("y", rng.randrange(pres.ny)) for _ in range(rng.randint(0, 6))]
            assert pres.normalize([(pres.domain.one(), letters)]) == \
                normalize_random_order(pres, letters, rng), letters


def test_products_keep_the_degree():
    # every term of y_i (h w) has the degree (counts(w) + e_i, h mu_i mu(w))
    # of the word before rewriting: the grading the primitive search uses
    rng = random.Random(3131)
    builtins = [skew_trunc_presentation(3, beta=1, v=2),
                skew_trunc_presentation(2, beta=1),
                skew_free_presentation(v=2, tau=1), taft_presentation(5),
                exterior_presentation(3), qplane_presentation(3)]
    for pres in builtins + [confluent_random_presentation(rng) for _ in range(25)]:
        for words in pres.irreducible_ywords(3):
            for yw in words:
                for h in pres.group.ball(1):
                    word = AlgebraElement({(h, yw): pres.domain.one()})
                    for i in range(pres.ny):
                        degree = pres._degree((h, (i,) + yw))
                        for term in pres.multiply(pres.y(i), word).terms:
                            assert pres._degree(term) == degree, (pres, h, yw, i)


def _dense_grading_rows(p):
    """The grading's rows as first built: one count row and one group row
    per rule term, zero and repeated rows included, then one of each per
    generator with tau != 0, then the torsion rows."""
    def content(yword):
        vec = [0] * p.group.ngens
        for i in yword:
            vec = [a + b for a, b in zip(vec, p.gens[i].weight)]
        return vec

    count_rows, group_rows = [], []
    for rule in p.rules:
        for g, u in rule.rhs.terms:
            count_rows.append([a - b for a, b in zip(y_counts(rule.lhs, p.ny),
                                                     y_counts(u, p.ny))])
            group_rows.append([a - b - c for a, b, c
                               in zip(content(rule.lhs), g, content(u))])
    for i, gen in enumerate(p.gens):
        if any(not t.is_zero() for t in gen.tau):
            count_rows.append([int(k == i) for k in range(p.ny)])
            group_rows.append(list(gen.weight))
    for j, m in enumerate(p.group.torsion):
        group_rows.append([m * (k == p.group.free_rank + j) for k in range(p.group.ngens)])
    return count_rows, group_rows


def _random_rule_presentation(rng):
    """Up to three y's over a random group with random deg-lex decreasing
    rules: each term a permutation of the left-hand side or a shorter
    word, with a random group part.  Not a Hopf algebra in general, but
    the grading is read from the rules alone."""
    group = GroupData(rng.randint(0, 2), tuple(rng.choice((2, 3, 4)) for _ in range(rng.randint(0, 1))))
    if not group.ngens:
        group = GroupData(1)
    dom = ScalarDomain(1)
    ny = rng.randint(1, 3)
    gens = [SkewGenerator("y%d" % (i + 1), group.generators()[rng.randrange(group.ngens)],
                          (dom.one(),) * group.ngens) for i in range(ny)]
    ball = group.ball(2)
    rules = {}
    for _ in range(rng.randint(1, 4)):
        lhs = tuple(rng.randrange(ny) for _ in range(rng.randint(2, 3)))
        key = yword_key(lhs, ny)
        words = {tuple(rng.sample(lhs, len(lhs))) for _ in range(3)}
        words |= {lhs[:rng.randint(0, len(lhs) - 1)] for _ in range(2)}
        rules[lhs] = {(rng.choice(ball), u): dom.rational(rng.randint(1, 3))
                      for u in words if yword_key(u, ny) < key}
    return Presentation(dom, group, gens, list(rules.items()))


def test_grading_spans_the_dense_lattices():
    # the grading feeds the elimination each distinct nonzero row once, and
    # a term that keeps the letters of its left-hand side only its group
    # part: L and M must still span what one row per term spans
    rng = random.Random(2323)
    pool = [build_example(name, dict(_parse_param(prm) for prm in params))[0]
            for name, params in CHECK_SETTINGS]
    pool += [random_presentation(rng) for _ in range(40)]
    pool += [random_truncation(rng) for _ in range(20)]
    pool += [_random_rule_presentation(rng) for _ in range(100)]
    for p in pool:
        for rows, lattice in zip(_dense_grading_rows(p),
                                 (p._count_lattice, p._group_lattice)):
            dense = _echelon_lattice(rows)
            assert all(not any(_reduce_mod(row, lattice)) for row in rows), p
            assert all(not any(_reduce_mod(row, dense)) for _, row in lattice), p


def test_long_words_need_no_recursion():
    # the kernel keeps suspended folds on a stack of its own, so words far
    # longer than the recursion limit normalize
    pres = qplane_presentation(2)
    ident = pres.group.identity()
    (word, c), = pres.normal_form_yword((1, 0)).terms.items()
    assert word == (ident, (0, 1))
    long = pres.normal_form_yword((1,) + (0,) * 1000)
    assert long.terms == {(ident, (0,) * 1000 + (1,)): c ** 1000}
    assert taft_presentation(7).normal_form_yword((0,) * 1500).is_zero()


def test_multiplication_associative(rng):
    for pres in [taft_presentation(2), exterior_presentation(2),
                 qplane_presentation(2), skew_free_presentation(v=2),
                 skew_free_presentation(v=1, tau=1),
                 skew_trunc_presentation(2, beta=1)]:
        for _ in range(10):
            a = random_element(pres, rng, max_degree=2, nterms=2)
            b = random_element(pres, rng, max_degree=2, nterms=2)
            c = random_element(pres, rng, max_degree=2, nterms=2)
            assert pres.multiply(pres.multiply(a, b), c) == \
                pres.multiply(a, pres.multiply(b, c))


def test_unit_element(rng):
    pres = qplane_presentation(2)
    a = random_element(pres, rng)
    assert pres.multiply(a, pres.one()) == a
    assert pres.multiply(pres.one(), a) == a


def test_free_word_counts():
    # no relations: v^d irreducible words of degree d
    p = skew_free_presentation(v=2)
    words = p.irreducible_ywords(10)
    assert [len(words[d]) for d in range(11)] == [2 ** d for d in range(11)]


def test_qplane_word_counts():
    for v in (1, 2, 3):
        p = qplane_presentation(v)
        words = p.irreducible_ywords(8)
        for d in range(9):
            assert len(words[d]) == math.comb(d + v - 1, v - 1)
            for w in words[d]:
                assert tuple(sorted(w)) == w


def test_filtration_dims_group_only():
    dom = ScalarDomain(1)
    p = Presentation(dom, GroupData(1), [], (), name="laurent")
    dims = p.filtration_dims(6)
    assert dims == [2 * n + 1 for n in range(7)]


def test_filtration_dims_qplane():
    p = qplane_presentation(1)
    dims = p.filtration_dims(8)
    assert dims == [(n + 1) ** 2 for n in range(9)]


def test_filtration_dims_free_exponential():
    p = skew_free_presentation(v=2)
    dims = p.filtration_dims(8)
    assert all(dims[n] >= 2 ** n for n in range(9))


def test_degenerate_no_ygens():
    dom = ScalarDomain(1)
    p = Presentation(dom, GroupData(0, (4,)), [], ())
    assert p.check_confluence().confluent
    dims = p.filtration_dims(4)
    assert dims[-1] == 4


def test_rule_orientation_validated():
    dom = ScalarDomain(1)
    group = GroupData(1)
    g = group.generator(0)
    gens = [SkewGenerator("y1", g, (dom.one(),)),
            SkewGenerator("y2", g, (dom.one(),))]
    with pytest.raises(PresentationError):
        # y1 y2 -> y2 y1 increases the deg-lex order
        Presentation(dom, group, gens, [((0, 1), {((0,), (1, 0)): dom.one()})])


def test_character_torsion_validated():
    dom = ScalarDomain(4)
    group = GroupData(0, (3,))
    with pytest.raises(PresentationError):
        # zeta_4 is not a cube root of unity
        Presentation(dom, group, [SkewGenerator("y", (1,), (dom.zeta(),))], ())
