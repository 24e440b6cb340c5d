import math
import random

import pytest

from hopfgrow.catalog import (exterior_presentation, qplane_presentation,
                              skew_free_presentation, skew_trunc_presentation,
                              taft_presentation)
from hopfgrow.errors import NonConfluentError, PresentationError
from hopfgrow.groups import GroupData
from hopfgrow.presentation import Presentation, SkewGenerator
from hopfgrow.scalars import ScalarDomain

from conftest import random_element


def test_commute_y_past_group():
    p = skew_free_presentation(v=1)
    g = p.group.generator(0)
    q = p.domain.q(0)
    result = p.normalize([("y", 0), ("g", g)])
    assert result == p.normalize([("g", g), ("y", 0)]).scale(q)
    assert list(result.terms.keys()) == [(g, (0,))]
    assert result.terms[(g, (0,))] == q


def test_group_inverse_cancels():
    p = skew_free_presentation(v=1)
    g = p.group.generator(0)
    result = p.normalize([("g", g), ("g", p.group.inv(g))])
    assert result == p.one()


def test_exterior_rules():
    p = exterior_presentation(s=2)
    minus = p.domain.rational(-1)
    assert p.normalize([("y", 1), ("y", 0)]) == \
        p.normalize([("y", 0), ("y", 1)]).scale(minus)
    assert p.normalize([("y", 0), ("y", 0)]).is_zero()


def test_tau_commutation():
    # trivial character with additive character: y g = g y + g(mu - 1)
    p = skew_free_presentation(v=1, tau=1)
    g = p.group.generator(0)
    result = p.normalize([("y", 0), ("g", g)])
    gy = p.normalize([("g", g), ("y", 0)])
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


def test_randomized_reduction_order_agrees(rng):
    for pres in [taft_presentation(3), exterior_presentation(3),
                 qplane_presentation(3), skew_trunc_presentation(2, beta=1, v=2)]:
        count = 0
        while count < 30:
            deg = rng.randint(0, 6)
            yw = tuple(rng.randrange(pres.ny) for _ in range(deg))
            reference = pres.normal_form_yword(yw)
            assert pres.normal_form_yword_random(yw, rng) == reference
            count += 1


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
    dims = p.filtration_dims(p.default_generating_letters(), 6)
    assert dims == [2 * n + 1 for n in range(7)]


def test_filtration_dims_qplane():
    p = qplane_presentation(1)
    dims = p.filtration_dims(p.default_generating_letters(), 8)
    assert dims == [(n + 1) ** 2 for n in range(9)]


def test_filtration_dims_free_exponential():
    p = skew_free_presentation(v=2)
    dims = p.filtration_dims(p.default_generating_letters(), 8)
    assert all(dims[n] >= 2 ** n for n in range(9))


def test_degenerate_no_ygens():
    dom = ScalarDomain(1)
    p = Presentation(dom, GroupData(0, (4,)), [], ())
    assert p.check_confluence().confluent
    dims = p.filtration_dims(p.default_generating_letters(), 4)
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
