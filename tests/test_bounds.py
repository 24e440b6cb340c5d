import pytest

from hopfgrow.bounds import (all_bounds, bound_first, bound_second, bound_third,
                             detect_exponential)
from hopfgrow.catalog import (exterior_presentation, qplane_presentation,
                              skew_free_presentation, skew_trunc_presentation,
                              taft_presentation)
from hopfgrow.fileformat import parse_presentation_data
from hopfgrow.invariants import compute_invariants

SMALL = dict(degree_bound=4, group_word_bound=3, power_bound=4)


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name, p in [
        ("qplane1", qplane_presentation(1)),
        ("qplane2", qplane_presentation(2)),
        ("qplane3", qplane_presentation(3)),
        ("taft", taft_presentation(3)),
        ("exterior", exterior_presentation(2)),
        ("skew_free", skew_free_presentation(v=2)),
        ("skew_free_same", skew_free_presentation(v=2, same_q=True)),
        ("skew_trunc", skew_trunc_presentation(3, beta=1, v=2)),
    ]:
        out[name] = (p, compute_invariants(p, **SMALL))
    return out


def test_bound_first_qplane(reports):
    for v in (1, 2, 3):
        p, report = reports["qplane%d" % v]
        family = [r.element for r in report.witnesses]
        result = bound_first(p, family)
        assert result.passed
        assert result.value == 1 + v


def test_bound_first_taft_fails_on_root_of_unity(reports):
    p, report = reports["taft"]
    result = bound_first(p, [r.element for r in report.witnesses])
    assert not result.passed
    assert result.value is None
    failing = result.failing()
    assert [h.name for h in failing] == ["self-commutation-free"]


def test_bound_first_dependent_family(reports):
    p, report = reports["qplane1"]
    y = report.witnesses[0].element
    scaled = y.scale(p.domain.rational(2))
    result = bound_first(p, [y, scaled])
    assert not result.passed
    assert result.failing()[0].name == "independent-mod-coradical"



def test_bound_first_needs_a_skew_commutation_scalar():
    # y1 + y2 has weight g, but y1 g = q1 g y1 and y2 g = q2 g y2, so no
    # one scalar commutes it past g
    p = skew_free_presentation(v=2)
    result = bound_first(p, [p.y(0) + p.y(1)])
    assert result.value is None
    assert [(h.name, h.detail) for h in result.failing()] == [
        ("skew-commutation", "no scalar for pair (1, 1)"),
        ("self-commutation-free", "")]


def test_bound_first_on_a_scaled_generator():
    # (1 + q1) y1 commutes past g1 by q1, of infinite order, as y1 does:
    # read as a ratio of products the scalar was the unreduced
    # (q1 + q1^2)/(1 + q1), and the bound raised
    p = skew_free_presentation(v=1)
    z = p.y(0).scale(p.domain.one() + p.domain.q(0))
    assert bound_first(p, [z]).value == bound_first(p, [p.y(0)]).value == 2


def test_bound_first_on_the_coradical_line():
    # g1 - 1 commutes with g1 within the coradical: the scalar is 1, and
    # only the independence modulo the coradical fails
    p = skew_free_presentation(v=1)
    result = bound_first(p, [p.group_element(p.group.generator(0)) - p.one()])
    assert result.value is None
    assert [(h.name, h.passed, h.detail) for h in result.hypotheses] == [
        ("independent-mod-coradical", False, "rank 0 of 1"),
        ("skew-commutation", True, ""), ("self-commutation-free", True, "")]


def test_detect_exponential_skips_a_character_off_the_unit_monomials():
    # y1 of weight 1 with lambda_1(g1) = 1 + q1 and y2 of weight g1 share
    # the cyclic support g1, where y1's character is no unit monomial
    p = parse_presentation_data({
        "scalars": {"cyclotomic_order": 1, "transcendentals": ["q1"]},
        "group": {"free_rank": 1},
        "generators": [{"name": "y1", "weight": [0], "character": ["1 + q1"]},
                       {"name": "y2", "weight": [1], "character": ["q1"]}]})
    report = compute_invariants(p, 2, 1, 2)
    assert [r.character for r in report.witnesses] == [
        (p.gens[0].character[0],), (p.domain.q(0),)]
    verdict = detect_exponential(p, report)
    assert verdict.classification == "inconclusive"
    assert verdict.evidence["pairs"] == []
    assert verdict.evidence["skipped"] == [
        {"pair": "((0,), (1,))", "reason": "pair scalars are not unit monomials"}]


def test_bound_second_examples(reports):
    p, report = reports["exterior"]
    base, refinement = bound_second(report)
    assert base.value == 0 and refinement.value == 0
    p, report = reports["qplane1"]
    base, refinement = bound_second(report)
    assert base.value == 2 and refinement.value == 2
    p, report = reports["skew_trunc"]
    base, refinement = bound_second(report)
    assert base.value == 1          # the single weight has a primitive power
    assert refinement.value == 2    # but carries one non-torsion pair as well
    assert refinement.value >= base.value


def test_bound_third_examples(reports):
    assert bound_third(reports["exterior"][1]).value == 0
    assert bound_third(reports["taft"][1]).value == 0
    assert bound_third(reports["qplane2"][1]).value == 3
    assert bound_third(reports["qplane3"][1]).value == 4
    assert bound_third(reports["skew_free"][1]).value == 3


def test_bound_third_pure_group():
    from hopfgrow.groups import GroupData
    from hopfgrow.presentation import Presentation
    from hopfgrow.scalars import ScalarDomain
    p = Presentation(ScalarDomain(1), GroupData(2), [], ())
    report = compute_invariants(p, degree_bound=2, group_word_bound=2,
                                power_bound=2)
    assert report.weights == []
    assert bound_third(report).value == 2


def test_bounds_monotone(reports):
    for name, (p, report) in reports.items():
        base, refinement = bound_second(report)
        third = bound_third(report)
        assert base.value <= refinement.value
        assert base.value <= third.value


def test_detect_exponential_free_cases(reports):
    p, report = reports["skew_free"]
    verdict = detect_exponential(p, report)
    assert verdict.classification == "exponential"
    fired = [c for e in verdict.evidence["pairs"] for c in e["cases"]]
    assert "rank-two" in fired
    assert verdict.evidence["rank_criterion"]["fires"]

    p, report = reports["skew_free_same"]
    verdict = detect_exponential(p, report)
    assert verdict.classification == "exponential"
    fired = [c for e in verdict.evidence["pairs"] for c in e["cases"]]
    assert "equal-nonroot" in fired


def test_detect_exponential_truncated_case(reports):
    p, report = reports["skew_trunc"]
    verdict = detect_exponential(p, report)
    assert verdict.classification == "exponential"
    fired = [c for e in verdict.evidence["pairs"] for c in e["cases"]]
    assert any("torsion-against-nonroot" in c for c in fired)


def test_detect_exponential_inconclusive_on_polynomial(reports):
    for name in ("qplane1", "qplane2", "qplane3", "taft", "exterior"):
        p, report = reports[name]
        verdict = detect_exponential(p, report)
        assert verdict.classification == "inconclusive"
    # the quantum planes have witness pairs whose necessary relation is solvable
    p, report = reports["qplane2"]
    verdict = detect_exponential(p, report)
    sols = verdict.evidence["relation_solutions"]
    assert sols and sols[0]["solutions"]


def test_all_bounds_runs(reports):
    p, report = reports["qplane2"]
    results = all_bounds(p, report)
    assert [r.rule for r in results] == [
        "independent-family", "weight-count", "weight-commutator-count",
        "primitive-quotient"]
    assert [r.value for r in results] == [3, 3, 3, 3]
