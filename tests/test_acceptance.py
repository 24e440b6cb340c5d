"""Acceptance suite: one test per criterion, one printed verdict line each.

Every expected value here is either a frozen hand-derived number or an
exact structural property; comparisons are exact (integers and exact
scalars), with no tolerances beyond the documented fit thresholds.
"""

import math
import random
import time
from functools import reduce

from hopfgrow.bounds import all_bounds, bound_first, detect_exponential
from hopfgrow.catalog import (exterior_presentation, qplane_presentation,
                              skew_free_presentation, skew_trunc_presentation,
                              taft_presentation)
from hopfgrow.coalgebra import delta, delta_power_formula, find_skew_primitives
from hopfgrow.groups import GroupData
from hopfgrow.growth import measure_growth, pbw_dependence_scan
from hopfgrow.invariants import compute_invariants
from hopfgrow.presentation import Presentation, SkewGenerator
from hopfgrow.scalars import ScalarDomain, quantum_binomial

from conftest import random_presentation
from oracles import check_coalgebra_axioms


def _verdict(num, ok, text):
    print("ACCEPTANCE %d: %s -- %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


def test_criterion_1_exterior_reproduction():
    started = time.monotonic()
    for s in (1, 2, 3, 4):
        p = exterior_presentation(s)
        report = compute_invariants(p, degree_bound=max(2, s),
                                    group_word_bound=2, power_bound=3)
        x = p.group.generator(0)
        minus_one = p.domain.rational(-1)
        # the single weight-commutator pair (x, -1), entirely torsion
        assert len(report.weight_commutators) == 1
        wc = report.weight_commutators[0]
        assert wc.weight == x and wc.gamma == minus_one and wc.is_torsion
        assert report.torsion_weight_commutators == report.weight_commutators
        # primitive span = torsion part + coradical: quotient dimension 0
        assert report.dim_free_quotient == 0
        assert report.dim_torsion_span == s
        # the (weight x, commutator -1, any level) span equals the
        # (any weight, commutator -1, level <= 1) span: all witnesses
        p_x_all = [r for r in report.witnesses
                   if r.weight == x and r.gamma == minus_one]
        p_any_1 = [r for r in report.witnesses
                   if r.gamma == minus_one and r.level <= 1]
        assert p_x_all == p_any_1 == report.witnesses
        assert len(p_x_all) == s
        values = {r.rule: r.value for r in all_bounds(p, report)}
        assert values["weight-count"] == 0
        assert values["weight-commutator-count"] == 0
        assert values["primitive-quotient"] == 0
        growth = measure_growth(p, n_max=12)
        assert growth.estimate["kind"] == "polynomial"
        assert growth.estimate["degree"] == 0
        assert growth.dims[-1] == 2 ** (s + 1)
    elapsed = time.monotonic() - started
    _verdict(1, elapsed < 10.0,
             "anticommuting family s=1..4 reproduced exactly in %.2fs" % elapsed)


def test_criterion_2_free_case():
    p = skew_free_presentation(v=2)
    report = compute_invariants(p, degree_bound=4, group_word_bound=3,
                                power_bound=3)
    verdict = detect_exponential(p, report)
    assert verdict.classification == "exponential"
    fired = {c for e in verdict.evidence["pairs"] for c in e["cases"]}
    assert "rank-two" in fired
    growth = measure_growth(p, n_max=13)
    ratios_ok = all(growth.dims[n + 1] / growth.dims[n] >= 1.8
                    for n in range(6, 13))
    assert ratios_ok
    words = p.irreducible_ywords(10)
    assert [len(words[d]) for d in range(11)] == [2 ** d for d in range(11)]
    _verdict(2, True, "free case: rank-two detector, ratios >= 1.8, 2^d words")


def test_criterion_3_quantum_plane():
    for v in (1, 2, 3):
        p = qplane_presentation(v)
        report = compute_invariants(p, degree_bound=3, group_word_bound=3,
                                    power_bound=3)
        family = [r.element for r in report.witnesses]
        assert len(family) == v
        scan = pbw_dependence_scan(p, family, degree_bound=8)
        assert scan.independent
        first = bound_first(p, family)
        assert first.passed and first.value == 1 + v
        growth = measure_growth(p, n_max=12 if v == 1 else 24)
        assert growth.estimate["kind"] == "polynomial"
        assert growth.estimate["degree"] == 1 + v
        words = p.irreducible_ywords(8)
        for d in range(9):
            assert len(words[d]) == math.comb(d + v - 1, v - 1)
    _verdict(3, True, "quantum planes v=1..3: independence, bounds, degrees")


def test_criterion_4_taft():
    for prime in (2, 3, 5):
        dom = ScalarDomain(prime)
        zp = dom.zeta()
        for s in range(1, prime):
            assert quantum_binomial(prime, s, zp).is_zero()
        # before the quotient, y^p is a skew primitive of weight g^p = 1
        free = taft_presentation(prime, free=True)
        space = find_skew_primitives(free, free.group.identity(),
                                     degree_bound=prime, group_word_bound=2)
        ypow = reduce(free.multiply, [free.y(0)] * prime)
        assert any(e == ypow for e in space.basis)
        # in the quotient: dependence at degree p with verified conclusions
        p = taft_presentation(prime)
        scan = pbw_dependence_scan(p, [p.y(0)], degree_bound=prime + 1)
        assert not scan.independent and scan.monomial == (prime,)
        assert scan.conclusions["dependent-monomial-is-pure-power"]
        assert scan.conclusions["self-commutation-is-primitive-root"]
        report = compute_invariants(p, degree_bound=prime, group_word_bound=2,
                                    power_bound=prime)
        assert report.weights == report.weights_with_primitive_power
        values = {r.rule: r.value for r in all_bounds(p, report)}
        assert values["weight-count"] == 0
        growth = measure_growth(p, n_max=12)
        assert growth.estimate["kind"] == "polynomial"
        assert growth.estimate["degree"] == 0
        assert growth.dims[-1] == prime ** 2
    _verdict(4, True, "Taft p=2,3,5: binomials, power primitive, dependence")


def test_criterion_5_coalgebra_axioms():
    rng = random.Random(515151)
    builders = [
        skew_free_presentation(v=2),
        skew_free_presentation(v=1, tau=1),
        skew_trunc_presentation(3, beta=1, v=2),
        taft_presentation(3),
        qplane_presentation(2),
        exterior_presentation(2),
    ]
    for p in builders:
        check_coalgebra_axioms(p, rng, samples=30, max_degree=3)
    # closed-form power coproducts at lambda in {1, -1, zeta_3, q}
    configs = []
    for conductor, char in [(1, "one"), (2, "minus"), (3, "zeta"), (1, "q")]:
        if char == "q":
            dom = ScalarDomain(1, ("q1",))
            image = dom.q(0)
        else:
            dom = ScalarDomain(conductor)
            image = {"one": dom.one(), "minus": dom.rational(-1),
                     "zeta": dom.zeta()}[char]
        group = GroupData(1)
        configs.append(Presentation(dom, group,
                                    [SkewGenerator("y", group.generator(0),
                                                   (image,))]))
    for p in configs:
        for n in range(7):
            closed, partial = delta_power_formula(p, 0, n)
            assert not partial
            assert closed == delta(p, reduce(p.multiply, [p.y(0)] * n, p.one()))
    _verdict(5, True, "coalgebra axioms and closed-form power coproducts")


BUILTIN_MATRIX = [
    ("skew_free v=2", lambda: skew_free_presentation(v=2), 13),
    ("skew_free same-q", lambda: skew_free_presentation(v=2, same_q=True), 13),
    ("skew_free tau", lambda: skew_free_presentation(v=1, tau=1), 12),
    ("skew_trunc", lambda: skew_trunc_presentation(3, beta=1, v=2), 12),
    ("skew_trunc beta=0", lambda: skew_trunc_presentation(3, beta=0, v=2), 12),
    ("taft 2", lambda: taft_presentation(2), 10),
    ("taft 3", lambda: taft_presentation(3), 10),
    ("taft 5", lambda: taft_presentation(5), 12),
    ("qplane 1", lambda: qplane_presentation(1), 12),
    ("qplane 2", lambda: qplane_presentation(2), 24),
    ("qplane 3", lambda: qplane_presentation(3), 24),
    ("exterior 1", lambda: exterior_presentation(1), 10),
    ("exterior 2", lambda: exterior_presentation(2), 10),
    ("exterior 4", lambda: exterior_presentation(4), 10),
]


def test_criterion_6_detector_measurement_consistency():
    for label, build, nmax in BUILTIN_MATRIX:
        p = build()
        report = compute_invariants(p, degree_bound=4, group_word_bound=3,
                                    power_bound=4)
        verdict = detect_exponential(p, report)
        growth = measure_growth(p, n_max=nmax)
        kind = growth.estimate["kind"]
        assert kind in ("polynomial", "exponential"), label
        assert not (verdict.classification == "exponential"
                    and kind == "polynomial"), label
        values = [r.value for r in all_bounds(p, report) if r.value is not None]
        if kind == "polynomial":
            degree = growth.estimate["degree"]
            assert all(v <= degree for v in values), (label, values, degree)
    _verdict(6, True, "no detector/measurement contradiction on %d builtins"
             % len(BUILTIN_MATRIX))


def test_criterion_7_structural_invariants():
    rng = random.Random(77077)
    # fixed builtins: the report asserts its own invariants on every run
    for label, build, _ in BUILTIN_MATRIX:
        p = build()
        report = compute_invariants(p, degree_bound=3, group_word_bound=2,
                                    power_bound=3)
        assert set(report.weights_with_primitive_power) <= set(report.weights)
        assert all(any(wc is other for other in report.weight_commutators)
                   for wc in report.torsion_weight_commutators)
        free = set(report.free_weights)
        assert free <= set(report.weights_with_free_commutator)
        assert report.dim_free_quotient >= len(free)
    count = 0
    while count < 20:
        p = random_presentation(rng)
        if not p.check_confluence().confluent:
            continue
        report = compute_invariants(p, degree_bound=3, group_word_bound=2,
                                    power_bound=3)
        free = set(report.free_weights)
        assert set(report.weights_with_primitive_power) <= set(report.weights)
        assert free <= set(report.weights_with_free_commutator)
        assert report.dim_free_quotient >= len(free)
        count += 1
    _verdict(7, True, "structural invariants on builtins and 20 random instances")


def test_criterion_8_confluence_dichotomy():
    for p1 in (2, 3):
        for beta in (0, 1):
            good = skew_trunc_presentation(p1, beta=beta, v=2)
            assert good.check_confluence().confluent, (p1, beta)
        # transcendental action with beta = 0 is still confluent
        assert skew_trunc_presentation(p1, beta=0, bad_gen=True,
                                       v=2).check_confluence().confluent
        # the violating instance reports exactly the truncation/generator overlap
        bad = skew_trunc_presentation(p1, beta=1, bad_gen=True, v=2)
        result = bad.check_confluence()
        assert not result.confluent
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.kind == "ygroup"
        dom, group = bad.domain, bad.group
        g2 = group.generator(1)
        mu1p = group.power(group.generator(0), p1)
        coeff = dom.q(0) ** p1 - dom.one()
        expected = (bad.group_element(group.mul(g2, mu1p))
                    - bad.group_element(g2)).scale(coeff)
        diff = failure.difference()
        assert diff == expected or diff == -expected
    _verdict(8, True, "truncation confluence dichotomy with the exact overlap")
