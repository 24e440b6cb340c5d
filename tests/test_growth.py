import random

import pytest

from hopfgrow.catalog import (exterior_presentation, qplane_presentation,
                              skew_free_presentation, skew_trunc_presentation,
                              taft_presentation)
from hopfgrow.elements import AlgebraElement
from hopfgrow.groups import GroupData
from hopfgrow.growth import (dp_word_counts, fit_growth, measure_growth,
                             pbw_dependence_scan)
from hopfgrow.invariants import compute_invariants
from hopfgrow.linalg import ScalarElimination
from hopfgrow.presentation import Presentation
from hopfgrow.scalars import ScalarDomain

from conftest import random_presentation


def test_laurent_growth_degree_one():
    p = Presentation(ScalarDomain(1), GroupData(1), [], ())
    report = measure_growth(p, n_max=12)
    assert report.dims == [2 * n + 1 for n in range(13)]
    assert report.estimate["kind"] == "polynomial"
    assert report.estimate["degree"] == 1


def test_qplane_growth_degrees():
    report = measure_growth(qplane_presentation(1), n_max=12)
    assert report.dims == [(n + 1) ** 2 for n in range(13)]
    assert report.estimate == pytest.approx(report.estimate)  # sanity
    assert report.estimate["kind"] == "polynomial"
    assert report.estimate["degree"] == 2

    report = measure_growth(qplane_presentation(2), n_max=24)
    assert report.estimate["kind"] == "polynomial"
    assert report.estimate["degree"] == 3


def test_exterior_growth_constant():
    for s in (1, 2, 3):
        report = measure_growth(exterior_presentation(s), n_max=10)
        assert report.dims[-1] == 2 ** (s + 1)
        assert report.estimate["kind"] == "polynomial"
        assert report.estimate["degree"] == 0


def test_taft_growth_constant():
    for prime in (2, 3, 5):
        report = measure_growth(taft_presentation(prime), n_max=10)
        assert report.dims[-1] == prime ** 2
        assert report.estimate["kind"] == "polynomial"
        assert report.estimate["degree"] == 0


def test_free_growth_exponential():
    report = measure_growth(skew_free_presentation(v=2), n_max=13)
    assert report.estimate["kind"] == "exponential"
    for n in range(6, 13):
        assert report.dims[n + 1] / report.dims[n] >= 1.8


def test_truncated_still_exponential():
    report = measure_growth(skew_trunc_presentation(3, beta=1, v=2), n_max=12)
    assert report.estimate["kind"] == "exponential"


def test_word_ceiling_truncates():
    report = measure_growth(skew_free_presentation(v=2), n_max=12, max_words=50)
    assert report.truncated
    assert report.estimate["kind"] == "inconclusive"


def test_dp_oracle_matches_enumeration():
    for p in [qplane_presentation(2), taft_presentation(3),
              exterior_presentation(2), skew_free_presentation(v=2),
              skew_trunc_presentation(3, beta=0, v=2)]:
        assert p.is_multigraded
        dims = p.filtration_dims(p.default_generating_letters(), 8)
        assert dp_word_counts(p, 8) == dims


def _span_rank_dims(p, n_max):
    """dim F_n as the rank of F_{n-1} plus the products x * b, for x a
    generating letter and b a basis element of F_{n-1} (1 included).

    Products with a basis element already in F_{n-2} lie in F_{n-1}, so
    only the basis elements new at level n - 1 are multiplied.
    """
    letters = [p.group_element(val) if kind == "g" else p.y(val)
               for kind, val in p.default_generating_letters()]
    elim = ScalarElimination(p.domain)
    elim.insert(p.one().terms, 0)
    new_basis = [p.one()]
    dims = [1]
    for _ in range(n_max):
        level = []
        for b in new_basis:
            for x in letters:
                prod = p.multiply(x, b)
                if elim.insert(dict(prod.terms), len(elim.pivots)) is None:
                    level.append(prod)
        new_basis = level
        dims.append(len(elim.pivots))
    return dims


@pytest.mark.parametrize("build, n_max, expected", [
    (lambda: skew_free_presentation(v=1, tau=1), 6, [1, 4, 9, 16, 25, 36, 49]),
    (lambda: skew_free_presentation(v=2, tau=1), 5, [1, 5, 15, 37, 83, 177]),
    (lambda: skew_trunc_presentation(2, v=1), 6, None),
    (lambda: skew_trunc_presentation(3, v=2), 5, None),
    (lambda: qplane_presentation(2), 6, None),
    (lambda: taft_presentation(3), 6, None),
    (lambda: exterior_presentation(2), 6, None),
], ids=["skew_free-v=1-tau=1", "skew_free-v=2-tau=1", "skew_trunc-p=2-v=1",
        "skew_trunc-p=3-v=2", "qplane-2", "taft-3", "exterior-2"])
def test_closure_matches_span_rank(build, n_max, expected):
    p = build()
    dims = p.filtration_dims(p.default_generating_letters(), n_max)
    assert dims == _span_rank_dims(p, n_max)
    if expected is not None:
        assert dims == expected


def _check_left_product_support(p, radius=1, degree=3):
    """word_times_letter gives the exact support of letter * word."""
    ywords = [w for level in p.irreducible_ywords(degree) for w in level]
    for kind, val in p.default_generating_letters():
        x = p.group_element(val) if kind == "g" else p.y(val)
        for h in p.group.ball(radius):
            for yw in ywords:
                word = (h, yw)
                support = p.word_times_letter(word, (kind, val))
                assert len(support) == len(set(support))
                product = p.multiply(x, AlgebraElement({word: p.domain.one()}))
                assert set(support) == set(product.terms), (p, kind, val, word)


def test_word_times_letter_is_left_product_support():
    for p in [skew_free_presentation(v=1, tau=1), skew_free_presentation(v=2, tau=1),
              skew_trunc_presentation(3, v=2), qplane_presentation(2),
              taft_presentation(3)]:
        _check_left_product_support(p)


def test_closure_matches_span_rank_random():
    rng = random.Random(404)
    count = 0
    while count < 40:
        p = random_presentation(rng)
        if not p.check_confluence().confluent:
            continue
        dims = p.filtration_dims(p.default_generating_letters(), 4)
        assert dims == _span_rank_dims(p, 4), p
        _check_left_product_support(p, degree=2)
        count += 1


def test_fit_growth_short_window():
    assert fit_growth([1, 2, 3])["kind"] == "inconclusive"


def test_pbw_independent_qplane():
    for v in (1, 2, 3):
        p = qplane_presentation(v)
        report = compute_invariants(p, degree_bound=3, group_word_bound=3,
                                    power_bound=3)
        scan = pbw_dependence_scan(p, [r.element for r in report.witnesses],
                                   degree_bound=8)
        assert scan.independent


def test_pbw_dependence_taft():
    for prime in (2, 3, 5):
        p = taft_presentation(prime)
        scan = pbw_dependence_scan(p, [p.y(0)], degree_bound=prime + 1)
        assert not scan.independent
        assert scan.monomial == (prime,)
        assert scan.conclusions["dependent-monomial-is-pure-power"]
        assert scan.conclusions["self-commutation-is-primitive-root"]
        assert scan.consistent


def test_pbw_dependence_exterior():
    p = exterior_presentation(2)
    scan = pbw_dependence_scan(p, [p.y(0), p.y(1)], degree_bound=4)
    assert not scan.independent
    assert sum(scan.monomial) == 2
    assert scan.consistent


def test_pbw_empty_family():
    p = qplane_presentation(1)
    assert pbw_dependence_scan(p, [], degree_bound=4).independent


def test_pbw_free_case():
    p = skew_free_presentation(v=2)
    scan = pbw_dependence_scan(p, [p.y(0), p.y(1)], degree_bound=6)
    assert scan.independent


def test_pbw_truncated_with_beta():
    # y1^p = beta*(mu^p - 1) is a coradical element: dependence at degree p
    p = skew_trunc_presentation(3, beta=1, v=2)
    scan = pbw_dependence_scan(p, [p.y(0), p.y(1)], degree_bound=4)
    assert not scan.independent
    assert scan.monomial == (3, 0)
    assert scan.consistent
