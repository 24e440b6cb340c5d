import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfgrow.catalog import (EXAMPLES, build_example, exterior_presentation,
                              qplane_presentation, skew_free_presentation,
                              skew_trunc_presentation, taft_presentation)
from hopfgrow.cli import _parse_param
from hopfgrow.coalgebra import is_skew_primitive
from hopfgrow.elements import AlgebraElement
from hopfgrow.errors import ResourceCeilingError
from hopfgrow.groups import GroupData
from hopfgrow.growth import (PbwScan, _check_dependence_conclusions, dp_word_counts,
                             fit_growth, measure_growth, pbw_dependence_scan)
from hopfgrow.invariants import _strip_coradical, compute_invariants
from hopfgrow.linalg import ScalarElimination
from hopfgrow.presentation import Presentation, SkewGenerator
from hopfgrow.scalars import ScalarDomain

from conftest import (CHECK_IDS, CHECK_SETTINGS, confluent_random_presentation,
                      cyclic_g3_truncation, g3_truncation, random_presentation,
                      random_truncation, rank2_truncation)


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


def _ceiling_partial(dims_fn, n_max, max_words):
    with pytest.raises(ResourceCeilingError) as exc:
        dims_fn(n_max, max_words=max_words)
    return exc.value.partial


def test_word_ceiling_truncates():
    # the partial sequence ends at the last level within the ceiling; the
    # first three take the factored count, the tau presentation the closure
    for build, n_max, max_words, partial in [
            (lambda: skew_free_presentation(v=2), 12, 50, [1, 5, 15, 37]),
            (lambda: qplane_presentation(3), 24, 1000,
             [1, 6, 20, 50, 105, 196, 336, 540, 825]),
            (lambda: skew_trunc_presentation(3, v=2), 13, 2000,
             [1, 5, 15, 36, 77, 155, 301, 572, 1073, 1997]),
            (lambda: skew_free_presentation(v=2, tau=1), 8, 100,
             [1, 5, 15, 37, 83])]:
        p = build()
        report = measure_growth(p, n_max=n_max, max_words=max_words)
        assert report.truncated
        assert report.estimate["kind"] == "inconclusive"
        assert report.dims == partial
        assert _ceiling_partial(p._closure_dims, n_max, max_words) == partial


def test_dp_oracle_matches_enumeration():
    # the oracle holds on length-filtered presentations: the multigraded
    # ones, and the truncation y1^3 = g1^3 - 1, which is not multigraded
    truncated = skew_trunc_presentation(3, beta=1, v=2)
    assert not truncated.is_multigraded
    for p in [qplane_presentation(2), taft_presentation(3),
              exterior_presentation(2), skew_free_presentation(v=2),
              skew_trunc_presentation(3, beta=0, v=2), truncated]:
        assert p.is_multigraded or p is truncated
        dims = p.filtration_dims(8)
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
                if elim.insert(prod.terms, len(elim.pivots)) is None:
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
    dims = p.filtration_dims(n_max)
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
        dims = p.filtration_dims(4)
        assert dims == _span_rank_dims(p, 4), p
        _check_left_product_support(p, degree=2)
        count += 1


# the tau-free settings of every builtin, each with its horizon n; a
# truncation with bad_gen and beta != 0 is not confluent and has no dims
TAU_FREE_SETTINGS = [
    ("skew_free", {}, 10), ("skew_free", {"v": 1}, 10), ("skew_free", {"v": 3}, 8),
    ("skew_free", {"same_q": True}, 10),
    ("skew_trunc", {}, 10), ("skew_trunc", {"p": 2}, 10), ("skew_trunc", {"p": 4}, 10),
    ("skew_trunc", {"p": 5}, 10), ("skew_trunc", {"v": 1}, 10),
    ("skew_trunc", {"beta": 0}, 10), ("skew_trunc", {"bad_gen": True, "beta": 0}, 8),
    ("taft", {}, 10), ("taft", {"p": 2}, 10), ("taft", {"p": 5}, 10),
    ("taft", {"p": 7}, 10), ("taft", {"free": True}, 10),
    ("qplane", {}, 10), ("qplane", {"v": 1}, 10), ("qplane", {"v": 3}, 10),
    ("exterior", {}, 10), ("exterior", {"s": 1}, 10), ("exterior", {"s": 3}, 10),
    ("exterior", {"free": True}, 10),
]


def _length_filtered(p, n_max):
    dist, _, _ = p._letter_ball(n_max)
    return p._length_filtered(dist)


def _assert_factored_matches_closure(p, n_max):
    """filtration_dims against the closure at every n <= n_max, which pins
    Y(t) on the counted side since ball[0] = 1, and their partial sequences
    under a ceiling halfway up; return which side ran."""
    assert p.tau_free
    dims = p._closure_dims(n_max)
    assert p.filtration_dims(n_max) == dims, p
    if dims[-1] > 1:
        max_words = (1 + dims[-1]) // 2
        assert (_ceiling_partial(p.filtration_dims, n_max, max_words)
                == _ceiling_partial(p._closure_dims, n_max, max_words)), p
    return _length_filtered(p, n_max)


def test_factored_dims_match_closure_builtins():
    for name, params, n_max in TAU_FREE_SETTINGS:
        p, _ = build_example(name, params)
        assert _assert_factored_matches_closure(p, n_max), (name, params)


def _tau_free_confluent(rng):
    while True:
        p = random_presentation(rng)
        if p.tau_free and p.check_confluence().confluent:
            return p


def test_factored_dims_match_closure_random():
    # every presentation random_presentation draws is length-filtered
    rng = random.Random(606)
    for _ in range(200):
        assert _assert_factored_matches_closure(_tau_free_confluent(rng), 6)


@given(seed=st.integers(0, 2 ** 32 - 1), n_max=st.integers(0, 6))
def test_factored_dims_match_closure_property(seed, n_max):
    # below n_max = p1 the ball misses the rule term g1^p1: the closure runs
    _assert_factored_matches_closure(_tau_free_confluent(random.Random(seed)), n_max)


def test_factored_dims_random_truncations():
    # both sides of the choice: the closure where a rule term lies too far
    # from 1, the count of normal y-words where the group wraps round
    rng = random.Random(909)
    sides = set()
    for _ in range(24):
        p = random_truncation(rng)
        assert p.check_confluence().confluent
        sides.add(_assert_factored_matches_closure(p, 5))
        assert p.filtration_dims(5) == _span_rank_dims(p, 5), p
    assert sides == {True, False}


@pytest.mark.parametrize("build, n_max", [
    (lambda: g3_truncation(1), 8), (lambda: g3_truncation(2), 6),
    (rank2_truncation, 5), (cyclic_g3_truncation, 10)],
    ids=["g3-v=1", "g3-v=2", "rank2-g1^2", "cyclic-g3"])
def test_factored_dims_merge_several_centers(build, n_max):
    # y1^power reaches g1^6 v at level power < 6 = dist(g1^6): that center
    # and 1 v both count, and their shifted balls overlap
    p = build()
    assert p.tau_free and p.check_confluence().confluent
    assert not _length_filtered(p, n_max)
    dims = p.filtration_dims(n_max)
    assert dims == p._closure_dims(n_max)
    assert dims == _span_rank_dims(p, n_max)


@pytest.mark.parametrize("build, n_max, max_words", [
    (lambda: taft_presentation(3), 10 ** 5, 8),
    (lambda: taft_presentation(3, free=True), 10 ** 5, 300),
    (lambda: qplane_presentation(1), 10 ** 5, 500),
    (lambda: qplane_presentation(3), 10 ** 5, 2000),
    (lambda: g3_truncation(1), 10 ** 5, 500),
    (rank2_truncation, 300, 2000)],
    ids=["taft-3", "taft-free", "qplane-1", "qplane-3", "g3-v=1", "rank2-g1^2"])
def test_word_ceiling_stops_a_long_horizon(build, n_max, max_words):
    # with n_max far past the level where the closure raises, the ball over
    # the group letters and the count stop by that level too (the rank-2
    # horizon stays small: a ball that ignored the ceiling would hold
    # about 2 n_max^2 elements)
    p = build()
    partial = _ceiling_partial(p._closure_dims, n_max, max_words)
    assert _ceiling_partial(p.filtration_dims, n_max, max_words) == partial
    dist, _, horizon = p._letter_ball(n_max, max_words)
    assert len(dist) <= (1 + 2 * p.group.ngens) * max_words
    assert horizon < n_max or len(dist) <= max_words


def test_word_ceiling_on_y_letters_alone():
    # over the trivial group the letters are the two y's alone, and the
    # normal y-words are the whole closure, so their own ceiling stops it
    dom, group = ScalarDomain(1), GroupData(0)
    p = Presentation(dom, group, [SkewGenerator("y%d" % i, (), ()) for i in (1, 2)])
    assert p.default_generating_letters() == [("y", 0), ("y", 1)]
    for dims_fn in (p.filtration_dims, p._closure_dims):
        assert _ceiling_partial(dims_fn, 12, 50) == [1, 3, 7, 15, 31]


def test_word_ceiling_zero_without_growth():
    # over the trivial group with no y-generator nothing grows past the
    # word 1, so not even a ceiling of 0 words raises
    p = Presentation(ScalarDomain(1), GroupData(0), [], ())
    for dims_fn in (p.filtration_dims, p._closure_dims):
        assert dims_fn(4, max_words=0) == [1] * 5


@pytest.mark.parametrize("build", [
    lambda: taft_presentation(3), lambda: exterior_presentation(2), cyclic_g3_truncation],
    ids=["taft-3", "exterior-2", "cyclic-g3"])
def test_factored_dims_long_horizon_finite(build):
    # a finite closure: the count stays once T and every ball have ended
    p = build()
    assert p.filtration_dims(10 ** 5) == p._closure_dims(10 ** 5)


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


# -- the earlier PBW scan: the oracle of pbw_dependence_scan ----------------
def _exponent_tuples(nvars, degree_bound):
    """Exponent tuples with sum <= bound, in (total degree, lex) order."""
    if nvars == 0:
        return [()]

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for e in range(remaining + 1):
            yield from rec(prefix + (e,), remaining - e, slots - 1)

    tuples = []
    for total in range(degree_bound + 1):
        tuples.extend(sorted(rec((), total, nvars)))
    return tuples


def _pbw_scan_oracle(p, primitives, degree_bound):
    """Every monomial normalized up front by right products, the verdict
    for distinct single words outside the coradical read off directly, and
    only otherwise the elimination."""
    weights = [is_skew_primitive(p, z) for z in primitives]
    if not primitives:
        return PbwScan(True, degree_bound)
    exps = _exponent_tuples(len(primitives), degree_bound)
    normal_forms = {}
    for e in exps:
        prod = p.one()
        for i, power in enumerate(e):
            for _ in range(power):
                prod = p.multiply(prod, primitives[i])
        normal_forms[e] = prod
    seen_words = set()
    for e in exps[1:]:
        terms = normal_forms[e].terms
        word = next(iter(terms), None)
        if len(terms) != 1 or not word[1] or word in seen_words:
            break
        seen_words.add(word)
    else:
        return PbwScan(True, degree_bound)
    elim = ScalarElimination(p.domain)
    for e in exps[1:]:
        combo = elim.insert(_strip_coradical(normal_forms[e]), e)
        if combo is None:
            continue
        inv = combo.pop(e).inverse()
        relation = {e2: inv * c for e2, c in combo.items() if not c.is_zero()}
        return PbwScan(False, degree_bound, monomial=e, relation=relation,
                       conclusions=_check_dependence_conclusions(
                           p, primitives, weights, e, relation))
    return PbwScan(True, degree_bound)


def _assert_scan_matches_oracle(p, family, degree_bound):
    scan = pbw_dependence_scan(p, family, degree_bound)
    oracle = _pbw_scan_oracle(p, family, degree_bound)
    assert scan.independent == oracle.independent
    assert scan.monomial == oracle.monomial
    assert scan.relation == oracle.relation
    assert scan.conclusions == oracle.conclusions


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_pbw_scan_matches_oracle_on_witnesses(name, params):
    p, merged = build_example(name, dict(_parse_param(prm) for prm in params))
    cfg = EXAMPLES[name].check_config(merged)
    report = compute_invariants(p, cfg["degree_bound"], cfg["group_word_bound"],
                                cfg["power_bound"])
    _assert_scan_matches_oracle(p, [r.element for r in report.witnesses],
                                cfg["pbw_degree"])


def test_pbw_scan_matches_oracle_random():
    rng = random.Random(515)
    for _ in range(25):
        p = confluent_random_presentation(rng)
        _assert_scan_matches_oracle(p, [p.y(i) for i in range(p.ny)], 4)


def test_pbw_scan_multiplies_in_monomial_order():
    # with y2 y1 -> 0 the ordered monomials y1^a y2^b are nonzero normal
    # words, while every product in the other order vanishes
    dom, group = ScalarDomain(1, ("q1",)), GroupData(1)
    g = group.generator(0)
    gens = [SkewGenerator("y%d" % i, g, (dom.q(0),)) for i in (1, 2)]
    p = Presentation(dom, group, gens, [((1, 0), {})])
    family = [p.y(0), p.y(1)]
    assert pbw_dependence_scan(p, family, 4).independent
    _assert_scan_matches_oracle(p, family, 4)
