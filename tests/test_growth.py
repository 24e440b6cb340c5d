import math
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
from hopfgrow.errors import PresentationError
from hopfgrow.fileformat import parse_presentation_data
from hopfgrow.groups import GroupData
from hopfgrow.growth import (PbwScan, _check_dependence_conclusions, dp_word_counts,
                             measure_growth, pbw_dependence_scan)
from hopfgrow.invariants import _strip_coradical, compute_invariants
from hopfgrow.linalg import ScalarElimination
from hopfgrow.presentation import _SIZE_CEILING, Presentation, SkewGenerator
from hopfgrow.scalars import ScalarDomain

from conftest import (CHECK_IDS, CHECK_SETTINGS, confluent_random_presentation,
                      cyclic_g3_truncation, g3_truncation, random_presentation,
                      random_quadratic_presentation, random_truncation,
                      random_weighted_presentation, rank2_truncation, run_guarded)
from oracles import closure_dims, generating_letters, growth_by_slope


def test_laurent_growth_degree_one():
    p = Presentation(ScalarDomain(1), GroupData(1), [], ())
    report = measure_growth(p, n_max=12)
    assert report.dims == [2 * n + 1 for n in range(13)]
    assert report.estimate["kind"] == "polynomial"
    assert report.estimate["degree"] == 1


def test_measure_growth_horizon_capped():
    # dims holds n_max + 1 entries, so a horizon past the size ceiling is
    # refused before any count or list of that length is built
    with pytest.raises(ValueError, match="n_max 1000000000 is above the size ceiling 1000"):
        measure_growth(taft_presentation(3), n_max=10 ** 9)
    assert measure_growth(taft_presentation(3), n_max=1000).dims[1000] == 9


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


def test_dp_oracle_matches_enumeration():
    # the oracle at the letter weight 1: the multigraded presentations,
    # the truncation y1^3 = g1^3 - 1, whose count lattice L is not zero,
    # and the tau ones whose tau-generators have weight g1
    truncated = skew_trunc_presentation(3, beta=1, v=2)
    assert truncated._count_lattice
    for p in [qplane_presentation(2), taft_presentation(3),
              exterior_presentation(2), skew_free_presentation(v=2),
              skew_trunc_presentation(3, beta=0, v=2), truncated,
              skew_free_presentation(v=1, tau=1), skew_free_presentation(v=2, tau=1)]:
        assert p.letter_weight == 1
        dims = p.filtration_dims(8)
        assert dp_word_counts(p, 8) == dims


def _span_rank_dims(p, n_max):
    """dim F_n as the rank of F_{n-1} plus the products x * b, for x a
    generating letter and b a basis element of F_{n-1} (1 included).

    Products with a basis element already in F_{n-2} lie in F_{n-1}, so
    only the basis elements new at level n - 1 are multiplied.
    """
    letters = [p.group_element(val) if kind == "g" else p.y(val)
               for kind, val in generating_letters(p)]
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
    assert p.letter_weight == 1 and dims == _span_rank_dims(p, n_max)
    if expected is not None:
        assert dims == expected


def _check_left_product_support(p, radius=1, degree=3):
    """word_times_letter gives the exact support of letter * word."""
    ywords = [w for level in p.irreducible_ywords(degree) for w in level]
    for kind, val in generating_letters(p):
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
    # the closure oracle is dim V^n; so is the count at the letter weight 1
    rng = random.Random(404)
    count = 0
    while count < 40:
        p = random_presentation(rng)
        if not p.check_confluence().confluent:
            continue
        dims = closure_dims(p, 4)
        assert dims == _span_rank_dims(p, 4), p
        if p.letter_weight == 1:
            assert p.filtration_dims(4) == dims, p
        _check_left_product_support(p, degree=2)
        count += 1


# the settings of every builtin, tau included, each with its horizon n; a
# truncation with bad_gen and beta != 0 is not confluent and has no dims
BUILTIN_SETTINGS = [
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
    ("skew_free", {"tau": 1}, 8), ("skew_free", {"v": 1, "tau": 1}, 10),
    ("skew_free", {"v": 3, "tau": 1}, 6),
]


def _assert_factored_matches_closure(p, n_max):
    """filtration_dims against the closure oracle at every n <= n_max:
    equal at the letter weight W = 1, which pins Y(t) since ball[0] = 1,
    and dims[n] <= closure[n] <= dims[Wn] at W > 1, as F_n lies in V^n and
    V^n in F_Wn.  Return whether W = 1."""
    weight = p.letter_weight
    closure = closure_dims(p, n_max)
    dims = p.filtration_dims(weight * n_max)
    if weight == 1:
        assert dims == closure, p
    for n in range(n_max + 1):
        assert dims[n] <= closure[n] <= dims[weight * n], (p, n, dims, closure)
    return weight == 1


def test_factored_dims_match_closure_builtins():
    for name, params, n_max in BUILTIN_SETTINGS:
        p, _ = build_example(name, params)
        assert _assert_factored_matches_closure(p, n_max), (name, params)


def test_factored_dims_match_closure_random():
    # every tau-free presentation random_presentation draws has the letter
    # weight 1; a tau-generator whose weight is a product of two group
    # generators has 2
    rng = random.Random(606)
    sides = set()
    for _ in range(200):
        p = confluent_random_presentation(rng)
        filtered = _assert_factored_matches_closure(p, 6)
        assert filtered or not p.tau_free, p
        sides.add(filtered)
    assert sides == {True, False}


@given(seed=st.integers(0, 2 ** 32 - 1), n_max=st.integers(0, 6))
def test_factored_dims_match_closure_property(seed, n_max):
    # the letter weight does not depend on n_max: below n_max = p1, where
    # the ball does not yet reach the rule term g1^p1, it is still the
    # weight of that term
    _assert_factored_matches_closure(confluent_random_presentation(random.Random(seed)),
                                     n_max)


def test_tau_weight_past_one_letter_weighs_two():
    # y g = g y + g (g^2 - 1): the tau term reaches g^(a+2) y^(b-1) from
    # g^a y^b, two letters further from 1 than the y it drops, so y weighs
    # 2 letters and the count sum_t Y(t) ball[n - 2t] = C(n + 2, 2)
    # sits between the closure at n / 2 and at n
    dom, z = ScalarDomain(1), GroupData(1)
    g2 = z.power(z.generator(0), 2)
    p = Presentation(dom, z, [SkewGenerator("y", g2, (dom.one(),), (dom.one(),))])
    assert not p.tau_free and p.letter_weight == 2
    assert p.filtration_dims(8) == [math.comb(n + 2, 2) for n in range(9)]
    assert dp_word_counts(p, 8) == p.filtration_dims(8)
    assert closure_dims(p, 8) == [1, 4, 10, 19, 31, 46, 64, 85, 109]
    assert _assert_factored_matches_closure(p, 8) is False


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_check_settings_take_the_count(name, params):
    # every checked setting, tau included, has the letter weight 1, so its
    # table is the count of the words of at most n letters
    p, _ = build_example(name, dict(_parse_param(prm) for prm in params))
    assert p.letter_weight == 1
    assert p.filtration_dims(24) == dp_word_counts(p, 24)


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_growth_verdict_matches_catalog(name, params):
    # the automaton's verdict is the catalog's kind, degree and total
    # dimension
    p, merged = build_example(name, dict(_parse_param(prm) for prm in params))
    expected = EXAMPLES[name].expected(merged)
    estimate = measure_growth(p).estimate
    assert (estimate["kind"], estimate.get("degree"), estimate.get("dimension")) == (
        expected["growth_kind"], expected.get("growth_degree"),
        expected.get("total_dimension"))


def _confluent_draws(seed, count):
    """count confluent draws of each random generator, the truncations
    included."""
    rng = random.Random(seed)
    return [confluent_random_presentation(rng, draw) for draw in (
        random_presentation, random_weighted_presentation,
        random_quadratic_presentation, random_truncation) for _ in range(count)]


def _group_part_at_full_length(p, normal=False):
    """Whether some rule term c g u with |u| = |lhs| has g != 1, in the
    right-hand sides as given or, with normal, in their normal forms."""
    return any(len(u) == len(rule.lhs) and not p.group.is_identity(g)
               for rule in p.rules
               for g, u in (p.normalize(rule.rhs) if normal else rule.rhs).terms)


def test_growth_verdict_matches_slope_random():
    # the verdict against the slopes of dp_word_counts at the horizon 256,
    # and a finite algebra's dimension against the count at its end, at the
    # letter weight 1 and above it alike; a draw with a group part on a rule
    # term of full length has no letter weight and is refused, unless that
    # term vanishes in normal form
    kinds, filtered = set(), set()
    for p in _confluent_draws(717, 40):
        if _group_part_at_full_length(p) and not _group_part_at_full_length(p, True):
            kinds.add("reducible")
        if _group_part_at_full_length(p, True):
            assert p.letter_weight is None, p
            with pytest.raises(PresentationError, match="no letter weight"):
                p._growth_verdict()
            kinds.add("refused")
            continue
        estimate = p._growth_verdict()
        assert (estimate["kind"], estimate.get("degree")) == growth_by_slope(p), p
        if "dimension" in estimate:
            assert estimate["dimension"] == dp_word_counts(p, 64)[-1], p
        kinds.add((estimate["kind"], "dimension" in estimate))
        filtered.add(p.letter_weight == 1)
    assert kinds == {("exponential", False), ("polynomial", False), ("polynomial", True),
                     "refused", "reducible"}
    assert filtered == {True, False}


def test_rule_automaton_state_bound():
    # a state is a proper suffix of a left-hand side: at most
    # 1 + sum(|lhs| - 1) states, and at most one edge per letter
    builtins = [build_example(name, params)[0] for name, params, _ in BUILTIN_SETTINGS]
    for p in builtins + _confluent_draws(818, 25):
        edges = p._rule_automaton()
        assert len(edges) <= 1 + sum(len(rule.lhs) - 1 for rule in p.rules), p
        assert all(len(out) <= p.ny for out in edges), p


def test_closure_growth_estimate_is_exact():
    # a tau-generator of weight g1^2 has the letter weight 2: its table
    # counts F^2, and its verdict is the automaton's, of the closure's
    # degree 2
    dom, z = ScalarDomain(1), GroupData(1)
    g2 = z.power(z.generator(0), 2)
    p = Presentation(dom, z, [SkewGenerator("y", g2, (dom.one(),), (dom.one(),))])
    report = measure_growth(p, n_max=12)
    assert report.dims == [math.comb(n + 2, 2) for n in range(13)]
    assert report.estimate == {"kind": "polynomial", "degree": 2}
    _assert_closure_tail(p, report.estimate)


def _differences(seq, order):
    """The order-th differences of seq."""
    for _ in range(order):
        seq = [b - a for a, b in zip(seq, seq[1:])]
    return seq


def _assert_closure_tail(p, verdict):
    """The verdict against the closure's tail: at degree r its r-th
    differences are one positive constant over the last 6 of 30 levels;
    where the growth is exponential, up to 10 levels, every difference of
    order at most the free rank plus the y-generators still rises over
    the last 6."""
    if verdict["kind"] == "polynomial":
        tail = _differences(closure_dims(p, 30), verdict["degree"])[-6:]
        assert len(set(tail)) == 1 and tail[0] > 0, (p, tail)
        return
    assert verdict["kind"] == "exponential", (p, verdict)
    dims = closure_dims(p, 10)
    for order in range(p.group.free_rank + p.ny + 1):
        tail = _differences(dims, order)[-6:]
        assert all(a < b for a, b in zip(tail, tail[1:])), (p, order, tail)


# random_truncation seeds over Z and Z^2 whose growth a log-log fit of
# the closure at the horizon 12 read one degree too high
FIT_MISREAD_SEEDS = [0, 9, 11, 17, 34, 71, 75, 96, 98, 105, 133, 148]


@pytest.mark.parametrize("seed", FIT_MISREAD_SEEDS)
def test_random_truncation_reads_the_free_rank(seed):
    # y1 of weight g1^k with y1^p = g1^(kp) - 1 and no second generator:
    # polynomial of the free rank, which the closure's tail confirms
    p = random_truncation(random.Random(seed))
    assert p.ny == 1 and not p.group.torsion and p.letter_weight > 1
    report = measure_growth(p, n_max=12)
    assert report.estimate == {"kind": "polynomial", "degree": p.group.free_rank}
    _assert_closure_tail(p, report.estimate)


def test_closure_tail_random_truncations():
    # an independent check of the verdict above the letter weight 1, which
    # no random truncation over Z or Z^2 has
    rng = random.Random(515)
    kinds = set()
    for _ in range(24):
        p = random_truncation(rng)
        if p.group.torsion:
            continue
        assert p.letter_weight > 1 and p.check_confluence().confluent, p
        verdict = p._growth_verdict()
        _assert_closure_tail(p, verdict)
        kinds.add(verdict["kind"])
    assert kinds == {"polynomial", "exponential"}


def _full_length_group_part():
    """y2 y1 -> y1 y2 + g1 y1 y2 for y1, y2 of weight g1 over Z: confluent,
    and its rule term g1 y1 y2 is as long as the left-hand side, so no
    weight per letter keeps rewriting from lengthening a word."""
    dom, z = ScalarDomain(1, ("q1", "q2")), GroupData(1)
    g1 = z.generator(0)
    gens = [SkewGenerator("y1", g1, (dom.q(0),)), SkewGenerator("y2", g1, (dom.q(1),))]
    rhs = {(z.identity(), (0, 1)): dom.one(), (g1, (0, 1)): dom.one()}
    return Presentation(dom, z, gens, [((1, 0), rhs)])


def test_group_part_at_full_length_is_refused():
    # the closure's table is C(n + 4, 4), of degree 4, above the r + d = 3
    # of its automaton: each swap of y2 y1 lengthens the group part, so no
    # letter weight exists, and the table, the verdict and the counting
    # oracle each refuse it with one line
    p = _full_length_group_part()
    assert p.check_confluence().confluent and _group_part_at_full_length(p)
    assert closure_dims(p, 8) == [math.comb(n + 4, 4) for n in range(9)]
    assert p.letter_weight is None
    for run in (lambda: measure_growth(p, n_max=8), p._growth_verdict,
                lambda: dp_word_counts(p, 8)):
        with pytest.raises(PresentationError) as exc:
            run()
        assert str(exc.value).startswith("no letter weight:")
        assert "\n" not in str(exc.value)


def test_reducible_group_part_at_full_length_has_a_letter_weight():
    # y1 y1 -> g1 y2 y2 with y2 y2 -> 0: the full-length term g1 y2 y2
    # vanishes in normal form, so the letter weight is read from the
    # normal right-hand side 0, and the table is the closure oracle's
    dom, z = ScalarDomain(1, ("q1", "q2")), GroupData(1)
    g1 = z.generator(0)
    gens = [SkewGenerator("y1", g1, (dom.q(0),)), SkewGenerator("y2", g1, (dom.q(1),))]
    p = Presentation(dom, z, gens, [((1, 1), {}), ((0, 0), {(g1, (1, 1)): dom.one()})])
    assert p.check_confluence().confluent and _group_part_at_full_length(p)
    assert p.letter_weight == 1
    assert _assert_factored_matches_closure(p, 8)
    assert measure_growth(p, n_max=8).estimate == {"kind": "polynomial", "degree": 2}


def test_factored_dims_random_truncations():
    # both letter weights: above 1 where a rule term lies too far from 1,
    # 1 where the group wraps round
    rng = random.Random(909)
    sides = set()
    for _ in range(24):
        p = random_truncation(rng)
        assert p.check_confluence().confluent
        sides.add(_assert_factored_matches_closure(p, 5))
        assert closure_dims(p, 5) == _span_rank_dims(p, 5), p
    assert sides == {True, False}


@pytest.mark.parametrize("build, n_max", [
    (lambda: g3_truncation(1), 8), (lambda: g3_truncation(2), 6),
    (rank2_truncation, 5), (cyclic_g3_truncation, 10)],
    ids=["g3-v=1", "g3-v=2", "rank2-g1^2", "cyclic-g3"])
def test_factored_dims_merge_several_centers(build, n_max):
    # y1^power reaches g1^6 v at level power < 6 = dist(g1^6): in the
    # closure that center and 1 v both count, and their shifted balls
    # overlap; the letter weight counts g1^6 v at the weighted length of
    # y1^power v
    p = build()
    assert p.tau_free and p.check_confluence().confluent
    assert p.letter_weight > 1
    assert closure_dims(p, n_max) == _span_rank_dims(p, n_max)
    assert _assert_factored_matches_closure(p, n_max) is False


def test_truncated_closure_keeps_the_verdict():
    # three free generators over Z x Z/3, one a tau-generator of weight
    # g1 g2: the letter weight 2, so the table counts F^2 and is never cut;
    # the closure, whose 1249 words at level 5 passed the old word ceiling
    # of 2000 at level 6, lies between its levels, and the verdict is
    # exponential
    p = random_presentation(random.Random(108))
    assert not p.rules and p.letter_weight == 2
    assert closure_dims(p, 5) == [1, 8, 36, 127, 406, 1249]
    report = measure_growth(p, n_max=12)
    assert not report.truncated and len(report.dims) == 13
    assert report.dims[:6] == [1, 5, 14, 32, 65, 125]
    assert report.estimate == {"kind": "exponential"}
    assert _assert_factored_matches_closure(p, 5) is False


def test_word_ceiling_truncates():
    # the count has no word ceiling: past the level where a ceiling of
    # max_words stopped the closure, the table runs to n_max, and at the
    # letter weight 1 it is the closure oracle at every level, the tau
    # presentation too
    for build, n_max, max_words, partial in [
            (lambda: skew_free_presentation(v=2), 12, 50, [1, 5, 15, 37]),
            (lambda: qplane_presentation(3), 24, 1000,
             [1, 6, 20, 50, 105, 196, 336, 540, 825]),
            (lambda: skew_trunc_presentation(3, v=2), 13, 2000,
             [1, 5, 15, 36, 77, 155, 301, 572, 1073, 1997]),
            (lambda: skew_free_presentation(v=2, tau=1), 8, 100,
             [1, 5, 15, 37, 83])]:
        p = build()
        assert p.letter_weight == 1
        report = measure_growth(p, n_max=n_max)
        assert not report.truncated
        assert report.dims == closure_dims(p, n_max), p
        assert report.dims[:len(partial)] == partial
        assert report.dims[len(partial)] > max_words


@pytest.mark.parametrize("build, n_max, max_words", [
    (lambda: taft_presentation(3), 10 ** 5, 8),
    (lambda: taft_presentation(3, free=True), 10 ** 5, 300),
    (lambda: qplane_presentation(1), 10 ** 5, 500),
    (lambda: qplane_presentation(3), 10 ** 5, 2000),
    (lambda: g3_truncation(1), 10 ** 5, 500),
    (rank2_truncation, 300, 2000)],
    ids=["taft-3", "taft-free", "qplane-1", "qplane-3", "g3-v=1", "rank2-g1^2"])
def test_word_ceiling_stops_a_long_horizon(build, n_max, max_words):
    # with n_max far past the level where a ceiling of max_words stopped
    # the closure, the count lists no word and runs to the horizon, capped
    # at the largest one filtration_dims accepts; up to that level it is
    # the closure oracle at the letter weight 1, and between the closure's
    # levels above it
    p = build()
    n_max = min(n_max, _SIZE_CEILING)
    dims = p.filtration_dims(n_max)
    assert len(dims) == n_max + 1 and dims[-1] > max_words
    closure = closure_dims(p, 8)
    while closure[-1] <= max_words:
        closure = closure_dims(p, 2 * len(closure))
    stop = next(n for n, d in enumerate(closure) if d > max_words)
    _assert_factored_matches_closure(p, stop)


def test_word_ceiling_on_y_letters_alone():
    # over the trivial group the letters are the two y's alone, and the
    # normal y-words are the whole closure; the count lists none of them
    # and runs to the horizon, past the 50 words where a ceiling stopped
    # the closure at [1, 3, 7, 15, 31]
    dom, group = ScalarDomain(1), GroupData(0)
    p = Presentation(dom, group, [SkewGenerator("y%d" % i, (), ()) for i in (1, 2)])
    assert generating_letters(p) == [("y", 0), ("y", 1)]
    dims = p.filtration_dims(12)
    assert dims == closure_dims(p, 12) == [2 ** (n + 1) - 1 for n in range(13)]
    assert dims[:5] == [1, 3, 7, 15, 31] and dims[5] > 50


def test_word_ceiling_zero_without_growth():
    # over the trivial group with no y-generator nothing grows past the
    # word 1, in the count, in the closure and in the growth report
    p = Presentation(ScalarDomain(1), GroupData(0), [], ())
    assert p.filtration_dims(4) == closure_dims(p, 4) == [1] * 5
    assert measure_growth(p, n_max=4).dims == [1] * 5


def test_weighted_count_brackets_the_closure_random_truncations():
    # the filtration of the letter weight W against the closure,
    # dims[n] <= closure[n] <= dims[Wn], on every confluent draw at seeds
    # 0-149 of weight above 1, and W = 1 exactly where no rule term g u has
    # |g| + |u| > |lhs|; y1 of weight g1^3 with y1^2 = g1^6 - 1 weighs 3
    p = g3_truncation(1)
    assert p.letter_weight == 3
    assert p.filtration_dims(8) == [1, 3, 5, 8, 12, 16, 20, 24, 28]
    weighted = 0
    for seed in range(150):
        p = random_truncation(random.Random(seed))
        if not p.check_confluence().confluent:
            continue
        length = p.group.word_length
        filtered = all(length(g) + len(u) <= len(rule.lhs)
                       for rule in p.rules for g, u in rule.rhs.terms)
        assert (p.letter_weight == 1) == filtered, seed
        if not filtered:
            assert _assert_factored_matches_closure(p, 4) is False
            weighted += 1
    assert weighted == 108


def test_growth_over_wide_free_groups():
    # one y of weight g1 with trivial character over Z^10, Z^20 and Z^40:
    # the count reads its ball sizes and lists no word, and the verdict is
    # the degree rank + 1; a ball listed by breadth-first search over the
    # group letters, or filtered from a box, fails the timeout or the cap
    code = """if True:
        from hopfgrow.groups import GroupData
        from hopfgrow.growth import measure_growth
        from hopfgrow.presentation import Presentation, SkewGenerator
        from hopfgrow.scalars import ScalarDomain
        for rank in (10, 20, 40):
            dom, group = ScalarDomain(1), GroupData(rank)
            gen = SkewGenerator("y", group.generator(0), (dom.one(),) * rank)
            report = measure_growth(Presentation(dom, group, [gen]), n_max=12)
            print(report.estimate["degree"], report.dims)
    """
    result = run_guarded(["-c", code], timeout=20)
    assert result.returncode == 0, result.stderr
    # dims[n] = sum_{m <= n} |B_m|, and Z^r has sum_k 2^k C(r, k) C(m, k)
    # elements of word length <= m
    expected = []
    for rank in (10, 20, 40):
        balls = [sum(2 ** k * math.comb(rank, k) * math.comb(m, k) for k in range(m + 1))
                 for m in range(13)]
        dims = [sum(balls[:n + 1]) for n in range(13)]
        expected.append("%d %s" % (rank + 1, dims))
    assert result.stdout.splitlines() == expected


@pytest.mark.parametrize("build", [
    lambda: taft_presentation(3), lambda: exterior_presentation(2), cyclic_g3_truncation],
    ids=["taft-3", "exterior-2", "cyclic-g3"])
def test_factored_dims_long_horizon_finite(build):
    # a finite closure: the count stays once T and every ball have ended,
    # up to the largest horizon filtration_dims accepts, at the algebra's
    # dimension whatever the letter weight
    p = build()
    dims, closure = p.filtration_dims(_SIZE_CEILING), closure_dims(p, _SIZE_CEILING)
    assert dims == closure if p.letter_weight == 1 else dims[-1] == closure[-1]


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


def test_pbw_dependence_off_the_pure_powers():
    # with the rule y1 y2 -> 0 the scan meets y2^2, then y1 y2 = 0: the
    # first dependence is the mixed monomial (1, 1), and the conclusions
    # stop at its shape
    p = parse_presentation_data({
        "scalars": {"cyclotomic_order": 1, "transcendentals": ["q1"]},
        "group": {"free_rank": 1},
        "generators": [{"name": "y1", "weight": [1], "character": ["q1"]},
                       {"name": "y2", "weight": [1], "character": ["q1"]}],
        "relations": [{"lhs": "y1 y2", "rhs": ""}]})
    assert p.check_confluence().confluent
    scan = pbw_dependence_scan(p, [p.y(0), p.y(1)], degree_bound=3)
    assert (scan.independent, scan.monomial, scan.relation) == (False, (1, 1), {})
    assert scan.conclusions == {"dependent-monomial-is-pure-power": False}
    assert not scan.consistent


def test_pbw_self_commutation_of_a_scaled_generator():
    # (1 + q1) y1 on skew_trunc p=3 commutes past g1 by the primitive cube
    # root zeta, the scalar y1 has: read as a ratio of products it was the
    # unreduced (zeta + zeta q1)/(1 + q1), of no order
    p = skew_trunc_presentation(3, v=1)
    z = p.y(0).scale(p.domain.one() + p.domain.q(0))
    scan = pbw_dependence_scan(p, [z], degree_bound=4)
    assert scan.monomial == (3,)
    assert scan.conclusions["self-commutation-is-primitive-root"]
    assert scan.consistent


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


def test_dependence_conclusions_on_relations_that_are_not_pure_powers():
    # y1^3 = relation, with y1, y3 of weight g and lambda = zeta_3, y2 of
    # weight g^3 and y4 of weight g^2, both with the trivial character
    dom, group = ScalarDomain(3), GroupData(1)
    g = group.generator(0)
    weights = [g, group.power(g, 3), g, group.power(g, 2)]
    chars = [dom.zeta(), dom.one(), dom.zeta(), dom.one()]
    p = Presentation(dom, group, [SkewGenerator("y%d" % (i + 1), w, (c,))
                                  for i, (w, c) in enumerate(zip(weights, chars))])
    primitives = [p.y(i) for i in range(4)]

    def conclusions(*monomials):
        out = _check_dependence_conclusions(p, primitives, weights, (3, 0, 0, 0),
                                            {e: dom.one() for e in monomials})
        assert out["dependent-monomial-is-pure-power"]
        assert out["self-commutation-is-primitive-root"]
        return (out["relation-monomials-have-predicted-shape"],
                out["relation-weights-match"])

    # a coradical term, a linear term of weight g^3, and y3^3 (order 3)
    assert conclusions((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 3, 0)) == (True, True)
    assert conclusions((1, 0, 0, 0)) == (True, False)  # weight g, not g^3
    assert conclusions((0, 0, 0, 1)) == (True, False)  # weight g^2
    assert conclusions((0, 1, 1, 0)) == (False, True)  # two primitives
    assert conclusions((0, 0, 2, 0)) == (False, False)  # lambda_3 has order 3
    assert conclusions((0, 0, 0, 2)) == (False, False)  # lambda_4 = 1
