import random
from math import comb

import pytest

from hopfgrow import invariants
from hopfgrow.catalog import (EXAMPLES, build_example, exterior_presentation,
                              qplane_presentation, skew_free_presentation,
                              skew_trunc_presentation, taft_presentation)
from hopfgrow.cli import _parse_param
from hopfgrow.coalgebra import _search_space, find_skew_primitives
from hopfgrow.errors import ConsistencyError
from hopfgrow.fileformat import parse_presentation_data
from hopfgrow.groups import GroupData
from hopfgrow.invariants import (_level, _strip_coradical, classify_gamma,
                                 closure_mod_coradical, compute_invariants, conjugate,
                                 generalized_commutator, is_skew_primitive,
                                 normalize_witness)
from hopfgrow.linalg import ScalarElimination
from hopfgrow.scalars import (INFINITE, Scalar, ScalarDomain, UnitMonomial,
                              multiplicative_order)

from conftest import (CHECK_IDS, CHECK_SETTINGS, confluent_random_presentation,
                      random_element, random_presentation,
                      random_quadratic_presentation, random_truncation,
                      random_truncation_pair, random_weighted_presentation,
                      wide_free_document)
from oracles import (char_value, commutation_scalar_by_products, conjugation_closure,
                     eigen_split, invariants_over_ball, normalize_witness_by_shift,
                     report_data)


def own_commutator(p, y):
    """(commutator, level) of a skew primitive y with one generalized
    eigenvalue under conjugation by its own weight."""
    single, _ = generalized_commutator(p, y, [is_skew_primitive(p, y)])
    (gamma,), level = single
    return gamma, level


def test_commutator_level_taft():
    p = taft_presentation(5)
    assert is_skew_primitive(p, p.y(0)) == p.gens[0].weight
    gamma, level = own_commutator(p, p.y(0))
    assert gamma == p.domain.zeta()
    assert level == 1
    assert classify_gamma(gamma) == "torsion"


def test_commutator_level_trivial_char_with_tau():
    p = skew_free_presentation(v=1, tau=1)
    gamma, level = own_commutator(p, p.y(0))
    assert gamma.is_one()
    assert level == 1
    assert classify_gamma(gamma) == "trivial"


def test_commutator_level_rejects_coradical():
    p = skew_free_presentation(v=1)
    g = p.group.generator(0)
    with pytest.raises(ValueError):
        generalized_commutator(p, p.group_element(g) - p.one(), [g])
    with pytest.raises(ValueError):
        # not primitive
        generalized_commutator(p, p.multiply(p.y(0), p.y(0)), [g])


def test_generalized_commutator_basic():
    p = skew_free_presentation(v=2)
    single, comps = generalized_commutator(p, p.y(0))
    assert single is not None
    (chars, level) = single
    assert level == 1
    assert chars == (p.domain.q(0),)
    xp = exterior_presentation(2)
    single, _ = generalized_commutator(xp, xp.y(1))
    assert single is not None
    assert single[0] == (xp.domain.rational(-1),)


def test_generalized_commutator_splits_sum(monkeypatch):
    # the components are read off the words: exactly y1, y2 (and y3),
    # with no true fraction built on the way; the matrix split did not
    # finish within 30 s on three summands, its entries growing in the
    # matrix powers
    init = Scalar.__init__
    fractions = []

    def recording(scalar, *args, **kwargs):
        init(scalar, *args, **kwargs)
        if len(scalar.den) > 1:
            fractions.append(scalar)

    monkeypatch.setattr(Scalar, "__init__", recording)
    for v in (2, 3):
        p = skew_free_presentation(v=v)
        y_sum = p.y(0)
        for i in range(1, v):
            y_sum = y_sum + p.y(i)
        single, comps = generalized_commutator(p, y_sum)
        assert single is None
        assert comps == [((p.domain.q(i),), 1, p.y(i)) for i in range(v)]
        for chars, level, elt in comps:
            assert is_skew_primitive(p, elt) == p.gens[0].weight
    assert fractions == []


def test_generalized_commutator_splits_by_every_generator():
    # over Z^2, y1, y2 and y3 of weight g1 have the characters (q1, 1),
    # (q2, 1) and (q1, q2): both generators tell all three apart, g2
    # alone does not tell y1 from y2, and g1, the weight, not y1 from y3
    characters = [["q1", "1"], ["q2", "1"], ["q1", "q2"]]
    p = parse_presentation_data({
        "scalars": {"cyclotomic_order": 1, "transcendentals": ["q1", "q2"]},
        "group": {"free_rank": 2},
        "generators": [{"name": "y%d" % (i + 1), "weight": [1, 0], "character": chars}
                       for i, chars in enumerate(characters)]})
    one, q1, q2 = p.domain.one(), p.domain.q(0), p.domain.q(1)
    y1, y2, y3 = p.y(0), p.y(1), p.y(2)
    total = y1 + y2 + y3
    g1, g2 = p.group.generators()
    expected = {
        (g1, g2): [((q1, one), 1, y1), ((q2, one), 1, y2), ((q1, q2), 1, y3)],
        (g2,): [((one,), 1, y1 + y2), ((q2,), 1, y3)],
        (g1,): [((q1,), 1, y1 + y3), ((q2,), 1, y2)],
    }
    for conjugators, comps in expected.items():
        assert generalized_commutator(p, total, list(conjugators)) == (None, comps)
        _assert_split_matches(p, total, list(conjugators))


def _assert_conjugate_is_two_products(p, rng):
    """conjugate(h, z) is h^-1 z h by two products, term by term in the
    same order, for each group generator h and its inverse."""
    for g in p.group.generators():
        for h in (g, p.group.inv(g)):
            left, right = p.group_element(p.group.inv(h)), p.group_element(h)
            for _ in range(4):
                z = random_element(p, rng)
                product = p.multiply(p.multiply(left, z), right)
                assert list(conjugate(p, h, z).terms.items()) == list(product.terms.items())


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_conjugate_is_two_products_on_check_settings(name, params):
    p, _ = build_example(name, dict(_parse_param(prm) for prm in params))
    _assert_conjugate_is_two_products(p, random.Random(41))


def test_conjugate_is_two_products_random():
    # tau-free draws, torsion groups and rules with group parts among them
    rng = random.Random(4141)
    drawn = []
    while len(drawn) < 24:
        p = confluent_random_presentation(rng, rng.choice(
            [random_presentation, random_weighted_presentation]))
        if p.tau_free:
            drawn.append(p)
            _assert_conjugate_is_two_products(p, rng)
    assert any(p.group.torsion for p in drawn)
    assert any(not p.y_terms_only for p in drawn)


def test_conjugate_with_tau_keeps_the_tau_term():
    # g^-1 y g = y + tau(g) (g - 1) for y of weight g and trivial
    # character: a tau presentation still conjugates by products
    p = skew_free_presentation(v=1, tau=1)
    g = p.group.generator(0)
    assert p.gens[0].weight == g and not p.tau_value(0, g).is_zero()
    line = (p.group_element(g) - p.one()).scale(p.tau_value(0, g))
    assert conjugate(p, g, p.y(0)) == p.y(0) + line
    assert conjugate(p, p.group.inv(g), p.y(0)) == p.y(0) - line


def test_conjugates_keep_weight_commutator():
    for p in [exterior_presentation(2), skew_free_presentation(v=2)]:
        for i in range(p.ny):
            weight = is_skew_primitive(p, p.y(i))
            base = own_commutator(p, p.y(i))
            for h in p.group.ball(2):
                conj = conjugate(p, h, p.y(i))
                if conj.is_zero():
                    continue
                assert is_skew_primitive(p, conj) == weight
                assert own_commutator(p, conj)[0] == base[0]


def test_invariants_exterior():
    for s in (1, 2, 3):
        p = exterior_presentation(s)
        report = compute_invariants(p, degree_bound=4, group_word_bound=2,
                                    power_bound=4)
        x = p.group.generator(0)
        assert report.weights == [x]
        assert report.weights_with_primitive_power == [x]
        assert report.weights_with_free_commutator == []
        assert len(report.weight_commutators) == 1
        wc = report.weight_commutators[0]
        assert wc.weight == x and wc.gamma == p.domain.rational(-1)
        assert report.torsion_weight_commutators == report.weight_commutators
        assert report.dim_torsion_span == s
        assert report.dim_free_quotient == 0
        # single pair of weight and commutator, all witnesses at level 1
        assert all(r.level == 1 and r.char_level == 1 for r in report.witnesses)
        assert all(r.gamma == wc.gamma for r in report.witnesses)


def test_invariants_taft():
    p = taft_presentation(5)
    report = compute_invariants(p, degree_bound=5, group_word_bound=2,
                                power_bound=5)
    g = p.gens[0].weight
    assert report.weights == [g]
    assert report.weights_with_primitive_power == [g]
    assert report.dim_free_quotient == 0
    assert report.commutators == [p.domain.zeta()]
    rec = report.witnesses[0]
    assert rec.power_primitive_n == 5 and rec.power_predicted_n == 5


def test_invariants_qplane_single():
    p = qplane_presentation(1)
    report = compute_invariants(p, degree_bound=4, group_word_bound=3,
                                power_bound=4)
    g = p.gens[0].weight
    assert report.weights == [g]
    assert report.weights_with_primitive_power == []
    assert report.weights_with_free_commutator == [g]
    assert report.commutators == [p.domain.q(0)]
    assert report.dim_free_quotient == 1
    assert report.dim_torsion_span == 0


def test_invariants_skew_free_two():
    p = skew_free_presentation(v=2)
    report = compute_invariants(p, degree_bound=4, group_word_bound=3,
                                power_bound=3)
    g = p.gens[0].weight
    assert report.weights == [g]
    assert len(report.weight_commutators) == 2
    assert report.dim_free_quotient == 2
    assert [r.gamma_class for r in report.witnesses] == ["free", "free"]
    # independent transcendental commutators: no multiplicative relation
    assert len(report.diagnostics) == 1
    assert report.diagnostics[0]["relation"] is None
    assert report.diagnostics[0]["note"] == "free-subalgebra expected"


def test_invariants_skew_trunc():
    p = skew_trunc_presentation(3, beta=1, v=2)
    report = compute_invariants(p, degree_bound=4, group_word_bound=3,
                                power_bound=4)
    g = p.gens[0].weight
    assert report.weights == [g]
    assert report.weights_with_primitive_power == [g]
    assert len(report.weight_commutators) == 2
    assert len(report.torsion_weight_commutators) == 1
    assert report.dim_torsion_span == 1
    assert report.dim_free_quotient == 1
    # the truncated generator's cube is the coradical primitive beta*(g^3-1)
    torsion_rec = [r for r in report.witnesses if r.gamma_class == "torsion"][0]
    assert torsion_rec.power_primitive_n == 3


def test_invariants_qplane_three():
    p = qplane_presentation(3)
    report = compute_invariants(p, degree_bound=3, group_word_bound=3,
                                power_bound=3)
    assert len(report.weights) == 3
    assert report.dim_free_quotient == 3
    assert report.weights_with_primitive_power == []
    ident = p.group.identity()
    assert ident in report.weights
    ident_recs = [r for r in report.witnesses if r.weight == ident]
    assert len(ident_recs) == 1 and ident_recs[0].gamma.is_one()


def test_commutator_infinite_order_weight():
    # non-torsion commutator forces the weight to have infinite order
    p = qplane_presentation(1)
    report = compute_invariants(p, degree_bound=3, group_word_bound=2,
                                power_bound=3)
    for rec in report.witnesses:
        if rec.gamma_class == "free":
            assert multiplicative_order(rec.gamma) is INFINITE
            assert p.group.element_order(rec.weight) is INFINITE


@pytest.mark.parametrize("p", [
    exterior_presentation(2), taft_presentation(5), qplane_presentation(1),
    qplane_presentation(3), skew_free_presentation(v=1),
    skew_free_presentation(v=2), skew_free_presentation(v=1, tau=1),
    skew_trunc_presentation(3, beta=1, v=2)],
    ids=["exterior-s=2", "taft-p=5", "qplane-v=1", "qplane-v=3", "skew_free-v=1",
         "skew_free-v=2", "skew_free-v=1-tau=1", "skew_trunc-p=3"])
def test_entry_points_agree_on_witnesses(p):
    report = compute_invariants(p, degree_bound=3, group_word_bound=2,
                                power_bound=3)
    assert report.witnesses
    for rec in report.witnesses:
        single, _ = generalized_commutator(p, rec.element)
        assert single == (rec.character, rec.char_level)
        single, _ = generalized_commutator(p, rec.element, [rec.weight])
        assert single == ((rec.gamma,), rec.level)


def _power(p, z, k):
    out = z
    for _ in range(k - 1):
        out = p.multiply(out, z)
    return out


def test_level_climbs_a_jordan_chain():
    # on skew_free v=1 tau=1, T_g(y) = y + (g - 1), so T_g - 1 lowers y^k
    # one step at a time: y^k needs k levels
    p = skew_free_presentation(v=1, tau=1)
    g = p.group.generator(0)
    for k in range(1, 5):
        assert _level(p, [(g, p.domain.one())], _power(p, p.y(0), k)) == k


def test_level_refuses_an_operator_that_is_not_nilpotent():
    # T_g - 2 keeps y^2 alive past its y-degree: a wrong eigenvalue raises
    # instead of looping
    p = skew_free_presentation(v=1, tau=1)
    g = p.group.generator(0)
    one, two = p.domain.one(), p.domain.rational(2)
    y2 = _power(p, p.y(0), 2)
    with pytest.raises(ConsistencyError):
        _level(p, [(g, two)], y2)
    with pytest.raises(ConsistencyError):
        _level(p, [(g, one), (g, two)], y2)


@pytest.mark.parametrize("degree, level, frontiers", [
    # [T_g - 1, T_{g^2} - 1] on y^3: the frontier sizes 1, 2, 1
    (3, 3, [1, 2, 1]),
    # on y^4: 1, 2, 2, 1
    (4, 4, [1, 2, 2, 1]),
])
def test_level_of_an_operator_pair_keeps_its_frontier_a_basis(
        monkeypatch, degree, level, frontiers):
    p = skew_free_presentation(v=1, tau=1)
    g = p.group.generator(0)
    pair = [(g, p.domain.one()), (p.group.power(g, 2), p.domain.one())]
    seen = []  # every element _level conjugates, with its conjugator
    conj = invariants.conjugate

    def record(p_, h, elt):
        seen.append((h, elt))
        return conj(p_, h, elt)

    monkeypatch.setattr(invariants, "conjugate", record)
    assert _level(p, pair, _power(p, p.y(0), degree)) == level
    # each level conjugates each frontier element once by each conjugator
    steps = iter(seen)
    for size in frontiers:
        front = []
        for h, _ in pair:
            got = [next(steps) for _ in range(size)]
            assert [gh for gh, _ in got] == [h] * size
            front.append([elt for _, elt in got])
        assert front[0] == front[1]
        # the frontier is a basis modulo the coradical, held without it
        assert all(elt.terms == _strip_coradical(elt) for elt in front[0])
        elim = ScalarElimination(p.domain)
        assert all(elim.insert(elt.terms, i) is None for i, elt in enumerate(front[0]))
    assert next(steps, None) is None


def _quotient_by_two_passes(p, weight, vectors, conjugators):
    """Oracle: the closure of the vectors and the line weight - 1 in full
    terms, then the closure vectors independent modulo the coradical, in
    closure order."""
    seeds = list(vectors)
    if not p.group.is_identity(weight):
        seeds.append(p.group_element(weight) - p.one())
    elim = ScalarElimination(p.domain)
    return [v for i, v in enumerate(conjugation_closure(p, seeds, conjugators))
            if elim.insert(_strip_coradical(v), i) is None]


def test_quotient_space_matches_two_pass_closure():
    # one closure modulo the coradical keeps the lifts, in the order, that
    # the closure in full terms followed by a quotient elimination keeps
    rng = random.Random(2207)
    settings = [(p, 2) for p in (
        exterior_presentation(2), taft_presentation(5), qplane_presentation(3),
        skew_free_presentation(v=2), skew_free_presentation(v=1, tau=1),
        skew_free_presentation(v=2, tau=1), skew_trunc_presentation(3, beta=1, v=2))]
    settings += [(confluent_random_presentation(rng), 1) for _ in range(20)]
    spaces = 0
    for p, radius in settings:
        gens = p.group.generators()
        for weight in p.group.ball(radius):
            space = find_skew_primitives(p, weight, 3, radius)
            witnesses = space.witnesses()
            if not witnesses:
                continue
            # the basis, as compute_invariants closes it, and the sum of
            # the witnesses, whose closure grows past its one seed
            total = witnesses[0]
            for w in witnesses[1:]:
                total = total + w
            for vectors in (space.basis, [total]):
                lifts = closure_mod_coradical(p, vectors, gens)
                oracle = _quotient_by_two_passes(p, weight, vectors, gens)
                assert [repr(v) for v in lifts] == [repr(v) for v in oracle], (p, weight)
                spaces += 1
    assert spaces > 30


def _assert_closures_within_top_words(p, degree, radius):
    """At every weight g that the search reaches, the conjugation closure
    of the primitives keeps at most N_g vectors, N_g the y-words w with
    mu(w) = g that the search lists; returns the dimensions."""
    ywords, _, weights = _search_space(p, degree, radius)
    gens = p.group.generators()
    dims = []
    for weight in weights:
        space = find_skew_primitives(p, weight, degree, radius)
        dim = len(closure_mod_coradical(p, space.basis, gens))
        top_words = sum(1 for yw, _, _, _, mu in ywords if yw and mu == weight)
        assert dim <= top_words, (p, weight)
        dims.append(dim)
    return dims


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_closure_within_top_words_on_check_settings(name, params):
    p, merged = build_example(name, dict(_parse_param(prm) for prm in params))
    cfg = EXAMPLES[name].check_config(merged)
    _assert_closures_within_top_words(p, cfg["degree_bound"], cfg["group_word_bound"])


def test_closure_within_top_words_random():
    rng = random.Random(30)
    dims = []
    for draw in [random_weighted_presentation] * 20 + [None] * 20:
        p = (confluent_random_presentation(rng, draw) if draw
             else confluent_random_presentation(rng))
        dims += _assert_closures_within_top_words(p, 3, 2)
    assert sum(dims) > 40


def _assert_levels_within_dims(report):
    """1 <= level, char_level <= the closure dimension of the witness's
    weight: the shifted conjugations are nilpotent on that space.  The
    tighter bound, the y-degree, is _assert_witnesses_homogeneous's."""
    dims = [report.per_weight_dim[rec.weight] for rec in report.witnesses]
    for rec, dim in zip(report.witnesses, dims):
        assert 1 <= rec.level <= dim and 1 <= rec.char_level <= dim, rec
    return dims


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_levels_within_dims_on_check_settings(name, params):
    p, merged = build_example(name, dict(_parse_param(prm) for prm in params))
    cfg = EXAMPLES[name].check_config(merged)
    report = compute_invariants(p, cfg["degree_bound"], cfg["group_word_bound"],
                                cfg["power_bound"])
    assert _assert_levels_within_dims(report)


def test_levels_within_dims_random():
    rng = random.Random(31)
    dims = []
    for draw in [random_weighted_presentation] * 20 + [None] * 20:
        p = (confluent_random_presentation(rng, draw) if draw
             else confluent_random_presentation(rng))
        dims += _assert_levels_within_dims(compute_invariants(p, 3, 2, 2))
    # witnesses in quotients of dimension 1 and larger
    assert min(dims) == 1 and max(dims) > 2


def _word_value(p, yw, h):
    """chi_w(h): the product of lambda_i(h) over the letters of the y-word."""
    val = p.domain.one()
    for i in yw:
        val = val * char_value(p, i, h)
    return val


def _assert_witnesses_homogeneous(p, report):
    """Every witness is a sum of words of one character: rec.character at
    the generators and rec.gamma at its weight, with 1 <= level,
    char_level <= its y-degree; shifted by the coradical line it is
    still its own component.  Returns the number of witnesses."""
    gens = p.group.generators()
    for rec in report.witnesses:
        ywords = [yw for _, yw in rec.element.terms if yw]
        for yw in ywords:
            assert tuple(_word_value(p, yw, h) for h in gens) == rec.character, rec
            assert _word_value(p, yw, rec.weight) == rec.gamma, rec
        degree = max(map(len, ywords))
        assert 1 <= rec.level <= degree and 1 <= rec.char_level <= degree, rec
        shifted = rec.element
        if not p.group.is_identity(rec.weight):
            line = p.group_element(rec.weight) - p.one()
            shifted = shifted + line.scale(p.domain.rational(3))
        single, comps = generalized_commutator(p, shifted)
        assert single == (rec.character, rec.char_level), rec
        assert comps == [(rec.character, rec.char_level, shifted)], rec
    return len(report.witnesses)


def _check_setting_report(name, params):
    p, merged = build_example(name, dict(_parse_param(prm) for prm in params))
    cfg = EXAMPLES[name].check_config(merged)
    return p, compute_invariants(p, cfg["degree_bound"], cfg["group_word_bound"],
                                 cfg["power_bound"])


def _random_reports(seed, count):
    rng = random.Random(seed)
    for draw in [random_weighted_presentation, None] * count:
        p = (confluent_random_presentation(rng, draw) if draw
             else confluent_random_presentation(rng))
        yield p, compute_invariants(p, 3, 2, 2)


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_witnesses_are_homogeneous_on_check_settings(name, params):
    assert _assert_witnesses_homogeneous(*_check_setting_report(name, params))


def test_witnesses_are_homogeneous_random():
    assert sum(_assert_witnesses_homogeneous(p, report)
               for p, report in _random_reports(32, 40)) > 100


def _assert_split_matches(p, z, conjugators):
    """generalized_commutator splits z as the matrix split of
    tests/oracles.py does, in any order: the same eigenvalues, levels and
    components modulo the coradical.  Returns the number of components."""
    _, comps = generalized_commutator(p, z, conjugators)
    expected = eigen_split(p, z, conjugators)
    assert len(comps) == len(expected), (p, z)
    for chars, level, elt in comps:
        match = [rest for key, *rest in expected if key == chars]
        assert match == [[level, _strip_coradical(elt)]], (p, z, chars)
    return len(comps)


def _assert_split_matches_the_matrix_oracle(p, report):
    """At each weight, the sum of the witnesses of pairwise distinct
    characters splits as the matrix split of tests/oracles.py says, under
    the generators and under the weight: the same eigenvalues, levels and
    components modulo the coradical.  Returns the number of components."""
    split = 0
    for weight in report.weights:
        chosen = []
        for rec in report.witnesses:
            if rec.weight == weight and all(rec.character != r.character for r in chosen):
                chosen.append(rec)
        total = chosen[0].element
        for rec in chosen[1:]:
            total = total + rec.element
        for conjugators in (p.group.generators(), [weight]):
            split += _assert_split_matches(p, total, conjugators)
    return split


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_split_matches_the_matrix_oracle_on_check_settings(name, params):
    assert _assert_split_matches_the_matrix_oracle(*_check_setting_report(name, params))


def test_split_matches_the_matrix_oracle_random():
    assert sum(_assert_split_matches_the_matrix_oracle(p, report)
               for p, report in _random_reports(33, 40)) > 100


def _free_lie_superalgebra_dims(s, top):
    """d_1 .. d_top with prod over odd n of (1 + t^n)^{d_n} times prod over
    even n of (1 - t^n)^{-d_n} equal to 1 / (1 - s t): the dimensions by
    degree of the free Lie superalgebra on s odd generators."""
    series = [1] + [0] * top  # the product over the degrees below n
    dims = {}
    for n in range(1, top + 1):
        d = dims[n] = s ** n - series[n]
        factor = [comb(d, k) if n % 2 else comb(d + k - 1, k)
                  for k in range(top // n + 1)]
        series = [sum(c * series[m - n * k] for k, c in enumerate(factor) if n * k <= m)
                  for m in range(top + 1)]
    return dims


@pytest.mark.parametrize("s, degree", [(4, 5), (2, 8)])
def test_free_exterior_primitives_are_the_free_lie_superalgebra(s, degree):
    # the primitives of the free algebra on s odd generators over Z/2 are
    # the free Lie superalgebra: its odd degrees lie at the weight x with
    # commutator -1, its even degrees at 1; at s = 4 the closure keeps
    # 228 vectors at x
    p = exterior_presentation(s, free=True)
    dims = _free_lie_superalgebra_dims(s, degree)
    odd = sum(d for n, d in dims.items() if n % 2)
    even = sum(d for n, d in dims.items() if not n % 2)
    report = compute_invariants(p, degree, 1, 1)
    x = p.group.generator(0)
    assert report.per_weight_dim == {x: odd, p.group.identity(): even}
    assert (report.dim_torsion_span, report.dim_free_quotient) == (odd, even)


def test_compute_invariants_lists_one_ball(monkeypatch):
    # one ball, for the search space and its weights alike, not one per
    # weight and not a second one for the weight loop: over Z^10,
    # |B_2| = 221 and |B_3| = 1,561
    calls = []
    ball = GroupData.ball

    def counted(group, radius):
        calls.append(radius)
        return ball(group, radius)

    monkeypatch.setattr(GroupData, "ball", counted)
    for radius in (2, 3):
        p = parse_presentation_data(wide_free_document(10))
        calls.clear()
        report = compute_invariants(p, 2, radius, 2)
        assert report.weights == [p.group.generator(0)]
        assert calls == [radius]


def test_compute_invariants_searches_the_weights_a_y_word_reaches(monkeypatch):
    # over Z^10 the y-words y^k reach g1^k alone: the other 134,239
    # weights of B_6 hold at most the coradical line and are not searched
    searched = []
    search = invariants.find_skew_primitives

    def recorded(p, weight, *bounds):
        searched.append(weight)
        return search(p, weight, *bounds)

    monkeypatch.setattr(invariants, "find_skew_primitives", recorded)
    p = parse_presentation_data(wide_free_document(10))
    report = compute_invariants(p, 6, 6, 6)
    g1 = p.group.generator(0)
    assert searched == [p.group.power(g1, k) for k in range(1, 7)]
    assert report.weights == [g1]


def _assert_same_report(p, *bounds):
    """compute_invariants and the loop over the whole ball report alike."""
    assert report_data(compute_invariants(p, *bounds)) == \
        report_data(invariants_over_ball(p, *bounds)), (p, bounds)


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_compute_invariants_matches_the_full_ball(name, params):
    p, _ = build_example(name, dict(_parse_param(prm) for prm in params))
    _assert_same_report(p, 4, 3, 3)


def test_compute_invariants_matches_the_full_ball_random():
    rng = random.Random(28)
    kinds = set()
    for _ in range(120):
        p = confluent_random_presentation(rng, random_weighted_presentation)
        kinds.add((p.y_terms_only, p.group.free_rank, bool(p.group.torsion)))
        _assert_same_report(p, 3, 2, 2)
    # y_terms_only and not, torsion groups and free rank 2 among them
    assert {split for split, _, _ in kinds} == {True, False}
    assert {(0, True), (1, True), (2, True), (2, False)} <= {k[1:] for k in kinds}


def _relation_by_powers(u1, u2, bound):
    """Oracle: the first positive (N, M) by total N + M, then N, with
    u1^N u2^M = 1, from unit-monomial products."""
    for total in range(2, bound + 1):
        for n in range(1, total):
            if (u1 ** n * u2 ** (total - n)).is_one():
                return (n, total - n)
    return None


def test_relation_search_matches_the_power_loop():
    # the early exit must answer as the loop does; half the pairs have
    # proportional exponents, most of them negatively, so that the loop
    # still runs there
    dom = ScalarDomain(12, ("q1", "q2", "q3"))
    order = dom.field.unity_order
    rng = random.Random(25)
    found = missing = 0
    for _ in range(400):
        base = [rng.choice((0, 0, 1, -1, 2)) for _ in range(3)]
        if rng.random() < 0.5:
            a, b = rng.randint(1, 3), rng.choice((-3, -2, -1, 1, 2))
            e1, e2 = [a * x for x in base], [-b * x for x in base]
        else:
            e1, e2 = base, [rng.choice((0, 0, 1, -1, -2)) for _ in range(3)]
        u1, u2 = (UnitMonomial(dom, rng.choice((0, order // 2, rng.randrange(order))), e)
                  for e in (e1, e2))
        bound = rng.randint(2, 20)
        rel = invariants._relation_search(u1, u2, bound)
        assert rel == _relation_by_powers(u1, u2, bound), (u1, u2, bound)
        found += rel is not None
        missing += rel is None
    assert found > 50 and missing > 50


def test_normalize_witness_shifts_off_the_coradical_line():
    # on taft, g^-1 y g = zeta y; z = y + c (g - 1) is skew primitive of
    # weight g, and T(z) - zeta z = c (1 - zeta) (g - 1) is shifted away
    p = taft_presentation(3)
    g = p.group.generator(0)
    y = p.y(0)
    gamma = p.domain.zeta()
    assert conjugate(p, g, y) == y.scale(gamma)
    z = y + (p.group_element(g) - p.one()).scale(p.domain.rational(5))
    assert is_skew_primitive(p, z) == g
    assert normalize_witness(gamma, z) == y
    assert normalize_witness(gamma, y) == y


def test_normalize_witness_keeps_the_coradical_at_commutator_one():
    # on skew_free v=1 tau=1, g^-1 y g = y + (g - 1): z = y + 5 (g - 1) is a
    # level-1 witness of commutator 1, where T(z) - z = g - 1 comes from
    # tau, whatever the coradical part of z, and z is left as it is
    p = skew_free_presentation(v=1, tau=1)
    g = p.group.generator(0)
    line = p.group_element(g) - p.one()
    assert conjugate(p, g, p.y(0)) == p.y(0) + line
    z = p.y(0) + line.scale(p.domain.rational(5))
    assert is_skew_primitive(p, z) == g
    assert normalize_witness(p.domain.one(), z) == z


def _assert_witness_analysis_matches_oracles(monkeypatch, p, rng, *bounds):
    """compute_invariants with each normalize_witness checked against the
    shift oracle; then commutation_scalar of each witness, and of random
    elements, at each group generator, its inverse and each witness
    weight, checked against the products oracle.  Returns the report, or
    None when compute_invariants finds the presentation inconsistent (its
    rules span no Hopf ideal), and then checks the level-1 witnesses."""
    normalize = invariants.normalize_witness
    witnesses = []

    def checked(gamma, element):
        out = normalize(gamma, element)
        old = normalize_witness_by_shift(p, is_skew_primitive(p, element), gamma, element)
        assert list(out.terms.items()) == list(old.terms.items()), (p, element)
        witnesses.append(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(invariants, "normalize_witness", checked)
        try:
            report = compute_invariants(p, *bounds)
        except ConsistencyError:
            report = None
    if report is not None:
        witnesses = [rec.element for rec in report.witnesses]
    gens = p.group.generators()
    hs = gens + [p.group.inv(g) for g in gens] + [is_skew_primitive(p, z) for z in witnesses]
    for z in witnesses + [random_element(p, rng) for _ in range(4)]:
        for h in hs:
            lam = invariants.commutation_scalar(p, z, h)
            assert lam == commutation_scalar_by_products(p, z, h), (p, z, h)
            assert lam is None or lam.as_unit_monomial() is not None, (p, z, h)
    return report


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_witness_analysis_matches_oracles_on_check_settings(monkeypatch, name, params):
    p, merged = build_example(name, dict(_parse_param(prm) for prm in params))
    cfg = EXAMPLES[name].check_config(merged)
    report = _assert_witness_analysis_matches_oracles(
        monkeypatch, p, random.Random(43), cfg["degree_bound"], cfg["group_word_bound"],
        cfg["power_bound"])
    assert report.witnesses


def test_witness_analysis_matches_oracles_random(monkeypatch):
    # tau and tau-free draws, y_terms_only on and off among them; the
    # draws that compute_invariants refuses are random quadratic ones
    rng = random.Random(4343)
    drawn = []
    for draw in (random_presentation, random_weighted_presentation,
                 random_quadratic_presentation, random_truncation,
                 random_truncation_pair):
        for _ in range(12):
            p = confluent_random_presentation(rng, draw)
            report = _assert_witness_analysis_matches_oracles(monkeypatch, p, rng, 3, 2, 2)
            drawn.append((draw, p, report))
    assert {p.tau_free for _, p, _ in drawn} == {p.y_terms_only for _, p, _ in drawn} \
        == {True, False}
    assert {draw for draw, _, report in drawn if report is None} \
        == {random_quadratic_presentation}
