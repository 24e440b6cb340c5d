import random
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfgrow import coalgebra
from hopfgrow.catalog import (EXAMPLES, build_example, exterior_presentation,
                              qplane_presentation, skew_free_presentation,
                              skew_trunc_presentation, taft_presentation)
from hopfgrow.cli import _parse_param
from hopfgrow.coalgebra import (_defect_column, _kernel_elements, antipode, counit,
                                delta, delta_power_formula, delta_word,
                                find_skew_primitives, is_skew_primitive)
from hopfgrow.elements import (AlgebraElement, TensorElement, add_term,
                               word_key, y_counts)
from hopfgrow.errors import NonConfluentError
from hopfgrow.groups import GroupData
from hopfgrow.invariants import compute_invariants
from hopfgrow.linalg import ScalarElimination, nullspace_of_columns
from hopfgrow.presentation import Presentation, SkewGenerator
from hopfgrow.scalars import ScalarDomain, _point

from conftest import (CHECK_IDS, CHECK_SETTINGS, confluent_random_presentation,
                      random_presentation, random_quadratic_presentation,
                      random_truncation, random_truncation_pair,
                      random_weighted_presentation, truncation)
from oracles import (check_axioms_at, check_coalgebra_axioms, delta_word_expanded,
                     line_and_basis, normalize_random_order)

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
        p = skew_free_presentation(v=1)
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


def test_is_skew_primitive_refuses_two_weights_and_a_scalar():
    # Delta(z) - z (x) 1 is g1 (x) y1 + g1^-1 (x) y2 for z = y1 + y2 in
    # qplane v=2, with two left group parts, 0 for z = 1, with none, and
    # g1 (x) y1 for z = y1 + 1, whose right factor is not z
    p = qplane_presentation(2)
    assert [gen.weight for gen in p.gens] == [(1,), (-1,)]
    assert is_skew_primitive(p, p.y(0) + p.y(1)) is None
    assert is_skew_primitive(p, p.one()) is None
    assert is_skew_primitive(p, p.y(0) + p.one()) is None


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


def test_search_space_keeps_each_pair_of_bounds():
    # the cached search space of one group bound must not serve another:
    # the line g^2 - 1 needs radius 2, and radius 2 brings group parts
    # that radius 1 has no room for
    def spaces(p, radius):
        return [(repr(s.basis), s.has_coradical_line)
                for s in (find_skew_primitives(p, w, 2, radius) for w in p.group.ball(2))]

    for builder in ALL_BUILTINS:
        fresh = {radius: spaces(builder(), radius) for radius in (1, 2)}
        for order in ((1, 2), (2, 1)):
            p = builder()
            assert [spaces(p, radius) for radius in order] == [fresh[r] for r in order]


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


def _rank(p, elements):
    elim = ScalarElimination(p.domain)
    for idx, e in enumerate(elements):
        elim.insert(e.terms, idx)
    return elim.rank


def _in_span(p, elements, target):
    return _rank(p, elements + [target]) == _rank(p, elements)


def _find_skew_primitives_full(p, weight, degree_bound, group_word_bound):
    """Oracle: one kernel over every normal word of the bounds, the ball
    times all irreducible y-words, with no grading.  Returns the sorted
    basis, with the coradical line first when it lies in the span, and
    whether it does."""
    weight = p.group.reduce(weight)
    ball = p.group.ball(group_word_bound)
    candidates = [(h, yw) for words in p.irreducible_ywords(degree_bound)
                  for yw in words for h in ball]
    return line_and_basis(p, weight, _kernel_elements(p, candidates, weight))


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


def _exact_kernel_elements(p, candidates, weight):
    """Oracle: the kernel of a block's exact defect columns by
    nullspace_of_columns, each relation scaled to lead coefficient 1."""
    minus_one = -p.domain.one()
    columns = [_defect_column(p, w, weight, minus_one) for w in candidates]
    out = []
    for combo in nullspace_of_columns(p.domain, columns, tags=candidates):
        elt = AlgebraElement(dict(combo))
        lead = max(elt.terms, key=lambda w: word_key(w, p.ny))
        out.append(elt.scale(elt.terms[lead].inverse()))
    return out


def _record_blocks(monkeypatch):
    """A list that collects (p, candidates, weight, kernel, certified) for
    every block the primitive search solves from now on; certified says
    whether the block was proved at the point, without the fallback."""
    blocks, certified = [], []
    kernel_elements = coalgebra._kernel_elements
    certified_kernel = coalgebra._certified_kernel

    def certify(p, candidates, weight):
        kernel = certified_kernel(p, candidates, weight)
        certified.append(kernel is not None)
        return kernel

    def record(p, candidates, weight):
        certified.clear()
        kernel = kernel_elements(p, candidates, weight)
        blocks.append((p, list(candidates), weight, kernel, certified == [True]))
        return kernel

    monkeypatch.setattr(coalgebra, "_kernel_elements", record)
    monkeypatch.setattr(coalgebra, "_certified_kernel", certify)
    return blocks


def _assert_blocks_match_oracle(blocks):
    """Each kernel equals the oracle's, down to the printed coefficients."""
    for p, candidates, weight, kernel, _ in blocks:
        oracle = _exact_kernel_elements(p, candidates, weight)
        assert kernel == oracle, (p, weight, candidates)
        assert [repr(e) for e in kernel] == [repr(e) for e in oracle], (p, weight)


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_certified_blocks_match_oracle_on_check_settings(monkeypatch, name, params):
    p, merged = build_example(name, dict(_parse_param(prm) for prm in params))
    if not p.check_confluence().confluent:
        return
    cfg = EXAMPLES[name].check_config(merged)
    bounds = dict(degree_bound=cfg["degree_bound"], group_word_bound=cfg["group_word_bound"],
                  power_bound=cfg["power_bound"])
    blocks = _record_blocks(monkeypatch)
    compute_invariants(p, **bounds)
    _assert_blocks_match_oracle(blocks)
    # with the group candidates kept (y_terms_only off, the path of
    # skew_trunc with beta != 0), every setting has a certified block of
    # several columns
    blocks.clear()
    monkeypatch.setattr(p, "y_terms_only", False)
    compute_invariants(p, **bounds)
    assert any(certified and len(candidates) > 1
               for _, candidates, _, _, certified in blocks)
    _assert_blocks_match_oracle(blocks)


def test_certified_blocks_match_oracle_random(monkeypatch):
    rng = random.Random(1117)
    blocks = _record_blocks(monkeypatch)
    for _ in range(30):
        p = confluent_random_presentation(rng)
        for weight in p.group.ball(1):
            find_skew_primitives(p, weight, 3, 1)
    assert sum(bool(kernel) for *_, kernel, _ in blocks) > 10
    _assert_blocks_match_oracle(blocks)


@pytest.mark.parametrize("v", [2, 3])
def test_bad_point_falls_back(monkeypatch, v):
    # with q1 = q2 = -1 at the point, y1^2 and y1 y2 + y2 y1 are primitive
    # there but not over Q(q1, ..., qv): their blocks must fall back to the
    # exact elimination and still find no relation.  (A shared residue
    # other than +-1 leaves every block of these bounds certified.)
    prime, zeta_powers, qs = _point(1, v)
    bad = (prime, zeta_powers, (prime - 1, prime - 1) + qs[2:])
    monkeypatch.setattr(coalgebra, "_point", lambda conductor, nvars: bad)
    blocks = _record_blocks(monkeypatch)
    p = skew_free_presentation(v=v)
    for weight in p.group.ball(2):
        find_skew_primitives(p, weight, 3, 2)
    assert any(not certified and len(candidates) > 1
               for _, candidates, _, _, certified in blocks)
    _assert_blocks_match_oracle(blocks)


def test_column_vanishing_at_the_point_falls_back(monkeypatch):
    # a point at which every entry of a block's first column vanishes: the
    # column looks dependent on nothing there, yet it is not zero, so the
    # block falls back, and the relations that use the column (such as the
    # coradical line g - 1) are still found; the group candidates are kept
    # (y_terms_only off, the path of skew_trunc with beta != 0), since on
    # qplane every y-word column with a relation here is zero
    dependences = coalgebra._dependences_mod
    monkeypatch.setattr(coalgebra, "_dependences_mod",
                        lambda columns, prime: dependences([{}] + columns[1:], prime))
    blocks = _record_blocks(monkeypatch)
    p = qplane_presentation(2)
    monkeypatch.setattr(p, "y_terms_only", False)
    for weight in p.group.ball(1):
        find_skew_primitives(p, weight, 2, 1)
    assert any(kernel and not certified for *_, kernel, certified in blocks)
    _assert_blocks_match_oracle(blocks)


def test_scalar_without_value_falls_back(monkeypatch):
    # tau = 1/P puts the denominator P into the coproducts of words that
    # move y3 past g, so the blocks holding them have no value at the point
    prime = _point(1, 3)[0]
    p = skew_free_presentation(v=3, tau=Fraction(1, prime))
    blocks = _record_blocks(monkeypatch)
    for weight in p.group.ball(2):
        find_skew_primitives(p, weight, 3, 1)
    assert None in p._coproduct_point_cache.values()
    assert any(not certified and len(candidates) > 1
               for _, candidates, _, _, certified in blocks)
    assert any(certified and len(candidates) > 1
               for _, candidates, _, _, certified in blocks)
    _assert_blocks_match_oracle(blocks)


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


def test_top_word_pruning_drops_words_off_the_weight(monkeypatch):
    # on skew_free v=2 tau=1 a y-word of length n has mu(w) = g^n, so no
    # y-word tops a kernel vector at the weights g^-1 to g^-3, and none
    # longer than 2 at g^2: the blocks there hold no such column.  The
    # group candidates are kept (y_terms_only off, the path of skew_trunc
    # with beta != 0), so that a block opens at every weight
    p = skew_free_presentation(v=2, tau=1)
    monkeypatch.setattr(p, "y_terms_only", False)
    opened = []
    kernel_elements = coalgebra._kernel_elements

    def record(p, candidates, weight):
        opened.append((weight, max(len(yw) for _, yw in candidates)))
        return kernel_elements(p, candidates, weight)

    monkeypatch.setattr(coalgebra, "_kernel_elements", record)
    g = p.group.generator(0)
    for k in (-1, -2, -3, 2):
        opened.clear()
        weight = p.group.power(g, k)
        find_skew_primitives(p, weight, 4, 3)
        assert opened, k
        longest = max(length for _, length in opened)
        assert longest == (2 if k == 2 else 0), (k, opened)
        _assert_matches_full_search(p, weight, 4, 3)


def test_top_word_keeps_group_part_one_off_count_graded():
    # off y_terms_only, every y-word below a block's top word keeps all of
    # its group parts, but the top word keeps only 1: at these bounds that
    # drops most columns of most draws, and the weights include torsion
    # ones where mu(w) must be reduced to meet the weight
    rng = random.Random(2911)
    draws = 0
    while draws < 12:
        draw = rng.choice([random_weighted_presentation, random_truncation_pair])
        p = confluent_random_presentation(rng, draw)
        if p.y_terms_only:
            continue
        draws += 1
        degree, radius = rng.choice([(4, 2), (4, 3), (5, 2), (5, 3)])
        reached = coalgebra._search_space(p, degree, radius)[2]
        for weight in reached + [w for w in p.group.ball(1) if w not in reached]:
            _assert_matches_full_search(p, weight, degree, radius)


# columns that compute_invariants hands to the elimination, at the bounds
# each setting's check-example uses; skew_trunc is the one builtin off
# y_terms_only, where the top word drops columns (151 and 124 when every
# group part on the weight stayed at it) and the group candidates stay.
# On the others the group candidates split off as the coradical line, with
# no column: the counts were 20, 6, 22, 6, 9, 43, 27, 8, 33 and 45 with them
CHECK_COLUMNS = {
    "skew_free": 14, "skew_trunc": 36, "taft": 2, "qplane": 9, "exterior": 3,
    "skew_free-v=1": 3, "skew_trunc-p=5": 22, "skew_free-v=2-tau=1": 22,
    "skew_free-v=1-tau=1": 6, "taft-free=true": 3, "exterior-free=true": 30,
    "skew_free-v=3": 39,
}


def _columns(monkeypatch, p, degree, radius, power):
    """The number of columns compute_invariants eliminates at the bounds."""
    count = [0]
    kernel_elements = coalgebra._kernel_elements

    def record(p, candidates, weight):
        count[0] += len(candidates)
        return kernel_elements(p, candidates, weight)

    with monkeypatch.context() as m:
        m.setattr(coalgebra, "_kernel_elements", record)
        compute_invariants(p, degree_bound=degree, group_word_bound=radius,
                           power_bound=power)
    return count[0]


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_column_counts_on_check_settings(monkeypatch, name, params):
    p, merged = build_example(name, dict(_parse_param(prm) for prm in params))
    cfg = EXAMPLES[name].check_config(merged)
    columns = _columns(monkeypatch, p, cfg["degree_bound"], cfg["group_word_bound"],
                       cfg["power_bound"])
    assert columns == CHECK_COLUMNS["-".join([name] + params)]


def test_top_word_column_counts_on_skew_trunc(monkeypatch):
    # 151, 2,150 and 238 columns when every group part on the weight
    # stayed at the top word
    for prime, bounds, columns in [(3, (4, 3, 4), 36), (3, (6, 6, 6), 468),
                                   (5, (5, 3, 5), 22)]:
        p = skew_trunc_presentation(prime, v=2)
        assert _columns(monkeypatch, p, *bounds) == columns, (prime, bounds)


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_count_graded_search_matches_full_search_on_check_settings(
        monkeypatch, name, params):
    # the private-row lemma of find_skew_primitives, read off the full
    # search (y_terms_only off): under y_terms_only no kernel vector holds
    # a word h w with h != 1 and w nonempty; on the two tau settings the
    # full search offers 78 and 18 such columns, on the others none
    p, merged = build_example(name, dict(_parse_param(prm) for prm in params))
    if not p.y_terms_only or not p.check_confluence().confluent:
        return
    cfg = EXAMPLES[name].check_config(merged)
    radius = cfg["group_word_bound"]
    blocks = _record_blocks(monkeypatch)
    monkeypatch.setattr(p, "y_terms_only", False)
    for weight in p.group.ball(radius):
        find_skew_primitives(p, weight, cfg["degree_bound"], radius)
    e = p.group.identity()
    for _, _, weight, kernel, _ in blocks:
        for z in kernel:
            assert all(h == e or not yw for h, yw in z.terms), (weight, z)


def test_count_graded_search_matches_full_search_random(monkeypatch):
    # the search on random draws against the full search, y_terms_only on
    # and off among them
    rng = random.Random(1903)
    split = 0
    for _ in range(150):
        p = confluent_random_presentation(rng)
        split += p.y_terms_only
        _bases_without_the_split(monkeypatch, p, p.group.ball(1), 3, 1)
    assert 50 < split < 150
    # at the degree and radius where the Z x Z/2 case of
    # test_count_graded_is_needed has its primitive
    for _ in range(100):
        p = random_truncation_pair(rng)
        assert p.check_confluence().confluent
        _bases_without_the_split(monkeypatch, p, p.group.ball(2), 4, 2)


def test_count_graded_holds_on_builtins_but_truncations():
    settings = [(name, dict(_parse_param(prm) for prm in params))
                for name, params in CHECK_SETTINGS]
    settings += [("skew_trunc", {"beta": 0}), ("skew_trunc", {"p": 2, "beta": 3}),
                 ("skew_free", {"same_q": True}), ("taft", {"p": 7}),
                 ("exterior", {"s": 1}), ("qplane", {"v": 1})]
    for name, params in settings:
        p, merged = build_example(name, params)
        truncated = name == "skew_trunc" and merged["beta"] != 0
        assert p.y_terms_only is not truncated, (name, params)
    # a rule term with a group part keeps a y-letter with tau too, though
    # y1 g = g y1 + tau(g) g (g - 1) drops a letter
    dom = ScalarDomain(1)
    group = GroupData(1)
    g = group.generator(0)
    for tau in (None, (dom.one(),)):
        gens = [SkewGenerator("y%d" % k, g, (dom.one(),), tau) for k in (1, 2)]
        p = Presentation(dom, group, gens, [((1, 0), {(g, (0, 1)): dom.one()})])
        assert p.y_terms_only


def test_count_graded_is_needed():
    # over Z x Z/2 = <g> x <x>, y1 of weight g with lambda1 = (-1, 1) and
    # y1^2 = g^2 - 1, y2 of weight x with the trivial character: at weight
    # g^2 the primitive y1y2y1y2 - y1y2y2y1 + y2y1y2y1 + y2^2 - g^2 y2^2
    # needs the group part g^2 on a nonempty y-word, so a search that keeps
    # only the group part 1 there, as under y_terms_only, loses it
    dom = ScalarDomain(2)
    group = GroupData(1, (2,))
    g, x = group.generators()
    one = dom.one()
    p = truncation(dom, group, g, (dom.rational(-1), one), 2, [(x, (one, one))])
    weight = group.power(g, 2)
    space = find_skew_primitives(p, weight, 4, 2)
    z = p.normalize([(one, (("y", 0), ("y", 1), ("y", 0), ("y", 1))),
                     (-one, (("y", 0), ("y", 1), ("y", 1), ("y", 0))),
                     (one, (("y", 1), ("y", 0), ("y", 1), ("y", 0))),
                     (one, (("y", 1), ("y", 1))),
                     (-one, (("g", weight), ("y", 1), ("y", 1)))])
    assert is_skew_primitive(p, z) == weight
    assert space.dim == 2 and space.witnesses() == [z]
    assert not p.y_terms_only
    p.y_terms_only = True
    assert find_skew_primitives(p, weight, 4, 2).dim == 1


def _bases_without_the_split(monkeypatch, p, weights, degree, radius):
    """Assert that the primitive space at each weight equals, down to the
    printed coefficients and has_coradical_line, the one the search finds
    with y_terms_only turned off, and that both equal one elimination of
    the line and all the kernel vectors of that search (line_and_basis)."""
    kernel_elements = coalgebra._kernel_elements
    kernel = []

    def record(p, candidates, weight):
        found = kernel_elements(p, candidates, weight)
        kernel.extend(found)
        return found

    for w in weights:
        fast = find_skew_primitives(p, w, degree, radius)
        kernel.clear()
        with monkeypatch.context() as m:
            m.setattr(p, "y_terms_only", False)
            m.setattr(coalgebra, "_kernel_elements", record)
            full = find_skew_primitives(p, w, degree, radius)
        basis, has_line = line_and_basis(p, p.group.reduce(w), kernel)
        for space in (fast, full):
            assert space.basis == basis, (p, w)
            assert [repr(e) for e in space.basis] == [repr(e) for e in basis], (p, w)
            assert space.has_coradical_line == has_line, (p, w)


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_split_search_matches_full_search_on_check_settings(monkeypatch, name, params):
    # at every weight of the ball one step past the search's: in the
    # search's ball, outside it, and 1
    p, merged = build_example(name, dict(_parse_param(prm) for prm in params))
    if not p.check_confluence().confluent:
        return
    cfg = EXAMPLES[name].check_config(merged)
    radius = cfg["group_word_bound"]
    _bases_without_the_split(monkeypatch, p, p.group.ball(radius + 1),
                             cfg["degree_bound"], radius)


def test_split_search_matches_full_search_random(monkeypatch):
    rng = random.Random(3907)
    drawn = []
    for draw in (random_presentation, random_weighted_presentation,
                 random_quadratic_presentation, random_truncation,
                 random_truncation_pair):
        for _ in range(12):
            p = confluent_random_presentation(rng, draw)
            drawn.append(p)
            _bases_without_the_split(monkeypatch, p, p.group.ball(2), 3, 1)
    assert {p.y_terms_only for p in drawn} == {True, False}
    assert any(not p.tau_free for p in drawn)
    assert any(p.group.torsion for p in drawn)


def test_split_search_reduces_a_block_of_two_kernel_vectors(monkeypatch):
    # over Z/3 = <t>, y1, y2 and y3 of weight t, lambda1(t) = zeta^2 and
    # y2, y3 of trivial character: at the weight t^5 = t^2 the count class
    # (3, 1, 1) holds two primitives of degree 5 that share words, and the
    # second is reduced against the first, as one elimination of the line
    # and the whole basis reduces it
    dom = ScalarDomain(3)
    group = GroupData(0, (3,))
    t = group.generator(0)
    gens = [SkewGenerator("y%d" % (k + 1), t, (c,))
            for k, c in enumerate((dom.zeta(2), dom.one(), dom.one()))]
    p = Presentation(dom, group, gens)
    weight = group.power(t, 2)
    kernel = []
    kernel_elements = coalgebra._kernel_elements

    def record(p, candidates, weight):
        found = kernel_elements(p, candidates, weight)
        kernel.append(found)
        return found

    with monkeypatch.context() as m:
        m.setattr(coalgebra, "_kernel_elements", record)
        space = find_skew_primitives(p, weight, 5, 1)
    assert space.has_coradical_line
    assert any(len(found) == 2 and not set(found[0].terms).isdisjoint(found[1].terms)
               for found in kernel)
    unreduced = sorted((z for found in kernel for z in found),
                       key=lambda z: max(word_key(w, p.ny) for w in z.terms))
    assert space.basis[1:] != unreduced
    _bases_without_the_split(monkeypatch, p, [weight], 5, 1)


def _rules_are_graded(p):
    """No tau, and every rule term keeps the y-counts of its left-hand side
    and has no group part."""
    return p.tau_free and all(
        y_counts(u, p.ny) == y_counts(rule.lhs, p.ny) and p.group.is_identity(g)
        for rule in p.rules for g, u in rule.rhs.terms)


def _lattices_are_trivial(p):
    """L is empty and every row of M is the identity: rewriting keeps both
    the y-counts and the group content of a word."""
    return not p._count_lattice and all(
        p.group.is_identity(row) for _, row in p._group_lattice)


def test_grading_lattices_match_graded_rules():
    builtins = [skew_free_presentation(v=2), skew_free_presentation(v=1, tau=1),
                skew_free_presentation(v=2, tau=1), taft_presentation(5),
                taft_presentation(3, free=True), qplane_presentation(3),
                exterior_presentation(3), skew_trunc_presentation(3, beta=0, v=2)]
    builtins += [skew_trunc_presentation(p, v=2) for p in (2, 3, 4)]
    rng = random.Random(4411)
    randoms = [random_presentation(rng) for _ in range(100)]
    for p in builtins + randoms:
        assert _lattices_are_trivial(p) == _rules_are_graded(p), p
    assert {_lattices_are_trivial(p) for p in randoms} == {True, False}
    # a rule term with a group part of finite order moves words out of
    # their degree as much as one of infinite order
    dom = ScalarDomain(2)
    group = GroupData(0, (2,))
    gens = [SkewGenerator("y%d" % k, (1,), (dom.rational(-1),)) for k in (1, 2)]
    p = Presentation(dom, group, gens, [((1, 0), {((1,), (0, 1)): dom.one()})])
    assert not _lattices_are_trivial(p) and not _rules_are_graded(p)


def test_grading_of_many_rules_builds_no_transform():
    # the lattices come from the echelon form of one row per rule term,
    # and nothing of the size rows x rows is built: exterior s=90 has 4,095
    # rules, and a transform of that size peaked at 137 MB
    tracemalloc.start()
    try:
        p = exterior_presentation(90)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(p.rules) == 4095
    assert peak < 32 * 2 ** 20, peak


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


def _check_point_columns(p):
    """Assert that each defect column at the point, at the words of y-degree
    3 and group radius 1 and the weights of radius 1, is the exact column
    evaluated there: the same keys, zero values dropped, and 1 subtracted
    at the same two keys.  Columns where either side has no value are
    skipped; returns (columns compared, columns)."""
    point = _point(p.domain.conductor, p.domain.nvars)
    minus_one = -p.domain.one()
    compared = total = 0
    for weight in p.group.ball(1):
        for word in _normal_words(p, 3, 1):
            total += 1
            values = {key: c._at(point)
                      for key, c in _defect_column(p, word, weight, minus_one).items()}
            column = coalgebra._defect_column_at(p, word, weight, point)
            if column is None or None in values.values():
                continue
            assert column == {key: v for key, v in values.items() if v}, (p, word)
            compared += 1
    return compared, total


@pytest.mark.parametrize("builder", ORACLE_BUILTINS)
def test_point_column_is_the_exact_column_at_the_point(builder):
    compared, total = _check_point_columns(builder())
    assert compared == total


@pytest.mark.parametrize("draw", [random_presentation, random_weighted_presentation,
                                  random_quadratic_presentation])
def test_point_column_is_the_exact_column_at_the_point_random(draw):
    # the coproduct folded from kernel steps at the point, shifted by a
    # group part, on random confluent draws: tau-generators, torsion
    # groups and rules with group parts among them
    rng = random.Random(7331)
    draws = [confluent_random_presentation(rng, draw) for _ in range(12)]
    assert sum(_check_point_columns(p)[0] for p in draws) > 500
    assert any(p.group.torsion for p in draws)
    if draw is random_presentation:
        assert not all(p.tau_free for p in draws)


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
