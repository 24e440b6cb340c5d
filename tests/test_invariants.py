import pytest

from hopfgrow.catalog import (exterior_presentation, qplane_presentation,
                              skew_free_presentation, skew_trunc_presentation,
                              taft_presentation)
from hopfgrow.invariants import (CommutatorAnalysis, commutator_level,
                                 compute_invariants, conjugate,
                                 conjugation_matrix, generalized_commutator,
                                 is_skew_primitive)
from hopfgrow.scalars import INFINITE, multiplicative_order


def test_conjugation_matrix_line_only():
    p = skew_free_presentation(v=1)
    g = p.group.generator(0)
    line = p.group_element(g) - p.one()
    matrix, basis = conjugation_matrix(p, g, [line])
    assert len(basis) == 1
    assert matrix == [{0: p.domain.one()}]


def test_conjugation_matrix_diagonal():
    p = skew_free_presentation(v=1)
    g = p.gens[0].weight
    line = p.group_element(g) - p.one()
    matrix, basis = conjugation_matrix(p, g, [line, p.y(0)])
    assert len(basis) == 2
    assert matrix[0] == {0: p.domain.one()}
    assert matrix[1] == {1: p.domain.q(0)}


def test_conjugation_matrix_jordan_block():
    p = skew_free_presentation(v=1, tau=1)
    g = p.gens[0].weight
    line = p.group_element(g) - p.one()
    matrix, basis = conjugation_matrix(p, g, [line, p.y(0)])
    assert len(basis) == 2
    one = p.domain.one()
    assert matrix[0] == {0: one}
    assert matrix[1] == {0: one, 1: one}


def test_commutator_level_taft():
    p = taft_presentation(5)
    analysis = commutator_level(p, p.y(0))
    assert analysis.single is not None
    wc = analysis.single
    assert wc.weight == p.gens[0].weight
    assert wc.gamma == p.domain.zeta()
    assert wc.level == 1
    assert wc.gamma_class == "torsion"


def test_commutator_level_trivial_char_with_tau():
    p = skew_free_presentation(v=1, tau=1)
    analysis = commutator_level(p, p.y(0))
    assert analysis.single is not None
    assert analysis.single.gamma.is_one()
    assert analysis.single.level == 1
    assert analysis.single.gamma_class == "trivial"


def test_commutator_level_rejects_coradical():
    p = skew_free_presentation(v=1)
    g = p.group.generator(0)
    with pytest.raises(ValueError):
        commutator_level(p, p.group_element(g) - p.one())
    with pytest.raises(ValueError):
        commutator_level(p, p.multiply(p.y(0), p.y(0)))  # not primitive


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


def test_generalized_commutator_splits_sum():
    p = skew_free_presentation(v=2)
    y_sum = p.y(0) + p.y(1)
    single, comps = generalized_commutator(p, y_sum)
    assert single is None
    assert len(comps) == 2
    recovered = comps[0][2] + comps[1][2]
    assert recovered == y_sum
    for chars, level, elt in comps:
        assert level == 1
        assert is_skew_primitive(p, elt) == p.gens[0].weight


def test_conjugates_keep_weight_commutator():
    for p in [exterior_presentation(2), skew_free_presentation(v=2)]:
        for i in range(p.ny):
            base = commutator_level(p, p.y(i)).single
            for h in p.group.ball(2):
                conj = conjugate(p, h, p.y(i))
                if conj.is_zero():
                    continue
                wc = commutator_level(p, conj).single
                assert wc.weight == base.weight
                assert wc.gamma == base.gamma


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
        wc = commutator_level(p, rec.element).single
        assert (wc.gamma, wc.level) == (rec.gamma, rec.level)


@pytest.mark.parametrize("p", [
    skew_free_presentation(v=1, tau=1), taft_presentation(3),
    skew_free_presentation(v=2)],
    ids=["skew_free-v=1-tau=1", "taft-p=3", "skew_free-v=2"])
def test_level_bound_boundary(p):
    # the level is None exactly when it exceeds the bound
    y = p.y(0)
    level = commutator_level(p, y).single.level
    below = commutator_level(p, y, level_bound=level - 1)
    assert below.single is None
    assert [c[1] for c in below.components] == [None]
    at = commutator_level(p, y, level_bound=level)
    assert at.single.level == level
    single, comps = generalized_commutator(p, y, level_bound=level - 1)
    assert single is None and [c[1] for c in comps] == [None]
    single, _ = generalized_commutator(p, y, level_bound=level)
    assert single[1] == level
