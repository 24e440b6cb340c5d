"""Lower bounds for the GK-dimension and exponential-growth detectors.

Every bound has the shape (GK-dimension of the coradical) + (a count of
skew-primitive data); the coradical contributes the free rank of the
group.  A bound value is emitted only when every named hypothesis passes;
otherwise the report carries the failing hypothesis and no value.
"""

from itertools import combinations

from .errors import ConsistencyError
from .groups import cyclic_support
from .invariants import _rank_mod_coradical, commutation_scalar, is_skew_primitive
from .intmat import integer_rank
from .presentation import _char_at
from .scalars import (INFINITE, _powers_cancel, multiplicative_order,
                      subgroup_rank)


class HypothesisCheck:
    def __init__(self, name, passed, detail=""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def __repr__(self):
        return "HypothesisCheck(%s: %s)" % (self.name, "pass" if self.passed else "FAIL")


class BoundReport:
    """Outcome of one lower-bound rule."""

    def __init__(self, rule, hypotheses, value, inputs):
        self.rule = rule
        self.hypotheses = hypotheses
        self.value = value              # int, or None when a hypothesis failed
        self.inputs = inputs

    @property
    def passed(self):
        return all(h.passed for h in self.hypotheses)

    def failing(self):
        return [h for h in self.hypotheses if not h.passed]

    def __repr__(self):
        return "BoundReport(%s -> %s)" % (self.rule, self.value)


class GrowthVerdict:
    def __init__(self, classification, evidence):
        self.classification = classification   # exponential | inconclusive
        self.evidence = evidence

    def __repr__(self):
        return "GrowthVerdict(%s)" % self.classification


def bound_first(p, primitives):
    """Independent-family bound: coradical rank + size of the family.

    Hypotheses: (a) the family is linearly independent modulo the
    coradical; (b) each y_i skew-commutes with each weight mu(y_j) up to a
    coradical remainder; (c) every self-commutation scalar lambda_ii is 1
    or of infinite multiplicative order.
    """
    p.require_confluent()
    if not primitives:
        raise ValueError("the primitive family must be nonempty")
    weights = []
    for z in primitives:
        w = is_skew_primitive(p, z)
        if w is None:
            raise ValueError("family member is not skew primitive: %r" % (z,))
        weights.append(w)
    hypotheses = []
    # (a) independence modulo the coradical
    count = _rank_mod_coradical(p, primitives)
    hypotheses.append(HypothesisCheck(
        "independent-mod-coradical", count == len(primitives),
        "rank %d of %d" % (count, len(primitives))))
    # (b) existence of the skew-commutation scalars
    lambdas = {}
    ok_b = True
    detail_b = ""
    for i, zi in enumerate(primitives):
        for j, zj in enumerate(primitives):
            if i > j:
                continue
            lam = commutation_scalar(p, zi, weights[j])
            if lam is None:
                ok_b = False
                detail_b = "no scalar for pair (%d, %d)" % (i + 1, j + 1)
                break
            lambdas[(i, j)] = lam
        if not ok_b:
            break
    hypotheses.append(HypothesisCheck("skew-commutation", ok_b, detail_b))
    # (c) self-commutation scalars are 1 or of infinite order
    ok_c = ok_b
    detail_c = ""
    if ok_b:
        for i in range(len(primitives)):
            order = multiplicative_order(lambdas[(i, i)])
            if order is None:
                raise ConsistencyError(
                    "self-commutation scalar is not a unit monomial: %r"
                    % (lambdas[(i, i)],))
            if order is not INFINITE and order != 1:
                ok_c = False
                detail_c = ("lambda_%d%d is a root of unity of order %d"
                            % (i + 1, i + 1, order))
                break
    hypotheses.append(HypothesisCheck("self-commutation-free", ok_c, detail_c))
    value = None
    if all(h.passed for h in hypotheses):
        value = p.group.gk_dimension() + len(primitives)
    return BoundReport("independent-family", hypotheses, value, {
        "coradical_gk_dimension": p.group.gk_dimension(),
        "family_size": len(primitives),
        "restriction": "the reference subalgebra is the coradical",
    })


def bound_second(report):
    """Weight-count bound and its weight-commutator refinement.

    Returns (base, refinement); the refinement counts distinct
    (weight, commutator) pairs whose commutator is 1 or of infinite
    order, and can only exceed the base count.
    """
    p = report.presentation
    rank = p.group.gk_dimension()
    free_weights = report.free_weights
    abelian = HypothesisCheck("generated-weights-abelian", True,
                              "group-likes are abelian by construction")
    base = BoundReport("weight-count", [abelian],
                       rank + len(free_weights), {
                           "coradical_gk_dimension": rank,
                           "free_weight_count": len(free_weights),
                       })
    pairs = len(report.weight_commutators) - len(report.torsion_weight_commutators)
    refinement = BoundReport("weight-commutator-count", [abelian],
                             rank + pairs, {
                                 "coradical_gk_dimension": rank,
                                 "free_pair_count": pairs,
                             })
    if refinement.value < base.value:
        raise ConsistencyError(
            "pair refinement %d fell below the weight count %d"
            % (refinement.value, base.value))
    return base, refinement


def bound_third(report):
    """Primitive-quotient bound: coradical rank + the dimension of the
    primitive span modulo the coradical and the torsion-commutator part.

    The same number is recomputed from the non-torsion witness span and
    the two routes must agree.
    """
    p = report.presentation
    rank = p.group.gk_dimension()
    abelian = HypothesisCheck("free-commutator-weights-abelian", True,
                              "group-likes are abelian by construction")
    via_quotient = report.dim_free_quotient
    via_span = report.dim_free_span
    if via_quotient != via_span:
        raise ConsistencyError(
            "quotient dimension %d disagrees with the non-torsion span %d"
            % (via_quotient, via_span))
    return BoundReport("primitive-quotient", [abelian], rank + via_quotient, {
        "coradical_gk_dimension": rank,
        "dim_free_quotient": via_quotient,
        "dim_free_span": via_span,
    })


def all_bounds(p, report):
    """Convenience: run every bound on one invariant report, the
    independent-family bound on its witnesses."""
    primitives = [r.element for r in report.witnesses]
    out = []
    if primitives:
        out.append(bound_first(p, primitives))
    base, refinement = bound_second(report)
    out.extend([base, refinement])
    third = bound_third(report)
    if third.value < base.value:
        raise ConsistencyError(
            "primitive-quotient bound %d fell below the weight count %d"
            % (third.value, base.value))
    out.append(third)
    return out


def _growth_contradictions(estimate, classification, bounds=()):
    """What an exact polynomial growth estimate refutes: whether the
    detector classification is exponential, and the rules of the
    BoundReports whose value lies above its degree.  (False, []) for an
    estimate of any other kind."""
    if estimate["kind"] != "polynomial":
        return False, []
    return (classification == "exponential",
            [r.rule for r in bounds if r.value is not None and r.value > estimate["degree"]])


def _pair_cases(u1, u2, d1, d2):
    """Which of the four free-subalgebra criteria fire for this data."""
    fired = []
    o1 = u1.order()
    o2 = u2.order()
    if d1 * d2 > 0:
        if u1 == u2 and o1 is INFINITE:
            fired.append("equal-nonroot")
        u1d = u1 ** d1
        if u1d.is_one() and o2 is INFINITE:
            fired.append("torsion-against-nonroot-trivial")
        od = u1d.order()
        if od is not INFINITE and od != 1 and o2 is INFINITE:
            fired.append("torsion-against-nonroot")
    if d1 * d2 != 0:
        if integer_rank([u1.exps, u2.exps]) == 2:
            fired.append("rank-two")
    return fired


def _necessary_relation_solutions(u1, u2, d1, d2, m_max):
    """Exponent pairs (M1, M2) solving the non-freeness constraint."""
    solutions = []
    for total in range(2, m_max + 1):
        for m1 in range(total + 1):
            m2 = total - m1
            e1 = d1 * (m1 * (m1 - 1)) + d2 * (m1 * m2)
            e2 = d2 * (m2 * (m2 - 1)) + d1 * (m1 * m2)
            if _powers_cancel(u1, e1, u2, e2):
                solutions.append((m1, m2))
    return solutions


def detect_exponential(p, report, m_max=12):
    """Exponential-growth detectors on the invariant report's witnesses.

    Pairs of witnesses whose weights share a cyclic support are tested
    against the four free-subalgebra criteria; the multiplicative-rank
    criterion (commutator rank exceeding weight rank 1) is tested on the
    whole report.  When nothing fires, the necessary relation for
    non-freeness is searched over exponents up to m_max: solutions are
    evidence against freeness, exhaustion is inconclusive.
    """
    evidence = {"pairs": [], "skipped": [], "relation_solutions": [],
                "rank_criterion": None}
    for r1, r2 in combinations(report.witnesses, 2):
        support = cyclic_support(p.group, r1.weight, r2.weight)
        label = "(%s, %s)" % (r1.weight, r2.weight)
        if support is None:
            evidence["skipped"].append(
                {"pair": label, "reason": "weights share no cyclic support"})
            continue
        x, d1, d2 = support
        u1 = _char_at(p.domain, r1.character, x).as_unit_monomial()
        u2 = _char_at(p.domain, r2.character, x).as_unit_monomial()
        if u1 is None or u2 is None:
            evidence["skipped"].append(
                {"pair": label, "reason": "pair scalars are not unit monomials"})
            continue
        fired = _pair_cases(u1, u2, d1, d2)
        fired += ["%s (swapped)" % c for c in _pair_cases(u2, u1, d2, d1)]
        entry = {"pair": label, "support_exponents": (d1, d2),
                 "cases": sorted(set(fired))}
        evidence["pairs"].append(entry)
        if not fired:
            solutions = _necessary_relation_solutions(u1, u2, d1, d2, m_max)
            evidence["relation_solutions"].append({
                "pair": label,
                "solutions": solutions,
                "bound": m_max,
            })
    # multiplicative-rank criterion over the whole weight set
    weights = report.weights
    if weights:
        torsionfree = p.group.subgroup_is_torsionfree(weights)
        w_rank = p.group.subgroup_free_rank(weights)
        # every commutator passed classify_gamma: a nonzero unit monomial
        g_rank = subgroup_rank(report.commutators)
        evidence["rank_criterion"] = {
            "weights_torsionfree": torsionfree,
            "weight_rank": w_rank,
            "commutator_rank": g_rank,
            "fires": torsionfree and w_rank == 1 and g_rank > 1,
        }
    fired_cases = [e for e in evidence["pairs"] if e["cases"]]
    rank_fires = bool(evidence["rank_criterion"]
                      and evidence["rank_criterion"]["fires"])
    if fired_cases or rank_fires:
        return GrowthVerdict("exponential", evidence)
    return GrowthVerdict("inconclusive", evidence)
