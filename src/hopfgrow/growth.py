"""Growth measurement and PBW dependence scanning.

The growth function counts distinct normal words reachable by products of
at most n generators (group generators with inverses, the y's, and 1).
Its verdict is the exact one of the rule automaton
(Presentation._growth_verdict), which reads the left-hand sides of the
rules and never the table, so the table's horizon and any word ceiling
cut it short without changing the verdict.
"""

import itertools
import os

from .coalgebra import is_skew_primitive
from .errors import ConsistencyError, ResourceCeilingError
from .invariants import _strip_coradical, commutation_scalar
from .linalg import ScalarElimination
from .scalars import INFINITE, multiplicative_order

DEFAULT_MAX_WORDS = 2_000_000
ENV_MAX_WORDS = "HOPFGROW_MAX_WORDS"


def word_ceiling():
    """The enumeration word ceiling: HOPFGROW_MAX_WORDS, or the default.

    Raises ValueError when the variable is set to anything but a
    nonnegative integer.
    """
    raw = os.environ.get(ENV_MAX_WORDS)
    if raw is None:
        return DEFAULT_MAX_WORDS
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError("%s must be a nonnegative integer, got %r"
                         % (ENV_MAX_WORDS, raw))
    return value


class GrowthReport:
    def __init__(self, dims, estimate, letters_desc, truncated=False):
        self.dims = dims
        self.estimate = estimate
        self.letters_desc = letters_desc
        self.truncated = truncated

    @property
    def n_max(self):
        return len(self.dims) - 1

    def table(self):
        """Two-column text table (n, dim F_n) for external plotting."""
        lines = ["n\tdim"]
        lines += ["%d\t%d" % (n, d) for n, d in enumerate(self.dims)]
        return "\n".join(lines)

    def __repr__(self):
        return "GrowthReport(%s, n_max=%d)" % (self.estimate, self.n_max)


def measure_growth(p, n_max=12, max_words=None):
    """The growth of the default generating set: the table dims[n] for n
    <= n_max from filtration_dims, and the automaton's exact verdict.

    The table of a presentation that is not length_filtered comes from
    the closure under max_words, by default word_ceiling(); when the
    closure passes it, the report carries the levels before it and is
    flagged truncated, with the same verdict.
    """
    desc = "%d group letters and %d skew generators" % (
        2 * p.group.ngens, p.ny)
    if max_words is None and not p.length_filtered:
        max_words = word_ceiling()
    truncated = False
    try:
        dims = p.filtration_dims(n_max, max_words=max_words)
    except ResourceCeilingError as exc:
        dims, truncated = exc.partial, True
    if any(b < a for a, b in zip(dims, dims[1:])) or dims[0] != 1:
        raise ConsistencyError("growth sequence is not a filtration")
    return GrowthReport(dims, p._growth_verdict(), desc, truncated)


# -- independent counting oracle ------------------------------------------
def _prefix_states(rules):
    lhss = [r.lhs for r in rules]
    states = {()}
    for l in lhss:
        for k in range(1, len(l)):
            states.add(l[:k])
    return sorted(states), lhss


def dp_word_counts(p, n_max):
    """Irreducible-word counts by the forbidden-subword automaton, convolved
    with group ball sizes: an independent oracle for filtration_dims.  It
    stays in the package because the benchmark checks its growth answers
    against it.

    Valid where p.length_filtered holds, which is exactly where
    filtration_dims takes the same count: the multigraded presentations,
    the truncation y1^p = beta (g1^p - 1) and the tau extensions of
    skew_free among them.
    """
    states, lhss = _prefix_states(p.rules)
    index = {s: k for k, s in enumerate(states)}
    counts = [1]  # degree 0: the empty word
    profile = {index[()]: 1}
    for _ in range(n_max):
        new = {}
        for st, mult in profile.items():
            state = states[st]
            for letter in range(p.ny):
                word = state + (letter,)
                if any(word[-len(l):] == l for l in lhss if len(l) <= len(word)):
                    continue
                suffix = word
                while suffix not in index:
                    suffix = suffix[1:]
                new[index[suffix]] = new.get(index[suffix], 0) + mult
        counts.append(sum(new.values()))
        profile = new
    balls = [len(p.group.ball(r)) for r in range(n_max + 1)]
    return [sum(counts[t] * balls[n - t] for t in range(n + 1))
            for n in range(n_max + 1)]


# -- PBW dependence scanning ------------------------------------------------
class PbwScan:
    """Outcome of the ordered-monomial dependence scan."""

    def __init__(self, independent, degree_bound, monomial=None, relation=None,
                 conclusions=None):
        self.independent = independent
        self.degree_bound = degree_bound
        self.monomial = monomial        # exponent tuple of the first dependent monomial
        self.relation = relation        # exponent tuple -> Scalar, over earlier monomials
        self.conclusions = conclusions  # dict of named checks -> bool

    @property
    def consistent(self):
        return self.independent or all(self.conclusions.values())

    def __repr__(self):
        if self.independent:
            return "PbwScan(independent through degree %d)" % self.degree_bound
        return "PbwScan(dependent at %s)" % (self.monomial,)


def pbw_dependence_scan(p, primitives, degree_bound=8):
    """Scan ordered monomials in the primitives for dependence over the
    coradical.

    The monomials z_1^{e_1} ... z_k^{e_k} of total degree 1 to degree_bound
    come in (total degree, lex) order; each is z_i times a monomial of the
    degree before, i the first index with e_i > 0, so it costs one left
    product.  Each goes into one exact elimination modulo the coradical as
    it is built, so a combination landing in the coradical is a genuine
    dependence, and the scan stops at the first one.  Its minimal relation
    is checked against the dependence-analyzer predictions: the dependent
    monomial is a pure power z^{p} with lambda_z a primitive p-th root of
    unity, the other monomials involved are single primitives or matching
    pure powers, and all weights agree with weight_z^{p}.
    """
    p.require_confluent()
    weights = []
    for z in primitives:
        w = is_skew_primitive(p, z)
        if w is None:
            raise ValueError("family member is not skew primitive: %r" % (z,))
        weights.append(w)
    elim = ScalarElimination(p.domain)
    k = len(primitives)
    level = {(): p.one()}  # sorted index tuple (i_1, ..., i_t) -> z_{i_1} ... z_{i_t}
    for total in range(1, degree_bound + 1):
        prev, level = level, {}
        # descending index tuples are ascending exponent tuples
        for idx in reversed(list(itertools.combinations_with_replacement(range(k), total))):
            level[idx] = p.multiply(primitives[idx[0]], prev[idx[1:]])
            e = tuple(idx.count(i) for i in range(k))
            combo = elim.insert(_strip_coradical(level[idx]), e)
            if combo is None:
                continue
            # first dependence: normalize the relation so this monomial has
            # coefficient one
            inv = combo.pop(e).inverse()
            relation = {e2: inv * c for e2, c in combo.items() if not c.is_zero()}
            conclusions = _check_dependence_conclusions(
                p, primitives, weights, e, relation)
            return PbwScan(False, degree_bound, monomial=e, relation=relation,
                           conclusions=conclusions)
    return PbwScan(True, degree_bound)


def _check_dependence_conclusions(p, primitives, weights, monomial, relation):
    out = {}
    nonzero = [i for i, e in enumerate(monomial) if e]
    pure_power = len(nonzero) == 1
    out["dependent-monomial-is-pure-power"] = pure_power
    if not pure_power:
        return out
    z = nonzero[0]
    p_z = monomial[z]
    lam_z = commutation_scalar(p, primitives[z], weights[z])
    order = multiplicative_order(lam_z) if lam_z is not None else None
    out["self-commutation-is-primitive-root"] = (
        order is not None and order is not INFINITE and order == p_z and p_z > 1)
    weight_target = p.group.power(weights[z], p_z)
    ok_shape = True
    ok_weights = True
    for e2 in relation:
        total = sum(e2)
        support = [i for i, x in enumerate(e2) if x]
        if total == 0:
            continue  # coradical part of the relation
        if total == 1:
            i = support[0]
            if weights[i] != weight_target:
                ok_weights = False
            continue
        if len(support) != 1:
            ok_shape = False
            continue
        j = support[0]
        p_j = e2[j]
        lam_j = commutation_scalar(p, primitives[j], weights[j])
        oj = multiplicative_order(lam_j) if lam_j is not None else None
        if not (oj == p_j and p_j > 1):
            ok_shape = False
        if p.group.power(weights[j], p_j) != weight_target:
            ok_weights = False
    out["relation-monomials-have-predicted-shape"] = ok_shape
    out["relation-weights-match"] = ok_weights
    return out
