"""Skew-primitive invariants: weights, commutators, levels, characters.

For each candidate weight g the (1,g)-primitives are computed and closed
under inverse conjugation T_h: z -> h^{-1} z h by the group generators,
modulo the coradical.  Each closure vector is split into its joint
generalized eigencomponents under the T_h, which are read off its normal
words: the eigenvalue of T_g on a component is the commutator, the
nilpotency index of T_g minus it the level, and the eigenvalues of the
generators the character.

The components are sums of terms because A is graded by the characters.
Write chi_w(h) for the product of the lambda_i(h) over the y-letters of
a word w.  In the free algebra F,

    T_h(y_i) = lambda_i(h) y_i + tau_i(h) (mu_i - 1),

and Presentation._validate requires tau_i = 0 unless lambda_i is
trivial.  So T_h maps the span F_chi of the words w with chi_w = chi into
itself, and on F_chi the map T_h - chi(h) strictly lowers the y-length.
T_h is locally finite and the relation ideal I is T_h-stable, so
I = sum over chi of I meet F_chi, and A = F/I is chi-graded with every
normal word homogeneous.  Hence the joint generalized eigencomponent of
z for chi is the sum of the terms of z whose y-word w has chi_w = chi,
its eigenvalue under T_h is chi(h), and its level is at most its
y-degree: each shifted conjugation lowers the y-length filtration, and
y-length 0 is the coradical.  The split needs no matrix, no
eigen-solve and no division.
"""

from itertools import combinations, count

from .coalgebra import _search_space, find_skew_primitives, is_skew_primitive
from .elements import AlgebraElement
from .errors import ConsistencyError
from .linalg import ScalarElimination
from .presentation import _char_at
from .scalars import INFINITE, ScalarShapeError, _powers_cancel, multiplicative_order


def _chi(p, yw, h):
    """chi_w(h): the product of lambda_i(h) over the letters of the y-word."""
    val = p.domain.one()
    for i in yw:
        val = val * p.char_value(i, h)
    return val


def conjugate(p, h, elt):
    """Inverse conjugation T_{h^{-1}}: z -> h^{-1} z h, normalized.

    On a tau-free presentation w h = chi_w(h) h w for a normal y-word w,
    so T(h' w) = chi_w(h) h' w: each term is rescaled and no product is
    taken (the module docstring's grading with tau = 0).
    """
    if p.tau_free:
        return AlgebraElement({(g, yw): c * _chi(p, yw, h)
                               for (g, yw), c in elt.terms.items()})
    left = p.group_element(p.group.inv(h))
    right = p.group_element(h)
    return p.multiply(p.multiply(left, elt), right)


def commutation_scalar(p, z, h):
    """The scalar lam with z * h = lam * h * z modulo the coradical, or
    None when no such scalar exists.

    That is, T_h(z) = h^{-1} z h is lam z modulo the coradical.  T_h(h' w)
    is chi_w(h) h' w plus terms of lower y-length (the module docstring),
    so at a word h' w of greatest y-length in the y-part of z the only lam
    there can be is chi_w(h), and it fits exactly when T_h(z) has the
    y-part lam z.  A z with no y-part commutes with h: lam = 1.  No ratio is
    formed, and on a tau-free presentation T_h is a rescale.
    """
    part = _strip_coradical(z)
    if not part:
        return p.domain.one()
    lam = _chi(p, max(part, key=lambda w: len(w[1]))[1], h)
    image = _strip_coradical(conjugate(p, h, z))
    return lam if image == {w: lam * c for w, c in part.items()} else None


def _strip_coradical(elt):
    """Image modulo the coradical: drop all pure-group words."""
    return {w: c for w, c in elt.terms.items() if w[1]}


def _rank_mod_coradical(p, elements):
    """The rank of the elements modulo the coradical."""
    elim = ScalarElimination(p.domain)
    for i, z in enumerate(elements):
        elim.insert(_strip_coradical(z), i)
    return elim.rank


def closure_mod_coradical(p, vectors, conjugators):
    """The conjugation closure of primitives of one weight g, modulo the
    coradical: the kept vectors (the lifts), in the order kept.

    One pass keeps a vector when its image modulo the coradical is
    independent of those kept before, and queues its conjugates.  Nothing
    is lost, since conjugation maps the coradical into itself: if
    v = sum a_i l_i there, over l_i kept before v, then T(v) = sum a_i
    T(l_i), and each T(l_i) is queued earlier.

    The closure ends by the lemma of _search_space, in its third use.
    Conjugation keeps the weight g, the group being abelian, and does not
    raise the y-degree.  Each (1,g)-primitive outside the coradical has a
    top word w with group part 1 and mu(w) = g; echelon the kept vectors
    by top word, and each one adds a new top word.  So at most N_g
    vectors are kept, N_g the number of irreducible y-words w of degree
    1..d (d the largest y-degree of the seeds) with mu(w) = g reduced,
    and the closure needs no cap of its own.
    """
    elim = ScalarElimination(p.domain)
    lifts = []
    queue = list(vectors)
    for v in queue:  # grows while it is read
        if elim.insert(_strip_coradical(v), len(lifts)) is None:
            lifts.append(v)
            queue.extend(conjugate(p, h, v) for h in conjugators)
    return lifts


def _components(p, elt, conjugators):
    """elt split into its joint generalized eigencomponents under the
    conjugations by the conjugators, as [(eigenvalues, component)] in
    first-seen order of the terms: a term of y-word w goes to the
    eigenvalues chi_w(h), the product of lambda_i(h) over its letters.

    Scalars do not hash, so the eigenvalue tuples are compared with ==.
    The coradical terms join the component of trivial character or, when
    there is none, the first one; either way every component stays skew
    primitive, and an element of one character is its own component.
    """
    keys, parts, coradical = [], [], {}
    for w, c in elt.terms.items():
        if not w[1]:
            coradical[w] = c
            continue
        key = tuple(_chi(p, w[1], h) for h in conjugators)
        for k, part in zip(keys, parts):
            if k == key:
                part[w] = c
                break
        else:
            keys.append(key)
            parts.append({w: c})
    if coradical and parts:
        trivial = [part for k, part in zip(keys, parts) if all(v.is_one() for v in k)]
        (trivial or parts)[0].update(coradical)
    return [(k, AlgebraElement(part)) for k, part in zip(keys, parts)]


def _level(p, shifts, z):
    """Least n with every product of n shifted conjugations T_h - c, for
    (h, c) in shifts, killing z modulo the coradical; z is nonzero there.

    Each shifted conjugation lowers the y-length filtration on the
    component of z (see the module docstring), so the level is at most
    the y-degree of z.  The frontier at step k spans the products of
    exactly k shifted conjugations applied to z, modulo the coradical, and
    is kept a basis.  A frontier still nonzero past the y-degree means a
    wrong eigenvalue, and raises instead of looping.
    """
    degree = max(len(yw) for _, yw in z.terms)
    frontier = [AlgebraElement(_strip_coradical(z))]
    for level in count(1):
        images = []
        for h, c in shifts:
            for v in frontier:
                img = _strip_coradical(conjugate(p, h, v) - v.scale(c))
                if img:
                    images.append(img)
        if not images:
            return level
        if level == degree:
            raise ConsistencyError(
                "shifted conjugations do not kill a component within its y-degree")
        # a basis of the images keeps the frontier small
        elim = ScalarElimination(p.domain)
        frontier = [AlgebraElement(v) for i, v in enumerate(images)
                    if elim.insert(v, i) is None]


class WeightCommutator:
    """A (weight, commutator) pair with its minimal level and class."""

    def __init__(self, weight, gamma, level, gamma_class):
        self.weight = weight
        self.gamma = gamma
        self.level = level
        self.gamma_class = gamma_class  # "trivial" | "torsion" | "free"

    @property
    def is_torsion(self):
        return self.gamma_class == "torsion"

    def __repr__(self):
        return "WeightCommutator(weight=%s, gamma=%r, level=%d)" % (
            self.weight, self.gamma, self.level)


def classify_gamma(gamma):
    """"trivial" (=1), "torsion" (root of unity != 1), or "free" (no root).

    Raises when the commutator is not a unit monomial: order analysis is
    then undecidable in this domain and guessing is not allowed.
    """
    order = multiplicative_order(gamma)
    if order is None:
        raise ScalarShapeError(
            "commutator is not a unit monomial: %r" % (gamma,), gamma)
    if order == 1:
        return "trivial"
    if order is INFINITE:
        return "free"
    return "torsion"


class WitnessRecord:
    """One normalized skew-primitive witness with its full analysis."""

    def __init__(self, weight, element, gamma, level, character, char_level):
        self.weight = weight
        self.element = element
        self.gamma = gamma
        self.level = level
        self.character = character      # tuple of Scalars per group generator
        self.char_level = char_level
        self.gamma_class = classify_gamma(gamma)
        self.power_primitive_n = None
        self.power_predicted_n = None

    def __repr__(self):
        return "WitnessRecord(weight=%s, gamma=%r, level=%s, class=%s)" % (
            self.weight, self.gamma, self.level, self.gamma_class)


def generalized_commutator(p, y, generators=None):
    """Simultaneous eigencharacter of conjugation by the group generators,
    or by the given group elements.

    Returns (character tuple, level) when y carries a single generalized
    character, else (None, components): the decomposition into
    (character, level, element) summands.  With generators [weight of y]
    the character is the commutator of y and the level its level.
    """
    weight = is_skew_primitive(p, y)
    if weight is None:
        raise ValueError("element is not skew primitive")
    if y.group_support_only():
        raise ValueError("element lies in the coradical")
    gens_elts = ([p.group.reduce(g) for g in generators] if generators
                 else p.group.generators())
    out = [(chars, _level(p, list(zip(gens_elts, chars)), elt), elt)
           for chars, elt in _components(p, y, gens_elts)]
    if len(out) == 1:
        return out[0][:2], out
    return None, out


def normalize_witness(gamma, element):
    """A level-1 witness of commutator gamma, shifted off the coradical so
    that conjugation T by its weight scales it exactly.

    For gamma = 1 the element is returned unchanged.  Otherwise z, a
    component of _components, is z_chi + cor(z), its y-words sharing a
    character chi with chi(weight) = gamma != 1 and cor(z), its pure-group
    words, fixed by T and in A_1.  Level 1 puts T(z) - gamma z =
    (T - gamma) z_chi + (1 - gamma) cor(z) in the coradical, inside A_1,
    and A_chi meets A_1 in 0: so T(z_chi) = gamma z_chi, and z without its
    pure-group words is the eigenvector.
    """
    if gamma.is_one():
        return element
    return AlgebraElement(_strip_coradical(element))


class InvariantReport:
    """Everything the weight/commutator analysis produced, plus the bounds
    that were in force; set memberships are always relative to them."""

    CAVEAT = ("group-like elements are searched within the declared group "
              "only, and all memberships are relative to the stated bounds")

    def __init__(self, presentation, bounds_used):
        self.presentation = presentation
        self.bounds_used = bounds_used
        self.weights = []                       # weights of primitives outside the coradical
        self.weights_with_primitive_power = []  # some witness power is again primitive
        self.weights_with_free_commutator = []  # some commutator is 1 or of infinite order
        self.weight_commutators = []            # WeightCommutator entries, deduplicated
        self.commutators = []                   # distinct commutator scalars
        self.witnesses = []                     # WitnessRecord list
        self.per_weight_dim = {}
        self.dim_torsion_span = 0
        self.dim_free_span = 0
        self.dim_free_quotient = 0
        self.diagnostics = []

    @property
    def torsion_weight_commutators(self):
        return [wc for wc in self.weight_commutators if wc.is_torsion]

    @property
    def torsion_commutators(self):
        out = {}
        for wc in self.torsion_weight_commutators:
            out.setdefault(wc.gamma.as_unit_monomial(), wc.gamma)
        return list(out.values())

    @property
    def free_weights(self):
        """Weights in the report with no primitive-power witness."""
        power = set(self.weights_with_primitive_power)
        return [w for w in self.weights if w not in power]

    def assert_consistent(self):
        group = self.presentation.group
        wset = set(self.weights)
        if not set(self.weights_with_primitive_power) <= wset:
            raise ConsistencyError("power weights escaped the weight set")
        if not set(self.weights_with_free_commutator) <= wset:
            raise ConsistencyError("free-commutator weights escaped the weight set")
        if not all(any(wc is other for other in self.weight_commutators)
                   for wc in self.torsion_weight_commutators):
            raise ConsistencyError("torsion pairs escaped the pair set")
        free = set(self.free_weights)
        if not free <= set(self.weights_with_free_commutator):
            raise ConsistencyError(
                "a weight without primitive powers has no free commutator witness")
        if self.dim_free_quotient < len(free):
            raise ConsistencyError(
                "free quotient dimension %d below the %d power-free weights"
                % (self.dim_free_quotient, len(free)))
        for rec in self.witnesses:
            if rec.gamma_class == "free":
                if group.element_order(rec.weight) is not INFINITE:
                    raise ConsistencyError(
                        "non-torsion commutator at a finite-order weight %s"
                        % (rec.weight,))
            if (rec.level == 1 and rec.gamma_class in ("trivial", "free")
                    and rec.power_primitive_n is not None):
                raise ConsistencyError(
                    "a free-commutator witness has a primitive power")
        # witnesses with pairwise distinct (weight, commutator) data stay
        # independent modulo the coradical
        elements = [rec.element for rec in self.witnesses]
        if _rank_mod_coradical(self.presentation, elements) != len(elements):
            raise ConsistencyError("witnesses are dependent modulo the coradical")

    def summary_counts(self):
        return {
            "weights": len(self.weights),
            "weights_with_primitive_power": len(self.weights_with_primitive_power),
            "weights_with_free_commutator": len(self.weights_with_free_commutator),
            "weight_commutators": len(self.weight_commutators),
            "torsion_weight_commutators": len(self.torsion_weight_commutators),
            "commutators": len(self.commutators),
            "torsion_commutators": len(self.torsion_commutators),
            "dim_torsion_span": self.dim_torsion_span,
            "dim_free_span": self.dim_free_span,
            "dim_free_quotient": self.dim_free_quotient,
        }


def _power_tests(p, recs, power_bound):
    """Direct power checks against the root-of-unity prediction.

    A normalized level-1 witness with a torsion commutator of order d has
    y^d skew primitive (possibly zero), whatever d is; the direct check
    only reaches power_bound, so the prediction is recorded uncapped and
    the two verdicts are compared where the bound allows.
    """
    for rec in recs:
        if rec.level == 1 and rec.gamma_class == "torsion":
            rec.power_predicted_n = multiplicative_order(rec.gamma)
        z = rec.element
        zp = z
        for n in range(2, power_bound + 1):
            zp = p.multiply(z, zp)
            if zp.is_zero() or is_skew_primitive(p, zp) is not None:
                rec.power_primitive_n = n
                break
        if (rec.power_predicted_n is not None
                and rec.power_predicted_n <= power_bound
                and rec.power_primitive_n is None):
            raise ConsistencyError(
                "a torsion commutator of order %d produced no primitive power"
                % rec.power_predicted_n)


def _relation_search(u1, u2, bound):
    """Positive (N, M) with u1^N u2^M = 1 among unit monomials, or None.

    N e1 + M e2 = 0 for the q-exponent vectors e1, e2 has a positive
    solution only when both vanish or they are negatively proportional,
    that is, e1.e2 < 0 with equality in Cauchy-Schwarz; otherwise there
    is nothing to search."""
    e1, e2 = u1.exps, u2.exps
    dot = sum(x * y for x, y in zip(e1, e2))
    if (any(e1) or any(e2)) and not (
            dot < 0 and dot * dot == sum(x * x for x in e1) * sum(y * y for y in e2)):
        return None
    for total in range(2, bound + 1):
        for n in range(1, total):
            m = total - n
            if _powers_cancel(u1, n, u2, m):
                return (n, m)
    return None


def compute_invariants(p, degree_bound=6, group_word_bound=6, power_bound=6):
    """Full weight/commutator analysis of a confluent presentation.

    For every weight of the group ball that is mu(w) for a nonempty
    y-word w within the degree bound (the weights of _search_space), finds
    the primitives, saturates them under conjugation, decomposes by
    commutator eigenvalue and group character, runs the power tests, and
    assembles the report.  Every other weight of the ball holds at most
    the coradical line k(weight - 1), so it has no witness and would be
    left out of the report anyway.  The report's structural invariants
    are assert-checked before returning.
    """
    p.require_confluent()
    _, _, weights = _search_space(p, degree_bound, group_word_bound)
    return _report_at(p, weights, degree_bound, group_word_bound, power_bound)


def _report_at(p, weights, degree_bound, group_word_bound, power_bound):
    """The invariant report over the given weights, in their order: a
    weight whose primitives have no witness is left out."""
    report = InvariantReport(p, {
        "degree_bound": degree_bound,
        "group_word_bound": group_word_bound,
        "power_bound": power_bound,
    })
    gens_elts = p.group.generators()
    dom = p.domain
    # every commutator is a unit monomial (classify_gamma checks it), so
    # its UnitMonomial form keys the deduplication in first-seen order
    pairs = {}          # (weight, commutator) -> WeightCommutator
    commutators = {}    # commutator -> its first scalar
    for weight in weights:
        space = find_skew_primitives(p, weight, degree_bound, group_word_bound)
        if not space.witnesses():
            continue
        lifts = closure_mod_coradical(p, space.basis, gens_elts)
        # the components of the lifts, keyed by their eigenvalues at the
        # generators and the weight, grouped by the eigenvalue at the
        # weight in first-seen order
        by_gamma = []   # (commutator, [(character, component)])
        for lift in lifts:
            for key, elt in _components(p, lift, gens_elts + [weight]):
                for c, members in by_gamma:
                    if c == key[-1]:
                        members.append((key[:-1], elt))
                        break
                else:
                    by_gamma.append((key[-1], [(key[:-1], elt)]))
        elim = ScalarElimination(dom)
        recs = []
        for c, members in by_gamma:
            for chars, elt in members:
                if elim.insert(_strip_coradical(elt), len(recs)) is not None:
                    continue
                if _char_at(dom, chars, weight) != c:
                    raise ConsistencyError(
                        "character does not reproduce the commutator eigenvalue")
                level = _level(p, [(weight, c)], elt)
                char_level = _level(p, list(zip(gens_elts, chars)), elt)
                if level == 1:
                    elt = normalize_witness(c, elt)
                recs.append(WitnessRecord(weight, elt, c, level, chars, char_level))
        if len(recs) != len(lifts):
            raise ConsistencyError(
                "eigencomponents span %d of the %d closure dimensions"
                % (len(recs), len(lifts)))
        _power_tests(p, recs, power_bound)
        report.weights.append(weight)
        report.per_weight_dim[weight] = len(lifts)
        report.witnesses.extend(recs)
        # a torsion commutator predicts a primitive power through the
        # level-1 bottom of its chain even past the direct-check bound
        if any(r.power_primitive_n is not None or r.gamma_class == "torsion"
               for r in recs):
            report.weights_with_primitive_power.append(weight)
        if any(r.gamma_class in ("trivial", "free") for r in recs):
            report.weights_with_free_commutator.append(weight)
        free_gammas = {}
        for rec in recs:
            key = rec.gamma.as_unit_monomial()
            found = pairs.get((weight, key))
            if found is None:
                pairs[(weight, key)] = WeightCommutator(
                    weight, rec.gamma, rec.level, rec.gamma_class)
            elif rec.level < found.level:
                found.level = rec.level
            commutators.setdefault(key, rec.gamma)
            if rec.gamma_class == "free":
                free_gammas.setdefault(key, rec.gamma)
        # pairwise relation diagnostics between non-torsion commutators
        for (u1, g1), (u2, g2) in combinations(free_gammas.items(), 2):
            rel = _relation_search(u1, u2, 2 * degree_bound * degree_bound)
            report.diagnostics.append({
                "weight": weight,
                "gammas": (g1, g2),
                "relation": rel,
                "note": ("multiplicative relation found" if rel
                         else "free-subalgebra expected"),
            })
    report.weight_commutators = list(pairs.values())
    report.commutators = list(commutators.values())
    report.dim_torsion_span = sum(
        1 for r in report.witnesses if r.gamma_class == "torsion")
    report.dim_free_span = sum(
        1 for r in report.witnesses if r.gamma_class in ("trivial", "free"))
    quotient_by_weights = sum(report.per_weight_dim.values()) - report.dim_torsion_span
    if quotient_by_weights != report.dim_free_span:
        raise ConsistencyError(
            "primitive span fails to split into torsion and free parts")
    report.dim_free_quotient = quotient_by_weights
    report.assert_consistent()
    return report
