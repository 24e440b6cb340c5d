"""Skew-primitive invariants: weights, commutators, levels, characters.

For each candidate weight g the (1,g)-primitives are computed, saturated
under inverse conjugation by the group, and taken modulo the coradical:
one QuotientSpace per weight, whose coordinates are solved against the
elimination that picked its basis.  Each conjugation T_{h^{-1}}:
z -> h^{-1} z h is split once into generalized eigenspaces.  The
eigenvalue of T_{g^{-1}} is the commutator, its nilpotency index the
level, and the joint split under the group generators the character;
commutator_level, generalized_commutator and compute_invariants share
that one split and one level function.  On the span of normal words
T_{h^{-1}} is triangular -- a word g' y_{i_1}..y_{i_s} maps to the
product of the lambda_i(h) times itself plus lower-degree terms -- so
every eigenvalue is a product of character values and the decomposition
stays inside the scalar domain.
"""

from itertools import combinations

from .coalgebra import find_skew_primitives, is_skew_primitive
from .elements import AlgebraElement, add_term
from .errors import ConsistencyError
from .linalg import ScalarElimination, nullspace_of_columns
from .scalars import INFINITE, ScalarShapeError, multiplicative_order


class SaturationError(RuntimeError):
    """Conjugation closure outgrew its guard."""


def conjugate(p, h, elt):
    """Inverse conjugation T_{h^{-1}}: z -> h^{-1} z h, normalized."""
    left = p.group_element(p.group.inv(h))
    right = p.group_element(h)
    return p.multiply(p.multiply(left, elt), right)


def proportionality_mod_coradical(p, a, b):
    """Scalar lam with a = lam * b modulo the coradical, or None."""
    ka = _strip_coradical(a)
    kb = _strip_coradical(b)
    if not ka and not kb:
        return p.domain.one()
    if not ka or not kb or set(ka) != set(kb):
        return None
    w0 = next(iter(kb))
    lam = ka[w0] / kb[w0]
    for w, c in kb.items():
        if ka[w] != lam * c:
            return None
    return lam


def self_commutation_scalar(p, z, weight):
    """The scalar lam with z * weight = lam * weight * z modulo the
    coradical, or None when no such scalar exists."""
    mu = p.group_element(weight)
    return proportionality_mod_coradical(p, p.multiply(z, mu),
                                         p.multiply(mu, z))


def _strip_coradical(elt):
    """Image modulo the coradical: drop all pure-group words."""
    return {w: c for w, c in elt.terms.items() if w[1]}


# guards of the conjugation closure: its dimension, and the word length
# of its group parts against that of the seeds
_MAX_DIM = 64
_WORD_SLACK = 8


def _saturate(p, vectors, conjugators):
    """Basis of the span of vectors closed under inverse conjugation by
    the conjugators, and the elimination that built it, tagged by basis
    index."""
    max_word_length = 4 * max(
        (p.group.word_length(w[0]) for v in vectors for w in v.terms),
        default=0) + _WORD_SLACK
    elim = ScalarElimination(p.domain)
    basis = []
    queue = [v for v in vectors if not v.is_zero()]
    for v in queue:  # grows while it is read
        if elim.insert(v.terms, len(basis)) is not None:
            continue
        basis.append(v)
        if len(basis) > _MAX_DIM:
            raise SaturationError(
                "conjugation closure exceeded %d dimensions" % _MAX_DIM)
        if any(p.group.word_length(w[0]) > max_word_length for w in v.terms):
            raise SaturationError(
                "conjugation closure left the group-word bound %d" % max_word_length)
        queue.extend(conjugate(p, h, v) for h in conjugators)
    return basis, elim


class QuotientSpace:
    """The conjugation closure of primitives of one weight, modulo the
    coradical.

    The closure of the vectors and the line weight - 1 under the
    conjugators keeps, as lifts, the vectors that are independent modulo
    the coradical; coordinates are solved against the elimination that
    picked them.
    """

    def __init__(self, p, weight, vectors, conjugators):
        self.presentation = p
        seeds = list(vectors)
        if not p.group.is_identity(weight):
            seeds.append(p.group_element(weight) - p.one())
        basis, _ = _saturate(p, seeds, conjugators)
        self.elim = ScalarElimination(p.domain)
        self.lifts = []
        for v in basis:
            image = _strip_coradical(v)
            if image and self.elim.insert(image, len(self.lifts)) is None:
                self.lifts.append(v)
        self._operators = {}

    @property
    def dim(self):
        return len(self.lifts)

    def coords(self, elt):
        sol = self.elim.solve(_strip_coradical(elt))
        if sol is None:
            raise ConsistencyError("vector escapes its conjugation-stable space")
        return sol

    def lift(self, coords):
        out = AlgebraElement({})
        for i, c in coords.items():
            out = out + self.lifts[i].scale(c)
        return out

    def operator(self, h):
        """The induced T_{h^{-1}}, built once per conjugator."""
        op = self._operators.get(h)
        if op is None:
            op = self._operators[h] = _Conjugation(self, h)
        return op


def _mat_apply(matrix, vec):
    out = {}
    for j, c in vec.items():
        for i, m in matrix[j].items():
            add_term(out, i, m * c)
    return out


class _Conjugation:
    """T_{h^{-1}} on a quotient space: its matrix, whose column j holds
    the coordinates of the image of lift j, its generalized eigenspaces
    as (eigenvalue, basis) pairs, and one elimination over their union
    that splits vectors."""

    def __init__(self, q, h):
        p = q.presentation
        self.matrix = [q.coords(conjugate(p, h, lift)) for lift in q.lifts]
        # the action is triangular on normal words, so the eigenvalues are
        # among the character products over the y-letters of each word
        candidates = []
        for lift in q.lifts:
            for _, yw in lift.terms:
                if not yw:
                    continue
                val = p.domain.one()
                for i in yw:
                    val = val * p.char_value(i, h)
                if not any(val == s for s in candidates):
                    candidates.append(val)
        self.spaces = []
        self._elim = ScalarElimination(p.domain)
        for c in candidates:
            n = self.shifted(c)
            power = n
            for _ in range(q.dim - 1):
                power = [_mat_apply(n, col) for col in power]
            kernel = nullspace_of_columns(p.domain, power)
            for bi, b in enumerate(kernel):
                self._elim.insert(b, (len(self.spaces), bi))
            if kernel:
                self.spaces.append((c, kernel))
        if self._elim.rank != q.dim:
            raise ConsistencyError(
                "eigenvalues not computable in the scalar domain: generalized "
                "eigenspaces cover %d of %d dimensions" % (self._elim.rank, q.dim))

    def shifted(self, c):
        """matrix - c * identity."""
        out = []
        for j, col in enumerate(self.matrix):
            col = dict(col)
            add_term(col, j, -c)
            out.append(col)
        return out

    def split(self, vec):
        """vec as [(eigenvalue, component)], one per eigenspace it meets."""
        if not vec:
            return []
        sol = self._elim.solve(vec)
        if sol is None:
            raise ConsistencyError("vector not covered by its eigenspace split")
        parts = []
        for si, (c, basis) in enumerate(self.spaces):
            part = {}
            for (sj, bj), coeff in sol.items():
                if sj == si:
                    for i, v in basis[bj].items():
                        add_term(part, i, coeff * v)
            if part:
                parts.append((c, part))
        return parts


def _refine(operators, vec):
    """Split a coordinate vector into joint generalized eigencomponents:
    [(character, component)], a character holding one eigenvalue per
    operator."""
    comps = [((), vec)]
    for op in operators:
        comps = [(chars + (c,), part) for chars, v in comps
                 for c, part in op.split(v)]
    return comps


def _level(domain, shifted, vec, bound):
    """Least n with every product of n shifted operators killing the
    nonzero vec, or None when n exceeds bound."""
    frontier = [vec]
    for level in range(1, bound + 1):
        images = []
        for n in shifted:
            for v in frontier:
                img = _mat_apply(n, v)
                if img:
                    images.append(img)
        if not images:
            return level
        # a basis of the images keeps the frontier small
        elim = ScalarElimination(domain)
        frontier = [v for i, v in enumerate(images) if elim.insert(v, i) is None]
    return None


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
        self.character = character      # tuple of Scalars per group generator, or None
        self.char_level = char_level
        self.gamma_class = classify_gamma(gamma)
        self.power_primitive_n = None
        self.power_predicted_n = None

    def __repr__(self):
        return "WitnessRecord(weight=%s, gamma=%r, level=%s, class=%s)" % (
            self.weight, self.gamma, self.level, self.gamma_class)


class CommutatorAnalysis:
    """Result of commutator_level: single pair or a decomposition."""

    def __init__(self, weight, components, single):
        self.weight = weight
        self.components = components    # list of (gamma, level, element)
        self.single = single            # WeightCommutator or None


def conjugation_matrix(p, h, space_or_vectors):
    """Matrix of T_{h^{-1}} on a space of primitives, saturating if needed.

    Returns (matrix, basis): matrix[j] maps basis index i to the
    coefficient of basis_i in T(basis_j).
    """
    vectors = list(getattr(space_or_vectors, "basis", space_or_vectors))
    h = p.group.reduce(h)
    basis, elim = _saturate(p, vectors, [h])
    cols = []
    for b in basis:
        coords = elim.solve(conjugate(p, h, b).terms)
        if coords is None:
            raise ConsistencyError("conjugation image escapes the saturated space")
        cols.append(coords)
    return cols, basis


def commutator_level(p, y, level_bound=24):
    """Commutator data of a skew primitive: unique (gamma, level) or split.

    The generalized commutator of y under conjugation by its own weight;
    when y is not a generalized eigenvector for a single eigenvalue the
    analysis returns the decomposition instead of a single pair.
    """
    weight = is_skew_primitive(p, y)
    if weight is None:
        raise ValueError("element is not skew primitive")
    single, comps = generalized_commutator(p, y, [weight], level_bound)
    components = [(chars[0], level, elt) for chars, level, elt in comps]
    if single is not None:
        (gamma,), level = single
        single = WeightCommutator(weight, gamma, level, classify_gamma(gamma))
    return CommutatorAnalysis(weight, components, single)


def generalized_commutator(p, y, generators=None, level_bound=24):
    """Simultaneous eigencharacter of conjugation by the whole group.

    Returns (character tuple, level) when y carries a single generalized
    character, else (None, components): the decomposition into character
    summands.  The level is None when it exceeds level_bound.
    """
    weight = is_skew_primitive(p, y)
    if weight is None:
        raise ValueError("element is not skew primitive")
    if y.group_support_only():
        raise ValueError("element lies in the coradical")
    gens_elts = ([p.group.reduce(g) for g in generators] if generators
                 else p.group.generators())
    q = QuotientSpace(p, weight, [y], gens_elts)
    ops = [q.operator(h) for h in gens_elts]
    out = []
    for chars, vec in _refine(ops, q.coords(y)):
        shifted = [op.shifted(c) for op, c in zip(ops, chars)]
        out.append((chars, _level(p.domain, shifted, vec, level_bound),
                    q.lift(vec)))
    if len(out) == 1 and out[0][1] is not None:
        return (out[0][0], out[0][1]), out
    return None, out


def normalize_witness(p, weight, gamma, element):
    """Shift a level-1 witness so that conjugation scales it exactly.

    With T(z) - gamma z = t (weight - 1) and gamma != 1, the replacement
    z + (gamma-1)^{-1} t (weight-1) is a genuine eigenvector; for
    gamma = 1 the element is returned unchanged.
    """
    remainder = conjugate(p, weight, element) - element.scale(gamma)
    if remainder.is_zero() or not remainder.group_support_only():
        return element
    if gamma.is_one():
        return element
    return element + remainder.scale((gamma - p.domain.one()).inverse())


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
        elim = ScalarElimination(self.presentation.domain)
        count = 0
        for rec in self.witnesses:
            image = _strip_coradical(rec.element)
            if elim.insert(image, count) is None:
                count += 1
        if count != len(self.witnesses):
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


def _char_at(p, character, weight):
    # the generators are the standard basis, so the coordinates of the
    # weight are its exponents with respect to them
    val = p.domain.one()
    for c, e in zip(character, weight):
        if e:
            val = val * c ** e
    return val


def _relation_search(u1, u2, bound):
    """Positive (N, M) with u1^N u2^M = 1 among unit monomials, or None."""
    for total in range(2, bound + 1):
        for n in range(1, total):
            m = total - n
            if ((u1 ** n) * (u2 ** m)).is_one():
                return (n, m)
    return None


def compute_invariants(p, degree_bound=6, group_word_bound=6, power_bound=6,
                       level_bound=12):
    """Full weight/commutator analysis of a confluent presentation.

    For every candidate weight in the group ball, finds the primitives,
    saturates them under conjugation, decomposes by commutator eigenvalue
    and group character, runs the power tests, and assembles the report.
    The report's structural invariants are assert-checked before returning.
    """
    p.require_confluent()
    report = InvariantReport(p, {
        "degree_bound": degree_bound,
        "group_word_bound": group_word_bound,
        "power_bound": power_bound,
        "level_bound": level_bound,
    })
    gens_elts = p.group.generators()
    dom = p.domain
    # every commutator is a unit monomial (classify_gamma checks it), so
    # its UnitMonomial form keys the deduplication in first-seen order
    pairs = {}          # (weight, commutator) -> WeightCommutator
    commutators = {}    # commutator -> its first scalar
    for h in p.group.ball(group_word_bound):
        space = find_skew_primitives(p, h, degree_bound, group_word_bound)
        if not space.witnesses():
            continue
        weight = p.group.reduce(h)
        q = QuotientSpace(p, weight, space.basis, gens_elts)
        bound = max(level_bound, q.dim)
        ops = [q.operator(g2) for g2 in gens_elts]
        own = q.operator(weight)
        recs = []
        for c, kbasis in own.spaces:
            elim = ScalarElimination(dom)
            chosen = []
            for vec in kbasis:
                for chars, v in _refine(ops, vec):
                    if elim.insert(v, len(chosen)) is None:
                        chosen.append((chars, v))
            if len(chosen) != len(kbasis):
                raise ConsistencyError(
                    "character refinement changed an eigenspace dimension")
            for chars, v in chosen:
                if gens_elts and _char_at(p, chars, weight) != c:
                    raise ConsistencyError(
                        "character does not reproduce the commutator eigenvalue")
                level = _level(dom, [own.shifted(c)], v, bound)
                if level is None:
                    raise ConsistencyError("commutator level exceeded its bound")
                char_level = _level(
                    dom, [op.shifted(x) for op, x in zip(ops, chars)], v, bound)
                elt = q.lift(v)
                if level == 1:
                    elt = normalize_witness(p, weight, c, elt)
                recs.append(WitnessRecord(weight, elt, c, level, chars, char_level))
        _power_tests(p, recs, power_bound)
        report.weights.append(weight)
        report.per_weight_dim[weight] = q.dim
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
