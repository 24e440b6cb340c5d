"""Skew-primitive invariants: weights, commutators, levels, characters.

For each candidate weight g the (1,g)-primitives are computed, saturated
under inverse conjugation by the group, and decomposed into generalized
eigenspaces of T_{g^{-1}}: z -> g^{-1} z g.  On the span of normal words
T_{g^{-1}} is triangular -- a word g' y_{i_1}..y_{i_s} maps to the product
of the lambda_i(g) times itself plus lower-degree terms -- so every
eigenvalue is a product of character values and the decomposition stays
inside the scalar domain.
"""

from itertools import combinations

from .coalgebra import find_skew_primitives, is_skew_primitive
from .elements import AlgebraElement, add_term, word_key
from .errors import ConsistencyError
from .linalg import ScalarElimination, nullspace_of_columns, solve_in_span
from .scalars import INFINITE, ScalarShapeError, multiplicative_order


class SaturationError(RuntimeError):
    """Conjugation closure outgrew its guard; carries the dimension reached."""

    def __init__(self, message, achieved_dim):
        super().__init__(message)
        self.achieved_dim = achieved_dim


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


class ConjugationSpace:
    """Span of primitives closed under inverse conjugation by given elements."""

    def __init__(self, p, vectors, conjugators, max_dim=64, max_word_length=None):
        self.presentation = p
        self.conjugators = [p.group.reduce(h) for h in conjugators]
        if max_word_length is None:
            max_word_length = 4 * max(
                (p.group.word_length(w[0]) for v in vectors for w in v.terms),
                default=0) + 8
        elim = ScalarElimination(p.domain)
        basis = []
        queue = [v for v in vectors if not v.is_zero()]
        counter = 0
        while queue:
            v = queue.pop(0)
            if elim.insert(v.terms, counter) is not None:
                continue
            counter += 1
            basis.append(v)
            if len(basis) > max_dim:
                raise SaturationError(
                    "conjugation closure exceeded %d dimensions" % max_dim,
                    achieved_dim=len(basis))
            if any(p.group.word_length(w[0]) > max_word_length for w in v.terms):
                raise SaturationError(
                    "conjugation closure left the group-word bound %d"
                    % max_word_length, achieved_dim=len(basis))
            for h in self.conjugators:
                queue.append(conjugate(p, h, v))
        self.basis = basis

    @property
    def dim(self):
        return len(self.basis)

    def coordinates(self, elt):
        cols = [b.terms for b in self.basis]
        sol = solve_in_span(self.presentation.domain, cols, elt.terms)
        return sol


class QuotientSpace:
    """A conjugation-stable space modulo its coradical part.

    Keeps lifts for each quotient basis vector so that coordinate vectors
    can be turned back into actual primitives.
    """

    def __init__(self, p, sat_basis):
        self.presentation = p
        elim = ScalarElimination(p.domain)
        self.lifts = []
        self.columns = []
        for v in sat_basis:
            image = _strip_coradical(v)
            if not image:
                continue
            if elim.insert(image, len(self.lifts)) is None:
                self.lifts.append(v)
                self.columns.append(image)

    @property
    def dim(self):
        return len(self.lifts)

    def coords(self, elt_or_image):
        image = (_strip_coradical(elt_or_image)
                 if isinstance(elt_or_image, AlgebraElement) else elt_or_image)
        sol = solve_in_span(self.presentation.domain, self.columns, image)
        if sol is None:
            raise ConsistencyError("vector escapes its conjugation-stable space")
        return {i: c for i, c in sol.items() if not c.is_zero()}

    def lift(self, coords):
        out = AlgebraElement({})
        for i, c in coords.items():
            out = out + self.lifts[i].scale(c)
        return out

    def operator_matrix(self, h):
        """Columns of the induced T_{h^{-1}} in quotient coordinates."""
        p = self.presentation
        return [self.coords(conjugate(p, h, lift)) for lift in self.lifts]

    def eigenvalue_candidates(self, h):
        """Diagonal values of the triangular conjugation action: character
        products over the y-letters of each supporting word."""
        p = self.presentation
        seen = []
        for col in self.columns:
            for (_, yw) in col:
                val = p.domain.one()
                for i in yw:
                    val = val * p.char_value(i, h)
                if not any(val == s for s in seen):
                    seen.append(val)
        return seen


# -- small dense matrix helpers over coordinate dicts ---------------------
def _mat_apply(matrix, vec):
    out = {}
    for j, c in vec.items():
        for i, m in matrix[j].items():
            add_term(out, i, m * c)
    return out


def _mat_shift(matrix, c, dim):
    """matrix - c * identity."""
    out = []
    for j in range(dim):
        col = dict(matrix[j])
        add_term(col, j, -c)
        out.append(col)
    return out


def _mat_mul(a, b, dim):
    return [_mat_apply(a, b[j]) for j in range(dim)]


def _generalized_eigenspaces(domain, matrix, dim, candidates):
    """Split coordinate space into generalized eigenspaces of the matrix.

    Returns [(eigenvalue, [coordinate vectors])]; raises when the spaces
    do not fill the whole dimension (the operator would then not be
    triangularizable over the scalar domain).
    """
    spaces = []
    total = 0
    for c in candidates:
        n = _mat_shift(matrix, c, dim)
        power = n
        for _ in range(dim - 1):
            power = _mat_mul(n, power, dim)
        kernel = nullspace_of_columns(domain, [power[j] for j in range(dim)],
                                      tags=list(range(dim)))
        if kernel:
            spaces.append((c, kernel))
            total += len(kernel)
    if total != dim:
        raise ConsistencyError(
            "eigenvalues not computable in the scalar domain: generalized "
            "eigenspaces cover %d of %d dimensions" % (total, dim))
    return spaces


def _decompose_vector(domain, vec, spaces):
    """Write vec as a sum of vectors from the given eigenspaces."""
    if not vec:
        return []
    columns = []
    tags = []
    for si, (c, basis) in enumerate(spaces):
        for bi, b in enumerate(basis):
            columns.append(b)
            tags.append((si, bi))
    sol = solve_in_span(domain, columns, vec, tags=tags)
    if sol is None:
        raise ConsistencyError("vector not covered by its eigenspace split")
    parts = []
    for si, (c, basis) in enumerate(spaces):
        part = {}
        for (sj, bj), coeff in sol.items():
            if sj != si or coeff.is_zero():
                continue
            for i, v in basis[bj].items():
                add_term(part, i, coeff * v)
        if part:
            parts.append((c, part))
    return parts


def _nilpotency_level(matrix, c, dim, vec, bound):
    n = _mat_shift(matrix, c, dim)
    level = 0
    current = vec
    while current:
        level += 1
        if level > bound:
            return None
        current = _mat_apply(n, current)
    return level


class WeightCommutator:
    """A (weight, commutator) pair with its minimal level and class."""

    def __init__(self, weight, gamma, level, gamma_class):
        self.weight = weight
        self.gamma = gamma
        self.level = level
        self.gamma_class = gamma_class  # "trivial" | "torsion" | "free-noutorsion"

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
    if hasattr(space_or_vectors, "basis"):
        vectors = list(space_or_vectors.basis)
    else:
        vectors = list(space_or_vectors)
    h = p.group.reduce(h)
    sat = ConjugationSpace(p, vectors, [h])
    cols = []
    for b in sat.basis:
        img = conjugate(p, h, b)
        coords = sat.coordinates(img)
        if coords is None:
            raise ConsistencyError("conjugation image escapes the saturated space")
        cols.append({i: c for i, c in coords.items() if not c.is_zero()})
    return cols, sat.basis


def _line_of(p, weight):
    if p.group.is_identity(weight):
        return None
    return p.group_element(weight) - p.one()


def _weight_quotient(p, weight, vectors, conjugators):
    seeds = list(vectors)
    line = _line_of(p, weight)
    if line is not None:
        seeds.append(line)
    sat = ConjugationSpace(p, seeds, conjugators)
    return QuotientSpace(p, sat.basis)


def _character_refine(p, spaces_cache, gens_elts, vec):
    """Progressively split a coordinate vector into character components.

    Returns a list of (character tuple, vector); characters are tuples of
    scalars, one per conjugating group generator.
    """
    comps = [((), vec)]
    for h in gens_elts:
        matrix, spaces = spaces_cache[h]
        new = []
        for chars, v in comps:
            for c, part in _decompose_vector(p.domain, v, spaces):
                new.append((chars + (c,), part))
        comps = new
    return comps


def _uniform_level(p, q, spaces_cache, gens_elts, character, vec, bound):
    """Minimal n with every n-fold mixed product of the shifted conjugations
    sending the vector into the coradical."""
    domain = p.domain
    shifted = []
    for h, c in zip(gens_elts, character):
        matrix, _ = spaces_cache[h]
        shifted.append(_mat_shift(matrix, c, q.dim))
    frontier = [vec]
    level = 0
    while frontier:
        level += 1
        if level > bound + 1:
            return None
        new = []
        for n in shifted:
            for v in frontier:
                img = _mat_apply(n, v)
                if img:
                    new.append(img)
        if not new:
            return level
        # deduplicate up to span to keep the frontier small
        elim = ScalarElimination(domain)
        pruned = []
        for v in new:
            if elim.insert(v, len(pruned)) is None:
                pruned.append(v)
        frontier = pruned
    return level


def commutator_level(p, y, level_bound=24):
    """Commutator data of a skew primitive: unique (gamma, level) or split.

    The saturated conjugation space of y under its own weight is analyzed;
    when y is not a generalized eigenvector for a single eigenvalue the
    analysis returns the decomposition instead of a single pair.
    """
    weight = is_skew_primitive(p, y)
    if weight is None:
        raise ValueError("element is not skew primitive")
    if y.group_support_only():
        raise ValueError("element lies in the coradical; its level would be 0")
    q = _weight_quotient(p, weight, [y], [weight])
    matrix = q.operator_matrix(weight)
    candidates = q.eigenvalue_candidates(weight)
    spaces = _generalized_eigenspaces(p.domain, matrix, q.dim, candidates)
    ybar = q.coords(y)
    parts = _decompose_vector(p.domain, ybar, spaces)
    components = []
    for c, part in parts:
        level = _nilpotency_level(matrix, c, q.dim, part, level_bound)
        components.append((c, level, q.lift(part)))
    single = None
    if len(components) == 1 and components[0][1] is not None:
        c, level, elt = components[0]
        single = WeightCommutator(weight, c, level, classify_gamma(c))
    return CommutatorAnalysis(weight, components, single)


def generalized_commutator(p, y, generators=None, level_bound=24):
    """Simultaneous eigencharacter of conjugation by the whole group.

    Returns (character tuple, level) when y carries a single generalized
    character, else (None, components): the decomposition into character
    summands.
    """
    weight = is_skew_primitive(p, y)
    if weight is None:
        raise ValueError("element is not skew primitive")
    if y.group_support_only():
        raise ValueError("element lies in the coradical")
    gens_elts = ([p.group.reduce(g) for g in generators] if generators
                 else p.group.generators())
    q = _weight_quotient(p, weight, [y], gens_elts)
    spaces_cache = {}
    for h in gens_elts:
        matrix = q.operator_matrix(h)
        cands = q.eigenvalue_candidates(h)
        spaces_cache[h] = (matrix, _generalized_eigenspaces(
            p.domain, matrix, q.dim, cands))
    comps = _character_refine(p, spaces_cache, gens_elts, q.coords(y))
    out = []
    for chars, vec in comps:
        level = _uniform_level(p, q, spaces_cache, gens_elts, chars, vec,
                               level_bound)
        out.append((chars, level, q.lift(vec)))
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
            zp = p.multiply(zp, z)
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
        q = _weight_quotient(p, weight, space.basis, gens_elts)
        effective_bound = max(level_bound, q.dim)
        matrix_w = q.operator_matrix(weight)
        cands = q.eigenvalue_candidates(weight)
        spaces = _generalized_eigenspaces(dom, matrix_w, q.dim, cands)
        spaces_cache = {}
        for g2 in gens_elts:
            m2 = q.operator_matrix(g2)
            spaces_cache[g2] = (m2, _generalized_eigenspaces(
                dom, m2, q.dim, q.eigenvalue_candidates(g2)))
        recs = []
        for c, kbasis in spaces:
            refined = []
            for vec in kbasis:
                refined.extend(_character_refine(p, spaces_cache, gens_elts, vec))
            elim = ScalarElimination(dom)
            chosen = []
            for chars, v in refined:
                if elim.insert(v, len(chosen)) is None:
                    chosen.append((chars, v))
            if len(chosen) != len(kbasis):
                raise ConsistencyError(
                    "character refinement changed an eigenspace dimension")
            for chars, v in chosen:
                if gens_elts and _char_at(p, chars, weight) != c:
                    raise ConsistencyError(
                        "character does not reproduce the commutator eigenvalue")
                level = _nilpotency_level(matrix_w, c, q.dim, v, effective_bound)
                if level is None:
                    raise ConsistencyError("commutator level exceeded its bound")
                char_level = _uniform_level(p, q, spaces_cache, gens_elts, chars,
                                            v, effective_bound)
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
