"""Builtin example presentations.

Each builder returns a Presentation wired for exact computation; the
registry at the bottom adds per-example descriptions, parameter parsing,
and expected values for the check command.
"""

from fractions import Fraction

from .errors import PresentationError
from .groups import GroupData
from .growth import DEFAULT_MAX_WORDS
from .presentation import Presentation, SkewGenerator
from .scalars import ScalarDomain


def _typed(**params):
    """Raise PresentationError unless each parameter, a (value, kind) pair,
    is a bool (kind bool), an int (int) or an int or Fraction (Fraction)."""
    for name, (value, kind) in params.items():
        kinds = (int, Fraction) if kind is Fraction else (kind,)
        if isinstance(value, bool) is not (kind is bool) or not isinstance(value, kinds):
            raise PresentationError("parameter %s must be %s, got %r" % (name, {
                bool: "true or false", int: "an integer", Fraction: "a rational"}[kind],
                value))


def skew_free_presentation(v=2, same_q=False, tau=None, conductor=1):
    """Group algebra of Z extended by v free skew-primitive generators.

    Generator y_i has weight g and character lambda_i(g) = q_i (all equal
    to q1 when same_q).  With tau set (a rational), the last generator
    instead has the trivial character and the additive character
    tau_v(g) = tau.  No relations among the y's: the y-words are free.
    """
    _typed(v=(v, int), same_q=(same_q, bool), tau=(0 if tau is None else tau, Fraction))
    if v < 1:
        raise PresentationError("need at least one skew generator")
    ntrans = 1 if same_q else v
    dom = ScalarDomain(conductor, tuple("q%d" % (i + 1) for i in range(ntrans)))
    group = GroupData(1)
    g = group.generator(0)
    gens = []
    for i in range(v):
        if tau is not None and i == v - 1:
            gens.append(SkewGenerator("y%d" % (i + 1), g, (dom.one(),),
                                      (dom.rational(Fraction(tau)),)))
        else:
            q = dom.q(0) if same_q else dom.q(i)
            gens.append(SkewGenerator("y%d" % (i + 1), g, (q,)))
    return Presentation(dom, group, gens, (), name="skew_free")


def skew_trunc_presentation(p=3, beta=1, v=2, bad_gen=False):
    """The free extension plus one truncation rule y1^p = beta*(mu1^p - 1).

    lambda_1(g1) is a primitive p-th root of unity, so y1^p is again
    skew primitive and the quotient stays a Hopf algebra.  With bad_gen, a
    second free group generator g2 acts on y1 through a transcendental,
    which breaks confluence whenever beta != 0: the overlap y1^p * g2
    cannot be resolved.
    """
    _typed(p=(p, int), beta=(beta, Fraction), v=(v, int), bad_gen=(bad_gen, bool))
    if p < 2:
        raise PresentationError("truncation exponent must be at least 2")
    rank = 2 if bad_gen else 1
    dom = ScalarDomain(p, ("q1",))
    group = GroupData(rank)
    g1 = group.generator(0)
    gens = []
    char1 = [dom.zeta()] + ([dom.q(0)] if bad_gen else [])
    gens.append(SkewGenerator("y1", g1, tuple(char1)))
    for i in range(1, v):
        char = [dom.q(0)] + ([dom.one()] if bad_gen else [])
        gens.append(SkewGenerator("y%d" % (i + 1), g1, tuple(char)))
    beta = Fraction(beta)
    mu1p = group.power(g1, p)
    rhs = {}
    if beta:
        rhs[(mu1p, ())] = dom.rational(beta)
        rhs[(group.identity(), ())] = dom.rational(-beta)
    rules = [((0,) * p, rhs)]
    return Presentation(dom, group, gens, rules, name="skew_trunc")


def taft_presentation(p=3, free=False):
    """Taft algebra: group Z/p, one y with y g = zeta_p g y and y^p = 0.

    With free=True the power relation is dropped, leaving the unquotiented
    extension in which y^p survives as a skew primitive of weight g^p = 1.
    """
    _typed(p=(p, int), free=(free, bool))
    if p < 2:
        raise PresentationError("Taft parameter must be at least 2")
    dom = ScalarDomain(p)
    group = GroupData(0, (p,))
    g = group.generator(0)
    gens = [SkewGenerator("y", g, (dom.zeta(),))]
    rules = [] if free else [((0,) * p, {})]
    return Presentation(dom, group, gens, rules, name="taft")


def qplane_presentation(v=2):
    """Quantum-plane style quotient over Z: y_i y_j = lambda_ij y_j y_i.

    The Hopf condition lambda_ij * lambda_ji = 1 pins the characters, so
    the design pairs weights g and g^{-1} on one transcendental q1 and,
    for v = 3, adds a weight-1 primitive with the trivial character.
    Growth is polynomial of degree 1 + v.
    """
    _typed(v=(v, int))
    if not 1 <= v <= 3:
        raise PresentationError("quantum plane builtin supports v in {1, 2, 3}")
    dom = ScalarDomain(1, ("q1",))
    group = GroupData(1)
    g = group.generator(0)
    q = dom.q(0)
    data = [(g, q)]
    if v >= 2:
        data.append((group.inv(g), q))
    if v >= 3:
        data.append((group.identity(), dom.one()))
    gens = [SkewGenerator("y%d" % (i + 1), w, (c,)) for i, (w, c) in enumerate(data)]
    pres_probe = Presentation(dom, group, gens, (), name="qplane_probe")
    rules = []
    ident = group.identity()
    for j in range(v):
        for i in range(j):
            # orient y_j y_i -> lambda_ji y_i y_j  (j > i)
            lam = pres_probe.char_value(j, gens[i].weight)
            rules.append(((j, i), {(ident, (i, j)): lam}))
    return Presentation(dom, group, gens, rules, name="qplane")


def exterior_presentation(s=2, free=False):
    """Anticommuting generators over Z/2: x^2=1, y_i^2=0, y_iy_j=-y_jy_i.

    Every y_i is (1,x)-primitive with x y_i = -y_i x; for s = 1 this is
    the four-dimensional algebra with basis {1, x, y, xy}.  With free=True,
    the y-relations are dropped.
    """
    _typed(s=(s, int), free=(free, bool))
    if s < 1:
        raise PresentationError("need at least one anticommuting generator")
    dom = ScalarDomain(2)
    group = GroupData(0, (2,))
    x = group.generator(0)
    minus = dom.rational(-1)
    gens = [SkewGenerator("y%d" % (i + 1), x, (minus,)) for i in range(s)]
    rules = []
    if not free:
        ident = group.identity()
        for i in range(s):
            rules.append(((i, i), {}))
        for j in range(s):
            for i in range(j):
                rules.append(((j, i), {(ident, (i, j)): minus}))
    return Presentation(dom, group, gens, rules, name="exterior")


# ----------------------------------------------------------------------
# registry, expected values, and the check harness

class ExampleSpec:
    def __init__(self, description, defaults, build, expected, check_config):
        self.description = description
        self.defaults = defaults
        self.build = build
        self.expected = expected
        self.check_config = check_config


def _skew_free_expected(params):
    v = params["v"]
    same_q = params["same_q"]
    pairs = 1 if same_q else v
    out = {
        "confluent": True,
        "weights": 1,
        "weights_with_primitive_power": 0,
        "weights_with_free_commutator": 1,
        "weight_commutators": pairs,
        "torsion_weight_commutators": 0,
        "dim_torsion_span": 0,
        "dim_free_quotient": v,
        "bounds": {"independent-family": 1 + v, "weight-count": 2,
                   "weight-commutator-count": 1 + pairs,
                   "primitive-quotient": 1 + v},
        "pbw_independent": True,
    }
    if v >= 2:
        out["growth_kind"] = "exponential"
        out["detector"] = "exponential"
    else:
        # the normal words g^a y^b give dim F_n = (n + 1)^2
        out["growth_kind"] = "polynomial"
        out["growth_degree"] = 2
        out["detector"] = "inconclusive"
    return out


def _skew_free_n_max(v):
    """13, or less where dim F_n = sum_t v^t (2(n - t) + 1), the normal
    words g^a w with |a| + |w| <= n, passes the word ceiling (v >= 3)."""
    n = 13
    while sum(v ** t * (2 * (n - t) + 1) for t in range(n + 1)) > DEFAULT_MAX_WORDS:
        n -= 1
    return n


def _skew_trunc_expected(params):
    p, beta, v, bad = params["p"], params["beta"], params["v"], params["bad_gen"]
    if bad and beta != 0:
        return {"confluent": False, "overlap_count": 1}
    pairs = 2 if v >= 2 else 1
    out = {
        "confluent": True,
        "weights": 1,
        "weights_with_primitive_power": 1,
        "weights_with_free_commutator": 1 if v >= 2 else 0,
        "weight_commutators": pairs,
        "torsion_weight_commutators": 1,
        "dim_torsion_span": 1,
        "dim_free_quotient": v - 1,
        "bounds": {"independent-family": None, "weight-count": 1,
                   "weight-commutator-count": pairs,
                   "primitive-quotient": v},
        "pbw_independent": False,
        "pbw_dependence_degree": p,
    }
    if v >= 2:
        out["growth_kind"] = "exponential"
        out["detector"] = "exponential"
    else:
        out["growth_kind"] = "polynomial"
        out["growth_degree"] = 1
        out["detector"] = "inconclusive"
    return out


def _free_over_cyclic_expected(torsion_dim, free_dim, exponential, dependence):
    """taft and exterior with free=true: free y-words over a finite cyclic
    group <g>, every y of weight g with lambda(g) a root of unity != 1, so
    the primitives are those of weight g (commutator lambda(g)) and of
    weight 1 (commutator 1), of dimensions torsion_dim and free_dim."""
    return {
        "confluent": True,  # no rules, so no overlaps
        "weights": 2,  # g and 1
        "weights_with_primitive_power": 1,  # g: its torsion commutator predicts one
        "weights_with_free_commutator": 1,  # 1: it conjugates trivially
        "weight_commutators": 2,  # (g, lambda(g)) and (1, 1)
        "torsion_weight_commutators": 1,  # (g, lambda(g))
        "dim_torsion_span": torsion_dim,
        "dim_free_quotient": free_dim,
        # lambda(g) != 1 fails the independent family; the coradical is
        # finite, so the counts are weight 1, the pair (1, 1) and free_dim
        "bounds": {"independent-family": None, "weight-count": 1,
                   "weight-commutator-count": 1, "primitive-quotient": free_dim},
        # one y letter: the words g^a y^b make dim F_n linear in n
        "growth_kind": "exponential" if exponential else "polynomial",
        "growth_degree": None if exponential else 1,
        "detector": "inconclusive",  # roots of unity fire no criterion
        "pbw_independent": False,  # the witness y^p, or y^2 in L_2, is a power
        "pbw_dependence_degree": dependence,
    }


def _taft_expected(params):
    p = params["p"]
    if params["free"]:
        # y^n is primitive iff (n choose k)_zeta = 0 for 0 < k < n, i.e.
        # n = 1 or n = p: y of weight g and y^p of weight g^p = 1, and the
        # monomial y^p is the witness y^p
        return _free_over_cyclic_expected(1, 1, False, p)
    return {
        "confluent": True,
        "weights": 1,
        "weights_with_primitive_power": 1,
        "weights_with_free_commutator": 0,
        "weight_commutators": 1,
        "torsion_weight_commutators": 1,
        "dim_torsion_span": 1,
        "dim_free_quotient": 0,
        "bounds": {"independent-family": None, "weight-count": 0,
                   "weight-commutator-count": 0, "primitive-quotient": 0},
        "growth_kind": "polynomial",
        "growth_degree": 0,
        "total_dimension": p * p,
        "detector": "inconclusive",
        "pbw_independent": False,
        "pbw_dependence_degree": p,
    }


def _qplane_expected(params):
    v = params["v"]
    return {
        "confluent": True,
        "weights": v,
        "weights_with_primitive_power": 0,
        "weights_with_free_commutator": v,
        "weight_commutators": v,
        "torsion_weight_commutators": 0,
        "dim_torsion_span": 0,
        "dim_free_quotient": v,
        "bounds": {"independent-family": 1 + v, "weight-count": 1 + v,
                   "weight-commutator-count": 1 + v,
                   "primitive-quotient": 1 + v},
        "growth_kind": "polynomial",
        "growth_degree": 1 + v,
        "detector": "inconclusive",
        "pbw_independent": True,
    }


def _exterior_expected(params):
    s = params["s"]
    if params["free"]:
        # the y-words are T(V) for V odd of dimension s, so the primitives
        # modulo the coradical are the free Lie superalgebra L(V); from
        # 1/(1 - st) = prod_n (1 - t^n)^(-d_n) (n even), (1 + t^n)^(d_n)
        # (n odd): d_1 = s, d_2 = s(s + 1)/2, d_3 = (s^3 - s)/3 and
        # d_4 = (s^4 - s^2)/4 up to the degree bound 4; the odd degrees have
        # weight x, and y_1^2 = [y_1, y_1]/2 lies in the witness span of L_2
        return _free_over_cyclic_expected(
            s + (s ** 3 - s) // 3, s * (s + 1) // 2 + (s ** 4 - s ** 2) // 4, s > 1, 2)
    return {
        "confluent": True,
        "weights": 1,
        "weights_with_primitive_power": 1,
        "weights_with_free_commutator": 0,
        "weight_commutators": 1,
        "torsion_weight_commutators": 1,
        "dim_torsion_span": s,
        "dim_free_quotient": 0,
        "bounds": {"independent-family": None, "weight-count": 0,
                   "weight-commutator-count": 0, "primitive-quotient": 0},
        "growth_kind": "polynomial",
        "growth_degree": 0,
        "total_dimension": 2 ** (s + 1),
        "detector": "inconclusive",
        "pbw_independent": s == 0,
        "pbw_dependence_degree": 2,
    }


EXAMPLES = {
    "skew_free": ExampleSpec(
        "group algebra of Z freely extended by v skew primitives "
        "(lambda_i(g) = q_i; exponential growth for v >= 2)",
        {"v": 2, "same_q": False, "tau": None},
        lambda prm: skew_free_presentation(v=prm["v"], same_q=prm["same_q"],
                                           tau=prm["tau"]),
        _skew_free_expected,
        lambda prm: {"degree_bound": 4, "group_word_bound": 3, "power_bound": 3,
                     "n_max": _skew_free_n_max(prm["v"]), "pbw_degree": 6},
    ),
    "skew_trunc": ExampleSpec(
        "the free extension plus one truncation y1^p = beta (mu1^p - 1); "
        "bad_gen=true breaks confluence when beta != 0",
        {"p": 3, "beta": 1, "v": 2, "bad_gen": False},
        lambda prm: skew_trunc_presentation(p=prm["p"], beta=prm["beta"],
                                            v=prm["v"], bad_gen=prm["bad_gen"]),
        _skew_trunc_expected,
        # the PBW scan must reach the truncation relation y1^p
        lambda prm: {"degree_bound": 4, "group_word_bound": 3, "power_bound": 4,
                     "n_max": 12, "pbw_degree": max(4, prm["p"])},
    ),
    "taft": ExampleSpec(
        "Taft algebra: Z/p with one skew primitive, y g = zeta_p g y, y^p = 0",
        {"p": 3, "free": False},
        lambda prm: taft_presentation(p=prm["p"], free=prm["free"]),
        _taft_expected,
        lambda prm: {"degree_bound": prm["p"], "group_word_bound": 2,
                     "power_bound": prm["p"], "n_max": 12, "pbw_degree": prm["p"] + 1},
    ),
    "qplane": ExampleSpec(
        "quantum-plane quotient over Z with v in {1,2,3} skew primitives; "
        "polynomial growth of degree 1 + v",
        {"v": 2},
        lambda prm: qplane_presentation(v=prm["v"]),
        _qplane_expected,
        lambda prm: {"degree_bound": 3, "group_word_bound": 3, "power_bound": 3,
                     "n_max": 12 if prm["v"] == 1 else 24, "pbw_degree": 8},
    ),
    "exterior": ExampleSpec(
        "anticommuting generators over Z/2 (s = 1 is the four-dimensional "
        "example); finite dimensional, all bounds zero",
        {"s": 2, "free": False},
        lambda prm: exterior_presentation(s=prm["s"], free=prm["free"]),
        _exterior_expected,
        lambda prm: {"degree_bound": 4, "group_word_bound": 2, "power_bound": 3,
                     "n_max": 12, "pbw_degree": 4},
    ),
}


def _merge_params(name, params):
    """The registry entry and its defaults overridden by params."""
    entry = EXAMPLES.get(name)
    if entry is None:
        raise PresentationError("unknown builtin example %r; try list-examples" % name)
    merged = dict(entry.defaults)
    for k, v in (params or {}).items():
        if k not in merged:
            raise PresentationError("example %r has no parameter %r" % (name, k))
        merged[k] = v
    return entry, merged


def build_example(name, params=None):
    entry, merged = _merge_params(name, params)
    return entry.build(merged), merged


class CheckOutcome:
    def __init__(self):
        self.lines = []
        self.passed = True

    def add(self, label, expected, actual):
        ok = expected == actual
        self.passed = self.passed and ok
        self.lines.append({"check": label, "expected": expected,
                           "actual": actual, "ok": ok})


def run_example_check(name, params=None):
    """Compare a builtin's computed reports against its expected block."""
    from .bounds import all_bounds, detect_exponential
    from .growth import measure_growth, pbw_dependence_scan
    from .invariants import compute_invariants

    entry, merged = _merge_params(name, params)
    p = entry.build(merged)  # first: it rejects parameters of the wrong type
    expected = entry.expected(merged)
    outcome = CheckOutcome()
    cfg = entry.check_config(merged)
    conf = p.check_confluence()
    if expected.get("confluent") is False:
        outcome.add("confluent", False, conf.confluent)
        outcome.add("overlap-count", expected["overlap_count"],
                    len(conf.failures))
        return outcome
    outcome.add("confluent", True, conf.confluent)
    report = compute_invariants(
        p, degree_bound=cfg["degree_bound"],
        group_word_bound=cfg["group_word_bound"],
        power_bound=cfg["power_bound"])
    counts = report.summary_counts()
    for key in ("weights", "weights_with_primitive_power",
                "weights_with_free_commutator", "weight_commutators",
                "torsion_weight_commutators", "dim_torsion_span",
                "dim_free_quotient"):
        outcome.add(key, expected[key], counts[key])
    results = {r.rule: r.value for r in all_bounds(p, report)}
    for rule, val in expected["bounds"].items():
        outcome.add("bound:%s" % rule, val, results.get(rule))
    growth = measure_growth(p, n_max=cfg["n_max"])
    outcome.add("growth-kind", expected["growth_kind"],
                growth.estimate["kind"])
    if expected.get("growth_degree") is not None:
        outcome.add("growth-degree", expected["growth_degree"],
                    growth.estimate.get("degree"))
    if expected.get("total_dimension") is not None:
        outcome.add("total-dimension", expected["total_dimension"],
                    growth.dims[-1])
    verdict = detect_exponential(p, report)
    outcome.add("detector", expected["detector"], verdict.classification)
    # detector and measurement must never contradict
    contradiction = (verdict.classification == "exponential"
                     and growth.estimate["kind"] == "polynomial")
    outcome.add("detector-vs-growth", False, contradiction)
    if growth.estimate["kind"] == "polynomial":
        degree = growth.estimate["degree"]
        sound = all(v is None or v <= degree for v in results.values())
        outcome.add("bounds-below-growth", True, sound)
    scan = pbw_dependence_scan(p, [r.element for r in report.witnesses],
                               degree_bound=cfg["pbw_degree"])
    outcome.add("pbw-independent", expected["pbw_independent"], scan.independent)
    if not scan.independent and expected.get("pbw_dependence_degree") is not None:
        outcome.add("pbw-dependence-degree",
                    expected["pbw_dependence_degree"], sum(scan.monomial))
        outcome.add("pbw-conclusions", True, scan.consistent)
    return outcome
