"""Seeded workloads: presentation documents, jobs and their known answers.

A workload is a list of jobs.  Each job names a presentation document (the
JSON form read by ``hopfgrow.fileformat.parse_presentation_data``), the
pipeline steps to run on it and the answer it must produce.  The seed picks
only free scalar values (beta in the truncation rule, the additive character
tau, the exponent of the primitive root in a Taft character) and the job
order.  It never changes a presentation's shape or a search bound, so the
work done per run does not depend on the seed.

The known answers below are derived by hand from the presentations, not by
calling the package; ``check_outcome`` compares a job's outcome with them.
"""

import random
from fractions import Fraction
from math import comb

WORKLOADS = ("invariants", "growth", "tau")

# Not +-1: a tau of +-1 is a root of unity and makes the invariants take a
# few different steps, so the work would depend on the seed.
SCALAR_CHOICES = (2, 3, -2, -3)

# Exponents k of the Taft character zeta_7^k.  All six make the same calls,
# but 3, 5 and 6 take up to 1.7 times as long: their products land more
# often on zeta^6 = -(1 + zeta + ... + zeta^5), which is dense in the power
# basis.  The squares mod 7 cost the same, so the seed picks among them.
ROOT_CHOICES = (1, 2, 4)


# -- presentation documents --------------------------------------------------
def skew_free_doc(v, tau=None):
    """Z extended by v free skew primitives y_i with lambda_i(g) = q_i.

    With tau set, the last generator has the trivial character and the
    additive character tau(g) = tau instead.
    """
    gens = []
    for i in range(v):
        gen = {"name": "y%d" % (i + 1), "weight": [1], "character": ["q%d" % (i + 1)]}
        if tau is not None and i == v - 1:
            gen["character"] = ["1"]
            gen["tau"] = [str(tau)]
        gens.append(gen)
    return {"scalars": {"cyclotomic_order": 1,
                        "transcendentals": ["q%d" % (i + 1) for i in range(v)]},
            "group": {"free_rank": 1, "torsion": []},
            "generators": gens, "relations": []}


def skew_trunc_doc(p, beta, v, bad_gen=False):
    """The free extension plus y1^p = beta (g1^p - 1), lambda_1(g1) = zeta_p.

    bad_gen adds a second free group generator acting on y1 through q1,
    which makes the overlap y1^p g2 unresolvable for beta != 0.
    """
    extra = ["q1"] if bad_gen else []
    gens = [{"name": "y1", "weight": [1] + [0] * len(extra),
             "character": ["zeta^1"] + extra}]
    for i in range(1, v):
        gens.append({"name": "y%d" % (i + 1), "weight": [1] + [0] * len(extra),
                     "character": ["q1"] + (["1"] if bad_gen else [])})
    rhs = "%s g1^%d + %s" % (beta, p, -Fraction(beta))
    return {"scalars": {"cyclotomic_order": p, "transcendentals": ["q1"]},
            "group": {"free_rank": 1 + len(extra), "torsion": []},
            "generators": gens,
            "relations": [{"lhs": "y1^%d" % p, "rhs": rhs}]}


def taft_doc(p, root):
    """Z/p with one y: y g = zeta_p^root g y and y^p = 0."""
    return {"scalars": {"cyclotomic_order": p, "transcendentals": []},
            "group": {"free_rank": 0, "torsion": [p]},
            "generators": [{"name": "y", "weight": [1],
                            "character": ["zeta^%d" % root]}],
            "relations": [{"lhs": "y^%d" % p, "rhs": ""}]}


def qplane_doc(v):
    """Quantum plane over Z: weights g, g^-1 (both on q1) and, for v = 3, a
    weight-1 primitive with trivial character; y_j y_i = lambda_j(mu_i) y_i y_j."""
    weights = [[1], [-1], [0]][:v]
    chars = [["q1"], ["q1"], ["1"]][:v]
    gens = [{"name": "y%d" % (i + 1), "weight": w, "character": c}
            for i, (w, c) in enumerate(zip(weights, chars))]
    # lambda_2(g) = q1; y3 has the trivial character
    lam = {(1, 0): "q1", (2, 0): "1", (2, 1): "1"}
    rels = [{"lhs": "y%d y%d" % (j + 1, i + 1),
             "rhs": "%s y%d y%d" % (lam[(j, i)], i + 1, j + 1)}
            for j in range(v) for i in range(j)]
    return {"scalars": {"cyclotomic_order": 1, "transcendentals": ["q1"]},
            "group": {"free_rank": 1, "torsion": []},
            "generators": gens, "relations": rels}


def exterior_doc(s):
    """Z/2 = <x> with s anticommuting (1,x)-primitives: y_i^2 = 0,
    y_j y_i = -y_i y_j."""
    gens = [{"name": "y%d" % (i + 1), "weight": [1], "character": ["-1"]}
            for i in range(s)]
    rels = [{"lhs": "y%d y%d" % (i + 1, i + 1), "rhs": ""} for i in range(s)]
    rels += [{"lhs": "y%d y%d" % (j + 1, i + 1), "rhs": "-1 y%d y%d" % (i + 1, j + 1)}
             for j in range(s) for i in range(j)]
    return {"scalars": {"cyclotomic_order": 2, "transcendentals": []},
            "group": {"free_rank": 0, "torsion": [2]},
            "generators": gens, "relations": rels}


# -- hand-derived dimension sequences ------------------------------------------
# dim F_n of a multigraded presentation is sum_t Y(t) * B(n - t): Y(t) counts
# irreducible y-words of degree t, B(r) the group elements of word length <= r.

def _z_ball(r):
    return 2 * r + 1


def _cyclic_ball(m, r):
    return min(2 * r + 1, m)


def _free_words(v, t):
    return v ** t


def _trunc_words(p, v, t):
    """Words in y1..yv avoiding y1^p: track the length of the trailing y1 run."""
    runs = [1] + [0] * (p - 1)  # runs[k]: words ending in exactly k copies of y1
    for _ in range(t):
        total = sum(runs)
        runs = [total * (v - 1)] + runs[:-1]
    return sum(runs)


def _convolve(ywords, ball, n):
    return [sum(ywords(t) * ball(k - t) for t in range(k + 1)) for k in range(n + 1)]


def dims_skew_free(v, n):
    return _convolve(lambda t: _free_words(v, t), _z_ball, n)


def dims_skew_trunc(p, v, n):
    return _convolve(lambda t: _trunc_words(p, v, t), _z_ball, n)


def dims_qplane(v, n):
    # irreducible words are the ordered monomials y1^a y2^b ...
    return _convolve(lambda t: comb(t + v - 1, v - 1), _z_ball, n)


def dims_taft(p, n):
    return _convolve(lambda t: 1 if t < p else 0, lambda r: _cyclic_ball(p, r), n)


def dims_exterior(s, n):
    return _convolve(lambda t: comb(s, t), lambda r: _cyclic_ball(2, r), n)


# -- jobs ------------------------------------------------------------------------
class Job:
    """One presentation through some pipeline steps, with its known answer.

    steps: "confluence", "invariants" (with bounds and detector), "pbw" and
    "growth", run in the pipeline order confluence, invariants, pbw, growth.
    """

    def __init__(self, name, doc, steps, expected, bounds=None, pbw_degree=None,
                 n_max=None, multigraded=False):
        self.name = name
        self.doc = doc
        self.steps = steps
        self.expected = expected
        self.bounds = bounds
        self.pbw_degree = pbw_degree
        self.n_max = n_max
        self.multigraded = multigraded


def _counts(weights, power, free, pairs, torsion_pairs, torsion_span, free_quotient):
    return {"weights": weights, "weights_with_primitive_power": power,
            "weights_with_free_commutator": free, "weight_commutators": pairs,
            "torsion_weight_commutators": torsion_pairs,
            "dim_torsion_span": torsion_span, "dim_free_quotient": free_quotient}


def _bounds(independent, weight, commutator, quotient):
    return {"independent-family": independent, "weight-count": weight,
            "weight-commutator-count": commutator, "primitive-quotient": quotient}


def _invariants_jobs(rng):
    beta = rng.choice(SCALAR_CHOICES)
    root = rng.choice(ROOT_CHOICES)
    return [
        # One weight g.  y1 has commutator zeta_3 (torsion, y1^3 primitive);
        # y2 has commutator q1 (free).  y1^3 = beta(g^3 - 1) is the first
        # dependence among ordered monomials.
        Job("skew_trunc p=3 v=2", skew_trunc_doc(3, beta, 2),
            ("invariants", "pbw"),
            {"counts": _counts(1, 1, 1, 2, 1, 1, 1),
             "bounds": _bounds(None, 1, 2, 2),
             "detector": "exponential", "pbw": 3},
            bounds=(4, 3, 4), pbw_degree=4),
        # One weight g with three free commutators q1, q2, q3; the y's are free.
        Job("skew_free v=3", skew_free_doc(3), ("invariants", "pbw"),
            {"counts": _counts(1, 0, 1, 3, 0, 0, 3),
             "bounds": _bounds(4, 2, 4, 4),
             "detector": "exponential", "pbw": None},
            bounds=(4, 3, 3), pbw_degree=6),
        # Three weights g, g^-1, 1, each with one free commutator; GKdim 1 + 3.
        Job("qplane v=3", qplane_doc(3), ("invariants", "pbw"),
            {"counts": _counts(3, 0, 3, 3, 0, 0, 3),
             "bounds": _bounds(4, 4, 4, 4),
             "detector": "inconclusive", "pbw": None},
            bounds=(4, 3, 3), pbw_degree=8),
        # Finite dimensional (7 x 7): commutator zeta^root of order 7, y^7 = 0.
        Job("taft p=7", taft_doc(7, root), ("invariants", "pbw", "growth"),
            {"counts": _counts(1, 1, 0, 1, 1, 1, 0),
             "bounds": _bounds(None, 0, 0, 0),
             "detector": "inconclusive", "pbw": 7,
             "dims": dims_taft(7, 12), "growth": ("polynomial", 0)},
            bounds=(7, 2, 7), pbw_degree=8, n_max=12, multigraded=True),
        # Finite dimensional (2 x 2^4): four primitives of commutator -1.
        Job("exterior s=4", exterior_doc(4), ("invariants", "pbw", "growth"),
            {"counts": _counts(1, 1, 0, 1, 1, 4, 0),
             "bounds": _bounds(None, 0, 0, 0),
             "detector": "inconclusive", "pbw": 2,
             "dims": dims_exterior(4, 12), "growth": ("polynomial", 0)},
            bounds=(4, 2, 3), pbw_degree=4, n_max=12, multigraded=True),
        # g2 acts on y1 through q1, so y1^3 g2 reduces to two different forms.
        Job("skew_trunc bad_gen", skew_trunc_doc(3, beta, 2, bad_gen=True),
            ("confluence",), {"overlap_failures": 1}),
    ]


def _growth_jobs(rng):
    beta = rng.choice(SCALAR_CHOICES)
    root = rng.choice(ROOT_CHOICES)
    return [
        Job("qplane v=3 n=24", qplane_doc(3), ("growth",),
            {"dims": dims_qplane(3, 24), "growth": ("polynomial", 4)},
            n_max=24, multigraded=True),
        Job("qplane v=2 n=32", qplane_doc(2), ("growth",),
            {"dims": dims_qplane(2, 32), "growth": ("polynomial", 3)},
            n_max=32, multigraded=True),
        Job("skew_free v=2 n=14", skew_free_doc(2), ("growth",),
            {"dims": dims_skew_free(2, 14), "growth": ("exponential", None)},
            n_max=14, multigraded=True),
        Job("skew_trunc p=3 v=2 n=13", skew_trunc_doc(3, beta, 2), ("growth",),
            {"dims": dims_skew_trunc(3, 2, 13), "growth": ("exponential", None)},
            n_max=13, multigraded=True),
        Job("taft p=7 n=12", taft_doc(7, root), ("growth",),
            {"dims": dims_taft(7, 12), "growth": ("polynomial", 0)},
            n_max=12, multigraded=True),
        Job("exterior s=4 n=12", exterior_doc(4), ("growth",),
            {"dims": dims_exterior(4, 12), "growth": ("polynomial", 0)},
            n_max=12, multigraded=True),
    ]


def _tau_jobs(rng):
    tau1 = rng.choice(SCALAR_CHOICES)
    tau2 = rng.choice(SCALAR_CHOICES)
    # The normal words reached are g^a w with |a| + len(w) <= k: moving g left
    # past the tau-generator also yields words with that letter replaced by g
    # or dropped, which never leave this set, and every word in it is reached
    # by g^a followed by its y-letters.  So dim F_k is the tau-free count,
    # (k + 1)^2 for v = 1 and 3 * 2^(k+1) - 2k - 5 for v = 2.
    return [
        # Quadratic growth, which the catalog's skew_free expectation
        # (exponential) gets wrong at v = 1.
        Job("skew_free v=1 tau n=10", skew_free_doc(1, tau1), ("growth",),
            {"dims": dims_skew_free(1, 10), "growth": ("polynomial", 2)},
            n_max=10),
        Job("skew_free v=2 tau n=7", skew_free_doc(2, tau2), ("growth",),
            {"dims": dims_skew_free(2, 7), "growth": ("exponential", None)},
            n_max=7),
        # g^-1 y g = y + tau (g - 1): y is a (1,g)-primitive whose commutator
        # 1 has level 2 modulo the coradical, so one free weight and a free
        # quotient of dimension 1; every bound is 1 + 1 = GKdim 2.
        Job("skew_free v=1 tau invariants", skew_free_doc(1, tau1), ("invariants",),
            {"counts": _counts(1, 0, 1, 1, 0, 0, 1),
             "bounds": _bounds(2, 2, 2, 2), "detector": "inconclusive"},
            bounds=(3, 3, 3)),
        # y1 (commutator q1) and the tau-generator y2 (commutator 1) share the
        # weight g; the algebra is free on them, hence exponential.
        Job("skew_free v=2 tau invariants", skew_free_doc(2, tau2), ("invariants",),
            {"counts": _counts(1, 0, 1, 2, 0, 0, 2),
             "bounds": _bounds(3, 2, 3, 3), "detector": "exponential"},
            bounds=(3, 3, 3)),
    ]


_BUILDERS = {"invariants": _invariants_jobs, "growth": _growth_jobs, "tau": _tau_jobs}


def make_jobs(workload, seed):
    """The workload's jobs with the seed's scalar values, in the seed's order."""
    rng = random.Random("%s:%d" % (workload, seed))
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs


# -- checks ----------------------------------------------------------------------
def check_outcome(job, outcome, oracle_dims=None):
    """Mismatches between a job's outcome and its known answer, as strings."""
    exp = job.expected
    bad = []

    def cmp(label, want, got):
        if want != got:
            bad.append("%s: expected %r, got %r" % (label, want, got))

    if "overlap_failures" in exp:
        cmp("overlap failures", exp["overlap_failures"], outcome.get("overlap_failures"))
    if "counts" in exp:
        got = outcome.get("counts") or {}
        for key, want in exp["counts"].items():
            cmp(key, want, got.get(key))
        for rule, want in exp["bounds"].items():
            cmp("bound " + rule, want, (outcome.get("bounds") or {}).get(rule))
        cmp("detector", exp["detector"], outcome.get("detector"))
    if "pbw" in exp:
        cmp("pbw dependence degree", exp["pbw"], outcome.get("pbw"))
        cmp("pbw conclusions", True, outcome.get("pbw_consistent"))
    if "dims" in exp:
        cmp("truncated", False, outcome.get("truncated"))
        cmp("dims", exp["dims"], outcome.get("dims"))
        if oracle_dims is not None:
            cmp("dims against dp_word_counts", oracle_dims, outcome.get("dims"))
        kind, degree = exp["growth"]
        cmp("growth kind", kind, outcome.get("kind"))
        if degree is not None:
            cmp("growth degree", degree, outcome.get("degree"))
    return bad
