import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from hopfgrow.elements import AlgebraElement, add_term, yword_key
from hopfgrow.groups import GroupData
from hopfgrow.presentation import Presentation, SkewGenerator
from hopfgrow.scalars import ScalarDomain

# the one Hypothesis profile: draws are fresh on every run, and no example
# database is kept between runs
settings.register_profile("hopfgrow", max_examples=30, deadline=None, database=None)
settings.load_profile("hopfgrow")


# every builtin setting that check-example is tested on, as (name, --param
# values), with its test id
CHECK_SETTINGS = [
    ("skew_free", []), ("skew_trunc", []), ("taft", []), ("qplane", []),
    ("exterior", []), ("skew_free", ["v=1"]), ("skew_trunc", ["p=5"]),
    ("skew_free", ["v=2", "tau=1"]), ("skew_free", ["v=1", "tau=1"]),
    ("taft", ["free=true"]), ("exterior", ["free=true"]), ("skew_free", ["v=3"]),
]
CHECK_IDS = ["-".join([name] + params) for name, params in CHECK_SETTINGS]


def run_guarded(argv, timeout=30, address_space=1 << 30):
    """Run `python argv` with src/ on the path, in a subprocess under a
    timeout and an address-space cap, so that a hang or a blowup fails a
    test in seconds instead of stalling the suite.  Returns the
    CompletedProcess, text mode."""
    import resource

    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        address_space = min(address_space, hard)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=timeout, preexec_fn=cap)


def wide_free_document(rank=10):
    """A presentation file document: one y of weight g1 over Z^rank, with
    character (q1, 1, ..., 1) and no relations."""
    return {"scalars": {"cyclotomic_order": 1, "transcendentals": ["q1"]},
            "group": {"free_rank": rank},
            "generators": [{"name": "y", "weight": [1] + [0] * (rank - 1),
                            "character": ["q1"] + ["1"] * (rank - 1)}]}


def random_element(p, rng, max_degree=3, group_radius=2, nterms=3):
    """A random element with small words and simple coefficients."""
    ball = p.group.ball(group_radius)
    pool = [p.domain.one(), p.domain.rational(-1), p.domain.rational(2)]
    pool += [p.domain.zeta()] if p.domain.conductor > 1 else []
    pool += [p.domain.q(i) for i in range(p.domain.nvars)]
    out = AlgebraElement({})
    for _ in range(rng.randint(1, nterms)):
        h = ball[rng.randrange(len(ball))]
        deg = rng.randint(0, max_degree)
        yw = tuple(rng.randrange(p.ny) for _ in range(deg)) if p.ny else ()
        coeff = pool[rng.randrange(len(pool))]
        word = p.normalize([(coeff, (("g", h),) + tuple(("y", i) for i in yw))])
        out = out + word
    return out


def random_presentation(rng):
    """A random free or truncated skew extension with valid Hopf data."""
    conductor = rng.randint(1, 12)
    v = rng.randint(1, 3)
    truncate = rng.random() < 0.4
    p1 = rng.choice([2, 3])
    if truncate:
        conductor = p1 * rng.randint(1, 12 // p1)  # make room for the root
    free_rank = rng.choice([0, 1, 1])
    torsion = ()
    if rng.random() < 0.4:
        divs = [m for m in range(2, conductor + 1) if conductor % m == 0]
        if divs:
            torsion = (rng.choice(divs),)
    if free_rank == 0 and not torsion:
        free_rank = 1
    dom = ScalarDomain(conductor, ("q1",))
    group = GroupData(free_rank, torsion)
    gens = []
    for i in range(v):
        # weight: mostly a single generator, sometimes a product
        weight = group.generators()[rng.randrange(group.ngens)]
        if rng.random() < 0.3:
            weight = group.mul(weight, group.generators()[rng.randrange(group.ngens)])
        images = []
        trivial = rng.random() < 0.2
        for j in range(group.ngens):
            if trivial:
                images.append(dom.one())
            elif j < free_rank:
                a = rng.randrange(conductor)
                e = rng.randint(-2, 2)
                images.append(dom.zeta(a) * dom.q(0) ** e if e
                              else dom.zeta(a) if a else dom.one())
            else:
                m = torsion[j - free_rank]
                images.append(dom.zeta((conductor // m) * rng.randrange(m)))
        tau = None
        if trivial and free_rank and rng.random() < 0.5:
            tau = [dom.rational(rng.randint(1, 2)) if j < free_rank
                   else dom.zero() for j in range(group.ngens)]
        gens.append(SkewGenerator("y%d" % (i + 1), weight, tuple(images), tau))
    rules = []
    if truncate and free_rank:
        # retarget the first generator so its truncation is Hopf-compatible:
        # all character values p1-th roots, the self-commutation primitive
        g1 = group.generator(0)
        images = [dom.zeta(conductor // p1)]
        for j in range(1, group.ngens):
            if j < free_rank:
                images.append(dom.zeta((conductor // p1) * rng.randrange(p1)))
            else:
                m = torsion[j - free_rank]
                choices = [a for a in range(m)
                           if ((conductor // m) * a * p1) % conductor == 0]
                images.append(dom.zeta((conductor // m) * rng.choice(choices)))
        gens[0] = SkewGenerator("y1", g1, tuple(images), None)
        beta = rng.choice([0, 1])
        rhs = {}
        if beta:
            rhs[(group.power(g1, p1), ())] = dom.rational(beta)
            rhs[(group.identity(), ())] = dom.rational(-beta)
        rules.append(((0,) * p1, rhs))
    return Presentation(dom, group, gens, rules, name="random")


def random_weighted_presentation(rng):
    """A random free or truncated skew extension over Z, Z^2, Z/m, Z x Z/m
    or Z^2 x Z/m, m in 2, 3, 4, 6.  A weight is a product of one to three
    group generators, so that mu(w) of a y-word often has to be reduced on
    a torsion coordinate, and character values are roots of unity of small
    order times powers of q1, so that powers of a y-letter can be skew
    primitive at weights no single letter has.  A truncation y1^p =
    beta (g1^p - 1) with beta = 1 is not count_graded."""
    free_rank = rng.choice([0, 1, 2])
    torsion = (rng.choice([2, 3, 4, 6]),) if not free_rank or rng.random() < 0.6 else ()
    power = rng.choice([2, 3])
    truncate = free_rank and rng.random() < 0.5
    conductor = math.lcm(power if truncate else 1, *torsion, rng.choice([1, 2, 3, 4]))
    dom = ScalarDomain(conductor, ("q1",))
    group = GroupData(free_rank, torsion)

    def root(m):
        """A random m-th root of unity, m dividing the conductor."""
        return dom.zeta((conductor // m) * rng.randrange(m))

    gens = []
    for i in range(rng.randint(1, 3)):
        weight = group.identity()
        while group.is_identity(weight):
            for _ in range(rng.randint(1, 3)):
                weight = group.mul(weight, group.generator(rng.randrange(group.ngens)))
        images = [root(conductor) * dom.q(0) ** rng.choice([-1, 0, 0, 1])
                  for _ in range(free_rank)]
        images += [root(m) for m in torsion]
        gens.append(SkewGenerator("y%d" % (i + 1), weight, tuple(images)))
    rules = []
    if truncate:
        # y1 of weight g1, every character value a p-th root of unity and
        # lambda_1(g1) a primitive one, so that y1^p is skew primitive
        g1 = group.generator(0)
        images = [dom.zeta(conductor // power)]
        images += [root(power) for _ in range(1, free_rank)]
        images += [root(math.gcd(power, m)) for m in torsion]
        gens[0] = SkewGenerator("y1", g1, tuple(images))
        beta = rng.choice([0, 1])
        rules.append(((0,) * power, {(group.power(g1, power), ()): dom.rational(beta),
                                     (group.identity(), ()): dom.rational(-beta)}))
    return Presentation(dom, group, gens, rules, name="random weighted")


def random_quadratic_presentation(rng):
    """Two or three generators over Z, Z/m or Z x Z/m, m in 2, 3, 4, with
    quadratic rules: q-commutations y_j y_i -> c y_i y_j for i < j and
    squares y_i y_i -> 0, each drawn or not.  Now and then a rule gets a
    second right-hand side term d h w, w a y-word below the left-hand side
    in deg-lex and h a group generator or 1.  That term breaks the letter
    counts, so many draws leave yy or group overlaps unresolved."""
    free_rank = rng.choice([0, 1, 1])
    torsion = (rng.choice([2, 3, 4]),) if not free_rank or rng.random() < 0.4 else ()
    conductor = math.lcm(*torsion, rng.choice([1, 2, 4]))
    dom = ScalarDomain(conductor, ("q1",))
    group = GroupData(free_rank, torsion)
    ny = rng.randint(2, 3)

    def scalar():
        """A root of unity times a power of q1."""
        return dom.zeta(rng.randrange(conductor)) * dom.q(0) ** rng.choice([-1, 0, 0, 1])

    gens = []
    for i in range(ny):
        weight = group.generator(rng.randrange(group.ngens))
        images = [scalar() for _ in range(free_rank)]
        images += [dom.zeta((conductor // m) * rng.randrange(m)) for m in torsion]
        gens.append(SkewGenerator("y%d" % (i + 1), weight, tuple(images)))
    # every y-word of length at most 2, in deg-lex order
    words = sorted([()] + [(i,) for i in range(ny)]
                   + [(i, j) for i in range(ny) for j in range(ny)],
                   key=lambda w: yword_key(w, ny))
    rules = []
    for j in range(ny):
        for i in range(j + 1):
            if rng.random() >= (0.5 if i == j else 0.7):
                continue
            lhs = (j, i)
            rhs = {} if i == j else {(group.identity(), (i, j)): scalar()}
            if rng.random() < 0.3:
                below = words[:words.index(lhs)]
                h = rng.choice([group.identity()] + group.generators())
                rhs.setdefault((h, rng.choice(below)), scalar())
            rules.append((lhs, rhs))
    return Presentation(dom, group, gens, rules, name="random quadratic")


# the most draws confluent_random_presentation makes
MAX_DRAWS = 1000


def confluent_random_presentation(rng, draw=random_presentation):
    """The first confluent presentation that draw(rng) gives.  Raises
    AssertionError, naming draw, when none of MAX_DRAWS draws is
    confluent, so that a confluence check which refuses every draw fails a
    test instead of hanging it."""
    for _ in range(MAX_DRAWS):
        p = draw(rng)
        if p.check_confluence().confluent:
            return p
    raise AssertionError("no confluent presentation in %d draws of %s"
                         % (MAX_DRAWS, draw.__name__))


@pytest.fixture
def rng():
    return random.Random(20240817)


def truncation(dom, group, mu, character, power, extra=()):
    """y1 of weight mu with y1^power = mu^power - 1, plus free generators.
    Where mu^power = 1 the two terms cancel, and y1^power = 0."""
    gens = [SkewGenerator("y1", mu, character)]
    gens += [SkewGenerator("y%d" % (i + 2), w, c) for i, (w, c) in enumerate(extra)]
    rhs = {}
    add_term(rhs, (group.power(mu, power), ()), dom.one())
    add_term(rhs, (group.identity(), ()), dom.rational(-1))
    return Presentation(dom, group, gens, [((0,) * power, rhs)], name="truncation")


def g3_truncation(v):
    # lambda_1(g1^3) = -1, so y1^2 is skew primitive of weight g1^6
    dom, z = ScalarDomain(2, ("q1",)), GroupData(1)
    g1 = z.generator(0)
    extra = [(g1, (dom.q(0),))] if v == 2 else []
    return truncation(dom, z, z.power(g1, 3), (dom.rational(-1),), 2, extra)


def rank2_truncation():
    # weight g1^2 with lambda_1(g1) = zeta_3, so y1^3 = g1^6 - 1
    dom, z2 = ScalarDomain(3, ("q1",)), GroupData(2)
    g1, g2 = z2.generators()
    return truncation(dom, z2, z2.power(g1, 2), (dom.zeta(), dom.one()), 3,
                      [(g2, (dom.one(), dom.q(0)))])


def cyclic_g3_truncation():
    # the g3 truncation over Z/12, where g1^6 is also 6 letters from 1
    dom, c12 = ScalarDomain(2), GroupData(0, (12,))
    g1 = c12.generator(0)
    return truncation(dom, c12, c12.power(g1, 3), (dom.rational(-1),), 2)


def random_truncation(rng):
    """y1 of weight g1^k, k >= 2, with y1^p = g1^(kp) - 1 over Z, Z^2 or
    Z/pj, plus at most one free generator.  Over Z and Z^2 the rule term
    g1^(kp) lies kp > p letters from 1; over Z/pj it may lie closer."""
    power = rng.choice([2, 3])
    k = rng.choice([k for k in (2, 3, 4, 5) if k % power])
    dom = ScalarDomain(power, ("q1",))
    group = rng.choice([GroupData(1), GroupData(2),
                        GroupData(0, (power * rng.randint(1, 6),))])
    g1 = group.generator(0)
    # lambda_1 takes p-th roots of unity, primitive on the weight g1^k
    character = (dom.zeta(rng.randrange(1, power)),)
    character += tuple(dom.zeta(rng.randrange(power)) for _ in range(1, group.ngens))
    extra = []
    if rng.random() < 0.5:
        weight = group.generator(rng.randrange(group.ngens))
        extra.append((weight, tuple(dom.q(0) if j < group.free_rank else dom.zeta()
                                    for j in range(group.ngens))))
    return truncation(dom, group, group.power(g1, k), character, power, extra)


def random_truncation_pair(rng):
    """y1 of weight g1 with y1^p = g1^p - 1 beside y2 of weight g2, over
    Z x Z/2, Z x Z/p or Z^2, as in the Z x Z/2 case whose primitive at g1^2
    needs a group part other than 1 on a nonempty y-word.  Every character
    value is a p-th root of unity, lambda_1(g1) a primitive one, and on g2
    it is 1 when the order of g2 is prime to p."""
    power = rng.choice([2, 3])
    dom = ScalarDomain(power)
    group = rng.choice([GroupData(1, (2,)), GroupData(1, (power,)), GroupData(2)])
    g1, g2 = group.generators()
    roots_on_g2 = power if not group.torsion or group.torsion[0] % power == 0 else 1
    character1 = (dom.zeta(rng.randrange(1, power)), dom.zeta(rng.randrange(roots_on_g2)))
    character2 = (dom.zeta(rng.randrange(power)), dom.zeta(rng.randrange(roots_on_g2)))
    return truncation(dom, group, g1, character1, power, [(g2, character2)])
