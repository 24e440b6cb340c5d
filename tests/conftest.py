import random

import pytest
from hypothesis import settings

from hopfgrow.elements import AlgebraElement
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


def confluent_random_presentation(rng):
    """The first confluent presentation random_presentation draws."""
    while True:
        p = random_presentation(rng)
        if p.check_confluence().confluent:
            return p


@pytest.fixture
def rng():
    return random.Random(20240817)


def truncation(dom, group, mu, character, power, extra=()):
    """y1 of weight mu with y1^power = mu^power - 1, plus free generators."""
    gens = [SkewGenerator("y1", mu, character)]
    gens += [SkewGenerator("y%d" % (i + 2), w, c) for i, (w, c) in enumerate(extra)]
    rhs = {(group.power(mu, power), ()): dom.one(),
           (group.identity(), ()): dom.rational(-1)}
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
