import random

import pytest
from hypothesis import settings

from hopfgrow.elements import AlgebraElement, add_term
from hopfgrow.groups import GroupData
from hopfgrow.presentation import Presentation, SkewGenerator
from hopfgrow.scalars import ScalarDomain

# the one Hypothesis profile: draws are fresh on every run, and no example
# database is kept between runs
settings.register_profile("hopfgrow", max_examples=30, deadline=None, database=None)
settings.load_profile("hopfgrow")


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


def normalize_random_order(pres, letters, rng):
    """Oracle for normalize that shares no code with the left-product
    kernel: each group letter moves left through the y-letters before it,
    then each y-word rewrites in random order."""
    group = pres.group
    branches = {(group.identity(), ()): pres.domain.one()}
    for kind, val in letters:
        if kind == "y":
            branches = {(h, ys + (val,)): c for (h, ys), c in branches.items()}
            continue
        new = {}
        for (h, ys), c in branches.items():
            for (h2, kept), c2 in pres._commute_group_left(ys, val).items():
                add_term(new, (group.mul(h, h2), kept), c * c2)
        branches = new
    acc = {}
    for (h, ys), c in branches.items():
        for (h3, ys3), c3 in pres.normal_form_yword_random(ys, rng).terms.items():
            add_term(acc, (group.mul(h, h3), ys3), c * c3)
    return AlgebraElement(acc)


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
