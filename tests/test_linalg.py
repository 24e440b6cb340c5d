import random

from hypothesis import given
from hypothesis import strategies as st

from hopfgrow import coalgebra
from hopfgrow.catalog import (qplane_presentation, skew_free_presentation,
                              skew_trunc_presentation, taft_presentation)
from hopfgrow.linalg import ScalarElimination, nullspace_of_columns
from hopfgrow.scalars import ScalarDomain, _lp_divexact, _lp_eq, _lp_mul


def _combine(domain, columns, combo):
    out = {}
    for idx, c in combo.items():
        for k, v in columns[idx].items():
            w = c * v
            cur = out.get(k, domain.zero())
            s = cur + w
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _eliminate(domain, columns):
    """A ScalarElimination holding the columns, tagged by index."""
    elim = ScalarElimination(domain)
    for tag, col in enumerate(columns):
        elim.insert(col, tag)
    return elim


def test_nullspace_simple():
    dom = ScalarDomain(1, ("q1",))
    one = dom.one()
    q = dom.q(0)
    cols = [{"r1": one}, {"r2": q}, {"r1": one, "r2": q}]
    kernel = nullspace_of_columns(dom, cols)
    assert len(kernel) == 1
    assert _combine(dom, cols, kernel[0]) == {}
    assert _eliminate(dom, cols).rank == 2


def test_solve_in_span():
    dom = ScalarDomain(1, ("q1",))
    one = dom.one()
    q = dom.q(0)
    basis = [{"a": one, "b": q}, {"b": one}]
    target = {"a": q, "b": q * q + one}
    elim = _eliminate(dom, basis)
    sol = elim.solve(target)
    assert sol is not None
    recombined = _combine(dom, basis, sol)
    diff = dict(recombined)
    for k, v in target.items():
        s = diff.get(k, dom.zero()) - v
        if s.is_zero():
            diff.pop(k, None)
        else:
            diff[k] = s
    assert diff == {}
    assert elim.solve({"c": one}) is None
    assert elim.solve({}) == {}


def test_random_kernels_annihilate():
    dom = ScalarDomain(4, ("q1", "q2"))
    rng = random.Random(5)
    pool = [dom.one(), dom.q(0), dom.q(1), dom.zeta(), dom.rational(2),
            dom.one() + dom.q(0), dom.zero()]
    for _ in range(15):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 6)
        cols = []
        for _ in range(ncols):
            col = {}
            for r in range(nrows):
                v = rng.choice(pool)
                if not v.is_zero():
                    col[r] = v
            cols.append(col)
        kernel = nullspace_of_columns(dom, cols)
        for combo in kernel:
            assert _combine(dom, cols, combo) == {}
        assert _eliminate(dom, cols).rank + len(kernel) == ncols


# ----------------------------------------------------------------------
# The previous elimination, kept as the oracle: every reduction is the
# cross step p*col - c*pivot, and each reduced column and its combination
# are divided by the unit-monomial content of their first entry.

def _oracle_scale_sub(p, col, c, pcol):
    out = {k: p * v for k, v in col.items()}
    for k, v in pcol.items():
        s = out.get(k, p.domain.zero()) - c * v
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _oracle_content_normalize(col, combo):
    if not col:
        return col, combo
    um = col[min(col)].as_unit_monomial()
    if um is None or um.is_one():
        return col, combo
    inv = um.inverse().to_scalar()
    return ({k: inv * v for k, v in col.items()},
            {k: inv * v for k, v in combo.items()})


class _OracleElimination:
    def __init__(self, domain):
        self.domain = domain
        self.pivots = []

    def insert(self, col, tag):
        combo = {tag: self.domain.one()}
        col = dict(col)
        for rk, pcol, pcombo in self.pivots:
            c = col.get(rk)
            if c is not None:
                col = _oracle_scale_sub(pcol[rk], col, c, pcol)
                combo = _oracle_scale_sub(pcol[rk], combo, c, pcombo)
        col, combo = _oracle_content_normalize(col, combo)
        if not col:
            return combo
        keys = sorted(col)
        rk = next((k for k in keys if col[k].as_unit_monomial() is not None), keys[0])
        self.pivots.append((rk, col, combo))
        return None


def _oracle_solve(domain, basis, target):
    elim = _OracleElimination(domain)
    for tag, col in enumerate(basis):
        elim.insert(col, tag)
    combo = elim.insert(target, "target")
    if combo is None:
        return None
    neg_inv = -(combo.pop("target").inverse())
    return {tag: neg_inv * c for tag, c in combo.items()}


def _is_multiple(a, b):
    """a == r*b for one nonzero scalar r (both nonzero combinations)."""
    if set(a) != set(b):
        return False
    k0 = next(iter(a))
    return all(a[k] * b[k0] == b[k] * a[k0] for k in a)


def _assert_matches_oracle(domain, columns, target=None):
    """The elimination against the oracle on one column family."""
    elim, oracle = ScalarElimination(domain), _OracleElimination(domain)
    for tag, col in enumerate(columns):
        before = dict(col)
        combo, expected = elim.insert(col, tag), oracle.insert(col, tag)
        assert col == before  # insert copies its column
        assert (combo is None) == (expected is None), tag
        if combo is not None:
            assert _combine(domain, columns, combo) == {}
            assert _is_multiple(combo, expected), tag
    # fraction-free: Laurent polynomial input stays Laurent polynomial
    for _, pcol, pcombo, _ in elim.pivots:
        assert all(len(v.den) == 1 for v in list(pcol.values()) + list(pcombo.values()))
    if all(pcol[rk].as_unit_monomial() is not None for rk, pcol, _ in oracle.pivots):
        assert [rk for rk, *_ in elim.pivots] == [rk for rk, *_ in oracle.pivots]
    if target is not None:
        expected = _oracle_solve(domain, columns, target)
        # solving against the held elimination inserts nothing
        rank = elim.rank
        assert elim.solve(target) == expected
        assert elim.rank == rank


def _random_columns(rng, pool, nrows, ncols):
    cols = []
    for _ in range(ncols):
        col = {}
        for r in range(nrows):
            if rng.random() < 0.6:
                col[r] = rng.choice(pool)
        cols.append(col)
    return cols


def test_elimination_matches_oracle_random():
    dom = ScalarDomain(4, ("q1", "q2"))
    one, q1, q2, z = dom.one(), dom.q(0), dom.q(1), dom.zeta()
    units = [one, -one, q1, q2, z, dom.q(0, -1) * q2]
    non_units = [one + q1, q1 - one, (q1 - one) * (q1 - one), dom.rational(2),
                 dom.rational(2) * q2, z + q1]
    rng = random.Random(13)
    for trial in range(80):
        pool = units if trial % 4 == 0 else units + non_units
        cols = _random_columns(rng, pool, rng.randint(2, 5), rng.randint(2, 7))
        # a target in the span, so that solve has something to find
        target = {}
        for col in cols[:3]:
            c = rng.choice(pool)
            for k, v in col.items():
                s = target.get(k, dom.zero()) + c * v
                if s.is_zero():
                    target.pop(k, None)
                else:
                    target[k] = s
        _assert_matches_oracle(dom, cols, target)


def test_elimination_matches_oracle_on_primitive_blocks(monkeypatch):
    # the defect columns that the primitive search eliminates, recorded
    recorded = []

    def recording(domain, columns, tags=None):
        recorded.append((domain, columns))
        return nullspace_of_columns(domain, columns, tags)

    monkeypatch.setattr(coalgebra, "nullspace_of_columns", recording)
    # the weight g^2 of the tau presentations makes non-unit pivots
    for p, degree, radius in [
            (skew_free_presentation(v=2), 3, 2), (taft_presentation(3), 3, 2),
            (qplane_presentation(2), 3, 2), (skew_trunc_presentation(3, beta=2, v=2), 3, 2),
            (skew_free_presentation(v=1, tau=1), 4, 1),
            (skew_free_presentation(v=2, tau=1), 3, 1),
            (skew_free_presentation(v=2, tau=2), 3, 1)]:
        for weight in p.group.ball(2):
            coalgebra.find_skew_primitives(p, weight, degree, radius)
    assert len(recorded) > 50
    for domain, columns in recorded:
        _assert_matches_oracle(domain, columns)


def _laurent(dom, draw):
    terms = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                                    st.sampled_from([1, -1, 2, "z", "1+z"])),
                          min_size=1, max_size=4))
    total = dom.zero()
    for e1, e2, c in terms:
        coeff = {"z": dom.zeta(), "1+z": dom.one() + dom.zeta()}.get(c) or dom.rational(c)
        total = total + coeff * dom.q(0, e1) * dom.q(1, e2)
    return total


@given(data=st.data())
def test_lp_divexact_inverts_lp_mul(data):
    dom = ScalarDomain(4, ("q1", "q2"))
    a = _laurent(dom, data.draw)
    b = _laurent(dom, data.draw)
    if a.is_zero() or b.is_zero():
        return
    assert _lp_eq(_lp_divexact(_lp_mul(a.num, b.num), b.num), a.num)
    assert (a * b)._divexact(b) == a
    # a Laurent polynomial of two or more terms is no unit, so it does not
    # divide a product plus a monomial
    if len(b.num) > 1:
        off = a * b + dom.q(0, 3)
        assert _lp_divexact(off.num, b.num) is None
        assert off._divexact(b) is None
