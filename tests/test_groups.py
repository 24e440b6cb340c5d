import math
import random

import pytest

from hopfgrow.groups import GroupData, cyclic_support
from hopfgrow.intmat import integer_kernel, integer_rank
from hopfgrow.scalars import INFINITE

from conftest import run_guarded
from oracles import box_ball


def test_arithmetic_and_reduction():
    g = GroupData(1, (2,))
    a = (3, 1)
    b = (-1, 1)
    assert g.mul(a, b) == (2, 0)
    assert g.inv(a) == (-3, 1)
    assert g.power((1, 1), 3) == (3, 1)
    assert g.is_identity(g.mul(a, g.inv(a)))


def test_mul_rejects_wrong_length():
    z2 = GroupData(2)
    assert z2.mul((1, 2), (3, -2)) == (4, 0)
    assert z2.is_identity((0, 0)) and not z2.is_identity((0, 1))
    with pytest.raises(ValueError):
        z2.mul((1,), (1, 2))
    with pytest.raises(ValueError):
        z2.mul((1, 2, 3), (1, 2, 3))
    with pytest.raises(ValueError):
        z2.is_identity((0,))


def test_products_are_memoized_per_group():
    # the memoized product is the plain reduction of the coordinate sum,
    # on free and torsion groups, at the first call and at the repeat; a
    # pair of the wrong length raises each time, after good products too
    rng = random.Random(31)
    for group in (GroupData(2), GroupData(1, (4,)), GroupData(0, (2, 3)), GroupData(2, (6,))):
        elements = group.ball(2) + [tuple(rng.randint(-9, 9) for _ in range(group.ngens))
                                    for _ in range(8)]
        for _ in range(2):
            for a in elements:
                for b in elements:
                    assert group.mul(a, b) == group.reduce([x + y for x, y in zip(a, b)])
        for _ in range(2):
            with pytest.raises(ValueError):
                group.mul((1,) * (group.ngens + 1), (1,) * (group.ngens + 1))
    # two equal groups share no memo: no product carries over from one
    # presentation, or one benchmark job, to the next
    first, second = GroupData(1, (3,)), GroupData(1, (3,))
    assert first == second
    assert first.mul((1, 2), (1, 2)) == (2, 1)
    assert first._products and not second._products


def test_word_length_and_ball():
    z = GroupData(1)
    assert [len(z.ball(n)) for n in range(4)] == [1, 3, 5, 7]
    z5 = GroupData(0, (5,))
    assert z5.word_length((1,)) == 1
    assert z5.word_length((4,)) == 1
    assert z5.word_length((2,)) == 2
    assert len(z5.ball(2)) == 5


def test_ball_and_sizes_match_the_box_filter():
    # seeded random Z^a x prod Z/m, even m (2 included) among them: the
    # ball lists, and ball_sizes counts, what the box filter keeps
    rng = random.Random(23)
    for _ in range(300):
        group = GroupData(rng.randint(0, 3), tuple(
            rng.choice((2, 2, 3, 4, 5, 6, 7, 8, 10)) for _ in range(rng.randint(0, 2))))
        radius = rng.randint(0, 3)
        box = box_ball(group, radius)
        assert group.ball(radius) == box, (group, radius)
        lengths = [group.word_length(e) for e in box]
        assert group.ball_sizes(radius) == [
            sum(1 for d in lengths if d <= r) for r in range(radius + 1)], (group, radius)


def test_ball_sizes_past_the_torsion_orders():
    # Z/2 x Z/3 has 6 elements, all within length 2; Z within radius n is
    # Z/(2n + 1), and Z/m with m > 2n + 1 is Z as far as radius n sees
    assert GroupData(0, (2, 3)).ball_sizes(5) == [1, 4, 6, 6, 6, 6]
    assert GroupData(0, (7,)).ball_sizes(4) == GroupData(1).ball_sizes(3) + [7]
    assert GroupData(0, (10 ** 9,)).ball_sizes(4) == GroupData(1).ball_sizes(4)
    assert GroupData(0).ball_sizes(3) == [1, 1, 1, 1]


def test_large_balls_are_built_by_length():
    # the box [-2, 2]^20 holds 5^20 elements and range(10^9) a billion;
    # the balls hold 841 and 3, so a box filter fails the timeout or the
    # address-space cap.  |B_r| in Z^n is sum_k 2^k C(n, k) C(r, k).
    code = ("from hopfgrow.groups import GroupData\n"
            "print(len(GroupData(20).ball(2)), len(GroupData(10).ball(2)),\n"
            "      GroupData(0, (10 ** 9,)).ball(1), GroupData(1000).ball_sizes(3))")
    result = run_guarded(["-c", code], timeout=20)
    assert result.returncode == 0, result.stderr
    sizes = [sum(2 ** k * math.comb(1000, k) * math.comb(r, k) for k in range(r + 1))
             for r in range(4)]
    assert result.stdout == "841 221 [(0,), (1,), (999999999,)] %s\n" % sizes


def test_element_order():
    g = GroupData(1, (6,))
    assert g.element_order((1, 0)) is INFINITE
    assert g.element_order((0, 1)) == 6
    assert g.element_order((0, 2)) == 3
    assert g.element_order((0, 0)) == 1


def test_subgroup_rank_and_torsion():
    g = GroupData(2, (2,))
    assert g.subgroup_free_rank([(1, 0, 0), (0, 2, 0), (1, 2, 1)]) == 2
    assert g.subgroup_is_torsionfree([(1, 0, 1)])  # mixed element: no pure torsion
    assert not g.subgroup_is_torsionfree([(0, 0, 1)])
    assert g.subgroup_is_torsionfree([(1, 0, 0), (0, 1, 0)])
    assert not g.subgroup_is_torsionfree([(1, 0, 1), (1, 0, 0)])


def test_integer_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2011)
    cases = [[], [[], []], [[0, 0], [0, 0]]]  # no rows, zero-width rows, zero rows
    for _ in range(200):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3:  # a dependent row
            rows.append([rng.randint(-2, 2) * a + rng.randint(-2, 2) * b
                         for a, b in zip(rows[0], rows[-1])])
        if rng.random() < 0.2:
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
        cases.append(rows)
    for rows in cases:
        ncols = len(rows[0]) if rows else 0
        assert integer_rank(rows) == sympy.Matrix(len(rows), ncols, sum(rows, [])).rank(), rows



def test_integer_kernel_matches_sympy():
    # the kernel is read off the echelon form of [rows | I]: it must solve
    # x * rows = 0, have n - rank vectors, and be saturated (a basis of
    # the whole kernel lattice, not of a sublattice of finite index)
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    rng = random.Random(1101)
    cases = [[], [[], []], [[0, 0], [0, 0]], [[2], [3]], [[2, 4], [3, 6]]]
    while len(cases) < 300:
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.4:  # a dependent row, often with a common factor
            k = rng.choice([1, 2, 3, 6])
            rows.append([k * (rng.randint(-2, 2) * a + rng.randint(-2, 2) * b)
                         for a, b in zip(rows[0], rows[-1])])
        if rng.random() < 0.2:
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
        cases.append(rows)
    for rows in cases:
        n = len(rows)
        ncols = len(rows[0]) if rows else 0
        kernel = integer_kernel(rows)
        rank = sympy.Matrix(n, ncols, sum(rows, [])).rank()
        assert len(kernel) == n - rank, rows
        for x in kernel:
            assert len(x) == n, rows
            assert all(sum(c * row[j] for c, row in zip(x, rows)) == 0
                       for j in range(ncols)), (rows, x)
        if kernel:
            snf = smith_normal_form(sympy.Matrix(kernel), domain=sympy.ZZ)
            assert all(abs(snf[i, i]) == 1 for i in range(len(kernel))), (rows, kernel)


def test_cyclic_support_free():
    g = GroupData(2)
    assert cyclic_support(g, (2, 0), (3, 0)) == ((1, 0), 2, 3)
    assert cyclic_support(g, (1, 1), (2, 2)) == ((1, 1), 1, 2)
    assert cyclic_support(g, (1, 0), (0, 1)) is None
    assert cyclic_support(g, (-1, 0), (2, 0)) == ((1, 0), -1, 2)
    assert cyclic_support(g, (0, 0), (3, 0)) == ((1, 0), 0, 3)


def test_cyclic_support_torsion():
    g = GroupData(0, (6,))
    x, d1, d2 = cyclic_support(g, (2,), (4,))
    assert x == (2,) and d1 == 1 and d2 == 2
    mixed = GroupData(1, (2,))
    assert cyclic_support(mixed, (1, 1), (1, 0)) is None


def test_validation():
    with pytest.raises(ValueError):
        GroupData(-1)
    with pytest.raises(ValueError):
        GroupData(0, (1,))
