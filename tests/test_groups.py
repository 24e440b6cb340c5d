import pytest

from hopfgrow.groups import GroupData, cyclic_support
from hopfgrow.scalars import INFINITE


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


def test_word_length_and_ball():
    z = GroupData(1)
    assert [len(z.ball(n)) for n in range(4)] == [1, 3, 5, 7]
    z5 = GroupData(0, (5,))
    assert z5.word_length((1,)) == 1
    assert z5.word_length((4,)) == 1
    assert z5.word_length((2,)) == 2
    assert len(z5.ball(2)) == 5


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
