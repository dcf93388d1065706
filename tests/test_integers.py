import pytest

from amap.base import NotCoprimeError, ZeroIdealError
from amap.integers import IntegerDomain
from domains import divisors, mult_order

Z = IntegerDomain()


def test_factor_examples():
    assert dict(Z.factor(68)) == {2: 2, 17: 1}
    assert dict(Z.factor(1)) == {}
    with pytest.raises(ZeroIdealError):
        Z.factor(0)


def test_norm_and_phi():
    assert Z.norm(6) == 6
    assert Z.euler_phi(24) == 8
    assert Z.euler_phi(1) == 1
    with pytest.raises(ZeroIdealError):
        Z.norm(0)


def test_mult_order():
    assert mult_order(Z, 2, 7) == 3
    assert mult_order(Z, 2, 1) == 1
    with pytest.raises(NotCoprimeError):
        mult_order(Z, 2, 8)


def test_divisors():
    assert divisors(Z, 12) == [1, 2, 3, 4, 6, 12]
    assert divisors(Z, 1) == [1]


def test_a_decomposition():
    assert Z.a_decomposition(2, 24) == (8, 3)
    assert Z.a_decomposition(6, 35) == (1, 35)
    with pytest.raises(ValueError):
        Z.a_decomposition(0, 10)


def test_congruence_solution_count_examples():
    assert Z.congruence_solution_count(2, 3, 4) == 0
    assert Z.congruence_solution_count(2, 2, 4) == 2
