import math
import random

import pytest

from amap.base import NotCoprimeError, ZeroIdealError
from amap.integers import IntegerDomain

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
    assert Z.mult_order(2, 7) == 3
    assert Z.mult_order(2, 1) == 1
    with pytest.raises(NotCoprimeError):
        Z.mult_order(2, 8)


def test_divisors():
    assert Z.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert Z.divisors(1) == [1]


def test_a_decomposition():
    assert Z.a_decomposition(2, 24) == (8, 3)
    assert Z.a_decomposition(6, 35) == (1, 35)
    with pytest.raises(ValueError):
        Z.a_decomposition(0, 10)


def test_congruence_solution_count_examples():
    assert Z.congruence_solution_count(2, 3, 4) == 0
    assert Z.congruence_solution_count(2, 2, 4) == 2


def test_congruence_count_brute_oracle():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 60)
        a = rng.randint(-30, 30)
        b = rng.randint(-30, 30)
        brute = sum(1 for x in range(n) if (a * x - b) % n == 0)
        assert Z.congruence_solution_count(a, b, n) == brute, (a, b, n)


def test_residue_gcd_counts_match_phi():
    # for each divisor m of n, #{b mod n : gcd(<b>, n) = m} = phi(n/m)
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 80)
        counts = {}
        for b in range(n):
            g = math.gcd(b, n) if b else n
            counts[g] = counts.get(g, 0) + 1
        for m in Z.divisors(n):
            assert counts.get(m, 0) == Z.euler_phi(n // m), (n, m)


def test_multiplicativity_and_lagrange():
    rng = random.Random(5)
    for _ in range(100):
        m, n = rng.randint(1, 200), rng.randint(1, 200)
        assert Z.norm(m * n) == Z.norm(m) * Z.norm(n)
        if math.gcd(m, n) == 1:
            assert Z.euler_phi(m * n) == Z.euler_phi(m) * Z.euler_phi(n)
        a = rng.randint(1, 50)
        if math.gcd(a, n) == 1:
            assert Z.euler_phi(n) % Z.mult_order(a, n) == 0


def test_prime_power_phi_identity():
    rng = random.Random(8)
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(5):
            i = rng.randint(1, 5)
            assert Z.euler_phi(p**i) == Z.norm(p**i) - Z.norm(p ** (i - 1))


def test_phi_sums_to_norm():
    for n in range(1, 121):
        assert sum(Z.euler_phi(m) for m in Z.divisors(n)) == n
