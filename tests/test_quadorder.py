import random
import re

import pytest

from amap.base import ZeroIdealError
from amap.quadorder import QuadInt, QuadOrder, SplitType

Z5 = QuadOrder(-5)
ZI = QuadOrder(-1)
Z3 = QuadOrder(-3)  # d = 1 (mod 4): w = (1 + sqrt(-3))/2


def rand_elem(rng, bound=9):
    while True:
        z = QuadInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if not z.is_zero:
            return z


def rand_ideal(rng, order, max_norm=None, bound=9):
    while True:
        gens = [rand_elem(rng, bound) for _ in range(rng.randint(1, 2))]
        ideal = order.ideal_from_generators(gens)
        if max_norm is None or ideal.norm <= max_norm:
            return ideal


class TestConstruction:
    def test_rejects_nonsquarefree_and_positive(self):
        with pytest.raises(ValueError):
            QuadOrder(-4)
        with pytest.raises(ValueError):
            QuadOrder(5)

    def test_omega_convention(self):
        assert Z5.discriminant == -20
        assert Z3.discriminant == -3
        # w^2 = w - 1 in Z[(1+sqrt(-3))/2]
        assert Z3.mul(QuadInt(0, 1), QuadInt(0, 1)) == QuadInt(-1, 1)

    def test_norm_element(self):
        assert ZI.norm_element(QuadInt(-2, 8)) == 68
        assert Z5.norm_element(QuadInt(1, 1)) == 6
        assert Z3.norm_element(QuadInt(0, 1)) == 1  # w is a unit for d = -3


class TestIdealFromGenerators:
    def test_ramified_prime_above_two(self):
        p1 = Z5.ideal_from_generators([QuadInt(2, 0), QuadInt(1, 1)])
        assert p1.hnf == ((2, 1), (0, 1))
        assert p1.norm == 2

    def test_principal_norm(self):
        ideal = ZI.principal(QuadInt(-2, 8))
        assert ideal.norm == 68

    def test_unit_ideal(self):
        assert Z5.principal(QuadInt(1, 0)) == Z5.unit_ideal
        assert Z5.unit_ideal.hnf == ((1, 0), (0, 1))

    def test_rejects_all_zero(self):
        with pytest.raises(ZeroIdealError):
            Z5.ideal_from_generators([QuadInt(0, 0)])

    def test_hnf_uniqueness_random(self):
        rng = random.Random(1)
        for _ in range(30):
            g = rand_elem(rng)
            u = rng.choice([QuadInt(1, 0), QuadInt(-1, 0)])
            i1 = ZI.principal(g)
            i2 = ZI.principal(ZI.mul(g, u))
            assert i1 == i2 and hash(i1) == hash(i2)


class TestIdealOps:
    def test_sum_examples(self):
        p2, p3 = Z5.rational_prime_splitting(3)[1]
        assert Z5.ideal_gcd(p2, p3) == Z5.unit_ideal
        assert Z5.ideal_gcd(p2, p2) == p2
        two = Z5.principal(QuadInt(2, 0))
        p1 = Z5.ideal_gcd(two, Z5.principal(QuadInt(1, 1)))
        assert p1.norm == 2

    def test_product_examples(self):
        p1 = Z5.ideal_from_generators([QuadInt(2, 0), QuadInt(1, 1)])
        assert Z5.ideal_mul(p1, p1) == Z5.principal(QuadInt(2, 0))
        p2, p3 = Z5.rational_prime_splitting(3)[1]
        assert Z5.ideal_mul(p2, p3) == Z5.principal(QuadInt(3, 0))
        assert Z5.ideal_mul(p1, Z5.unit_ideal) == p1

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            Z5.ideal_mul(Z5.unit_ideal, ZI.unit_ideal)

    def test_norm_multiplicative_random(self):
        rng = random.Random(2)
        for order in (Z5, ZI, Z3):
            for _ in range(25):
                i, j = rand_ideal(rng, order), rand_ideal(rng, order)
                assert order.ideal_mul(i, j).norm == i.norm * j.norm

    def test_closure_invariant_random(self):
        rng = random.Random(3)
        for order in (Z5, ZI, Z3, QuadOrder(-7)):
            w = QuadInt(0, 1)
            for _ in range(20):
                ideal = rand_ideal(rng, order)
                for basis in (QuadInt(ideal.a, 0), QuadInt(ideal.b, ideal.c)):
                    assert ideal.contains(order.mul(w, basis))


class TestSplitting:
    def test_splitting_in_known_orders(self):
        st, ps = Z5.rational_prime_splitting(2)
        assert st == SplitType.RAMIFIED
        assert ps[0].hnf == ((2, 1), (0, 1))

        st, ps = Z5.rational_prime_splitting(3)
        assert st == SplitType.SPLIT
        assert sorted(p.norm for p in ps) == [3, 3]
        # the two primes above 3 are <3, 1+sqrt(-5)> and <3, 2+sqrt(-5)>
        want = {Z5.ideal_from_generators([QuadInt(3, 0), QuadInt(1, 1)]),
                Z5.ideal_from_generators([QuadInt(3, 0), QuadInt(2, 1)])}
        assert set(ps) == want

        st, ps = ZI.rational_prime_splitting(3)
        assert st == SplitType.INERT and ps[0].norm == 9

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            Z5.rational_prime_splitting(6)

    def test_split_iff_disc_square(self):
        rng = random.Random(4)
        for order in (Z5, ZI, Z3):
            for p in (3, 5, 7, 11, 13):
                st, ps = order.rational_prime_splitting(p)
                squares = {x * x % p for x in range(1, p)}
                if order.discriminant % p == 0:
                    assert st == SplitType.RAMIFIED
                elif order.discriminant % p in squares:
                    assert st == SplitType.SPLIT
                else:
                    assert st == SplitType.INERT


class TestFactorIdeal:
    def test_six_in_z_sqrt_minus_five(self):
        fac = Z5.factor(Z5.principal(QuadInt(6, 0)))
        assert sorted((p.norm, e) for p, e in fac) == [(2, 2), (3, 1), (3, 1)]

    def test_example_in_gaussian_integers(self):
        one_plus_i = ZI.principal(QuadInt(1, 1))
        fac = ZI.factor(ZI.principal(QuadInt(-2, 8)))
        assert dict(fac).get(one_plus_i) == 2
        rest = [(p, e) for p, e in fac if p != one_plus_i]
        assert rest == [(ZI.principal(QuadInt(-1, 4)), 1)]

        fac_a = ZI.factor(ZI.principal(QuadInt(3, -1)))
        assert dict(fac_a).get(one_plus_i) == 1
        assert dict(fac_a).get(ZI.principal(QuadInt(1, -2))) == 1

    def test_reconstruction_random(self):
        rng = random.Random(5)
        for order in (Z5, ZI, Z3):
            for _ in range(15):
                ideal = rand_ideal(rng, order, max_norm=5000)
                prod = order.unit_ideal
                for p, e in order.factor(ideal):
                    prod = order.ideal_mul(prod, order.ideal_pow(p, e))
                assert prod == ideal

    def test_divides_iff_contains(self):
        rng = random.Random(6)
        for order in (Z5, ZI):
            for _ in range(10):
                ideal = rand_ideal(rng, order, max_norm=400)
                for m in order.divisors(ideal):
                    assert m.contains_ideal(ideal)
                    q = order.ideal_div(ideal, m)
                    assert order.ideal_mul(q, m) == ideal
                # a non-divisor must not contain
                other = rand_ideal(rng, order, max_norm=400)
                if other not in order.divisors(ideal):
                    assert not (other.contains_ideal(ideal)
                                and ideal.norm % other.norm == 0
                                and order.ideal_gcd(other, ideal) == other)


class TestQuotientRing:
    def test_reduce_examples(self):
        six = Z5.principal(QuadInt(6, 0))
        assert Z5.reduce(QuadInt(7, 8), six) == QuadInt(1, 2)
        p1 = Z5.ideal_from_generators([QuadInt(2, 0), QuadInt(1, 1)])
        assert Z5.reduce(QuadInt(1, 1), p1) == QuadInt(0, 0)

    def test_residue_count(self):
        ideal = ZI.principal(QuadInt(-2, 8))
        res = ZI.residues(ideal)
        assert len(res) == 68 == len(set(res))
        assert all(ZI.reduce(r, ideal) == r for r in res)

    def test_reduce_is_ring_morphism(self):
        rng = random.Random(7)
        for order in (Z5, ZI, Z3):
            for _ in range(15):
                ideal = rand_ideal(rng, order, max_norm=300)
                z1, z2 = rand_elem(rng, 20), rand_elem(rng, 20)
                assert (order.reduce(z1 + z2, ideal)
                        == order.reduce(order.reduce(z1, ideal)
                                        + order.reduce(z2, ideal), ideal))
                assert (order.reduce(order.mul(z1, z2), ideal)
                        == order.mul_mod(order.reduce(z1, ideal),
                                         order.reduce(z2, ideal), ideal))

    def test_unit_count_is_phi(self):
        rng = random.Random(8)
        for order in (Z5, ZI, Z3):
            done = 0
            while done < 8:
                ideal = rand_ideal(rng, order, max_norm=200, bound=7)
                if ideal.norm == 1:
                    continue
                units = sum(
                    1 for r in order.residues(ideal)
                    if not r.is_zero
                    and order.ideal_gcd(order.principal(r), ideal) == order.unit_ideal)
                assert units == order.euler_phi(ideal)
                done += 1

    def test_local_ring_sizes(self):
        # in D/p^alpha the i-th power of the maximal ideal has
        # norm(p^(alpha - i)) elements
        for order, p in ((Z5, 2), (ZI, 2), (Z5, 3), (ZI, 3), (Z3, 2)):
            _, primes = order.rational_prime_splitting(p)
            prime = primes[0]
            alpha = 1
            while order.ideal_pow(prime, alpha + 1).norm <= 256:
                alpha += 1
            q_ideal = order.ideal_pow(prime, alpha)
            for i in range(alpha + 1):
                power = order.ideal_pow(prime, i)
                members = sum(1 for r in order.residues(q_ideal)
                              if power.contains(r))
                assert members == order.ideal_pow(prime, alpha - i).norm, (p, i)


def test_ideal_json_round_trip():
    spec = {"d": -5, "gens": [[2, 0], [1, 1]]}
    ideal = Z5.ideal_from_json(spec)
    assert ideal.hnf == ((2, 1), (0, 1))
    with pytest.raises(ValueError):
        ZI.ideal_from_json(spec)


@pytest.mark.parametrize("spec, named", [
    ({"d": -1, "gens": [[1.5, 2]]}, "[1.5, 2]"),
    ({"d": -1, "gens": [[True, 3]]}, "[True, 3]"),
    ({"d": -1, "gens": [["7", "2"]]}, "['7', '2']"),
    ({"d": -1, "gens": [[1, 2, 3]]}, "[1, 2, 3]"),
    ({"d": -1, "gens": [[1, 0], 5]}, "5"),
    ({"d": -1, "gens": {"a": 1}}, "{'a': 1}"),
    ({"d": -1}, "None"),
    ({"d": -1.0, "gens": [[1, 2]]}, "d=-1.0"),
    ({"d": True, "gens": [[1, 2]]}, "d=True"),
    ({"gens": [[1, 2]]}, "d=None"),
])
def test_ideal_json_is_parsed_strictly(spec, named):
    # nothing is converted: int(1.5) would read <1 + 2i>, of norm 5
    with pytest.raises(ValueError, match=re.escape(named)):
        ZI.ideal_from_json(spec)


def test_ideal_div_requires_divisibility():
    p1 = Z5.ideal_from_generators([QuadInt(2, 0), QuadInt(1, 1)])
    p2 = Z5.rational_prime_splitting(3)[1][0]
    with pytest.raises(ValueError):
        Z5.ideal_div(p1, p2)
