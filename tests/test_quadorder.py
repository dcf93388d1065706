"""Quadratic orders: ideals in HNF, prime splitting, factoring, residues.

`power_search_factor` keeps the earlier body of `QuadOrder.factor`, as a
test-only reference: it finds each prime's exponent by building the powers
of the prime with `ideal_mul` until one no longer contains the ideal.
`reference_ideal_mul` keeps the earlier eight-vector body of
`QuadOrder.ideal_mul` (the four products of the HNF bases and their
w-multiples).  Each is the one referee of its operation.
`references.scan_splitting` referees `rational_prime_splitting` (in
`test_orders`) and the primes of the factorization law, and
`references.is_principal` decides principality by search.
"""

import random
import re

import pytest

from amap.base import ZeroIdealError, factor_int
from amap.quadorder import QuadInt, QuadOrder, SplitType, _hnf_from_vectors
from domains import ENTRIES
from references import is_principal

Z5 = QuadOrder(-5)
ZI = QuadOrder(-1)
Z3 = QuadOrder(-3)  # d = 1 (mod 4): w = (1 + sqrt(-3))/2
QUADRATIC = [entry for entry in ENTRIES.values() if isinstance(entry.dom, QuadOrder)]


def power_search_factor(order, n):
    """(prime, exponent) pairs of n by the power search, sorted by `_ideal_key`."""
    pairs = []
    for p, _ in factor_int(n.norm):
        _, primes = order.rational_prime_splitting(p)
        for prime in primes:
            e = 0
            pk = order.ideal_mul(order.unit_ideal, prime)
            while pk.contains_ideal(n):
                e += 1
                pk = order.ideal_mul(pk, prime)
            if e:
                pairs.append((prime, e))
    pairs.sort(key=lambda pe: order._ideal_key(pe[0]))
    return pairs


def reference_ideal_mul(order, m, n):
    order._check_pair(m, n)
    basis_m = [QuadInt(m.a, 0), QuadInt(m.b, m.c)]
    basis_n = [QuadInt(n.a, 0), QuadInt(n.b, n.c)]
    vectors = []
    for u in basis_m:
        for v in basis_n:
            uv = order.mul(u, v)
            wuv = order.mul(QuadInt(0, 1), uv)
            vectors.append((uv.x, uv.y))
            vectors.append((wuv.x, wuv.y))
    return order._make_ideal(*_hnf_from_vectors(vectors))


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

    def test_make_ideal_refuses_a_lattice_that_is_no_ideal(self):
        # the HNF (a, b, c) spans a and b + c*w; generators never reach these
        with pytest.raises(ValueError, match="not an ideal lattice"):
            ZI._make_ideal(4, 1, 2)  # c = 2 does not divide b = 1
        with pytest.raises(ValueError, match="not closed under multiplication by w"):
            ZI._make_ideal(2, 0, 1)  # w * w = -1 is not in 2Z + wZ
        with pytest.raises(ZeroIdealError):
            ZI._make_ideal(0, 0, 1)
        assert ZI._make_ideal(2, 1, 1) == ZI.principal(QuadInt(1, 1))

    def test_hnf_uniqueness_random(self):
        for entry in QUADRATIC:
            order = entry.dom
            for g in dict.fromkeys(a for a, _ in entry.instances() if not a.is_zero):
                ideal, other = order.principal(g), order.principal(-g)
                assert ideal == other and hash(ideal) == hash(other), (entry, g)


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

    def test_closure_invariant_random(self):
        w = QuadInt(0, 1)
        for entry in QUADRATIC:
            order = entry.dom
            for ideal in dict.fromkeys(n for _, n in entry.instances()):
                for basis in (QuadInt(ideal.a, 0), QuadInt(ideal.b, ideal.c)):
                    assert ideal.contains(order.mul(w, basis)), (entry, ideal)


@pytest.mark.parametrize("d", [-1, -2, -3, -5, -6, -7, -10, -11, -15, -23])
def test_ideal_mul_matches_the_eight_vector_product(d):
    order = QuadOrder(d)
    rng = random.Random(105 - d)

    def ideal():
        gens = [QuadInt(rng.randint(-15, 15), rng.randint(-15, 15))
                for _ in range(rng.randint(1, 2))]
        if all(g.is_zero for g in gens):
            gens.append(QuadInt(1, 1))
        return order.ideal_from_generators(gens)

    for _ in range(120):
        m, n = ideal(), ideal()
        got = order.ideal_mul(m, n)
        assert got == reference_ideal_mul(order, m, n)
        assert got.norm == m.norm * n.norm
        assert got == order.ideal_mul(n, m)


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

    @pytest.mark.parametrize("d", [-1, -2, -3, -5, -6, -7, -10, -11, -15])
    def test_hnf_rule_matches_the_power_search(self, d):
        # every prime above 2..13 to the powers 1..3 times c in (1, 2, 3, 6),
        # then seeded products of a principal ideal, such prime powers and an
        # integer: non-principal primes where the class number is 2, ideals
        # with c > 1, ramified squares, 2 split (d = -7, -15) and inert
        # (d = -3, -11)
        order, rng = QuadOrder(d), random.Random(d)
        primes = [q for p in (2, 3, 5, 7, 11, 13) for q in order.rational_prime_splitting(p)[1]]
        ideals = [order.ideal_mul(order.ideal_pow(q, e), order.principal(QuadInt(c, 0)))
                  for q in primes for e in (1, 2, 3) for c in (1, 2, 3, 6)]
        while len(ideals) < 490:
            ideal = order.principal(QuadInt(rng.randint(1, 12), rng.randint(-12, 12)))
            for _ in range(rng.randint(0, 3)):
                ideal = order.ideal_mul(ideal, order.ideal_pow(rng.choice(primes),
                                                               rng.randint(1, 3)))
            ideal = order.ideal_mul(ideal, order.principal(QuadInt(rng.choice((1, 1, 2, 4, 15)), 0)))
            if ideal.norm < 10**8:
                ideals.append(ideal)
        for ideal in ideals:
            assert order.factor(ideal) == power_search_factor(order, ideal), ideal
        kinds = {p: order.rational_prime_splitting(p)[0] for p in (2, 3, 5, 7, 11, 13)}
        assert kinds[2] is {-7: SplitType.SPLIT, -15: SplitType.SPLIT, -3: SplitType.INERT,
                            -11: SplitType.INERT}.get(d, SplitType.RAMIFIED)
        assert any(ideal.c > 1 for ideal in ideals)
        assert any(kind is SplitType.RAMIFIED for kind in kinds.values())
        assert any(not is_principal(order, q) for q in primes) == (d in (-5, -6, -10, -15))


class TestQuotientRing:
    def test_reduce_examples(self):
        six = Z5.principal(QuadInt(6, 0))
        assert Z5.reduce(QuadInt(7, 8), six) == QuadInt(1, 2)
        p1 = Z5.ideal_from_generators([QuadInt(2, 0), QuadInt(1, 1)])
        assert Z5.reduce(QuadInt(1, 1), p1) == QuadInt(0, 0)


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
