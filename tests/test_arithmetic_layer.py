"""Extension-field arithmetic against the code it replaced, and the
arithmetic layer's contracts.

`digit_mul` is the product of extension fields by the test-only list loops
over F_p (`references.list_mul` and `list_divmod`): it multiplies the two
base-p digit vectors and reduces them by the monic modulus, with no library
product; it is the one referee of `GF.mul` and the log tables.  Over prime
fields the list ops are held to plain `% p`.  The factorization law is
`test_domain_contract.test_factorization_law`, and the lists of
`polynomials.irreducibles` are refereed by Rabin's test in
`test_hnf_and_irreducibility`.
"""

import dataclasses
import random
import time

import pytest

from amap.finitefield import GF, field
from amap.polynomials import Poly, irreducibles
from amap.quadorder import QuadInt, QuadOrder
from references import list_divmod, list_mul


def digit_mul(F: GF, a: int, b: int) -> int:
    fp = field(F.p)
    prod = list_divmod(list_mul(Poly(fp, F.decode(a)), Poly(fp, F.decode(b))),
                       Poly(fp, F.modulus))[1]
    return F.encode(prod.coeffs + (0,) * (F.k - len(prod.coeffs)))


def digit_pow(F: GF, a: int, e: int) -> int:
    out = 1
    for _ in range(e):
        out = digit_mul(F, out, a)
    return out


def held(F: GF) -> dict:
    return {slot: repr(getattr(F, slot)) for slot in GF.__slots__}


class TestOddExtensionProducts:
    @pytest.mark.parametrize("p,k", [(3, 3), (5, 2), (7, 2)])
    def test_all_pairs_and_tables(self, p, k):
        F = field(p, k)
        pairs = [(a, b) for a in F.elements() for b in F.elements()]
        want = [digit_mul(F, a, b) for a, b in pairs]
        assert [F.mul(a, b) for a, b in pairs] == want
        assert F.mul_all([a for a, _ in pairs], [b for _, b in pairs]) == want
        inv = F.inverse_table()
        for a in range(1, F.q):
            assert F.inv(a) == inv[a] == digit_pow(F, a, F.q - 2), a
            assert digit_mul(F, a, F.inv(a)) == 1, a

    @pytest.mark.parametrize("p,k", [(3, 5), (3, 6), (5, 4), (7, 3), (11, 2)])
    def test_seeded_pairs(self, p, k):
        F = GF(p, k)  # fresh, so a table would show; the Poly path builds none
        before = held(F)
        rng = random.Random(p * 100 + k)
        for _ in range(300):
            a, b = rng.randrange(F.q), rng.randrange(F.q)
            assert F.mul(a, b) == digit_mul(F, a, b), (a, b)
        for _ in range(20):
            a, e = rng.randrange(1, F.q), rng.randrange(40)
            assert F.pow(a, e) == digit_pow(F, a, e), (a, e)
            assert digit_mul(F, a, F.inv(a)) == 1, a
        assert held(F) == before


def digit_sum(F: GF, a: int, b: int, sign: int = 1) -> int:
    return F.encode(x + sign * y for x, y in zip(F.decode(a), F.decode(b)))


class TestLogTables:
    """The list ops against `digit_mul` and digitwise sums over extension
    fields, where they read the tables, and against plain `% p` over prime
    fields; never against a scalar op of the library."""

    ALL_PAIRS = [(2, 3), (2, 7), (3, 2), (3, 5), (5, 3), (7, 2)]
    SEEDED = [(2, 10), (3, 7), (5, 4)]
    PRIME = [(7, 1), (1009, 1)]

    @staticmethod
    def pairs(F: GF) -> list[tuple[int, int]]:
        if F.q <= 243:
            return [(a, b) for a in F.elements() for b in F.elements()]
        rng = random.Random(F.q)
        return [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(3000)]

    @pytest.mark.parametrize("p,k", ALL_PAIRS + SEEDED + PRIME)
    def test_list_ops_match_references(self, p, k):
        F = GF(p, k)
        pairs = self.pairs(F)
        xs, ys = [a for a, _ in pairs], [b for _, b in pairs]
        if k == 1:
            assert F.mul_all(xs, ys) == [a * b % p for a, b in pairs]
            assert F.add_all(xs, ys) == [(a + b) % p for a, b in pairs]
            assert F.sub_all(xs, ys) == [(a - b) % p for a, b in pairs]
            return
        assert F.mul_all(xs, ys) == [digit_mul(F, a, b) for a, b in pairs]
        assert F.add_all(xs, ys) == [digit_sum(F, a, b) for a, b in pairs]
        assert F.sub_all(xs, ys) == [digit_sum(F, a, b, -1) for a, b in pairs]

    @pytest.mark.parametrize("p,k", ALL_PAIRS + SEEDED)
    def test_exp_is_a_bijection_onto_the_nonzero_codes(self, p, k):
        F = GF(p, k)
        exp, log, _ = F._table_set()
        assert sorted(exp) == list(range(1, F.q))
        g = exp[1]
        assert all(exp[i] == digit_mul(F, exp[i - 1], g) for i in range(1, F.q - 1))
        assert all(log[x] == i for i, x in enumerate(exp))

    @pytest.mark.parametrize("p,k", [(3, 4), (3, 5), (5, 3), (7, 3), (2, 7)])
    def test_no_table_has_more_than_q_entries(self, p, k):
        # a digitwise-sum table on half the digits has p*q entries at odd k
        F = GF(p, k)
        tables = [t for t in F._table_set() if t is not None]
        assert [len(t) for t in tables if len(t) > F.q] == []
        assert len(tables) == (2 if p == 2 else 3)

    @pytest.mark.parametrize("p,k", [(p, k) for p, k in ALL_PAIRS + SEEDED if p > 2])
    def test_zech_is_the_log_of_one_plus_exp(self, p, k):
        F = GF(p, k)
        exp, log, zech = F._table_set()
        assert len(zech) == F.q - 1
        for i, v in enumerate(exp):
            assert zech[i] == log[digit_sum(F, 1, v)]
            assert (zech[i] == 0) == (v == p - 1)  # 0 marks 1 + g^i = 0 only

    @pytest.mark.parametrize("p,k", ALL_PAIRS + SEEDED)
    def test_zero_cases(self, p, k):
        F = GF(p, k)
        xs = list(F.elements())
        zeros = [0] * F.q
        negatives = [digit_sum(F, 0, x, -1) for x in xs]
        assert F.mul_all(zeros, xs) == F.mul_all(xs, zeros) == zeros
        assert F.add_all(xs, negatives) == F.sub_all(xs, xs) == zeros
        assert F.sub_all(zeros, xs) == negatives
        assert F.add_all(xs, zeros) == F.sub_all(xs, zeros) == xs

    @pytest.mark.parametrize("p,k", ALL_PAIRS + SEEDED)
    def test_inverse_and_power_tables(self, p, k):
        F = GF(p, k)
        inv = F.inverse_table()
        assert len(inv) == F.q and inv[0] == 0
        assert all(digit_mul(F, x, inv[x]) == 1 for x in range(1, F.q))


def test_quad_ideal_is_frozen():
    ZS5 = QuadOrder(-5)
    ideal = ZS5.principal(QuadInt(2, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ideal.a = 3
    assert ideal == ZS5.principal(QuadInt(2, 1))
    assert len({ideal, ZS5.principal(QuadInt(2, 1))}) == 1


def test_irreducibles_degree_20_is_fast():
    start = time.perf_counter()
    first = next(irreducibles(field(2), 20))
    assert time.perf_counter() - start < 1.0
    assert first.coeffs == GF(2, 20).modulus


@pytest.mark.parametrize("F", [field(2), field(3), field(5), field(2, 2), field(3, 2)],
                         ids=repr)
def test_derivative_matches_repeated_addition(F):
    rng = random.Random(F.q)
    for _ in range(30):
        f = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(12))])
        terms = []
        for i, c in enumerate(f.coeffs[1:], start=1):
            s = 0
            for _ in range(i):
                s = F.add(s, c)
            terms.append(s)
        assert f.derivative() == Poly(F, terms)
