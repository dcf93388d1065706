"""The arithmetic layer against the code it replaced, and its contracts.

`digit_mul` keeps the earlier digit-vector product of odd-characteristic
extension fields (`finitefield._fp_mul` and `_fp_mod`) unchanged, as a
test-only reference: it multiplies base-p digit lists and reduces them by
the monic modulus, where the library now multiplies `Poly` values over F_p.
`full_scan` keeps the earlier body of `polynomials.irreducibles`, which also
tests every multiple of x.
"""

import dataclasses
import itertools
import math
import random
import time

import pytest

from amap.finitefield import GF, field
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain, irreducibles, is_irreducible
from amap.quadorder import QuadInt, QuadOrder


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(out)


def _fp_mod(a: list[int], m: list[int], p: int) -> list[int]:
    # m monic
    a = a[:]
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for j in range(dm + 1):
                a[shift + j] = (a[shift + j] - c * m[j]) % p
        a.pop()
    return _fp_trim(a)


def digit_mul(F: GF, a: int, b: int) -> int:
    prod = _fp_mul(list(F.decode(a)), list(F.decode(b)), F.p)
    prod = _fp_mod(prod, list(F.modulus), F.p)
    return F.encode(prod + [0] * (F.k - len(prod)))


def digit_pow(F: GF, a: int, e: int) -> int:
    out = 1
    for _ in range(e):
        out = digit_mul(F, out, a)
    return out


def full_scan(F: GF, degree: int) -> list[Poly]:
    return [f for f in (Poly(F, list(tail) + [1])
                        for tail in itertools.product(range(F.q), repeat=degree))
            if is_irreducible(f)]


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


def poly_mul(F: GF, a: int, b: int) -> int:
    """The direct product: a Poly product over F_p reduced by the modulus."""
    fp = field(F.p)
    prod = Poly(fp, F.decode(a)) * Poly(fp, F.decode(b)) % Poly(fp, F.modulus)
    return F.encode(prod.coeffs + (0,) * (F.k - len(prod.coeffs)))


def digit_sum(F: GF, a: int, b: int, sign: int = 1) -> int:
    return F.encode(x + sign * y for x, y in zip(F.decode(a), F.decode(b)))


class TestLogTables:
    """The table-backed list ops of extension fields against the direct
    product, `digit_mul` and digitwise sums; never against a scalar op that
    reads the same tables."""

    ALL_PAIRS = [(2, 3), (2, 7), (3, 2), (3, 5), (5, 3), (7, 2)]
    SEEDED = [(2, 10), (3, 7), (5, 4)]

    @staticmethod
    def pairs(F: GF) -> list[tuple[int, int]]:
        if F.q <= 243:
            return [(a, b) for a in F.elements() for b in F.elements()]
        rng = random.Random(F.q)
        return [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(3000)]

    @pytest.mark.parametrize("p,k", ALL_PAIRS + SEEDED)
    def test_list_ops_match_references(self, p, k):
        F = GF(p, k)
        pairs = self.pairs(F)
        xs, ys = [a for a, _ in pairs], [b for _, b in pairs]
        products = F.mul_all(xs, ys)
        assert products == [digit_mul(F, a, b) for a, b in pairs]
        assert products == [poly_mul(F, a, b) for a, b in pairs]
        assert F.add_all(xs, ys) == [digit_sum(F, a, b) for a, b in pairs]
        assert F.sub_all(xs, ys) == [digit_sum(F, a, b, -1) for a, b in pairs]

    @pytest.mark.parametrize("p,k", ALL_PAIRS + SEEDED)
    def test_exp_is_a_bijection_onto_the_nonzero_codes(self, p, k):
        F = GF(p, k)
        exp, log, _, _ = F._table_set()
        assert sorted(exp) == list(range(1, F.q))
        g = exp[1]
        assert all(exp[i] == poly_mul(F, exp[i - 1], g) for i in range(1, F.q - 1))
        assert all(log[x] == i for i, x in enumerate(exp))

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


Z = IntegerDomain()
F2X = PolyDomain(field(2))
F3X = PolyDomain(field(3))
ZI = QuadOrder(-1)
ZS5 = QuadOrder(-5)


def _seeded_ideals(dom, rng):
    if dom is Z:
        return [rng.randrange(1, 5000) for _ in range(40)]
    if isinstance(dom, PolyDomain):
        q = dom.field.q
        return [Poly(dom.field, [rng.randrange(q) for _ in range(rng.randrange(1, 9))] + [1])
                for _ in range(40)]
    # two generators, so non-principal ideals occur in Z[sqrt(-5)]
    return [dom.ideal_from_generators([QuadInt(rng.randrange(1, 60), 0),
                                       QuadInt(rng.randrange(-30, 31), rng.randrange(1, 31))])
            for _ in range(40)]


@pytest.mark.parametrize("dom", [Z, F2X, F3X, ZI, ZS5], ids=repr)
def test_factor_contract(dom):
    rng = random.Random(606)
    for n in _seeded_ideals(dom, rng):
        fac = dom.factor(n)
        assert isinstance(fac, list)
        for prime, e in fac:
            assert type(e) is int and e >= 1
            assert dom.factor(prime) == [(prime, 1)]
        keys = [dom._ideal_key(prime) for prime, _ in fac]
        assert keys == sorted(keys) and len(set(map(repr, keys))) == len(keys)
        product = dom.unit_ideal
        for prime, e in fac:
            product = dom.ideal_mul(product, dom.ideal_pow(prime, e))
        assert product == n
        assert dom.norm(n) == math.prod(dom.norm(prime) ** e for prime, e in fac)


def test_quad_ideal_is_frozen():
    ideal = ZS5.principal(QuadInt(2, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ideal.a = 3
    assert ideal == ZS5.principal(QuadInt(2, 1))
    assert len({ideal, ZS5.principal(QuadInt(2, 1))}) == 1


@pytest.mark.parametrize("F,degrees", [(field(2), range(1, 9)), (field(3), range(1, 6)),
                                       (field(5), range(1, 4)), (field(2, 2), range(1, 4))],
                         ids=repr)
def test_irreducibles_match_full_scan(F, degrees):
    for d in degrees:
        assert list(irreducibles(F, d)) == full_scan(F, d), d
    assert next(irreducibles(F, 1)) == Poly.x(F)
    assert list(irreducibles(F, 0)) == full_scan(F, 0) == []


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
