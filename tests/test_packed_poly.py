"""Packed prime-field polynomial arithmetic against the list loops it replaced.

`references.list_mul` and `references.list_divmod` keep the earlier
`F.k == 1` bodies of `Poly.__mul__` and `Poly.__divmod__` (a coefficient
double loop, reduced mod p once at the end or when a digit is read) as
test-only references, and `list_gcd` runs Euclid's loop over `list_divmod`
as the packed gcd's; `pow_mod_distinct_degree` keeps the distinct-degree
loop with one gcd per degree and x^(q^d) powered by `Poly.pow_mod` modulo
each cofactor, the referee of the batched loop on Barrett residues.  The
factorizations of the seeded inputs run the factorization law,
`references.check_factorization`, whose referee of each factor is Rabin's
test.  The primes, `references.SLOT_PRIMES`, use every slot width: bits
under XOR (p = 2), one byte (3 <= p <= 13 at low degree, every row of the
byte table), two (p = 17, and p = 3 past the byte bound), four (p = 1009),
eight (p = 65537) and the general width past eight bytes (p = 2^32 + 15).
"""

import collections
import functools
import itertools
import operator
import random
import time

import pytest

from amap import polynomials
from amap.base import ZeroIdealError, power
from amap.dynamics import predicted_graph
from amap.finitefield import field
from amap.polynomials import Poly, PolyDomain, _distinct_degree, factor_poly, irreducibles
from references import (SLOT_PRIMES, check_factorization, list_divmod, list_mul,
                        rabin_is_irreducible)

# degrees at and around the byte bounds (p = 3: 62, p = 2: 254) and up to 300
DEGREES = (-1, 0, 1, 2, 5, 13, 31, 32, 62, 63, 100, 127, 128, 254, 255, 300)


def list_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero:
        a, b = b, list_divmod(a, b)[1]
    return a if a.is_zero else a.monic()


def list_pow_mod(a: Poly, e: int, m: Poly) -> Poly:
    return power(list_divmod(a, m)[1], e, lambda u, v: list_divmod(list_mul(u, v), m)[1],
                 Poly.one(a.field))


def _poly(rng, F, degree, monic=False):
    """A seeded polynomial of exactly this degree (-1 is zero), or monic."""
    if degree < 0:
        return Poly(F)
    lead = 1 if monic else rng.randrange(1, F.p)
    return Poly(F, [rng.randrange(F.p) for _ in range(degree)] + [lead])


def _dense(rng, F, degree):
    """All coefficients p - 1: every slot of a product at its largest."""
    return Poly(F, [F.p - 1] * (degree + 1)) if degree >= 0 else Poly(F)


@pytest.mark.parametrize("p", SLOT_PRIMES)
def test_products_equal_the_list_loop(p):
    F = field(p)
    rng = random.Random(p)
    for da in DEGREES:
        for db in DEGREES[::3] + (da,):
            for make in (_poly, _dense):
                a, b = make(rng, F, da), make(rng, F, db)
                assert a * b == list_mul(a, b), (p, da, db)


@pytest.mark.parametrize("p", SLOT_PRIMES)
def test_divisions_equal_the_list_loop(p):
    F = field(p)
    rng = random.Random(p + 1)
    for da in DEGREES:
        for dd in (0, 1, 13, 62, 63, 254, 300):
            for monic in (True, False):
                a = _poly(rng, F, da)
                b = _poly(rng, F, dd, monic)
                assert divmod(a, b) == list_divmod(a, b), (p, da, dd, monic)
                assert a % b == list_divmod(a, b)[1]
            # the dense dividend fills every slot before the first step
            a, b = _dense(rng, F, da), _dense(rng, F, dd)
            assert divmod(a, b) == list_divmod(a, b), (p, da, dd)


@pytest.mark.parametrize("p", SLOT_PRIMES)
def test_gcds_equal_the_list_euclid(p):
    # zero operands, equal degrees, long first quotients, and (300, 128),
    # whose first step needs wider slots than the rest for p >= 3
    F = field(p)
    rng = random.Random(p + 4)
    for da in DEGREES:
        for db in (-1, 0, 13) + (da,) * (da <= 100) + (128,) * (da == 300):
            a, b = _poly(rng, F, da), _poly(rng, F, db)  # not monic for odd p
            assert a.gcd(b) == list_gcd(a, b) == b.gcd(a), (p, da, db)
            if 0 <= da <= 62 and db >= 0:  # and with a common factor
                g = _poly(rng, F, rng.randrange(8))
                a, b = list_mul(a, g), list_mul(b, g)
                assert a.gcd(b) == list_gcd(a, b), (p, da, db)


@pytest.mark.parametrize("p", SLOT_PRIMES)
def test_modular_products_equal_the_list_loops(p):
    F = field(p)
    D = PolyDomain(F)
    rng = random.Random(p + 2)
    for dd in (0, 1, 2, 9, 14, 31, 32, 62, 128, 300):
        for monic in (True, False):
            n = _poly(rng, F, dd, monic)
            for da, db in ((-1, dd - 1), (dd - 1, -1), (dd - 1, dd - 1), (0, dd - 1),
                           (dd + 3, dd - 1), (2 * dd, 2 * dd)):
                a, b = _poly(rng, F, da), _poly(rng, F, db)
                want = list_divmod(list_mul(a, b), n)[1]
                assert D.mul_mod(a, b, n) == want, (p, dd, da, db, monic)
            a, b = _dense(rng, F, dd - 1), _dense(rng, F, dd - 1)
            assert D.mul_mod(a, b, n) == list_divmod(list_mul(a, b), n)[1], (p, dd)


@pytest.mark.parametrize("p", SLOT_PRIMES)
def test_modular_powers_equal_the_list_loops(p):
    F = field(p)
    rng = random.Random(p + 3)
    for dd in (1, 2, 14, 40):
        n = _poly(rng, F, dd, monic=dd % 2 == 0)
        for e in (0, 1, 2, 3, p, 1000, rng.randrange(10**6)):
            a = _poly(rng, F, rng.randrange(-1, 2 * dd))
            assert a.pow_mod(e, n) == list_pow_mod(a, e, n), (p, dd, e)


def test_modular_products_refuse_bad_moduli_and_mixed_fields():
    F2, F3 = field(2), field(3)
    D = PolyDomain(F2)
    x = Poly.x(F2)
    with pytest.raises(ZeroIdealError):
        D.mul_mod(x, x, Poly(F2))
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        D.mul_mod(x, Poly.x(F3), Poly(F2, (1, 1)))
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        D.mul_mod(x, x, Poly(F3, (1, 1)))


def test_poly_refuses_codes_outside_the_field():
    # a code is an int in [0, q); GF.check_codes names the first offender
    with pytest.raises(ValueError, match="^-1 is not a field element code in \\[0, 3\\)"):
        Poly(field(3), [-1, 0, 1])
    with pytest.raises(ValueError, match="^3 is not a field element code"):
        Poly(field(3), [0, 3, 1, 0])
    F4 = field(2, 2)
    with pytest.raises(ValueError, match="^7 is not a field element code in \\[0, 4\\)"):
        predicted_graph(PolyDomain(F4), Poly(F4, [7, 1]), Poly(F4, [1, 0, 1]))
    # trailing zeros are stripped, and a valid code is kept as it is
    assert Poly(field(3), [2, 0, 1, 0, 0]).coeffs == (2, 0, 1)
    assert Poly(F4, [3, 2]).coeffs == (3, 2)


def test_degree_400_factorization_round_trips_in_under_a_second():
    F = field(2)
    rng = random.Random(400)
    f = Poly(F, [rng.randrange(2) for _ in range(400)] + [1])
    start = time.process_time()
    factors = factor_poly(f)
    elapsed = time.process_time() - start
    check_factorization(PolyDomain(F), f, factors)
    assert elapsed < 1.0, elapsed


def pow_mod_distinct_degree(f: Poly):
    """The earlier body of `_distinct_degree`: x^(q^d) by `Poly.pow_mod`
    modulo the cofactor g not yet split off, and one gcd per degree."""
    F = f.field
    h = x = Poly.x(F)
    g = f
    d = 0
    while g.degree > 2 * (d + 1) - 1 and g.degree > 0:
        d += 1
        h = h.pow_mod(F.q, g)
        common = g.gcd(h - x)
        if common.degree > 0:
            yield common, d
            g = g // common
            h = h % g
    if g.degree > 0:
        yield g, g.degree


def _factoring_inputs(p):
    """Seeded polynomials, squares, seeded irreducibles from `irreducibles`,
    their cubes and products of equal-degree irreducibles (not squarefree,
    as `is_irreducible` passes any f), and x^n - 1.  Degrees reach both
    sides of the one-byte bound of p <= 5 (F_2 at 254, F_3 at 62, F_5 at
    15), where the distinct-degree loop switches path; at p >= 17 every slot
    is wide and a referee step costs log p products, so degrees stay lower."""
    F = field(p)
    rng = random.Random(p)
    top = {2: 400, 3: 100, 5: 40}.get(p, 30 if p < 100 else 20)
    degrees = [d for d in (0, 1, 2, 3, 5, 8, 13, 15, 16, 20, 31, 62, 64, 100, 127, 200, 255, 256, 400)
               if d <= top]
    inputs = [_poly(rng, F, d, monic=True) for d in degrees]
    inputs += [g * g for g in (_poly(rng, F, d, monic=True) for d in degrees if 2 * d <= top)]
    for d in range(1, 7 if p == 2 else 5 if p < 100 else 4):
        if p < 2**20:
            irr = list(itertools.islice(irreducibles(F, d), 12))
        else:  # `irreducibles` would list every digit of every position up front
            irr = [g for g in (_poly(rng, F, d, monic=True) for _ in range(40))
                   if rabin_is_irreducible(g)]
        picked = rng.sample(irr, min(3, len(irr)))
        inputs += picked + [picked[0] ** 3, functools.reduce(operator.mul, picked)]
        if d * len(irr) <= top:
            inputs.append(functools.reduce(operator.mul, irr))
    inputs += [Poly.x_pow_minus_one(F, n) for n in range(1, min(top, 64) + 1)]
    return inputs


@pytest.mark.parametrize("p", SLOT_PRIMES)
def test_distinct_degree_equals_the_pow_mod_loop(p):
    # one batched gcd and Frobenius steps on Barrett residues mod f (one-byte
    # slots and F_2) or the powers mod each cofactor (wider slots), against
    # the powers mod each cofactor with one gcd per degree
    for f in _factoring_inputs(p):
        assert list(_distinct_degree(f)) == list(pow_mod_distinct_degree(f)), f


@pytest.mark.parametrize("p", SLOT_PRIMES)
def test_factorizations_round_trip(p):
    # the seeded inputs, and seeded f that are not monic
    F = field(p)
    D = PolyDomain(F)
    rng = random.Random(p + 5)
    for f in _factoring_inputs(p) + [_poly(rng, F, d) for d in (1, 9, 30)]:
        if f.degree >= 1:
            check_factorization(D, f, D.factor(f))


def test_f2_path_stays_off_the_byte_table(monkeypatch):
    # over F_2 a division is XOR long division, a gcd step an XOR and a
    # Barrett product masked: none of them divides by digits or normalizes,
    # at one-byte slots (degree 13) and two-byte ones (degree 300, the
    # products of `mul_mod` and Barrett); factoring sets up one Barrett
    # pair per input of the distinct-degree loop
    calls = collections.Counter()
    inputs, moduli = [], []

    def counted(name, log=None):
        real = getattr(polynomials, name)

        def wrapper(*args):
            calls[name] += 1
            if log is not None:
                log.append(args[-1])
            return real(*args)
        monkeypatch.setattr(polynomials, name, wrapper)

    counted("_divide")
    counted("_normalize")
    counted("_distinct_degree", inputs)
    product_mod = PolyDomain._product_mod
    monkeypatch.setattr(PolyDomain, "_product_mod",
                        lambda self, n: moduli.append(n) or product_mod(self, n))
    F = field(2)
    D = PolyDomain(F)
    rng = random.Random(3)
    for d in (1, 13, 200, 300):
        a, b, n = _poly(rng, F, d), _poly(rng, F, d - 1), _poly(rng, F, d + 1)
        ab = list_mul(a, b)
        quot, rem = list_divmod(ab, n)
        assert a.gcd(b) == list_gcd(a, b)
        assert divmod(ab, n) == (quot, rem) and divmod(a, b) == list_divmod(a, b)
        assert ab % n == rem == D.mul_mod(a, b, n)
        lift, mul = D._product_mod(n)
        assert mul(lift(a), lift(b)) == lift(rem)
        assert not calls, (d, calls)
    for f in (_poly(rng, F, 400), Poly.x_pow_minus_one(F, 63), _poly(rng, F, 30) ** 4):
        inputs.clear()
        moduli.clear()
        factor_poly(f)
        assert moduli == [g for g in inputs if g.degree > 1] != [], f


@pytest.mark.parametrize("p", (2, 3, 5))
def test_an_irreducible_input_takes_one_gcd(monkeypatch, p):
    # x^(p^d) - x for every d <= deg f / 2 meet f in one batched gcd, which
    # is 1 for an irreducible f; the per-degree gcds never run.  One-byte
    # slots reach degree 62 over F_3 and 15 over F_5, F_2 any degree.
    F = field(p)
    gcds = []
    gcd = Poly.gcd
    monkeypatch.setattr(Poly, "gcd", lambda self, other: gcds.append(self) or gcd(self, other))
    for d in {2: (4, 13, 100, 300), 3: (4, 9, 62), 5: (4, 9, 15)}[p]:
        f = next(irreducibles(F, d))
        gcds.clear()
        assert list(_distinct_degree(f)) == [(f, d)]
        assert gcds == [f], (p, d, len(gcds))
