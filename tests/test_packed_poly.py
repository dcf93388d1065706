"""Packed prime-field polynomial arithmetic against the list loops it replaced.

`list_mul` and `list_divmod` keep the earlier `F.k == 1` bodies of
`Poly.__mul__` and `Poly.__divmod__` (a coefficient double loop, reduced mod
p once at the end or when a digit is read) as test-only references, and
`list_gcd` runs Euclid's loop over `list_divmod` as the packed gcd's.  The
primes are chosen so that every slot width is used: one byte (p = 2, 3, 5,
7 at low degree), two (p = 17, and p = 2, 3 past the byte bound), four
(p = 1009), eight (p = 65537) and the general width past eight bytes
(p = 2^32 + 15).
"""

import random
import time

import pytest

from amap.base import ZeroIdealError, power
from amap.dynamics import predicted_graph
from amap.finitefield import field
from amap.polynomials import Poly, PolyDomain, factor_poly, is_irreducible

PRIMES = (2, 3, 5, 7, 17, 1009, 65537, 2**32 + 15)
# degrees at and around the byte bounds (p = 3: 62, p = 2: 254) and up to 300
DEGREES = (-1, 0, 1, 2, 5, 13, 31, 32, 62, 63, 100, 127, 128, 254, 255, 300)


def list_mul(a: Poly, b: Poly) -> Poly:
    F = a.field
    x, y = a.coeffs, b.coeffs
    if not x or not y:
        return Poly(F)
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y, i):
                out[j] += xi * yj
    p = F.p
    return Poly(F, [c % p for c in out])


def list_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    F = a.field
    rem = list(a.coeffs)
    dv = b.coeffs
    dd = len(dv) - 1
    inv_lead = 1 if dv[-1] == 1 else F.inv(dv[-1])
    quot = [0] * max(len(rem) - dd, 0)
    p = F.p
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] % p
        if c:
            q = c if inv_lead == 1 else c * inv_lead % p
            quot[i - dd] = q
            for j, dj in enumerate(dv, i - dd):
                rem[j] -= q * dj
    return Poly(F, quot), Poly(F, [c % p for c in rem])


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


@pytest.mark.parametrize("p", PRIMES)
def test_products_equal_the_list_loop(p):
    F = field(p)
    rng = random.Random(p)
    for da in DEGREES:
        for db in DEGREES[::3] + (da,):
            for make in (_poly, _dense):
                a, b = make(rng, F, da), make(rng, F, db)
                assert a * b == list_mul(a, b), (p, da, db)


@pytest.mark.parametrize("p", PRIMES)
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


@pytest.mark.parametrize("p", PRIMES)
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


@pytest.mark.parametrize("p", PRIMES)
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


@pytest.mark.parametrize("p", PRIMES)
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
    product = Poly.one(F)
    for g, e in factors:
        product = product * g**e
    assert product == f
    assert all(is_irreducible(g) for g, _ in factors)
    assert elapsed < 1.0, elapsed
