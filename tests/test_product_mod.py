"""The order search's residue products against `mul_mod`.

`Domain._product_mod(n)` hands `_order` a (lift, mul) pair: lift(a) is the
residue of a mod n in a form whose == is equality mod n, and mul multiplies
two such residues.  Each domain's pair is checked against `reduce` and
`mul_mod` on seeded elements: Z, F_q[x] over prime fields of every slot width
(Barrett products) and over F_2 on both sides of its byte bound, over F_4 and
F_9 (the default pair), Z[i] with HNFs {a, b + c*w} for c = 1 and c > 1,
Z[sqrt(-5)] at non-principal primes, the unit ideal and degree-1 moduli.
"""

import random

import pytest

from amap.base import power
from amap.finitefield import field
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain, _slot_width
from amap.quadorder import QuadInt, QuadOrder

# one-byte slots (p = 2, 3, 5, 13 at low degree), then 2, 4, 8 and 16 bytes
PRIMES = (2, 3, 5, 13, 17, 1009, 65537, 2**32 + 15)
DEGREES = (0, 1, 2, 3, 9, 14, 31, 63)


def assert_products_agree(dom, n, elements, rng, pairs=20):
    lift, mul = dom._product_mod(n)
    one = lift(dom.one_element)
    residues = [dom.reduce(x, n) for x in elements]
    for x, r in zip(elements, residues):
        assert lift(x) == lift(r), (n, x)
    for _ in range(pairs):
        (x, r), (y, s) = rng.sample(list(zip(elements, residues)), 2)
        assert (lift(x) == lift(y)) == (r == s), (n, x, y)
        assert mul(lift(x), lift(y)) == lift(dom.mul_mod(x, y, n)), (n, x, y)
    # a product's residue is a factor again: powers agree with mul_mod's
    x, e = rng.choice(elements), rng.randrange(2, 500)
    want = power(dom.reduce(x, n), e, lambda u, v: dom.mul_mod(u, v, n),
                 dom.reduce(dom.one_element, n))
    assert power(lift(x), e, mul, one) == lift(want), (n, x, e)


def test_integers():
    Z, rng = IntegerDomain(), random.Random(1)
    for n in (1, 2, 7, 97, 2**20, 10**12 + 39, rng.randrange(2, 10**30)):
        elements = [0, 1, -1, n, -n, n + 1] + [rng.randrange(-n * n, n * n + 1) for _ in range(12)]
        assert_products_agree(Z, n, elements, rng)


def _poly(rng, F, degree):
    return Poly(F, [rng.randrange(F.q) for _ in range(degree)] + [rng.randrange(1, F.q)])


@pytest.mark.parametrize("p", PRIMES)
def test_prime_field_polynomials(p):
    F = field(p)
    D, rng = PolyDomain(F), random.Random(p)
    for d in DEGREES:
        n = _poly(rng, F, d)  # monic only when p = 2 or by chance
        elements = [Poly(F), D.one_element, n, Poly(F, (p - 1,) * max(d, 1))]
        elements += [_poly(rng, F, rng.randrange(max(d, 1))) for _ in range(10)]
        elements += [_poly(rng, F, rng.randrange(d, 2 * d + 4)) for _ in range(4)]
        assert_products_agree(D, n, elements, rng)


@pytest.mark.parametrize("d", [254, 255, 256, 300, 511])
def test_f2_products_around_the_byte_bound(d):
    # the parity mask at one-byte slots (d <= 255) and at two (d >= 256)
    F = field(2)
    D, rng = PolyDomain(F), random.Random(d)
    assert _slot_width(d, 2) == (1 if d < 256 else 2)
    for n in (_poly(rng, F, d), Poly(F, (1,) * (d + 1))):
        elements = [Poly(F), D.one_element, n] + [Poly(F, (1,) * k) for k in (d, d + 1, 2 * d)]
        elements += [_poly(rng, F, rng.randrange(d)) for _ in range(6)]
        elements += [_poly(rng, F, rng.randrange(d, 2 * d + 4)) for _ in range(4)]
        assert_products_agree(D, n, elements, rng)
        lift, mul = D._product_mod(n)
        dense = Poly(F, (1,) * d)  # its square has slot sums up to d, past one byte at d >= 256
        assert mul(lift(dense), lift(dense)) == lift(D.mul_mod(dense, dense, n)), n


def test_barrett_products_use_every_slot_width():
    assert {_slot_width(d, p) for p in PRIMES for d in DEGREES if d > 1} == {1, 2, 4, 8, 16}


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2)])
def test_extension_field_polynomials_keep_mul_mod(p, k):
    F = field(p, k)
    D, rng = PolyDomain(F), random.Random(p * k)
    for d in (0, 1, 2, 5):
        n = _poly(rng, F, d)
        elements = [Poly(F), D.one_element]
        elements += [_poly(rng, F, rng.randrange(2 * d + 2)) for _ in range(10)]
        assert_products_agree(D, n, elements, rng)


def _quad_elements(rng, n):
    big = 4 * n.norm
    return [QuadInt(0, 0), QuadInt(1, 0), QuadInt(0, 1), QuadInt(n.a, 0), QuadInt(n.b, n.c)] + [
        QuadInt(rng.randint(-big, big), rng.randint(-big, big)) for _ in range(12)]


@pytest.mark.parametrize("d", [-1, -5])
def test_quadratic_orders(d):
    order, rng = QuadOrder(d), random.Random(-d)
    primes = [q for p in (2, 3, 5, 7, 13) for q in order.rational_prime_splitting(p)[1]]
    moduli = [order.unit_ideal, *primes, *(order.ideal_pow(q, 3) for q in primes[:4]),
              order.principal(QuadInt(1009, 0)), order.principal(QuadInt(6, 4))]
    assert any(n.c == 1 and n.a > 1 for n in moduli) and any(n.c > 1 for n in moduli)
    if d == -5:  # x^2 + 5y^2 is never 2 or 3: the primes above them are not principal
        assert [q.norm for q in primes[:4]] == [2, 3, 3, 5]
    for n in moduli:
        assert_products_agree(order, n, _quad_elements(rng, n), rng)
