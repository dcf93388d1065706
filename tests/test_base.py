"""Operations derived once in amap.base: power, unit ideal, domain identity."""

import pytest

from amap.base import power
from amap.dynamics import nu_series
from amap.finitefield import GF, field
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain
from amap.quadorder import QuadInt, QuadOrder
from amap.trees import LEAF, elementary_tree

EXPONENTS = range(41)


def repeated(x, e, mul, one):
    out = one
    for _ in range(e):
        out = mul(out, x)
    return out


class TestPower:
    def test_at_most_e_products(self):
        for e in range(200):
            count = [0]

            def mul(u, v):
                count[0] += 1
                return u * v
            assert power(3, e, mul, 1) == 3**e
            assert count[0] <= e, e

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            power(2, -1, lambda u, v: u * v, 1)

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 3), (3, 2),
                                     (5, 2), (2, 7), (3, 4)])
    def test_field_pow(self, p, k):
        F = GF(p, k)
        elements = list(F.elements())[:40]
        for a in elements:
            for e in EXPONENTS:
                assert F.pow(a, e) == repeated(a, e, F.mul, 1), (a, e)

    @pytest.mark.parametrize("p", [2, 3])
    def test_poly_pow(self, p):
        F = field(p)
        f = Poly(F, (1, 1, 0, 1))
        modulus = Poly(F, (1, 0, 1, 0, 0, 1))
        one = Poly.one(F)
        for e in EXPONENTS:
            assert f**e == repeated(f, e, lambda u, v: u * v, one), e
            assert f.pow_mod(e, modulus) == repeated(
                f, e, lambda u, v: (u * v) % modulus, one), e

    @pytest.mark.parametrize("d", [-1, -3, -5])
    def test_pow_element(self, d):
        order = QuadOrder(d)
        z = QuadInt(2, -1)
        for e in EXPONENTS:
            assert order.pow_element(z, e) == repeated(z, e, order.mul, QuadInt(1, 0))

    def test_ideal_pow_in_every_domain(self):
        Z5 = QuadOrder(-5)
        F2 = field(2)
        cases = [(IntegerDomain(), 6),
                 (PolyDomain(F2), Poly(F2, (1, 1))),
                 (Z5, Z5.ideal_from_generators([QuadInt(2, 0), QuadInt(1, 1)]))]
        for dom, p in cases:
            for e in EXPONENTS:
                assert dom.ideal_pow(p, e) == repeated(
                    p, e, dom.ideal_mul, dom.unit_ideal), (dom, e)


class TestDerivedIdentity:
    def test_unit_ideal_values(self):
        assert IntegerDomain().unit_ideal == 1
        for F in (field(2), field(3, 2)):
            unit = PolyDomain(F).unit_ideal
            assert unit == Poly.one(F) and unit.coeffs == (1,)
        for d in (-1, -3, -5):
            unit = QuadOrder(d).unit_ideal
            assert unit.d == d and unit.hnf == ((1, 0), (0, 1))

    def test_unit_ideal_has_empty_nu_series(self):
        F3 = field(3)
        for dom, a in ((IntegerDomain(), 6), (PolyDomain(F3), Poly(F3, (0, 1))),
                       (QuadOrder(-5), QuadInt(1, 1))):
            series = nu_series(dom, a, dom.unit_ideal)
            assert series == ()
            assert elementary_tree(series) is LEAF

    def test_domain_equality_follows_json_tag(self):
        domains = [IntegerDomain(), IntegerDomain(),
                   PolyDomain(GF(2, 2)), PolyDomain(field(2, 2)),
                   PolyDomain(field(2)), PolyDomain(field(3)),
                   PolyDomain(field(3, 2)), PolyDomain(GF(3, 2, (2, 1, 1))),
                   QuadOrder(-1), QuadOrder(-1), QuadOrder(-5)]
        for x in domains:
            for y in domains:
                same = x.domain_json() == y.domain_json()
                assert (x == y) is same, (x, y)
                if same:
                    assert hash(x) == hash(y), (x, y)
        assert PolyDomain(GF(2, 2)) == PolyDomain(field(2, 2))
        assert QuadOrder(-1) != QuadOrder(-5)
        assert PolyDomain(field(3, 2)) != PolyDomain(GF(3, 2, (2, 1, 1)))
        assert IntegerDomain() != {"kind": "Z"}
        assert len(set(domains)) == 8

    def test_divisor_order_matches_the_old_per_domain_keys(self):
        Z5 = QuadOrder(-5)
        n = Z5.principal(QuadInt(30, 0))
        assert Z5.divisors(n) == sorted(Z5.divisors(n),
                                        key=lambda m: (m.norm, m.a, m.b, m.c))
        D = PolyDomain(field(3))
        f = Poly(field(3), (0, 2, 1, 1, 1, 0, 1))
        assert D.divisors(f) == sorted(D.divisors(f),
                                       key=lambda m: (D.norm(m), m.sort_key()))
        assert IntegerDomain().divisors(360) == sorted(IntegerDomain().divisors(360))
