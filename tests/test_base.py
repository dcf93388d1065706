"""Operations derived once in amap.base: power, unit ideal, domain identity."""

import pytest

from amap.base import power
from amap.cli import _parse_domain
from amap.dynamics import nu_series
from amap.finitefield import GF, field
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain
from amap.quadorder import QuadInt, QuadOrder
from amap.trees import LEAF, elementary_tree
from domains import ENTRIES, divisors

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


class TestDerivedIdentity:
    def test_unit_ideal_values(self):
        for entry in ENTRIES.values():
            dom = entry.dom
            unit = dom.unit_ideal
            assert unit == dom.principal(dom.one_element), entry
            assert dom.describe_ideal(unit) in (1, [1], [[1, 0], [0, 1]]), entry
            assert dom.norm(unit) == 1 and dom.factor(unit) == [], entry
            for n in entry.moduli:
                assert dom.ideal_mul(unit, n) == n and dom.ideal_div(n, unit) == n, (entry, n)
                assert dom.ideal_gcd(unit, n) == unit and dom.ideal_pow(n, 0) == unit, (entry, n)

    def test_unit_ideal_has_empty_nu_series(self):
        for entry in ENTRIES.values():
            dom = entry.dom
            two = dom.one_element + dom.one_element  # 0 in characteristic 2
            for a in [*entry.elements, two]:
                if not dom.is_zero(a):
                    series = nu_series(dom, a, dom.unit_ideal)
                    assert series == (), (entry, a)
                    assert elementary_tree(series) is LEAF

    def test_domain_equality_follows_json_tag(self):
        # each entry's domain, an equal one parsed from its spec, a custom modulus
        domains = [entry.dom for entry in ENTRIES.values()]
        parsed = [_parse_domain(spec) for spec in ENTRIES]
        assert parsed == domains
        domains += parsed + [PolyDomain(GF(3, 2, (2, 1, 1)))]
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
        assert len(set(domains)) == len(ENTRIES) + 1

    def test_divisor_order_matches_the_old_per_domain_keys(self):
        Z5 = QuadOrder(-5)
        n = Z5.principal(QuadInt(30, 0))
        assert divisors(Z5, n) == sorted(divisors(Z5, n),
                                         key=lambda m: (m.norm, m.a, m.b, m.c))
        D = PolyDomain(field(3))
        f = Poly(field(3), (0, 2, 1, 1, 1, 0, 1))
        assert divisors(D, f) == sorted(divisors(D, f),
                                        key=lambda m: (D.norm(m), m.sort_key()))
        assert divisors(IntegerDomain(), 360) == sorted(divisors(IntegerDomain(), 360))
