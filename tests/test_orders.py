"""Multiplicative orders by prime stripping against the linear search they replaced.

`LinearOrderReference` keeps the earlier body of `Domain.mult_order`
unchanged, as a test-only reference: it walks a, a^2, ... until it reaches 1,
so it takes time linear in the order.  The reference domains inherit
everything else from the library.  `scan_splitting` keeps the earlier body of
`QuadOrder.rational_prime_splitting`, which scans all residues mod p.
"""

import random

import pytest

from amap.base import NotCoprimeError, factor_int
from amap.dynamics import predicted_graph
from amap.finitefield import field
from amap.graphs import Component
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain, irreducibles, is_irreducible
from amap.quadorder import QuadInt, QuadOrder, SplitType
from amap.trees import elementary_tree
from test_least_root import booth_min_rotation


class LinearOrderReference:
    def mult_order(self, a, n) -> int:
        """Order of a in the unit group mod n; requires gcd(<a>, n) = 1."""
        g = n if self.is_zero(a) else self.ideal_gcd(self.principal(a), n)
        if g != self.unit_ideal:
            raise NotCoprimeError(
                f"element is not invertible modulo {self.describe_ideal(n)}")
        bound = self.euler_phi(n)
        one_r = self.reduce(self.one_element, n)
        ar = self.reduce(a, n)
        y = ar
        order = 1
        while y != one_r:
            y = self.reduce(self.mul(y, ar), n)
            order += 1
            if order > bound:
                raise RuntimeError("order exceeded Euler phi; broken arithmetic")
        return order


class ReferenceZ(LinearOrderReference, IntegerDomain):
    pass


class ReferencePoly(LinearOrderReference, PolyDomain):
    pass


class ReferenceQuad(LinearOrderReference, QuadOrder):
    pass


def scan_splitting(order: QuadOrder, p: int):
    """Primes above p, classified by the roots of w's minimal polynomial."""
    roots = [r for r in range(p) if (r * r - order._t * r - order._s) % p == 0]
    if not roots:
        return SplitType.INERT, [order.principal(QuadInt(p, 0))]
    primes = [order.ideal_from_generators([QuadInt(p, 0), QuadInt(-r, 1)])
              for r in roots]
    primes.sort(key=order._ideal_key)
    if len(roots) == 2:
        return SplitType.SPLIT, primes
    return SplitType.RAMIFIED, primes


# ---- seeded instances: moduli (primes, prime powers, composites) and elements ----

def _z_instance(rng):
    moduli = [1, 2, 7, 97, 2003, 8, 81, 3**7, 2**12, 7**4, 12, 360, 1001, 2**5 * 3**3 * 5]
    elements = [0, 1, -1, 2, 3, 6, 10, 1000] + [rng.randint(-5000, 5000) for _ in range(8)]
    return moduli, elements


def _poly_instance(rng, dom):
    F = dom.field
    primes = [next(irreducibles(F, k)) for k in (1, 2, 3, 5)]
    moduli = [dom.one_element] + primes + [dom.ideal_pow(p, e) for p, e in
                                           zip(primes, (5, 3, 2))]
    moduli += [dom.ideal_mul(primes[0], primes[2]),
               dom.ideal_mul(dom.ideal_pow(primes[1], 2), primes[2])]
    moduli += [Poly(F, [rng.randrange(F.q) for _ in range(d)] + [1]) for d in (6, 7, 8)]
    elements = [dom.one_element, Poly(F, (0, 1))] + [
        Poly(F, [rng.randrange(F.q) for _ in range(rng.randint(1, 8))] + [1])
        for _ in range(8)]
    return moduli, elements


def _quad_instance(rng, order):
    primes = []
    for p in (2, 3, 5, 7, 11):
        primes.extend(order.rational_prime_splitting(p)[1])
    moduli = [order.unit_ideal] + primes + [order.ideal_pow(p, 3) for p in primes[:4]]
    moduli += [order.ideal_mul(primes[0], primes[-1]), order.principal(QuadInt(30, 0))]
    while len(moduli) < 24:
        gens = [QuadInt(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(2)]
        if any(not g.is_zero for g in gens):
            n = order.ideal_from_generators(gens)
            if n.norm <= 2000:
                moduli.append(n)
    elements = [order.one_element, QuadInt(0, 1), QuadInt(1, 1), QuadInt(2, -3)] + [
        QuadInt(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(6)]
    return moduli, elements


def _instances():
    rng = random.Random(5)
    out = [("Z", IntegerDomain(), ReferenceZ(), *_z_instance(rng))]
    for p in (2, 3):
        dom = PolyDomain(field(p))
        out.append((f"F{p}[x]", dom, ReferencePoly(field(p)), *_poly_instance(rng, dom)))
    for d in (-1, -5):
        order = QuadOrder(d)
        out.append((f"quad{d}", order, ReferenceQuad(d), *_quad_instance(rng, order)))
    return out


INSTANCES = _instances()
IDS = [name for name, *_ in INSTANCES]


def _raises_not_coprime(fn, *args):
    with pytest.raises(NotCoprimeError):
        fn(*args)


@pytest.mark.parametrize("name,dom,ref,moduli,elements", INSTANCES, ids=IDS)
class TestAgainstLinearReference:
    def test_moduli_cover_primes_powers_and_composites(self, name, dom, ref,
                                                        moduli, elements):
        shapes = {tuple(e for _, e in dom.factor(n)) for n in moduli}
        assert (1,) in shapes and any(s[0] > 1 for s in shapes if len(s) == 1)
        assert any(len(s) > 1 for s in shapes)

    def test_mult_order(self, name, dom, ref, moduli, elements):
        not_coprime = 0
        for n in moduli:
            for a in elements:
                try:
                    want = ref.mult_order(a, n)
                except NotCoprimeError:
                    _raises_not_coprime(dom.mult_order, a, n)
                    not_coprime += 1
                    continue
                assert dom.mult_order(a, n) == want, (a, n)
        assert not_coprime >= 5

    def test_divisor_table(self, name, dom, ref, moduli, elements):
        for n in moduli:
            for a in elements:
                try:
                    want = [(m, ref.euler_phi(m), ref.mult_order(a, m))
                            for m in ref.divisors(n)]
                except NotCoprimeError:
                    _raises_not_coprime(dom.divisor_table, a, n)
                    continue
                assert dom.divisor_table(a, n) == want, (a, n)
                assert [m for m, _, _ in want] == dom.divisors(n)


def _count_order_products(monkeypatch, cls):
    """Counter of the element products made inside `_order`, the order search
    proper (a quadratic order also multiplies elements to build ideals)."""
    count, searching = [0], [False]
    mul, search = cls.mul, cls._order

    def counting_mul(self, a, b):
        count[0] += searching[0]
        return mul(self, a, b)

    def marked_search(self, *args):
        searching[0] = True
        try:
            return search(self, *args)
        finally:
            searching[0] = False
    monkeypatch.setattr(cls, "mul", counting_mul)
    monkeypatch.setattr(cls, "_order", marked_search)
    return count


def test_order_search_products_are_bounded(monkeypatch):
    F2, F3 = field(2), field(3)
    D2, D3 = PolyDomain(F2), PolyDomain(F3)
    x2, x3 = Poly(F2, (0, 1)), Poly(F3, (0, 1))
    x20 = Poly(F2, (1, 0, 0, 1) + (0,) * 16 + (1,))  # x^20 + x^3 + 1
    x16 = Poly(F2, (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,))  # x^16 + x^5 + x^3 + x^2 + 1
    x7 = Poly(F3, (1, 0, 0, 0, 0, 1, 2, 1))
    assert all(is_irreducible(f) for f in (x20, x16, x7))
    ZI, Z5 = QuadOrder(-1), QuadOrder(-5)
    cases = [
        (IntegerDomain(), [(2, 1000003), (1, 65537), (3, 65537), (65536, 65537),
                           (2, 999983), (10, 3**13), (7, 2**20), (1, 2**20),
                           (11, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 + 1)]),
        (D2, [(x2, x20), (Poly(F2, (1,)), x16),
              (Poly(F2, (1, 1)), D2.ideal_pow(next(irreducibles(F2, 3)), 6))]),
        (D3, [(x3, x7), (Poly(F3, (2,)), next(irreducibles(F3, 4)))]),
        (ZI, [(QuadInt(2, 1), ZI.principal(QuadInt(1009, 0))),
              (QuadInt(1, 0), ZI.principal(QuadInt(257, 0))),
              (QuadInt(0, 1), ZI.ideal_pow(ZI.principal(QuadInt(3, 0)), 5))]),
        (Z5, [(QuadInt(1, 1), Z5.principal(QuadInt(997, 0))),
              (QuadInt(3, 2), Z5.ideal_pow(Z5.rational_prime_splitting(3)[1][0], 7))]),
    ]
    for dom, pairs in cases:
        count = _count_order_products(monkeypatch, type(dom))
        for a, n in pairs:
            phi = dom.euler_phi(n)
            count[0] = 0
            assert phi % dom.mult_order(a, n) == 0
            bound = 2 * phi.bit_length() * (len(factor_int(phi)) + 1)
            assert 0 < count[0] <= bound, (dom, a, n, count[0], bound)


def test_order_of_one_and_of_known_primitive_roots():
    Z = IntegerDomain()
    assert Z.mult_order(1, 65537) == 1
    assert Z.mult_order(3, 65537) == 65536
    assert Z.mult_order(2, 1000003) == 1000002
    assert Z.mult_order(-1, 1000003) == 2
    assert Z.mult_order(5, 1) == 1
    assert Z.mult_order(3, 2) == 1


def test_broken_arithmetic_raises():
    class WrongPhi(IntegerDomain):
        def __init__(self, shift):
            self.shift = shift

        def euler_phi(self, n):
            return super().euler_phi(n) + self.shift

    for shift in (1, 2, -5):  # 7, 8 and 1 in place of phi(7) = 6
        with pytest.raises(RuntimeError):
            WrongPhi(shift).mult_order(3, 7)
    with pytest.raises(NotCoprimeError):
        WrongPhi(1).mult_order(7, 7)


def _count_calls(monkeypatch, cls, name):
    calls = []
    method = getattr(cls, name)

    def counting(self, *args):
        calls.append(args)
        return method(self, *args)
    monkeypatch.setattr(cls, name, counting)
    return calls


def test_prediction_factors_once_on_n1(monkeypatch):
    F2 = field(2)
    D2 = PolyDomain(F2)
    Z5 = QuadOrder(-5)
    cases = [
        (IntegerDomain(), 2, 3 * 2**10 * 5**3 * 7),
        (IntegerDomain(), 1, 1),
        (D2, Poly(F2, (0, 1)), Poly(F2, (1,) + (0,) * 17 + (1,))),
        (Z5, QuadInt(1, 1), Z5.principal(QuadInt(300, 0))),
    ]
    for dom, a, n in cases:
        n1 = dom.a_decomposition(a, n)[1]
        calls = _count_calls(monkeypatch, type(dom), "factor")
        predicted_graph(dom, a, n)
        assert calls == [(n1,)], (dom, a, n)
        monkeypatch.undo()


def test_prediction_walks_the_gcd_chain_once(monkeypatch):
    calls = _count_calls(monkeypatch, IntegerDomain, "ideal_gcd")
    prediction = predicted_graph(IntegerDomain(), 2, 3 * 2**10)
    assert prediction.graph.node_count == 3 * 2**10
    assert len(calls) <= 13


@pytest.mark.parametrize("d", [-1, -2, -3, -5, -6, -7, -10, -11, -15])
def test_prime_splitting_matches_scan(d):
    order = QuadOrder(d)
    seen = set()
    for p in range(2, 2000):
        if factor_int(p) != [(p, 1)]:
            continue
        kind, primes = order.rational_prime_splitting(p)
        assert (kind, primes) == scan_splitting(order, p), p
        seen.add(kind)
    assert seen == set(SplitType)


def test_component_code_is_the_minimal_rotation():
    rng = random.Random(7)
    trees = [elementary_tree(nu) for nu in [(), (2,), (3,), (2, 2), (4, 2)]]
    for _ in range(300):
        hanging = [rng.choice(trees) for _ in range(rng.randint(1, 7))]
        comp = Component(len(hanging), hanging)
        r = booth_min_rotation([t.code for t in hanging])
        rotated = tuple(hanging[r:]) + tuple(hanging[:r])
        assert comp.hanging == rotated
        assert comp.code == "C%d[%s]" % (len(hanging), ",".join(t.code for t in rotated))
        assert comp.node_count == sum(t.node_count for t in hanging)
