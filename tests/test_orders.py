"""Multiplicative orders by prime stripping against the linear search they replaced.

The references, `LinearOrderReference` and the divisor walk among them, live
in `domains`, and `is_principal`, `rabin_is_irreducible` and
`scan_splitting` in `references`.  `scan_splitting`, the earlier body of
`QuadOrder.rational_prime_splitting`, which scans all residues mod p, is
its one referee, and it judges the primes of the factorization law in
`test_domain_contract` too.  The prediction by prime powers is refereed by
`references.walk_prediction`, the earlier body of `predicted_graph` over
the divisor walk, which `references.assert_prediction_matches_the_walk`
reads as one counted graph, its summands and, up to `DEFAULT_MAX_NODES`
nodes, the eager text of the graph and of its corrupted control
(`dynamics._corrupt`): this is the one prediction referee, and the
linearized check's predictions on x^n - 1 run through it in
`test_applications`.
"""

import math
import random

import pytest

from amap.base import NotCoprimeError, factor_int
from amap.dynamics import predicted_graph
from amap.finitefield import field
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain, irreducibles
from amap.quadorder import QuadInt, QuadOrder, SplitType
from domains import ENTRIES, divisor_table, divisors, mult_order, reference
from references import (assert_prediction_matches_the_walk, is_principal, rabin_is_irreducible,
                        scan_splitting)


ORDER_CASES = 240  # of an entry's grid: the most the hand-written cases had


def _raises_not_coprime(fn, *args):
    with pytest.raises(NotCoprimeError):
        fn(*args)


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=repr)
class TestAgainstLinearReference:
    def test_moduli_cover_primes_powers_and_composites(self, entry):
        """The seeded source holds every case kind, so no edit thins it: the
        unit ideal, a prime, a prime power with exponent 3 or more, a product
        of two primes, a unit a, a nonzero a in n, and in Z[sqrt(-5)] and
        Z[(1 + sqrt(-15))/2] an ideal that is not principal."""
        dom = entry.dom
        shapes = {tuple(e for _, e in dom.factor(n)) for n in entry.moduli}
        assert {(), (1,), (1, 1)} <= shapes and any(s[0] >= 3 for s in shapes if len(s) == 1)
        nonzero = [(a, n) for a, n in entry.instances() if not dom.is_zero(a)]
        assert any(dom.principal(a) == dom.unit_ideal for a, _ in nonzero)
        assert any(n != dom.unit_ideal and dom.element_in_ideal(a, n) for a, n in nonzero)
        if entry.spec in ("quad:-5", "quad:-15"):
            assert any(not is_principal(dom, n) for n in entry.moduli if n.norm <= 100)

    def test_mult_order(self, entry):
        dom, ref = entry.dom, reference(entry.dom)
        not_coprime = 0
        for a, n in entry.instances(entry.cap, ORDER_CASES):
            try:
                want = ref.mult_order(a, n)
            except NotCoprimeError:
                _raises_not_coprime(mult_order, dom, a, n)
                not_coprime += 1
                continue
            assert mult_order(dom, a, n) == want, (a, n)
        assert not_coprime >= 5

    def test_divisor_table(self, entry):
        dom, ref = entry.dom, reference(entry.dom)
        linear = {}  # (a, m) -> the linear search's order, shared by the moduli

        def order(a, m):
            if (a, m) not in linear:
                linear[a, m] = ref.mult_order(a, m)
            return linear[a, m]

        by_modulus = {}
        for a, n in entry.instances(entry.cap, ORDER_CASES):
            by_modulus.setdefault(n, []).append(a)
        for n, elements in by_modulus.items():
            phis = [(m, ref.euler_phi(m)) for m in divisors(ref, n)]
            assert [m for m, _ in phis] == divisors(dom, n)
            for a in elements:
                try:
                    want = [(m, phi, order(a, m)) for m, phi in phis]
                except NotCoprimeError:
                    _raises_not_coprime(divisor_table, dom, a, n)
                    _raises_not_coprime(dom.local_rows, a, n)
                    continue
                assert divisor_table(dom, a, n) == want, (a, n)

    def test_prediction_matches_the_divisor_walk(self, entry):
        for a, n in entry.instances(entry.cap, ORDER_CASES):
            if not entry.dom.is_zero(a):
                assert_prediction_matches_the_walk(entry.dom, a, n)


def test_prediction_matches_the_divisor_walk_below_2000():
    rng = random.Random(2000)
    Z = IntegerDomain()
    for n in range(1, 2000):
        assert_prediction_matches_the_walk(Z, rng.choice([-1, 1]) * rng.randint(1, 4 * n), n)


@pytest.mark.parametrize("a", [2, -1, 1, 12345])
def test_prediction_matches_the_divisor_walk_over_twelve_primes(a):
    n = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41
    assert_prediction_matches_the_walk(IntegerDomain(), a, n)


def test_prediction_matches_the_divisor_walk_at_large_n():
    for a, n in [(1, 10**5), (-1, 10**5), (6, 2**5 * 3**3 * 5 * 7 * 11), (10, 3**4 * 7**3)]:
        assert_prediction_matches_the_walk(IntegerDomain(), a, n)


def test_local_rows_fill_each_prime_power():
    """On D/p^e the zero and the rows' cycles hold every point:
    1 + sum of multiplicity * cycle_len is the norm of p^e."""
    for entry in ENTRIES.values():
        dom = entry.dom
        for a, n in entry.instances(entry.cap, ORDER_CASES):
            if dom.is_zero(a) or dom.ideal_gcd(dom.principal(a), n) != dom.unit_ideal:
                continue
            for (p, e), rows in zip(dom.factor(n), dom.local_rows(a, n)):
                assert [pk for pk, _, _ in rows] == [dom.ideal_pow(p, k) for k in range(1, e + 1)]
                assert 1 + sum(phi // r * r for _, phi, r in rows) == dom.norm(p) ** e


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=repr)
def test_lifted_orders_equal_the_search(entry):
    """Past k = 1 a row's order is lifted from the one before it; a full
    search mod p^k gives the same at every k."""
    dom = entry.dom
    lifted = 0
    for a, n in entry.instances(entry.cap, ORDER_CASES):
        if dom.is_zero(a) or dom.ideal_gcd(dom.principal(a), n) != dom.unit_ideal:
            continue
        for rows in dom.local_rows(a, n):
            searched = [dom._order(a, pk, phi) for pk, phi, _ in rows]
            assert [r for _, _, r in rows] == searched, (a, n)
            lifted += len(rows) - 1
    assert lifted >= (20 if entry.full else 5), lifted


def test_lifted_orders_equal_the_search_at_every_prime_power_below_2000():
    Z, rng = IntegerDomain(), random.Random(1999)
    powers = 0
    for n in range(2, 2000):
        factors = factor_int(n)
        if len(factors) > 1:
            continue
        [(p, e)] = factors
        powers += e > 1
        for a in {1, -1, 1 + p, n - p - 1, *(rng.randrange(1, n) for _ in range(8))}:
            if math.gcd(a, p) == 1:
                want = [Z._order(a, p**k, p**k - p ** (k - 1)) for k in range(1, e + 1)]
                assert [r for _, _, r in Z.local_rows(a, n)[0]] == want, (a, n)
    assert powers == 30  # the p^e < 2000 with e >= 2


def test_a_lift_that_is_no_order_raises():
    class WrongOrder(IntegerDomain):
        def _order(self, a, n, phi):
            return 1  # the order of 2 mod 3 is 2

    assert WrongOrder().local_rows(2, 3) == [[(3, 2, 1)]]
    with pytest.raises(RuntimeError, match="broken arithmetic"):
        WrongOrder().local_rows(2, 9)  # 2 and 2^3 are not 1 mod 9


def _count_order_products(monkeypatch, cls):
    """Counter of the modular products made inside `_order`, the order search
    proper (a quadratic order also multiplies elements to build ideals).  A
    product is counted at the `mul` that `_product_mod` hands out, which the
    search calls for every product in place of `mul_mod`."""
    count, searching = [0], [False]
    product_mod, search = cls._product_mod, cls._order

    def counting_product_mod(self, n):
        lift, mul = product_mod(self, n)

        def counting_mul(x, y):
            count[0] += searching[0]
            return mul(x, y)
        return lift, counting_mul

    def marked_search(self, *args):
        searching[0] = True
        try:
            return search(self, *args)
        finally:
            searching[0] = False
    monkeypatch.setattr(cls, "_product_mod", counting_product_mod)
    monkeypatch.setattr(cls, "_order", marked_search)
    return count


def test_order_search_products_are_bounded(monkeypatch):
    F2, F3 = field(2), field(3)
    D2, D3 = PolyDomain(F2), PolyDomain(F3)
    x2, x3 = Poly(F2, (0, 1)), Poly(F3, (0, 1))
    x20 = Poly(F2, (1, 0, 0, 1) + (0,) * 16 + (1,))  # x^20 + x^3 + 1
    x16 = Poly(F2, (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,))  # x^16 + x^5 + x^3 + x^2 + 1
    x7 = Poly(F3, (1, 0, 0, 0, 0, 1, 2, 1))
    assert all(rabin_is_irreducible(f) for f in (x20, x16, x7))
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
    # a = 1 with phi a prime power q^v: the search's one power is a^(phi/q^v) = a^1,
    # which `power` returns with no product
    free = [(IntegerDomain(), 1, 65537), (IntegerDomain(), 1, 2**20),
            (ZI, QuadInt(1, 0), ZI.principal(QuadInt(257, 0)))]
    for dom, pairs in cases:
        count = _count_order_products(monkeypatch, type(dom))
        for a, n in pairs:
            phi = dom.euler_phi(n)
            count[0] = 0
            assert phi % mult_order(dom, a, n) == 0
            bound = 2 * phi.bit_length() * (len(factor_int(phi)) + 1)
            if (dom, a, n) in free:
                assert count[0] == 0, (dom, a, n, count[0])
            else:
                assert 0 < count[0] <= bound, (dom, a, n, count[0], bound)


def test_order_of_one_and_of_known_primitive_roots():
    Z = IntegerDomain()
    assert mult_order(Z, 1, 65537) == 1
    assert mult_order(Z, 3, 65537) == 65536
    assert mult_order(Z, 2, 1000003) == 1000002
    assert mult_order(Z, -1, 1000003) == 2
    assert mult_order(Z, 5, 1) == 1
    assert mult_order(Z, 3, 2) == 1


def test_broken_arithmetic_raises():
    class WrongPhi(IntegerDomain):
        def __init__(self, shift):
            self.shift = shift

        def euler_phi(self, n):
            return super().euler_phi(n) + self.shift

    for shift in (1, 2, -5):  # 7, 8 and 1 in place of phi(7) = 6
        with pytest.raises(RuntimeError):
            mult_order(WrongPhi(shift), 3, 7)
    with pytest.raises(NotCoprimeError):
        mult_order(WrongPhi(1), 7, 7)


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
