"""The gcd chain against the factorization-based code it replaced, the
references `FactorReference` and `reference_nu_series` of `domains`."""

import random

import pytest

from amap.applications import ec_generic_trees
from amap.base import Domain, ZeroIdealError, is_prime
from amap.dynamics import nu_series
from amap.finitefield import field
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain
from amap.quadorder import QuadInt, QuadOrder
from amap.trees import LEAF, RootedTree, elementary_tree, folded_tree
from domains import ENTRIES, divisors, reference, reference_nu_series


def _cases(entry):
    """The entry's chain pairs and 48 of its other instances, with a nonzero a."""
    return [(a, n) for a, n in entry.instances(count=48) if not entry.dom.is_zero(a)]


QUADRATIC = [entry for entry in ENTRIES.values() if isinstance(entry.dom, QuadOrder)]


def _raises_value_error(fn, *args):
    with pytest.raises(ValueError):
        fn(*args)


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=repr)
class TestAgainstFactorReference:
    def test_a_decomposition(self, entry):
        dom, ref = entry.dom, reference(entry.dom)
        for a, n in _cases(entry):
            assert dom.a_decomposition(a, n) == ref.a_decomposition(a, n), (a, n)

    def test_nu_series_of_n0(self, entry):
        dom, ref = entry.dom, reference(entry.dom)
        for a, n in _cases(entry):
            n0, n1 = ref.a_decomposition(a, n)
            want = reference_nu_series(ref, a, n0)
            assert nu_series(dom, a, n0) == want, (a, n0)
            assert dom.gcd_chain(a, n) == (want, n1), (a, n)

    def test_nu_series_rejects_foreign_primes(self, entry):
        dom, ref = entry.dom, reference(entry.dom)
        rejected = 0
        for a, n in _cases(entry):
            if ref.a_decomposition(a, n)[1] != ref.unit_ideal:
                _raises_value_error(reference_nu_series, ref, a, n)
                _raises_value_error(nu_series, dom, a, n)
                rejected += 1
        assert rejected >= 5

    def test_element_in_ideal(self, entry):
        dom, ref = entry.dom, reference(entry.dom)
        for a, n in _cases(entry):
            for m in (n, dom.principal(a)):
                for z in (a, dom.one_element, dom.mul(a, a)):
                    assert dom.element_in_ideal(z, m) == ref.element_in_ideal(z, m)


@pytest.mark.parametrize("entry", QUADRATIC, ids=lambda entry: str(entry.dom.d))
def test_quad_ideal_div_matches_reference(entry):
    order, ref = entry.dom, reference(entry.dom)
    ideals = list(dict.fromkeys(n for _, n in entry.instances(10**4)))
    not_dividing = 0
    for n, m in zip(ideals, ideals[1:] + ideals[:1]):
        for k in divisors(order, n):
            assert order.ideal_div(n, k) == ref.ideal_div(n, k), (n, k)
        if m.contains_ideal(n):
            assert order.ideal_div(n, m) == ref.ideal_div(n, m), (n, m)
        else:
            _raises_value_error(ref.ideal_div, n, m)
            _raises_value_error(order.ideal_div, n, m)
            not_dividing += 1
    assert not_dividing >= 10


@pytest.mark.parametrize("entry", QUADRATIC, ids=lambda entry: str(entry.dom.d))
def test_norm_over_ideal_is_its_conjugate(entry):
    order, d = entry.dom, entry.dom.d
    rng = random.Random(d)
    for _ in range(20):
        gens = [QuadInt(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(rng.randint(1, 2))]
        m = order.ideal_from_generators(gens)
        conj = order.ideal_from_generators(
            [QuadInt(g.x + g.y * (d % 4 == 1), -g.y) for g in gens])
        assert order.ideal_div(order.principal(QuadInt(m.norm, 0)), m) == conj, m


def test_chain_on_examples():
    Z = IntegerDomain()
    assert Z.gcd_chain(2, 24) == ((2, 2, 2), 3)
    assert Z.gcd_chain(6, 35) == ((), 35)
    assert Z.gcd_chain(-1, 7) == ((), 7)
    with pytest.raises(ValueError):
        Z.gcd_chain(0, 10)


def test_chain_step_guard_raises():
    class NoProgress(IntegerDomain):
        calls = 0

        def ideal_div(self, n, m):
            self.calls += 1
            if self.calls > 50:  # keeps an unguarded chain from running forever
                raise AssertionError("the chain did not stop")
            return n

    with pytest.raises(RuntimeError):
        NoProgress().gcd_chain(2, 8)


def test_no_factorization_on_the_chain_paths(monkeypatch):
    def refuse(self, n):
        raise AssertionError("factor called")

    for cls in (IntegerDomain, PolyDomain, QuadOrder):
        monkeypatch.setattr(cls, "factor", refuse)

    Z = IntegerDomain()
    assert Z.a_decomposition(12, 360) == (72, 5)
    assert nu_series(Z, 12, 72) == (12, 6)
    D2 = PolyDomain(field(2))
    x = Poly(field(2), (0, 1))
    n = Poly(field(2), (0, 0, 0, 1, 1))  # x^3 (x + 1)
    assert D2.a_decomposition(x, n) == (Poly(field(2), (0, 0, 0, 1)),
                                        Poly(field(2), (1, 1)))
    assert nu_series(D2, x, x**3) == (2, 2, 2)
    Z5 = QuadOrder(-5)
    a = QuadInt(1, 1)
    six = Z5.principal(QuadInt(6, 0))
    n0, n1 = Z5.a_decomposition(a, six)
    assert (n0.norm, n1.norm) == (12, 3)
    assert nu_series(Z5, a, n0) == (6, 2)
    assert Z5.ideal_div(six, n1) == n0
    report = ec_generic_trees(-5, a, QuadInt(3, 2), 4)
    assert report.nu_plus == [6, 2, 2, 2, 2, 2, 2] and report.nu_minus == [2, 2]
    assert elementary_tree(Z.gcd_chain(2, 24)[0]).node_count == 8
    # the trees of the Chebyshev prediction come from chains alone: here the
    # fixed point 2 of T_2 on F_13, the folds of Z/12 and Z/14 glued; its cycle
    # rows read a divisor table, which factors, as every prediction's does
    assert folded_tree([Z.gcd_chain(2, 12)[0], Z.gcd_chain(2, 14)[0]]) == \
        RootedTree([RootedTree([LEAF])])


def test_zero_polynomial_ideal_raises_zero_ideal_error():
    D = PolyDomain(field(3))
    zero, x = Poly(field(3)), Poly(field(3), (0, 1))
    with pytest.raises(ZeroIdealError):
        D.element_in_ideal(x, zero)
    with pytest.raises(ZeroIdealError):
        D.congruence_solution_count(zero, x, zero)


def test_domain_declares_fourteen_primitives():
    assert len(Domain.__abstractmethods__) == 14
    assert "element_in_ideal" not in Domain.__abstractmethods__
    for entry in ENTRIES.values():  # each implemented by every domain
        cls = type(entry.dom)
        assert all(getattr(cls, name) is not getattr(Domain, name)
                   for name in Domain.__abstractmethods__), entry


def test_is_prime_matches_definition():
    for n in range(-3, 2000):
        assert is_prime(n) == (n >= 2 and all(n % f for f in range(2, n))), n
