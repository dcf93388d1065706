"""The gcd chain against the factorization-based code it replaced.

`FactorReference` and `reference_nu_series` keep the earlier bodies of
`Domain.a_decomposition`, the three `element_in_ideal` implementations,
`QuadOrder.ideal_div` and `dynamics.nu_series` unchanged, as test-only
references: each walks a prime factorization, where the library now walks
gcds.  The reference domains inherit everything else from the library.
"""

import random

import pytest

from amap.applications import ec_generic_trees
from amap.base import Domain, ZeroIdealError, check_positive_int, is_prime
from amap.dynamics import nu_series
from amap.finitefield import field
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain
from amap.quadorder import QuadIdeal, QuadInt, QuadOrder
from amap.trees import elementary_tree, folded_tree
from test_orders import divisors


class FactorReference:
    def a_decomposition(self, a, n):
        """Split n = n0 * n1 with n0 carrying exactly the primes dividing <a>."""
        if self.is_zero(a):
            raise ValueError("a-decomposition requires a nonzero element")
        n0 = n1 = self.unit_ideal
        for p, e in self.factor(n):
            pk = self.ideal_pow(p, e)
            if self.element_in_ideal(a, p):
                n0 = self.ideal_mul(n0, pk)
            else:
                n1 = self.ideal_mul(n1, pk)
        return n0, n1


class ReferenceZ(FactorReference, IntegerDomain):
    def element_in_ideal(self, a: int, n: int) -> bool:
        return a % check_positive_int(n) == 0


class ReferencePoly(FactorReference, PolyDomain):
    def element_in_ideal(self, a: Poly, n: Poly) -> bool:
        if n.is_zero:
            raise ZeroIdealError("membership in the zero ideal")
        return (a % n).is_zero


class ReferenceQuad(FactorReference, QuadOrder):
    def ideal_div(self, n: QuadIdeal, m: QuadIdeal) -> QuadIdeal:
        """Exact quotient via exponent subtraction on factorizations."""
        self._check_pair(n, m)
        fn = dict(self.factor(n))
        out = self.unit_ideal
        for p, e in self.factor(m):
            have = fn.pop(p, 0)
            if have < e:
                raise ValueError("ideal does not divide")
            if have > e:
                out = self.ideal_mul(out, self.ideal_pow(p, have - e))
        for p, e in fn.items():
            out = self.ideal_mul(out, self.ideal_pow(p, e))
        return out

    def element_in_ideal(self, a: QuadInt, n: QuadIdeal) -> bool:
        self._check_pair(n, n)
        return n.contains(a)


def reference_nu_series(dom: Domain, a, n0) -> tuple[int, ...]:
    """Norm sequence of the gcd chain of n0 against <a>.

    Requires every prime of n0 to divide <a>; the unit ideal gives the
    empty sequence.  The result is non-increasing and its product is the
    norm of n0.
    """
    if dom.is_zero(a):
        raise ValueError("nu-series requires a nonzero element")
    if dom.a_decomposition(a, n0)[1] != dom.unit_ideal:
        raise ValueError("some prime of the ideal does not divide the element")
    a_ideal = dom.principal(a)
    max_steps = sum(e for _, e in dom.factor(n0))
    norms: list[int] = []
    rem = n0
    while rem != dom.unit_ideal:
        g = dom.ideal_gcd(rem, a_ideal)
        norms.append(dom.norm(g))
        rem = dom.ideal_div(rem, g)
        if len(norms) > max_steps:
            raise RuntimeError("nu-series failed to terminate")
    if any(norms[i] < norms[i + 1] for i in range(len(norms) - 1)):
        raise RuntimeError("nu-series is not non-increasing")
    return tuple(norms)


# ---- seeded random instances: (element a, normalized ideal n) ----

def _z_cases(rng):
    cases = [(1, 1), (-1, 12), (2, 1), (6, 1)]
    while len(cases) < 60:
        a = rng.choice([1, -1]) if rng.random() < 0.1 else rng.randint(-60, 60)
        if a == 0:
            continue
        cases.append((a, rng.randint(1, 200) * abs(a) ** rng.randint(0, 3)))
    return cases


def _poly_cases(rng, dom):
    F = dom.field

    def rand_poly(deg, monic):
        coeffs = [rng.randrange(F.q) for _ in range(deg)]
        coeffs.append(1 if monic else rng.randrange(1, F.q))
        return Poly(F, coeffs)

    one = dom.one_element
    cases = [(one, one), (rand_poly(0, False), rand_poly(4, True)),
             (rand_poly(2, False), one)]
    while len(cases) < 40:
        a = rand_poly(rng.randint(0, 3), monic=False)
        n = rand_poly(rng.randint(0, 4), monic=True)
        n = dom.ideal_mul(n, dom.ideal_pow(dom.principal(a), rng.randint(0, 3)))
        cases.append((a, n))
    return cases


def _quad_cases(rng, order):
    def rand_elem(bound):
        while True:
            z = QuadInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
            if not z.is_zero:
                return z

    one = order.one_element
    units = [one, QuadInt(-1, 0)] + ([QuadInt(0, 1), QuadInt(0, -1)]
                                     if order.d == -1 else [])
    cases = [(one, order.unit_ideal), (rand_elem(5), order.unit_ideal),
             (units[-1], order.principal(QuadInt(6, 0)))]
    while len(cases) < 40:
        a = rng.choice(units) if rng.random() < 0.1 else rand_elem(5)
        gens = [rand_elem(6) for _ in range(rng.randint(1, 2))]
        n = order.ideal_from_generators(gens)
        n = order.ideal_mul(n, order.ideal_pow(order.principal(a), rng.randint(0, 2)))
        if n.norm <= 4000:
            cases.append((a, n))
    return cases


def _instances():
    rng = random.Random(4)
    out = [("Z", IntegerDomain(), ReferenceZ(), _z_cases(rng))]
    for p in (2, 3):
        dom = PolyDomain(field(p))
        out.append((f"F{p}[x]", dom, ReferencePoly(field(p)), _poly_cases(rng, dom)))
    for d in (-1, -5):
        order = QuadOrder(d)
        out.append((f"quad{d}", order, ReferenceQuad(d), _quad_cases(rng, order)))
    return out


INSTANCES = _instances()
IDS = [name for name, *_ in INSTANCES]


def _raises_value_error(fn, *args):
    with pytest.raises(ValueError):
        fn(*args)


@pytest.mark.parametrize("name,dom,ref,cases", INSTANCES, ids=IDS)
class TestAgainstFactorReference:
    def test_a_decomposition(self, name, dom, ref, cases):
        for a, n in cases:
            assert dom.a_decomposition(a, n) == ref.a_decomposition(a, n), (a, n)

    def test_nu_series_of_n0(self, name, dom, ref, cases):
        for a, n in cases:
            n0, n1 = ref.a_decomposition(a, n)
            want = reference_nu_series(ref, a, n0)
            assert nu_series(dom, a, n0) == want, (a, n0)
            assert dom.gcd_chain(a, n) == (want, n1), (a, n)

    def test_nu_series_rejects_foreign_primes(self, name, dom, ref, cases):
        rejected = 0
        for a, n in cases:
            if ref.a_decomposition(a, n)[1] != ref.unit_ideal:
                _raises_value_error(reference_nu_series, ref, a, n)
                _raises_value_error(nu_series, dom, a, n)
                rejected += 1
        assert rejected >= 5

    def test_element_in_ideal(self, name, dom, ref, cases):
        for a, n in cases:
            for m in (n, dom.principal(a)):
                for z in (a, dom.one_element, dom.mul(a, a)):
                    assert dom.element_in_ideal(z, m) == ref.element_in_ideal(z, m)


@pytest.mark.parametrize("d", [-1, -5])
def test_quad_ideal_div_matches_reference(d):
    rng = random.Random(40 + d)
    order, ref = QuadOrder(d), ReferenceQuad(d)
    cases = _quad_cases(rng, order)
    not_dividing = 0
    for (_, n), (_, m) in zip(cases, cases[1:] + cases[:1]):
        for k in divisors(order, n):
            assert order.ideal_div(n, k) == ref.ideal_div(n, k), (n, k)
        if m.contains_ideal(n):
            assert order.ideal_div(n, m) == ref.ideal_div(n, m), (n, m)
        else:
            _raises_value_error(ref.ideal_div, n, m)
            _raises_value_error(order.ideal_div, n, m)
            not_dividing += 1
    assert not_dividing >= 10


@pytest.mark.parametrize("d", [-1, -2, -3, -5, -7, -15])
def test_norm_over_ideal_is_its_conjugate(d):
    rng = random.Random(d)
    order = QuadOrder(d)
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
    assert folded_tree([Z.gcd_chain(2, 12)[0], Z.gcd_chain(2, 14)[0]]).code == "((()))"


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


def test_is_prime_matches_definition():
    for n in range(-3, 2000):
        assert is_prime(n) == (n >= 2 and all(n % f for f in range(2, n))), n
