"""End-to-end acceptance checks with their runtime budgets.

Each test covers one acceptance criterion, prints a PASS line with its
elapsed time, and enforces the stated wall-clock bound.  Graph comparisons
are exact canonical-code equality throughout; run with ``pytest -s`` to see
the per-criterion lines.
"""

import random
import time

from amap.applications import (chebyshev_check, ec_generic_trees,
                               linearized_check, redei_check)
from amap.cli import main as cli_main
from amap.dynamics import nu_series, verify
from amap.finitefield import field
from amap.graphs import cyc, disjoint_sum, extended_tree, tensor
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain
from amap.quadorder import QuadInt, QuadOrder
from amap.trees import elementary_tree

Z = IntegerDomain()
Z5 = QuadOrder(-5)
ZI = QuadOrder(-1)


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.label} ({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.label} took {elapsed:.2f}s, budget {self.budget}s")
        return False


def test_criterion_1_worked_example_in_z_sqrt_minus_five():
    with _Timer("criterion 1: Z[sqrt(-5)] worked example", 1.0):
        rep = verify(Z5, QuadInt(1, 1), Z5.principal(QuadInt(6, 0)))
        t = elementary_tree((6, 2))
        expected = disjoint_sum([cyc(1, t), cyc(2, t)])
        assert rep.isomorphic
        assert rep.node_count == 36
        assert rep.predicted_code == expected.code


def test_criterion_2_gaussian_endomorphism_example():
    with _Timer("criterion 2: Gaussian-integer endomorphism example", 1.0):
        one_plus_i = ZI.principal(QuadInt(1, 1))
        fac = ZI.factor(ZI.principal(QuadInt(-2, 8)))
        assert dict(fac).get(one_plus_i) == 2
        assert [(p, e) for p, e in fac if p != one_plus_i] == \
            [(ZI.principal(QuadInt(-1, 4)), 1)]

        m0 = ZI.ideal_mul(one_plus_i, one_plus_i)
        assert nu_series(ZI, QuadInt(3, -1), m0) == (2, 2)

        rep = ec_generic_trees(-1, QuadInt(3, -1), QuadInt(-3, 8), 1)
        assert rep.nu_minus == [2, 2]
        assert rep.tree_minus_code == elementary_tree((2, 2)).code == "((()()))"


def test_criterion_3_structure_theorem_oracle_sweep():
    with _Timer("criterion 3: structure-theorem oracle sweep", 60.0):
        for n in range(2, 121):
            for a in range(1, 31):
                assert verify(Z, a, n).isomorphic, (a, n)

        rng = random.Random(2025)
        for p in (2, 3):
            dom = PolyDomain(field(p))
            for _ in range(100):
                deg = rng.randint(1, 5)
                n = Poly(dom.field, [rng.randrange(p) for _ in range(deg)] + [1])
                a = Poly(dom.field,
                         [rng.randrange(p) for _ in range(rng.randint(0, 5))]
                         + [rng.randrange(1, p)])
                assert verify(dom, a, n).isomorphic, (p, a, n)

        for order in (ZI, Z5):
            done = 0
            while done < 50:
                gens = [QuadInt(rng.randint(-10, 10), rng.randint(-10, 10))
                        for _ in range(rng.randint(1, 2))]
                if all(g.is_zero for g in gens):
                    continue
                ideal = order.ideal_from_generators(gens)
                if ideal.norm > 400:
                    continue
                a = QuadInt(rng.randint(-9, 9), rng.randint(-9, 9))
                if a.is_zero:
                    continue
                assert verify(order, a, ideal).isomorphic, (order, a, ideal.hnf)
                done += 1


def test_criterion_4_tree_product_property_suite():
    with _Timer("criterion 4: tensor-product tree identities", 30.0):
        rng = random.Random(404)
        for _ in range(200):
            du = rng.randint(1, 4)
            dv = rng.randint(1, 4)
            u = tuple(sorted((rng.randint(1, 4) for _ in range(du)), reverse=True))
            v = tuple(sorted((rng.randint(1, 4) for _ in range(dv)), reverse=True))
            d = max(du, dv)
            uv = tuple(x * y for x, y in zip(u + (1,) * (d - du),
                                             v + (1,) * (d - dv)))
            got = tensor(extended_tree(elementary_tree(u)),
                         extended_tree(elementary_tree(v)))
            assert got == extended_tree(elementary_tree(uv)), (u, v)

        # corollary: coprime ideals with the radical condition
        for _ in range(25):
            a = rng.choice([6, 12, 30, 60, 210])
            e1, e2 = rng.randint(1, 4), rng.randint(1, 3)
            q1, q2 = 2**e1, 3**e2
            t1 = extended_tree(elementary_tree(nu_series(Z, a, q1)))
            t2 = extended_tree(elementary_tree(nu_series(Z, a, q2)))
            t12 = extended_tree(elementary_tree(nu_series(Z, a, q1 * q2)))
            assert tensor(t1, t2) == t12, (a, q1, q2)

        a = QuadInt(1, 1)  # <a> = p1 * p2 in Z[sqrt(-5)]
        p1 = Z5.ideal_from_generators([QuadInt(2, 0), QuadInt(1, 1)])
        p2 = Z5.ideal_from_generators([QuadInt(3, 0), QuadInt(1, 1)])
        for _ in range(25):
            q1 = Z5.ideal_pow(p1, rng.randint(1, 4))
            q2 = Z5.ideal_pow(p2, rng.randint(1, 3))
            t1 = extended_tree(elementary_tree(nu_series(Z5, a, q1)))
            t2 = extended_tree(elementary_tree(nu_series(Z5, a, q2)))
            t12 = extended_tree(elementary_tree(
                nu_series(Z5, a, Z5.ideal_mul(q1, q2))))
            assert tensor(t1, t2) == t12


def test_criterion_5_counting_suites():
    with _Timer("criterion 5: congruence and residue-gcd counts", 10.0):
        rng = random.Random(505)
        # integers
        for _ in range(200):
            n = rng.randint(1, 60)
            a = rng.randint(-30, 30)
            b = rng.randint(-30, 30)
            brute = sum(1 for x in range(n) if (a * x - b) % n == 0)
            assert Z.congruence_solution_count(a, b, n) == brute
        checked = 0
        while checked < 200:
            n = rng.randint(2, 60)
            counts: dict = {}
            import math
            for b in range(n):
                g = math.gcd(b, n) if b else n
                counts[g] = counts.get(g, 0) + 1
            for m in Z.divisors(n):
                assert counts.get(m, 0) == Z.euler_phi(n // m), (n, m)
                checked += 1
        # polynomial rings
        for p in (2, 3):
            dom = PolyDomain(field(p))
            for _ in range(200):
                deg = rng.randint(1, 4)
                n = Poly(dom.field, [rng.randrange(p) for _ in range(deg)] + [1])
                a = Poly(dom.field,
                         [rng.randrange(p) for _ in range(rng.randint(0, 4))])
                b = Poly(dom.field,
                         [rng.randrange(p) for _ in range(rng.randint(0, 4))])
                brute = sum(1 for x in dom.residues(n)
                            if ((a * x - b) % n).is_zero)
                assert dom.congruence_solution_count(a, b, n) == brute
            checked = 0
            while checked < 200:
                deg = rng.randint(1, 4)
                n = Poly(dom.field, [rng.randrange(p) for _ in range(deg)] + [1])
                counts = {}
                for b in dom.residues(n):
                    g = n if b.is_zero else b.gcd(n)
                    counts[g] = counts.get(g, 0) + 1
                for m in dom.divisors(n):
                    assert counts.get(m, 0) == dom.euler_phi(dom.ideal_div(n, m))
                    checked += 1


def _odd_primes(limit):
    return [p for p in range(3, limit + 1)
            if all(p % f for f in range(2, int(p**0.5) + 1))]


def test_criterion_6_redei_suite():
    with _Timer("criterion 6: Redei functions", 60.0):
        for q in _odd_primes(49):
            for a in range(1, q):
                for n in range(2, 13):
                    rep = redei_check(q, n, a)
                    assert rep.isomorphic, (q, a, n)


def test_criterion_7_chebyshev_suite():
    with _Timer("criterion 7: Chebyshev generic trees", 60.0):
        total_checked = 0
        for q in _odd_primes(101):
            for n in range(2, 11):
                rep = chebyshev_check(q, n)
                assert rep.ok, (q, n, rep.mismatches)
                total_checked += rep.periodic_checked
        assert total_checked > 1000  # the sweep exercises many generic points


def test_criterion_8_linearized_suite():
    with _Timer("criterion 8: linearized polynomials, three-way", 120.0):
        rng = random.Random(808)
        pairs = [(q, n) for q in (2, 3, 4, 5) for n in range(1, 7)
                 if q**n <= 4096]
        assert any(n % {2: 2, 3: 3, 4: 2, 5: 5}[q] == 0 for q, n in pairs)
        cases = 0
        char_divides = 0
        while cases < 200:
            q, n = pairs[cases % len(pairs)]
            deg = rng.randint(0, n + 2)
            coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
            rep = linearized_check(q, n, coeffs)
            assert rep.isomorphic, (q, n, coeffs)
            assert rep.predicted_code == rep.brute_field_code
            assert rep.predicted_code == rep.brute_quotient_code
            p = 2 if q in (2, 4) else q
            if n % p == 0:
                char_divides += 1
            cases += 1
        assert char_divides >= 40  # the regime with p | n is well covered


def test_criterion_9_negative_control():
    with _Timer("criterion 9: corrupted prediction is caught", 10.0):
        rep = verify(Z, 2, 24, corrupt_cycle=True)
        assert not rep.isomorphic
        code = cli_main(["verify", "--domain", "Z", "--a", "2", "--n", "24",
                         "--corrupt-cycle"])
        assert code == 1
        # and an untouched prediction still verifies through the CLI
        assert cli_main(["verify", "--domain", "Z", "--a", "2", "--n", "24"]) == 0
