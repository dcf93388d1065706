import random
import time

import pytest

from amap.base import NotCoprimeError, ZeroIdealError
from amap.dynamics import predicted_graph
from amap.finitefield import GF, field
from amap.polynomials import (Poly, PolyDomain, factor_poly, irreducibles,
                              is_irreducible)
from test_orders import divisors, mult_order

F2 = field(2)
F3 = field(3)
D2 = PolyDomain(F2)
D3 = PolyDomain(F3)


def poly(dom, *coeffs):
    return Poly(dom.field, coeffs)


def trial_division_factor(f: Poly, max_irreducible_degree: int = 4) -> list[tuple[Poly, int]]:
    """Factor by dividing out low-degree irreducibles; valid for deg <= 9.

    After removing every irreducible factor of degree at most
    `max_irreducible_degree`, a nontrivial remainder of degree at most
    2*max_irreducible_degree + 1 must itself be irreducible.
    """
    if f.is_zero:
        raise ZeroIdealError("cannot factor the zero polynomial")
    if f.degree > 2 * max_irreducible_degree + 1:
        raise ValueError("degree too large for the trial-division fallback")
    g = f.monic()
    found: dict[Poly, int] = {}
    for d in range(1, max_irreducible_degree + 1):
        if g.degree < d:
            break
        for p in irreducibles(f.field, d):
            e = 0
            while True:
                q, r = divmod(g, p)
                if not r.is_zero:
                    break
                g = q
                e += 1
            if e:
                found[p] = e
    if g.degree > 0:
        found[g] = found.get(g, 0) + 1
    return sorted(found.items(), key=lambda pe: pe[0].sort_key())


class TestFieldConstruction:
    def test_default_modulus_is_first_irreducible(self):
        assert GF(2, 2).modulus == (1, 1, 1)
        assert GF(3, 2).modulus == (1, 0, 1)

    def test_modulus_search_skips_multiples_of_x(self):
        for p, ks in ((2, range(2, 11)), (3, range(2, 6)), (5, (2, 3)), (7, (2, 3))):
            for k in ks:
                first = next(irreducibles(field(p), k))
                assert GF(p, k).modulus == first.coeffs, (p, k)
        start = time.perf_counter()
        GF(2, 18)
        assert time.perf_counter() - start < 1.0

    def test_rejects_reducible_modulus(self):
        with pytest.raises(ValueError):
            GF(2, 2, (1, 0, 1))  # (x+1)^2

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            GF(4)

    def test_caller_modulus_overrides(self):
        f = GF(2, 3, (1, 1, 0, 1))
        assert f.modulus == (1, 1, 0, 1)

    def test_modulus_entries_are_codes_of_the_prime_field(self):
        # an entry outside [0, p) is refused, not reduced mod p
        with pytest.raises(ValueError, match="^3 is not a field element code in \\[0, 2\\)$"):
            GF(2, 2, (3, 1, 1))
        with pytest.raises(ValueError, match="^-1 is not a field element code"):
            GF(3, 2, (-1, 0, 1))
        assert GF(3, 2, (2, 1, 1)).modulus == (2, 1, 1)


class TestPolyArithmetic:
    def test_strip_and_zero(self):
        assert Poly(F2, (1, 1, 0, 0)).coeffs == (1, 1)
        assert Poly(F2, ()).is_zero
        assert Poly(F2, ()).degree == -1

    def test_divmod(self):
        f = poly(D3, 1, 0, 0, 1)  # x^3 + 1
        g = poly(D3, 1, 1)        # x + 1
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero is False or r.is_zero  # shape check only

    def test_gcd_monic(self):
        f = poly(D2, 1, 0, 0, 1)
        g = poly(D2, 1, 1)
        assert f.gcd(g) == g

    def test_pow_mod(self):
        x = Poly.x(F3)
        m = poly(D3, 1, 0, 1)
        assert x.pow_mod(9, m) == x % m  # Frobenius fixes F_9 -> x^9 = x mod m

    def test_add_and_sub_pad_the_shorter_operand(self):
        F9 = field(3, 2)
        f, g = Poly(F9, [1, 2, 5]), Poly(F9, [4])
        assert (f + g).coeffs == (F9.add(1, 4), 2, 5)
        assert (g - f).coeffs == (F9.sub(4, 1), F9.sub(0, 2), F9.sub(0, 5))
        assert (f - f).is_zero

    def test_x_pow_minus_one(self):
        F9 = field(3, 2)
        assert Poly.x_pow_minus_one(F2, 3) == poly(D2, 1, 0, 0, 1)
        assert Poly.x_pow_minus_one(F9, 1) == Poly(F9, (F9.neg(1), 1))
        assert Poly.x_pow_minus_one(F3, 0).is_zero  # x^0 - 1 = 0
        for n in (-1, -5):
            with pytest.raises(ValueError, match="needs n >= 0"):
                Poly.x_pow_minus_one(F3, n)

    def test_hash_is_that_of_equal_polynomials(self):
        assert hash(Poly(F3, [1, 2, 0])) == hash(Poly(F3, (1, 2)))
        assert {Poly(F3, [1, 2, 0]): 1}[Poly(F3, (1, 2))] == 1

    def test_codes_outside_the_field_stop_a_division(self):
        # exact arithmetic cancels each leading term; a code >= q does not,
        # and the division names it instead of returning a bad remainder
        # (in Poly.gcd, under predicted_graph, it looped forever)
        F = field(2, 7)
        with pytest.raises(ValueError, match="^200 is not a field element code"):
            Poly(F, [1, 200]) % Poly(F, [1, 1])
        with pytest.raises(ValueError, match="^200 is not a field element code"):
            predicted_graph(PolyDomain(F), Poly(F, [200, 1]), Poly(F, [1, 0, 1]))


class TestFactorization:
    def test_x_cubed_plus_one_over_f2(self):
        fac = factor_poly(poly(D2, 1, 0, 0, 1))
        assert fac == [(poly(D2, 1, 1), 1), (poly(D2, 1, 1, 1), 1)]

    def test_unit_has_empty_factorization(self):
        assert dict(D2.factor(poly(D2, 1))) == {}
        with pytest.raises(ZeroIdealError):
            factor_poly(Poly(F2))

    def test_matches_trial_division(self):
        rng = random.Random(17)
        for F in (F2, F3, field(2, 2), field(5)):
            for _ in range(60):
                deg = rng.randint(1, 8)
                coeffs = [rng.randrange(F.q) for _ in range(deg)]
                coeffs.append(rng.randrange(1, F.q))
                f = Poly(F, coeffs)
                assert factor_poly(f) == trial_division_factor(f), f

    def test_reconstructs_product(self):
        rng = random.Random(23)
        for _ in range(60):
            deg = rng.randint(1, 10)
            coeffs = [rng.randrange(3) for _ in range(deg)] + [rng.randrange(1, 3)]
            f = Poly(F3, coeffs)
            prod = Poly.one(F3)
            for p, e in factor_poly(f):
                assert is_irreducible(p)
                prod = prod * p**e
            assert prod == f.monic()

    @pytest.mark.parametrize("p, k, coeffs, expected", [
        (2, 2, [1, 0, 0, 0, 0, 1], [((1, 1), 1), ((1, 2, 1), 1), ((1, 3, 1), 1)]),
        (3, 2, [2, 0, 0, 0, 1], [((1, 1), 1), ((2, 1), 1), ((3, 1), 1), ((6, 1), 1)]),
        (2, 3, [1, 0, 1, 0, 1], [((1, 1, 1), 2)]),
        (5, 1, [1, 0, 0, 0, 1], [((2, 0, 1), 1), ((3, 0, 1), 1)]),
    ])
    def test_pinned_factorizations(self, p, k, coeffs, expected):
        F = field(p, k)
        got = factor_poly(Poly(F, coeffs))
        assert [(f.coeffs, e) for f, e in got] == expected
        assert dict(got) == {Poly(F, c): e for c, e in expected}

    def test_repeated_and_frobenius_powers(self):
        # (x+1)^4 over F_2 exercises the p-th-power path
        f = poly(D2, 1, 1) ** 4
        assert factor_poly(f) == [(poly(D2, 1, 1), 4)]

    def test_irreducibles_enumeration(self):
        quadratics = list(irreducibles(F2, 2))
        assert quadratics == [poly(D2, 1, 1, 1)]
        assert len(list(irreducibles(F3, 2))) == 3


class TestPolyDomain:
    def test_norms(self):
        assert D3.norm(poly(D3, 1, 0, 1)) == 9
        assert D2.norm(poly(D2, 1)) == 1
        with pytest.raises(ZeroIdealError):
            D2.norm(Poly(F2))

    def test_phi_by_brute_count(self):
        n = poly(D2, 1, 0, 0, 1)  # x^3 + 1
        units = sum(1 for r in D2.residues(n)
                    if not r.is_zero and r.gcd(n).degree == 0)
        assert D2.euler_phi(n) == units == 3

    def test_mult_order(self):
        assert mult_order(D2, poly(D2, 0, 1), poly(D2, 1, 1, 1)) == 3
        with pytest.raises(NotCoprimeError):
            mult_order(D2, poly(D2, 0, 1), poly(D2, 0, 0, 1))

    def test_divisors(self):
        divs = divisors(D2, poly(D2, 1, 0, 0, 1))
        assert divs == [poly(D2, 1), poly(D2, 1, 1),
                        poly(D2, 1, 1, 1), poly(D2, 1, 0, 0, 1)]
        assert divisors(D2, poly(D2, 1)) == [poly(D2, 1)]

    def test_a_decomposition(self):
        n0, n1 = D2.a_decomposition(poly(D2, 0, 1), poly(D2, 0, 0, 0, 1, 1))
        assert n0 == poly(D2, 0, 0, 0, 1)
        assert n1 == poly(D2, 1, 1)

    def test_congruence_count_example(self):
        # x * g = 0 (mod x^2) has 2 solutions
        assert D2.congruence_solution_count(
            poly(D2, 0, 1), Poly(F2), poly(D2, 0, 0, 1)) == 2

    def test_congruence_count_brute_oracle(self):
        rng = random.Random(31)
        for D in (D2, D3):
            q = D.field.q
            for _ in range(100):
                dn = rng.randint(1, 4)
                n = Poly(D.field, [rng.randrange(q) for _ in range(dn)] + [1])
                a = Poly(D.field, [rng.randrange(q) for _ in range(rng.randint(0, 4))])
                b = Poly(D.field, [rng.randrange(q) for _ in range(rng.randint(0, 4))])
                brute = sum(1 for x in D.residues(n) if ((a * x - b) % n).is_zero)
                assert D.congruence_solution_count(a, b, n) == brute

    def test_residue_gcd_counts_match_phi(self):
        rng = random.Random(37)
        for D in (D2, D3):
            q = D.field.q
            for _ in range(25):
                dn = rng.randint(1, 4)
                n = Poly(D.field, [rng.randrange(q) for _ in range(dn)] + [1])
                counts: dict = {}
                for b in D.residues(n):
                    g = n if b.is_zero else b.gcd(n)
                    counts[g] = counts.get(g, 0) + 1
                for m in divisors(D, n):
                    assert counts.get(m, 0) == D.euler_phi(D.ideal_div(n, m))

    def test_phi_sums_to_norm(self):
        rng = random.Random(41)
        for D in (D2, D3):
            q = D.field.q
            for _ in range(20):
                dn = rng.randint(1, 5)
                n = Poly(D.field, [rng.randrange(q) for _ in range(dn)] + [1])
                assert sum(D.euler_phi(m) for m in divisors(D, n)) == D.norm(n)

    def test_multiplicativity(self):
        rng = random.Random(43)
        for _ in range(50):
            m = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(0, 3))] + [1])
            n = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(0, 3))] + [1])
            assert D3.norm(m * n) == D3.norm(m) * D3.norm(n)
            if m.gcd(n).degree == 0:
                assert D3.euler_phi(m * n) == D3.euler_phi(m) * D3.euler_phi(n)
