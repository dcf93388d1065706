"""Field construction, polynomial arithmetic and factorization on pinned
examples: the refusals of a bad modulus, the arithmetic that a broken field
or a bad digit must stop, and factorizations written out by hand.  Each
operation's referee is elsewhere: the factorization law in
`test_domain_contract` (`references.check_factorization`), the default
moduli and `irreducibles` against Rabin's test in
`test_hnf_and_irreducibility`, and the packed prime-field arithmetic
against the list loops in `test_packed_poly`.
"""

import contextlib
import random
import signal

import pytest

from amap import finitefield, polynomials
from amap.base import ZeroIdealError
from amap.dynamics import predicted_graph
from amap.finitefield import GF, field
from amap.polynomials import Poly, PolyDomain, factor_poly

F2 = field(2)
F3 = field(3)
D2 = PolyDomain(F2)
D3 = PolyDomain(F3)


def poly(dom, *coeffs):
    return Poly(dom.field, coeffs)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError inside the block once `seconds` have passed, so a
    loop that never ends fails its test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestFieldConstruction:
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

    def test_division_over_a_reducible_modulus_raises(self, monkeypatch):
        # x^2 + 1 = (x + 1)^2 over F_2: past a bypassed irreducibility test,
        # GF(2, 2, (1, 0, 1)) builds a ring with zero divisors and wrong
        # inverses, where no division clears its top coefficient; Euclid's
        # loop in gcd ran forever on it, and both calls must raise at once
        monkeypatch.setattr(finitefield, "is_irreducible", lambda f: True)
        F = GF(2, 2, (1, 0, 1))
        with deadline(1.0):
            with pytest.raises(RuntimeError, match="broken field arithmetic"):
                Poly(F, (1, 3, 1)).gcd(Poly(F, (3, 1)))
            with pytest.raises(RuntimeError, match="broken field arithmetic"):
                factor_poly(Poly(F, (1, 2, 3, 1)))

    def test_prime_field_gcd_ends_whatever_the_digits(self, monkeypatch):
        # each odd-p step of the packed Euclid repacks the remainder from the
        # nv - 1 slots `_normalize` returns, so the divisor loses a slot a
        # step whatever digits come back (and an F_2 step clears u's top bit
        # or swaps): wrong digits give a wrong gcd or an error, never a loop
        real, rng = polynomials._normalize, random.Random(17)
        pairs = [tuple(Poly(field(17), [rng.randrange(1, 17) for _ in range(d + 1)]) for d in ds)
                 for ds in ((40, 30), (30, 30), (100, 3), (300, 128))]
        for normalize in (lambda v, w, n, p: (v % (1 << 8 * w * n)).to_bytes(w * n, "little"),
                          lambda v, w, n, p: b"\x01" * (w * n),  # slots of 257
                          lambda v, w, n, p: real(v + 1, w, n, p),
                          lambda v, w, n, p: real(v, w, n, p)[:-1] + b"\xff"):
            monkeypatch.setattr(polynomials, "_normalize", normalize)
            with deadline(1.0):
                for a, b in pairs:
                    with contextlib.suppress(ArithmeticError, ValueError):
                        a.gcd(b)


class TestFactorization:
    def test_x_cubed_plus_one_over_f2(self):
        fac = factor_poly(poly(D2, 1, 0, 0, 1))
        assert fac == [(poly(D2, 1, 1), 1), (poly(D2, 1, 1, 1), 1)]

    def test_unit_has_empty_factorization(self):
        assert dict(D2.factor(poly(D2, 1))) == {}
        with pytest.raises(ZeroIdealError):
            factor_poly(Poly(F2))

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

