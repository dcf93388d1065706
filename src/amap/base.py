"""Shared interface of residually finite arithmetic domains.

A domain bundles the ideal arithmetic of one concrete ring: factorization
into primes, gcd/exact division, residue enumeration and modular element
arithmetic; for the brute-force oracle it also gives the successor table
of x -> a*x, from the images of the additive generators of D/n.
``factor(n)`` returns a list of (prime, exponent) pairs, primes normalized
and sorted by the ideal order, whose product is n; ``factor_int`` keeps the
same contract for positive integers, by trial division, Miller-Rabin (and
a strong Lucas test from psi_13 up) and Pollard-Brent rho.  Everything
derivable from those primitives is computed here once and shared by all
implementations:

* the unit ideal, domain equality and hashing, the ideal order;
* membership (a reduces to zero), modular products and ideal powers;
* Euler phi, from a factorization;
* each prime power's phi and order of an element a, from one factorization
  with one order search per prime, lifted to its higher powers by one power
  each, and `cycle_type`, the CRT convolution that turns those local rows
  into the cycles of x -> a*x;
* that order search, by stripping the primes of phi (Cohen, A Course in
  Computational Algebraic Number Theory, Alg. 1.4.3), in
  O(log phi * omega(phi)) modular products on the residues a domain hands
  out per modulus (`_product_mod`);
* the gcd chain of an ideal against <a>, which alone gives both the
  a-decomposition and the nu-series, with no factorization;
* congruence solution counts.

Ideals are represented by normalized values whose ``==`` is ideal equality:
positive integers, monic polynomials, or Hermite-normal-form lattices.  All
values are immutable and all operations pure, so domains are safe to share
across threads.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from typing import Any

__all__ = ["Domain", "ZeroIdealError", "NotCoprimeError"]


class ZeroIdealError(ValueError):
    """An operation received the zero ideal (or a zero generator)."""


class NotCoprimeError(ValueError):
    """A multiplicative order was requested for a non-invertible residue."""


class Domain(ABC):
    """Arithmetic of one residually finite Dedekind domain."""

    # ---- primitives supplied by each concrete domain ----

    @property
    @abstractmethod
    def one_element(self):
        """The ring identity."""

    @abstractmethod
    def is_zero(self, a) -> bool:
        """Whether an element is zero."""

    @abstractmethod
    def principal(self, a):
        """Normalized ideal generated by a nonzero element."""

    @abstractmethod
    def norm(self, n) -> int:
        """Cardinality of the residue ring modulo n."""

    @abstractmethod
    def factor(self, n) -> list[tuple[Any, int]]:
        """(prime, exponent) pairs of a nonzero ideal, sorted by `_ideal_key`."""

    @abstractmethod
    def ideal_mul(self, m, n):
        """Product of two ideals."""

    @abstractmethod
    def ideal_div(self, n, m):
        """Exact quotient n/m; raises ValueError if m does not divide n."""

    @abstractmethod
    def ideal_gcd(self, m, n):
        """gcd of two ideals (their sum)."""

    @abstractmethod
    def reduce(self, a, n):
        """Canonical representative of a modulo n."""

    @abstractmethod
    def mul(self, a, b):
        """Ring product of two elements."""

    @abstractmethod
    def residues(self, n) -> list:
        """All canonical representatives modulo n, in index order."""

    @abstractmethod
    def describe_element(self, a):
        """JSON-able encoding of an element."""

    @abstractmethod
    def describe_ideal(self, n):
        """JSON-able encoding of an ideal."""

    @abstractmethod
    def domain_json(self) -> dict:
        """JSON-able tag identifying the domain instance."""

    # ---- the brute-force oracle's primitive: not abstract, since a domain
    # that only predicts needs no enumeration ----

    def successors(self, a, n) -> list[int]:
        """Successor table of x -> a*x on D/n, in index order.

        Entry i is the index in `residues(n)` of a*residues(n)[i].  The map
        is additive, so it is fixed by the images of the additive generators
        of D/n: one `mul_mod` per generator, the rest is index arithmetic.
        """
        raise NotImplementedError(f"{type(self).__name__} has no successor table")

    # ---- derived operations ----

    # a plain attribute, not functools.cached_property, whose write through
    # __dict__ slows every self.method call on CPython 3.11 (order search +15%)
    @property
    def unit_ideal(self):
        """The whole ring, as an ideal value."""
        try:
            return self._unit_ideal
        except AttributeError:
            self._unit_ideal = self.principal(self.one_element)
            return self._unit_ideal

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Domain)
                and self.domain_json() == other.domain_json())

    def __hash__(self) -> int:
        return hash(json.dumps(self.domain_json(), sort_keys=True))

    def element_in_ideal(self, a, n) -> bool:
        """Membership a in n."""
        return self.is_zero(self.reduce(a, n))

    def mul_mod(self, a, b, n):
        return self.reduce(self.mul(a, b), n)

    def _product_mod(self, n):
        """(lift, mul) for the order search modulo n: lift(a) is the residue
        of a in a form whose == is equality mod n, mul(x, y) the residue of
        x*y.  A domain may hand out a faster form than its elements."""
        return (lambda a: self.reduce(a, n)), (lambda x, y: self.mul_mod(x, y, n))

    def ideal_pow(self, p, e: int):
        return power(p, e, self.ideal_mul, self.unit_ideal)

    def euler_phi(self, n) -> int:
        """Unit count of the residue ring, by the product over prime powers."""
        phi = 1
        for p, e in self.factor(n):
            np = self.norm(p)
            phi *= np**e - np ** (e - 1)
        return phi

    def local_rows(self, a, n) -> list[list[tuple[Any, int, int]]]:
        """For each p^e || n, in `factor` order, the rows (p^k, phi(p^k),
        order of a mod p^k) for k = 1..e.  Requires gcd(<a>, n) = 1.

        One order search per prime p; each k >= 2 lifts the order o mod
        p^(k-1).  The kernel of (D/p^k)* -> (D/p^(k-1))* is 1 + p^(k-1), a
        copy of the additive group p^(k-1)/p^k, whose exponent is the
        characteristic c of D/p; so the order mod p^k is o or o*c, as a^o
        is 1 mod p^k or not, and RuntimeError is raised unless (a^o)^c is.
        """
        self._check_coprime(a, n)
        local = []
        for p, e in self.factor(n):
            norm_p = self.norm(p)
            order = self._order(a, p, norm_p - 1)
            local.append([(p, norm_p - 1, order)])
            pk, char = p, factor_int(norm_p)[0][0] if e > 1 else None  # char(D/p)
            for k in range(2, e + 1):
                pk = self.ideal_mul(pk, p)
                lift, mul = self._product_mod(pk)
                one = lift(self.one_element)
                y = power(lift(a), order, mul, one)
                if y != one:
                    if power(y, char, mul, one) != one:
                        raise RuntimeError("a^(o*c) is not 1; broken arithmetic")
                    order *= char
                local[-1].append((pk, norm_p**k - norm_p ** (k - 1), order))
        return local

    def _ideal_key(self, n):
        return (self.norm(n), self.describe_ideal(n))

    def gcd_chain(self, a, n):
        """Norms of the gcd chain of n against <a>, and the ideal it stops at.

        r_0 = n, g_i = gcd(r_(i-1), <a>), r_i = r_(i-1)/g_i until g_i is the
        unit ideal.  The chain strips the primes dividing <a> from n, so it
        stops at the n1 of the a-decomposition, and the norms of the g_i are
        the nu-series of n0 = n/n1: non-increasing, since g_(i+1) divides g_i.
        """
        if self.is_zero(a):
            raise ValueError("the element a must be nonzero")
        a_ideal = self.principal(a)
        norms = []
        rest, rest_norm = n, self.norm(n)
        while True:
            g = self.ideal_gcd(rest, a_ideal)
            if g == self.unit_ideal:
                return tuple(norms), rest
            quotient = self.ideal_div(rest, g)
            g_norm, q_norm = self.norm(g), self.norm(quotient)
            if g_norm < 2 or rest_norm != g_norm * q_norm:
                raise RuntimeError("gcd chain step does not shrink the ideal")
            if norms and g_norm > norms[-1]:
                raise RuntimeError("nu-series is not non-increasing")
            norms.append(g_norm)
            rest, rest_norm = quotient, q_norm

    def a_decomposition(self, a, n):
        """Split n = n0 * n1 with n0 carrying exactly the primes dividing <a>."""
        n1 = self.gcd_chain(a, n)[1]
        return self.ideal_div(n, n1), n1

    def congruence_solution_count(self, a, b, n) -> int:
        """Number of residues x mod n with a*x = b, per the gcd criterion."""
        g = n if self.is_zero(a) else self.ideal_gcd(self.principal(a), n)
        return self.norm(g) if self.element_in_ideal(b, g) else 0

    def _check_coprime(self, a, n) -> None:
        g = n if self.is_zero(a) else self.ideal_gcd(self.principal(a), n)
        if g != self.unit_ideal:
            raise NotCoprimeError(
                f"element is not invertible modulo {self.describe_ideal(n)}")

    def _order(self, a, n, phi: int) -> int:
        """Order of a unit a mod n whose phi(n) is phi (Cohen, Alg. 1.4.3).

        Starting from phi, for each prime power q^v of phi the order is
        divided by q^v and multiplied back by the least q^j with a^order = 1.
        That makes at most 2*bit_length(phi)*(omega(phi) + 1) products.  Such
        a j <= v exists for every q exactly when a^phi = 1; when it does not,
        the arithmetic is broken and RuntimeError is raised.  Every product
        and comparison with one is made on the residues of `_product_mod(n)`.
        """
        lift, mul = self._product_mod(n)
        one, ar = lift(self.one_element), lift(a)
        if phi == 1 and ar != one:
            raise RuntimeError("a^phi is not 1; broken arithmetic")
        order = phi
        for q, v in factor_int(phi):
            order //= q**v
            y = power(ar, order, mul, one)
            for _ in range(v):
                if y == one:
                    break
                y = power(y, q, mul, one)
                order *= q
            if y != one:
                raise RuntimeError("a^phi is not 1; broken arithmetic")
        return order


def cycle_type(local_types) -> dict:
    """{(cycle_len, tag): cycles} of a product of permutations from each
    factor's (cycle_len, tag, cycles) triples less its fixed zero (1, None, 1):
    cycles of lengths l1 and l2 give gcd(l1, l2) of length lcm(l1, l2) (Wei and
    Xu, *Discrete Math.* 123, 1993).  A tag is kept where the factors agree,
    None agreeing with every tag; any other pair gives "out"."""
    total = {(1, None): 1}
    for local in local_types:
        joined = {}
        for (l1, t1), c1 in total.items():
            for l2, t2, c2 in [(1, None, 1), *local]:
                g = math.gcd(l1, l2)
                key = (l1 // g * l2, t1 if t2 in (None, t1) else t2 if t1 is None else "out")
                joined[key] = joined.get(key, 0) + g * c1 * c2
        total = joined
    return total


def power(x, e: int, mul, one):
    """x**e for e >= 0 by square-and-multiply under `mul`, from the lowest
    set bit's power, never a product by `one`; no squaring follows the last
    bit, so it makes fewer than e products (none for e = 1)."""
    if e < 0:
        raise ValueError("the exponent must be nonnegative")
    result = None
    while e:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one if result is None else result


def check_positive_int(n: int, what: str = "ideal") -> int:
    """Validate and normalize an integer ideal generator."""
    if not isinstance(n, int):
        raise TypeError(f"{what} must be an int, got {type(n).__name__}")
    if n == 0:
        raise ZeroIdealError(f"the zero {what} is not allowed")
    return abs(n)


# the first 13 primes: Miller-Rabin to all of them is exact below psi_13
# (Sorenson and Webster, Math. Comp. 86, 2017); the first 12 are not enough
# below 3.3e24, as psi_12 = 318665857834031151167461 passes 2..37
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _MR_BASES, 1287836182261 * 2575672364521
_PSI_13 = 3317044064679887385961981
# trial division runs over the divisors below this bound, so it alone
# factors every n below _TRIAL_LIMIT**2 = 2^24
_TRIAL_LIMIT = 1 << 12


def is_prime(n: int) -> bool:
    """Strong-probable-prime test to the bases 2..41 (Miller-Rabin), and
    from psi_13 up a strong Lucas test as well.

    The 13 bases are exact below psi_13 = 3317044064679887385961981, the
    least strong pseudoprime to all of them, so the Lucas test runs only
    from psi_13 up.  There base 2 and the Lucas test make Baillie-PSW
    (Baillie and Wagstaff, Math. Comp. 35, 1980), which no known composite
    passes.  A prime always passes.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n), for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Whether an odd n > 1 with no factor below 43 is a strong Lucas
    probable prime with Selfridge's parameters; a square is refused first.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = d*2^s, d odd, n passes when U_d = 0 or
    V_(d*2^r) = 0 mod n for some r < s (Baillie and Wagstaff, Math. Comp.
    35, 1980).  U, V and Q^k climb the bits of d by U_2k = U_k V_k,
    V_2k = V_k^2 - 2Q^k, and U_k+1 = (U_k + V_k)/2, V_k+1 = (D U_k + V_k)/2.
    """
    if math.isqrt(n) ** 2 == n:  # no D would have (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # |D| < n shares a factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2  # 1/2 mod n
    U, V, Qk = 1, 1, Q % n  # k = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def factor_int(n: int) -> list[tuple[int, int]]:
    """Sorted (prime, exponent) pairs of a positive integer.

    Trial division by 2, 3 and the 6k +- 1 below _TRIAL_LIMIT, which alone
    settles every cofactor below 2^24.  A larger cofactor left after it is
    split by `_split_large`: `is_prime`, perfect powers, Pollard-Brent rho.
    """
    n = check_positive_int(n)
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n and f < _TRIAL_LIMIT:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if f * f > n:
        if n > 1:
            out.append((n, 1))
        return out
    large: dict[int, int] = {}
    _split_large(n, 1, large)
    return out + sorted(large.items())


def _split_large(n: int, k: int, out: dict[int, int]) -> None:
    """Add the prime factors of n**k to `out`, for n > 1 with no factor
    below _TRIAL_LIMIT: a prime is kept, a perfect power r**j is split as r
    to the power j*k, and any other n by a factor from `_pollard_brent`."""
    if is_prime(n):
        out[n] = out.get(n, 0) + k
        return
    for j in range(2, n.bit_length() // 12 + 1):  # r > _TRIAL_LIMIT = 2^12
        r = _iroot(n, j)
        if r**j == n:
            _split_large(r, j * k, out)
            return
    d = _pollard_brent(n)
    _split_large(d, k, out)
    _split_large(n // d, k, out)


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _pollard_brent(n: int) -> int:
    """A proper factor of an odd composite n that is not a prime power.

    Pollard's rho on y -> y^2 + c with Brent's cycle finding, the gcds taken
    in batches of 128 products (Brent, BIT 20, 1980; Cohen, A Course in
    Computational Algebraic Number Theory, 8.5).  A batch whose gcd is n
    is walked again one step at a time; c = 1, 2, ... until one splits n.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
