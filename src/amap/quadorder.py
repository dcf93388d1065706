"""Maximal orders of imaginary quadratic fields, with non-principal ideals.

For a squarefree d < 0 the ring of integers is Z[w] with w = sqrt(d) when
d = 2, 3 (mod 4) and w = (1 + sqrt(d))/2 when d = 1 (mod 4).  Elements are
integer pairs x + y*w.  An ideal is stored by the Hermite normal form of
its lattice: an upper-triangular basis {a, b + c*w} with c | a, c | b and
0 <= b < a, which is unique, so ideal equality is matrix equality and the
norm is the determinant a*c.

The primes above a rational prime p come from the roots r of w's minimal
polynomial mod p: each gives P_r = {p, -r mod p + w}, and with no root (p)
is prime, {p, p*w}.  An ideal factors from its HNF with no ideal product:
{a, b + c*w} is c times the primitive {a/c, b/c + w}, which lies in at most
one prime above each p, so the factorizations of c and a/c give every
exponent (see `QuadOrder.factor`).

The domain interface matches the Euclidean domains, so the dynamics layer
runs unchanged here.  An exact quotient n/m is n*conj(m) scaled down by
N(m), since m*conj(m) = <N(m)> (Cohen, A Course in Computational Algebraic
Number Theory, 5.2); no factorization is needed.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from itertools import repeat
from operator import add, mod

from .base import Domain, ZeroIdealError, factor_int, is_prime, power

__all__ = ["QuadInt", "QuadIdeal", "QuadOrder", "SplitType"]


@dataclass(frozen=True)
class QuadInt:
    """Element x + y*w of a quadratic order, in the {1, w} basis."""

    x: int
    y: int

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __add__(self, other: QuadInt) -> QuadInt:
        return QuadInt(self.x + other.x, self.y + other.y)

    def __sub__(self, other: QuadInt) -> QuadInt:
        return QuadInt(self.x - other.x, self.y - other.y)

    def __neg__(self) -> QuadInt:
        return QuadInt(-self.x, -self.y)

    def __repr__(self) -> str:
        return f"QuadInt({self.x}, {self.y})"


class SplitType(enum.Enum):
    RAMIFIED = "ramified"
    SPLIT = "split"
    INERT = "inert"


@dataclass(frozen=True)
class QuadIdeal:
    """Nonzero ideal in HNF: lattice basis {a, b + c*w}."""

    d: int
    a: int
    b: int
    c: int

    @property
    def norm(self) -> int:
        return self.a * self.c

    @property
    def hnf(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (0, self.c))

    def contains(self, z: QuadInt) -> bool:
        if z.y % self.c:
            return False
        return (z.x - (z.y // self.c) * self.b) % self.a == 0

    def contains_ideal(self, other: QuadIdeal) -> bool:
        return (self.contains(QuadInt(other.a, 0))
                and self.contains(QuadInt(other.b, other.c)))

    def __repr__(self) -> str:
        return f"QuadIdeal(d={self.d}, [[{self.a},{self.b}],[0,{self.c}]])"


def _hnf_from_vectors(vectors: list[tuple[int, int]]) -> tuple[int, int, int]:
    """HNF (a, b, c) of the lattice spanned by (x, y) coordinate vectors: row
    Euclid on the y-coordinates (Cohen, 2.4.2) swaps each vector with the pivot
    (px, py) and reduces it until its y is 0; a is the gcd of the x-parts left."""
    a = px = py = 0
    for vx, vy in vectors:
        while vy:
            k = py // vy
            (px, py), (vx, vy) = (vx, vy), (px - k * vx, py - k * vy)
        a = math.gcd(a, vx)
    if a == 0 or py == 0:
        raise ZeroIdealError("vectors span a rank-deficient lattice")
    if py < 0:
        px, py = -px, -py
    return a, px % a, py


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p, or None (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:  # r^2 = a*t, and t has order 2^i with i < m
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


class QuadOrder(Domain):
    """Ring of integers of Q(sqrt(d)) for squarefree d < 0."""

    def __init__(self, d: int):
        if d >= 0:
            raise ValueError("d must be negative")
        if any(e > 1 for _, e in factor_int(-d)):
            raise ValueError("d must be squarefree")
        self.d = d
        if d % 4 == 1:
            self.discriminant = d
            self._t, self._s = 1, (d - 1) // 4  # w^2 = w + (d-1)/4
        else:
            self.discriminant = 4 * d
            self._t, self._s = 0, d  # w^2 = d

    # ---- element arithmetic ----

    def mul(self, z1: QuadInt, z2: QuadInt) -> QuadInt:
        yy = z1.y * z2.y
        return QuadInt(z1.x * z2.x + self._s * yy,
                       z1.x * z2.y + z1.y * z2.x + self._t * yy)

    def pow_element(self, z: QuadInt, e: int) -> QuadInt:
        return power(z, e, self.mul, self.one_element)

    def norm_element(self, z: QuadInt) -> int:
        if self._t:
            return z.x * z.x + z.x * z.y + z.y * z.y * (1 - self.d) // 4
        return z.x * z.x - self.d * z.y * z.y

    # ---- ideal construction ----

    def _make_ideal(self, a: int, b: int, c: int) -> QuadIdeal:
        if a <= 0 or c <= 0:
            raise ZeroIdealError("degenerate HNF")
        if a % c or b % c:
            raise ValueError(f"not an ideal lattice: c={c} must divide a={a}, b={b}")
        b %= a
        # w*a = a*w and w*(b + c*w) = c*s + (b + c*t)*w must lie in the lattice
        for x, y in ((0, a), (c * self._s, b + c * self._t)):
            if y % c or (x - y // c * b) % a:
                raise ValueError("lattice is not closed under multiplication by w")
        return QuadIdeal(self.d, a, b, c)

    def ideal_from_generators(self, gens: list[QuadInt]) -> QuadIdeal:
        """Ideal generated by the given elements (HNF of {g, w*g})."""
        vectors = []
        for g in gens:
            if g.is_zero:
                continue
            wg = self.mul(QuadInt(0, 1), g)
            vectors.append((g.x, g.y))
            vectors.append((wg.x, wg.y))
        if not vectors:
            raise ZeroIdealError("at least one nonzero generator required")
        return self._make_ideal(*_hnf_from_vectors(vectors))

    def _check_pair(self, i: QuadIdeal, j: QuadIdeal) -> None:
        if i.d != self.d or j.d != self.d:
            raise ValueError("ideals from a different order")

    # ---- prime splitting and factorization ----

    def rational_prime_splitting(self, p: int) -> tuple[SplitType, list[QuadIdeal]]:
        """Primes above a rational prime p, sorted by `_ideal_key`."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return self._splitting(p)

    def _splitting(self, p: int) -> tuple[SplitType, list[QuadIdeal]]:
        """Primes above the prime p, classified by the roots r of w's minimal
        polynomial x^2 - t*x - s mod p: each root gives P_r = {p, -r mod p + w},
        and with no root (p) = {p, p*w} is prime.  For odd p the roots are
        (t +- sqrt(D))/2 mod p, with D = t^2 + 4s the discriminant; p = 2 is
        scanned.  Two roots split p, one (p | D) ramifies it.
        """
        if p == 2:
            roots = {r for r in range(2) if (r * r - self._t * r - self._s) % 2 == 0}
        else:
            root = _sqrt_mod(self.discriminant, p)
            half = (p + 1) // 2  # the inverse of 2 mod p
            roots = set() if root is None else {(self._t + root) * half % p,
                                                (self._t - root) * half % p}
        if not roots:
            return SplitType.INERT, [QuadIdeal(self.d, p, 0, p)]
        primes = [QuadIdeal(self.d, p, b, 1) for b in sorted(-r % p for r in roots)]
        return (SplitType.SPLIT if len(primes) == 2 else SplitType.RAMIFIED), primes

    def factor(self, n: QuadIdeal) -> list[tuple[QuadIdeal, int]]:
        """Prime factorization read off the HNF, with no ideal product.

        n = {a, b + c*w} is c*{a', b' + w} with a' = a/c and b' = b/c, and the
        primitive {a', b' + w} is divisible by no rational integer, so it lies
        in at most one prime above each p, once if p ramifies.  From v_p(c)
        and v_p(a'): a split p gives v_p(c) on both primes above it, plus
        v_p(a') on the P_r with b' + r = 0 mod p, which is the one whose HNF
        has b = b' mod p; a ramified p gives 2*v_p(c) + v_p(a'); an inert p
        gives v_p(c).  The product of the prime powers is checked against n.
        """
        self._check_pair(n, n)
        b1 = n.b // n.c
        vc, va = dict(factor_int(n.c)), dict(factor_int(n.a // n.c))
        pairs: list[tuple[QuadIdeal, int]] = []
        for p in vc.keys() | va.keys():
            kind, primes = self._splitting(p)
            ec, ea = vc.get(p, 0), va.get(p, 0)
            if kind is SplitType.SPLIT:
                pairs.extend((prime, e) for prime in primes
                             if (e := ec + (ea if prime.b == b1 % p else 0)))
            else:
                pairs.append((primes[0], ec if kind is SplitType.INERT else 2 * ec + ea))
        pairs.sort(key=lambda pe: self._ideal_key(pe[0]))
        powers = [self.ideal_pow(prime, e) for prime, e in pairs]
        check = functools.reduce(self.ideal_mul, powers) if powers else self.unit_ideal
        if check != n:
            raise RuntimeError("factorization failed to reconstruct the ideal")
        return pairs

    # ---- domain interface ----

    @property
    def one_element(self) -> QuadInt:
        return QuadInt(1, 0)

    def is_zero(self, a: QuadInt) -> bool:
        return a.is_zero

    def principal(self, a: QuadInt) -> QuadIdeal:
        if a.is_zero:
            raise ZeroIdealError("the zero ideal is not allowed")
        return self.ideal_from_generators([a])

    def norm(self, n: QuadIdeal) -> int:
        self._check_pair(n, n)
        return n.norm

    def ideal_mul(self, m: QuadIdeal, n: QuadIdeal) -> QuadIdeal:
        """Z-span of the four products of the HNF bases, each written out by
        w^2 = t*w + s; it is closed under w, as w*(u*v) = (w*u)*v with w*u in
        m, so it needs no w-multiples."""
        self._check_pair(m, n)
        yy = m.c * n.c
        vectors = [(m.a * n.a, 0), (m.a * n.b, m.a * n.c), (m.b * n.a, m.c * n.a),
                   (m.b * n.b + self._s * yy, m.b * n.c + m.c * n.b + self._t * yy)]
        return self._make_ideal(*_hnf_from_vectors(vectors))

    def ideal_div(self, n: QuadIdeal, m: QuadIdeal) -> QuadIdeal:
        """Exact quotient n/m = n*conj(m)/N(m), since m*conj(m) = <N(m)>.

        conj(m) has the basis {a, b + c*conj(w)}, where conj(w) = t - w for
        the trace t of w; m divides n exactly when N(m) divides every HNF
        entry of n*conj(m).
        """
        self._check_pair(n, m)
        prod = self.ideal_mul(n, self._make_ideal(m.a, -m.b - self._t * m.c, m.c))
        k = m.norm
        if prod.a % k or prod.b % k or prod.c % k:
            raise ValueError("ideal does not divide")
        return self._make_ideal(prod.a // k, prod.b // k, prod.c // k)

    def ideal_gcd(self, m: QuadIdeal, n: QuadIdeal) -> QuadIdeal:
        self._check_pair(m, n)
        return self._make_ideal(*_hnf_from_vectors(
            [(m.a, 0), (m.b, m.c), (n.a, 0), (n.b, n.c)]))

    def reduce(self, a: QuadInt, n: QuadIdeal) -> QuadInt:
        self._check_pair(n, n)
        y = a.y % n.c
        k = (a.y - y) // n.c
        x = (a.x - k * n.b) % n.a
        return QuadInt(x, y)

    def _product_mod(self, n: QuadIdeal):
        """Residues as (x, y) pairs, reduced as in `reduce`: a product is
        `mul` and `reduce` inline, with no QuadInt built."""
        self._check_pair(n, n)
        A, B, C, s, t = n.a, n.b, n.c, self._s, self._t

        def mul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
            (x1, y1), (x2, y2) = u, v
            yy = y1 * y2
            k, y = divmod(x1 * y2 + y1 * x2 + t * yy, C)
            return (x1 * x2 + s * yy - k * B) % A, y

        def lift(a: QuadInt) -> tuple[int, int]:
            r = self.reduce(a, n)
            return r.x, r.y
        return lift, mul

    def residues(self, n: QuadIdeal) -> list[QuadInt]:
        """Residue i = y*a + x is x + y*w, for the HNF {a, b + c*w} of n."""
        self._check_pair(n, n)
        return [QuadInt(x, y) for y in range(n.c) for x in range(n.a)]

    def successors(self, a: QuadInt, n: QuadIdeal) -> list[int]:
        """The map is Z-linear: the image of x + y*w is x*(a*1) + y*(a*w).

        Row y of the table holds the images of x + y*w for x < a.  Row 0 is
        the multiples k*z of z = a*1 as indices: with k = c*m + j, k*z is
        m*(c*z) + j*z, and c*z has no w-coordinate by the carry c*w = -b,
        so each stride j of the row is one progression mod a.  Row y + 1 is
        row y plus a*w, with the same carry where the w-coordinates reach c.
        """
        self._check_pair(n, n)
        A, B, C = n.a, n.b, n.c
        z = self.mul_mod(QuadInt(1, 0), a, n)
        s = C * z.x - z.y * B  # c*z = s + 0*w
        row, k = [0] * A, A // C
        for j in range(C):
            y = j * z.y
            base, x = y % C * A, j * z.x - y // C * B
            stride = map(mod, range(x, x + s * k, s), repeat(A, k)) if s else repeat(x % A, k)
            row[j::C] = map(add, repeat(base, k), stride) if base else stride
        # index i = y*a + x plus a*w: from i = (c - w.y)*a on, y + w.y reaches
        # c and the carry takes b off x; x wraps at a either way
        w = self.mul_mod(QuadInt(0, 1), a, n)
        top = (C - w.y) * A
        step, wrap = w.y * A + w.x, A - w.x
        carried = (w.x - B) % A
        cstep, cwrap = (w.y - C) * A + carried, A - carried
        table = row  # extended in place; `row` is rebound to each new row
        for _ in range(1, C):
            row = [(i + step - A if i % A >= wrap else i + step) if i < top
                   else (i + cstep - A if i % A >= cwrap else i + cstep) for i in row]
            table += row
        return table

    def describe_element(self, a: QuadInt) -> list[int]:
        return [a.x, a.y]

    def describe_ideal(self, n: QuadIdeal) -> list[list[int]]:
        return [[n.a, n.b], [0, n.c]]

    def domain_json(self) -> dict:
        return {"kind": "quad", "d": self.d}

    def ideal_from_json(self, spec: dict) -> QuadIdeal:
        """Parse {"d": int, "gens": [[x, y], ...]} into an ideal; a float, a
        string or a bool is refused, never converted or truncated."""
        d, gens = spec.get("d"), spec.get("gens")
        if type(d) is not int or d != self.d:
            raise ValueError(f"ideal JSON has d={d!r}, order has d={self.d}")
        if type(gens) is not list:
            raise ValueError(f"ideal JSON needs a 'gens' list of [x, y] pairs, got {gens!r}")
        for g in gens:
            if type(g) is not list or len(g) != 2 or any(type(c) is not int for c in g):
                raise ValueError(f"ideal JSON generator {g!r} is not an [x, y] pair of ints")
        return self.ideal_from_generators([QuadInt(x, y) for x, y in gens])

    def __repr__(self) -> str:
        return f"QuadOrder({self.d})"
