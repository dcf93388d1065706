"""Univariate polynomials over a finite field, and F_q[x] as a domain.

Coefficients are stored lowest degree first with no trailing zeros; the
zero polynomial is the empty tuple.  Ideals of F_q[x] are represented by
their monic generators.

Factorization runs squarefree / distinct-degree / equal-degree splitting.
The equal-degree stage derandomizes its splitting elements with a PRNG
seeded from the polynomial itself, so results are reproducible.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from .base import Domain, ZeroIdealError, power

if TYPE_CHECKING:
    from .finitefield import GF

__all__ = ["Poly", "PolyDomain", "factor_poly", "is_irreducible", "irreducibles"]


class Poly:
    """Polynomial over a fixed finite field."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: GF, coeffs: Iterable[int] = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)
        self._hash = hash((field.p, field.k, self.coeffs))

    # ---- constructors ----

    @classmethod
    def one(cls, field: GF) -> Poly:
        return cls(field, (1,))

    @classmethod
    def x(cls, field: GF) -> Poly:
        return cls(field, (0, 1))

    @classmethod
    def x_pow_minus_one(cls, field: GF, n: int) -> Poly:
        coeffs = [field.neg(1)] + [0] * (n - 1) + [1]
        return cls(field, coeffs)

    # ---- basic queries ----

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # ---- arithmetic ----

    def _check(self, other: Poly) -> None:
        if self.field != other.field:
            raise ValueError("mixed coefficient fields")

    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly(F, (F.add(a[i] if i < len(a) else 0,
                              b[i] if i < len(b) else 0) for i in range(n)))

    def __sub__(self, other: Poly) -> Poly:
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly(F, (F.sub(a[i] if i < len(a) else 0,
                              b[i] if i < len(b) else 0) for i in range(n)))

    def __neg__(self) -> Poly:
        F = self.field
        return Poly(F, (F.neg(c) for c in self.coeffs))

    def __mul__(self, other: Poly) -> Poly:
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(F)
        out = [0] * (len(a) + len(b) - 1)
        if F.k == 1:  # integers mod p, reduced once at the end
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b, i):
                        out[j] += ai * bj
            p = F.p
            return Poly(F, [c % p for c in out])
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        return Poly(F, out)

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        dv = other.coeffs
        dd = len(dv) - 1
        inv_lead = 1 if dv[-1] == 1 else F.inv(dv[-1])  # no inverse for a monic divisor
        quot = [0] * max(len(rem) - dd, 0)
        if F.k == 1:  # integers mod p; a remainder digit is reduced when read
            p = F.p
            for i in range(len(rem) - 1, dd - 1, -1):
                c = rem[i] % p
                if c:
                    q = c if inv_lead == 1 else c * inv_lead % p
                    quot[i - dd] = q
                    for j, dj in enumerate(dv, i - dd):
                        rem[j] -= q * dj
            return Poly(F, quot), Poly(F, [c % p for c in rem])
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                q = c if inv_lead == 1 else F.mul(c, inv_lead)
                quot[i - dd] = q
                for j in range(dd + 1):
                    rem[i - dd + j] = F.sub(rem[i - dd + j], F.mul(q, dv[j]))
        return Poly(F, quot), Poly(F, rem)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def monic(self) -> Poly:
        if self.is_zero:
            raise ZeroIdealError("cannot normalize the zero polynomial")
        if self.is_monic:
            return self
        F = self.field
        inv = F.inv(self.leading)
        return Poly(F, (F.mul(c, inv) for c in self.coeffs))

    def gcd(self, other: Poly) -> Poly:
        """Monic gcd; gcd(0, 0) is 0."""
        self._check(other)
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def pow_mod(self, e: int, modulus: Poly) -> Poly:
        return power(self % modulus, e, lambda u, v: (u * v) % modulus,
                     Poly.one(self.field))

    def __pow__(self, e: int) -> Poly:
        return power(self, e, operator.mul, Poly.one(self.field))

    def derivative(self) -> Poly:
        F = self.field
        return Poly(F, (F.mul(c, i % F.p)
                        for i, c in enumerate(self.coeffs) if i))

    # ---- identity and display ----

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        return (len(self.coeffs), self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xi = "x" if i == 1 else f"x^{i}"
                terms.append(xi if c == 1 else f"{c}*{xi}")
        return "Poly(%s)" % " + ".join(terms)


# ---- factorization ----

def _pth_root(f: Poly) -> Poly:
    """Preimage of f under the Frobenius on coefficients; f must be a p-th power."""
    F = f.field
    p = F.p
    out = []
    for i in range(0, len(f.coeffs), p):
        c = f.coeffs[i]
        out.append(F.pow(c, F.q // p))  # p-th root via Frobenius inverse
    return Poly(F, out)


def _squarefree_parts(f: Poly) -> list[tuple[Poly, int]]:
    """Decompose monic f into pairwise-coprime squarefree parts with multiplicity."""
    F = f.field
    parts: list[tuple[Poly, int]] = []

    def rec(g: Poly, mult: int) -> None:
        if g.degree < 1:
            return
        d = g.derivative()
        if d.is_zero:
            rec(_pth_root(g), mult * F.p)
            return
        c = g.gcd(d)
        w = g // c  # product of factors with multiplicity not divisible by p
        i = 1
        while w.degree > 0:
            y = w.gcd(c)
            part = w // y
            if part.degree > 0:
                parts.append((part, i * mult))
            w = y
            c = c // y
            i += 1
        if c.degree > 0:
            rec(_pth_root(c), mult * F.p)

    rec(f.monic(), 1)
    return parts


def _distinct_degree(f: Poly) -> Iterator[tuple[Poly, int]]:
    """Yield (part, d) for increasing d: part = gcd(g, x^(q^d) - x) for the
    cofactor g of monic f not yet split off, and last the rest with d = deg g.
    For squarefree f the parts multiply to f.  For any f the first part has
    d = deg f exactly when f is irreducible (Ben-Or): a reducible f has a
    factor of degree <= deg f / 2, which the loop reaches first."""
    F = f.field
    h = x = Poly.x(F)
    g = f
    d = 0
    while g.degree > 2 * (d + 1) - 1 and g.degree > 0:
        d += 1
        h = h.pow_mod(F.q, g)
        common = g.gcd(h - x)
        if common.degree > 0:
            yield common, d
            g = g // common
            h = h % g
    if g.degree > 0:
        yield g, g.degree


def _edf_seed(f: Poly) -> int:
    seed = f.field.q
    for c in f.coeffs:
        seed = seed * f.field.q + c + 1
    return seed


def _equal_degree(f: Poly, d: int) -> list[Poly]:
    """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
    F = f.field
    if f.degree == d:
        return [f]
    rng = random.Random(_edf_seed(f))
    while True:
        h = Poly(F, [rng.randrange(F.q) for _ in range(f.degree)])
        if h.degree < 1:
            continue
        g = f.gcd(h)
        if 0 < g.degree < f.degree:
            break
        if F.p == 2:
            # trace map over GF(2): h + h^2 + h^4 + ...
            t = h % f
            acc = t
            for _ in range(d * F.k - 1):
                t = (t * t) % f
                acc = acc + t
            g = f.gcd(acc)
        else:
            e = h.pow_mod((F.q**d - 1) // 2, f)
            g = f.gcd(e - Poly.one(F))
        if 0 < g.degree < f.degree:
            break
    return sorted(_equal_degree(g, d) + _equal_degree(f // g, d),
                  key=Poly.sort_key)


def factor_poly(f: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors with exponents, sorted deterministically."""
    if f.is_zero:
        raise ZeroIdealError("cannot factor the zero polynomial")
    found: dict[Poly, int] = {}
    for part, mult in _squarefree_parts(f.monic()):
        for prod, d in _distinct_degree(part):
            for irr in _equal_degree(prod, d):
                found[irr] = found.get(irr, 0) + mult
    return sorted(found.items(), key=lambda pe: pe[0].sort_key())


def is_irreducible(f: Poly) -> bool:
    """Ben-Or's test over F_q, for any f, squarefree or not (see
    `_distinct_degree`); constants are not irreducible."""
    return f.degree >= 1 and next(_distinct_degree(f.monic()))[1] == f.degree


def irreducibles(field: GF, degree: int) -> Iterator[Poly]:
    """Monic irreducibles of the given degree, in lexicographic order.

    The constant coefficient is the most significant position.  For degree
    >= 2 it starts at 1, since x divides every candidate with c_0 = 0.
    """
    if degree < 1:
        return
    first = range(1 if degree >= 2 else 0, field.q)
    for tail in itertools.product(first, *[range(field.q)] * (degree - 1)):
        f = Poly(field, tail + (1,))
        if is_irreducible(f):
            yield f


def _fp_linear_table(images: list[int], p: int) -> list[int]:
    """Table of the F_p-linear map of [0, p^r) that sends p^m to images[m].

    An index is read as the vector of its r base-p digits.  The table grows
    one digit at a time: once it covers the indices below p^m, index
    i + c*p^m maps to table[i] plus c*images[m], added digitwise mod p.  For
    p = 2 that sum is XOR.  For odd p the digits are split into two chunks;
    each chunk of the table is built on its own, adding a fixed chunk g by
    one lookup in a row of the p^width sums v + g, and the chunks are then
    put together.  Callers: `PolyDomain.successors` (x -> a*x on F_q[x]/n),
    `applications._linearized_successors` (a linearized map on F_{q^n}) and
    `GF._table_set` (x -> -x and x -> g*x on F_{p^k}).
    """
    if p == 2:
        table = [0]
        for img in images:
            table += [s ^ img for s in table]
        return table
    r = len(images)
    table = [0]  # kept only when r = 0
    width = max(1, (r + 1) // 2)
    for low in range(0, r, width):
        chunk = [0]
        for img in images:
            row = _digit_sums(img // p**low, p, min(width, r - low))
            block = chunk
            for _ in range(p - 1):
                block = [row[v] for v in block]
                chunk += block
        scale = p**low
        table = chunk if low == 0 else [t + v * scale for t, v in zip(table, chunk)]
    return table


def _digit_sums(g: int, p: int, width: int) -> list[int]:
    """row[v] = v + g digitwise mod p, over the low `width` base-p digits."""
    row = [0]
    step = 1
    for _ in range(width):
        g, digit = divmod(g, p)
        row = [x + (v + digit) % p * step for v in range(p) for x in row]
        step *= p
    return row


class PolyDomain(Domain):
    """F_q[x] with ideals normalized to monic generators."""

    def __init__(self, field: GF):
        self.field = field

    @property
    def one_element(self) -> Poly:
        return Poly.one(self.field)

    def is_zero(self, a: Poly) -> bool:
        return a.is_zero

    def principal(self, a: Poly) -> Poly:
        if a.is_zero:
            raise ZeroIdealError("the zero ideal is not allowed")
        return a.monic()

    def norm(self, n: Poly) -> int:
        if n.is_zero:
            raise ZeroIdealError("the zero ideal has no norm")
        return self.field.q**n.degree

    def factor(self, n: Poly) -> list[tuple[Poly, int]]:
        return factor_poly(n)

    def ideal_mul(self, m: Poly, n: Poly) -> Poly:
        return m * n

    def ideal_div(self, n: Poly, m: Poly) -> Poly:
        q, r = divmod(n, m)
        if not r.is_zero:
            raise ValueError(f"{m!r} does not divide {n!r}")
        return q

    def ideal_gcd(self, m: Poly, n: Poly) -> Poly:
        return m.gcd(n)

    def reduce(self, a: Poly, n: Poly) -> Poly:
        if n.is_zero:
            raise ZeroIdealError("reduction modulo the zero ideal")
        return a % n

    def mul(self, a: Poly, b: Poly) -> Poly:
        return a * b

    def residues(self, n: Poly) -> list[Poly]:
        """Residue i has the d base-q digits of i as its coefficients, the
        constant coefficient most significant (see `_residue_index`)."""
        if n.is_zero:
            raise ZeroIdealError("cannot enumerate modulo the zero ideal")
        d = n.degree
        return [Poly(self.field, coeffs)
                for coeffs in itertools.product(range(self.field.q), repeat=d)]

    def _residue_index(self, r: Poly, n: Poly) -> int:
        """Position of a canonical residue r in `residues(n)`."""
        i = 0
        for c in r.coeffs + (0,) * (n.degree - len(r.coeffs)):
            i = i * self.field.q + c
        return i

    def successors(self, a: Poly, n: Poly) -> list[int]:
        """The map is F_p-linear, and the base-p digits of an index are the
        F_p coordinates of its residue, since a coefficient code has its
        coordinates as base-p digits.  Index digit m = e*k + t belongs to
        the generator p^t * x^(d-1-e), where the code p^t is the t-th basis
        element of F_q over F_p; so d*k products fix the table."""
        if n.is_zero:
            raise ZeroIdealError("cannot enumerate modulo the zero ideal")
        F = self.field
        d = n.degree
        images = []
        for m in range(d * F.k):
            e, t = divmod(m, F.k)
            gen = Poly(F, (0,) * (d - 1 - e) + (F.p**t,))
            images.append(self._residue_index(self.mul_mod(gen, a, n), n))
        return _fp_linear_table(images, F.p)

    def describe_element(self, a: Poly) -> list[int]:
        return list(a.coeffs)

    def describe_ideal(self, n: Poly) -> list[int]:
        return list(n.coeffs)

    def domain_json(self) -> dict:
        out = {"kind": "poly", "p": self.field.p, "k": self.field.k}
        if self.field.k > 1:
            out["modulus"] = list(self.field.modulus)
        return out

    def __repr__(self) -> str:
        return f"PolyDomain({self.field!r})"
