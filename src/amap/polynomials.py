"""Univariate polynomials over a finite field, and F_q[x] as a domain.

Coefficients are stored lowest degree first with no trailing zeros; the
zero polynomial is the empty tuple.  Ideals of F_q[x] are represented by
their monic generators.

Over a prime field, products and divisions are packed (Kronecker
substitution) into fixed-width slots of one Python int: one byte while no
slot can reach 256 (p = 2 to degree 254, p = 3 to 62), else 2, 4, 8 or more.
A product is one big-int multiply, read back mod p through a byte table or
per slot; a division makes one big-int add per quotient digit, a multiple
of the packed divisor that clears the top slot mod p.  Euclid's gcd keeps
its remainders packed from step to step and builds one `Poly` at the end.
The order search multiplies residues mod n as packed ints reduced by
Barrett's method: mu = floor(x^(2d-2) / n) is found once per modulus, and
each product is then three big-int multiplies (`PolyDomain._product_mod`).
Over F_2 nothing is renormalized: subtraction is XOR, so Euclid's step is
one shift and XOR, and a slot sum mod 2 is its low bit, so a Barrett
product reduces its slots by one AND with a mask.

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

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs: Iterable[int] = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if coeffs and (min(coeffs) < 0 or max(coeffs) >= field.q):
            field.check_codes(coeffs)
        self.field = field
        self.coeffs = tuple(coeffs)

    # ---- constructors ----

    @classmethod
    def one(cls, field: GF) -> Poly:
        return cls(field, (1,))

    @classmethod
    def x(cls, field: GF) -> Poly:
        return cls(field, (0, 1))

    @classmethod
    def x_pow_minus_one(cls, field: GF, n: int) -> Poly:
        """x^n - 1 for n >= 0; it is zero for n = 0."""
        if n < 0:
            raise ValueError(f"x^n - 1 needs n >= 0, got {n}")
        return cls(field, [field.neg(1)] + [0] * (n - 1) + [1] if n else ())

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
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed coefficient fields")

    def _termwise(self, other: Poly, op) -> Poly:
        self._check(other)
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return Poly(self.field, itertools.starmap(op, pairs))

    def __add__(self, other: Poly) -> Poly:
        return self._termwise(other, self.field.add)

    def __sub__(self, other: Poly) -> Poly:
        return self._termwise(other, self.field.sub)

    def __neg__(self) -> Poly:
        F = self.field
        return Poly(F, (F.neg(c) for c in self.coeffs))

    def __mul__(self, other: Poly) -> Poly:
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(F)
        if F.k == 1:
            return Poly(F, _packed(F.p, a, b)[1])
        out = [0] * (len(a) + len(b) - 1)
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
        dv = other.coeffs
        dd = len(dv) - 1
        if F.k == 1:
            quot, rem = _packed(F.p, self.coeffs, (1,), dv)
            return Poly(F, quot), Poly(F, rem)
        rem = list(self.coeffs)
        inv_lead = 1 if dv[-1] == 1 else F.inv(dv[-1])  # no inverse for a monic divisor
        quot = [0] * max(len(rem) - dd, 0)
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
        return _mul_mod(self, None, other)

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
        if self.field.k == 1:
            return Poly(self.field, _packed_gcd(self.field.p, self.coeffs, other.coeffs))
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def pow_mod(self, e: int, modulus: Poly) -> Poly:
        return power(self % modulus, e, lambda u, v: _mul_mod(u, v, modulus),
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
        return hash((self.field.p, self.field.k, self.coeffs))

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


# ---- packed prime-field arithmetic ----

_MOD_BYTES = {p: bytes(i % p for i in range(256)) for p in (2, 3, 5, 7, 11, 13)}


def _slot_width(terms: int, p: int) -> int:
    """Bytes per slot that hold a sum of `terms` products of two digits mod p:
    one while the sum stays under 256, else 2, 4, 8, 16, ..."""
    top = max(terms, 1) * (p - 1) ** 2
    return 1 if top < 256 else 1 << (top.bit_length() // 8).bit_length()


def _pack(coeffs, w: int) -> int:
    if w == 1:
        return int.from_bytes(coeffs, "little")
    return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in coeffs), "little")


def _normalize(v: int, w: int, n: int, p: int) -> bytes:
    """The n low slots of a packed v, each reduced mod p, as little-endian
    bytes, w a slot: through the byte table for one-byte slots (p <= 13),
    else per slot."""
    raw = (v & ((1 << 8 * w * n) - 1)).to_bytes(w * n, "little")
    if w == 1:
        return raw.translate(_MOD_BYTES[p])
    return b"".join((int.from_bytes(raw[i:i + w], "little") % p).to_bytes(w, "little")
                    for i in range(0, w * n, w))


def _digits(raw: bytes, w: int):
    """The slots of normalized bytes, as digits."""
    return raw if w == 1 else [int.from_bytes(raw[i:i + w], "little")
                               for i in range(0, len(raw), w)]


def _divide(rem: int, n: int, dv: int, dd: int, p: int, bits: int):
    """Quotient digits, highest first, and what is left of a packed rem of n
    slots once slots n-1 down to dd are cleared mod p against a packed dv of
    degree dd with digits in [0, p): each digit q adds (p - q) times dv under
    it, one big-int add, so no slot goes negative."""
    quot, top_slot, mask = [], bits * dd, (1 << bits) - 1
    inv_lead = pow(dv >> top_slot, -1, p)
    for shift in range(bits * (n - dd - 1), -1, -bits):
        quot.append(q := (rem >> shift + top_slot & mask) * inv_lead % p)
        if q:
            rem += (p - q) * dv << shift
    return quot, rem


def _packed(p: int, a: tuple, b: tuple, dv: tuple = ()):
    """Quotient digits and remainder of a*b by dv over F_p ([] and a*b for no
    dv).  A slot sums min(len a, len b) products, then one per division step."""
    n, dd = len(a) + len(b) - 1, len(dv) - 1
    w = _slot_width(min(len(a), len(b)) + min(max(n - dd, 0), dd + 1), p)
    rem, quot = _pack(a, w) * _pack(b, w), []
    if dv:
        quot, rem = _divide(rem, n, _pack(dv, w), dd, p, 8 * w)
        quot.reverse()
        n = dd
    return quot, _digits(_normalize(rem, w, n, p), w)


def _packed_gcd(p: int, a: tuple, b: tuple):
    """Digits of the monic gcd of a and b over F_p (none for two zeros).

    Euclid on packed ints: each remainder is normalized and repacked, and its
    degree read off its bit length.  A slot starts below p and takes one
    product per quotient digit over it, so a step's width follows its
    quotient's length; both operands are repacked only when that changes.
    Over F_2 a step XORs v, shifted to the top slot of u, into u (or swaps
    them when u is shorter): slots stay 0 or 1 and the gcd is monic.
    """
    w = _slot_width(1, p)
    u, v, nu, nv = _pack(a, w), _pack(b, w), len(a), len(b)
    if p == 2:  # subtraction is XOR, with no carry: no quotient digit, no renormalization
        while v:
            if (shift := u.bit_length() - v.bit_length()) < 0:
                u, v = v, u
            else:
                u ^= v << shift
        return u.to_bytes((u.bit_length() + 7) // 8, "little")
    while v:
        step = _slot_width(1 + min(nu - nv + 1, nv), p)
        if step != w:  # both are normalized: read at w, packed at step
            u = _pack(_digits(u.to_bytes(w * nu, "little"), w), step)
            v = _pack(_digits(v.to_bytes(w * nv, "little"), w), step)
            w = step
        bits = 8 * w
        rem = _divide(u, nu, v, nv - 1, p, bits)[1]
        rem = int.from_bytes(_normalize(rem, w, nv - 1, p), "little")
        u, v, nu, nv = v, rem, nv, (rem.bit_length() + bits - 1) // bits
    digits = _digits(u.to_bytes(w * nu, "little"), w)
    inv = pow(digits[-1], -1, p) if nu else 1
    return digits if inv == 1 else [c * inv % p for c in digits]


def _mul_mod(a: Poly, b: Poly | None, n: Poly) -> Poly:
    """a*b mod n, or a mod n for b None; over a prime field one packed
    product, reduced in place, and no quotient."""
    F = a.field
    if F.k > 1 or not n.coeffs or not (F is (a if b is None else b).field is n.field):
        return divmod(a if b is None else a * b, n)[1]
    return Poly(F, _packed(F.p, a.coeffs, (1,) if b is None else b.coeffs, n.coeffs)[1])


# ---- factorization ----

def _pth_root(f: Poly) -> Poly:
    """Preimage of f under the Frobenius on coefficients; f must be a p-th power."""
    F = f.field  # the p-th root of a code is its (q/p)-th power
    return Poly(F, (F.pow(c, F.q // F.p) for c in f.coeffs[::F.p]))


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
    factor of degree <= deg f / 2, which the loop reaches first.  Over F_2,
    x^(2^d) is squared mod f on Barrett residues set up once: every cofactor
    g divides f, so gcd(g, x^(2^d) - x) may read it mod f instead of mod g."""
    F = f.field
    h = x = Poly.x(F)
    g = f
    d = 0
    if F.q == 2 and f.degree > 1:
        lift, mul = PolyDomain(F)._product_mod(f)
        w, h = _slot_width(f.degree, 2), lift(x)
    while g.degree > 2 * (d + 1) - 1 and g.degree > 0:
        d += 1
        if F.q == 2:  # h = x^(2^d) mod f packed; XOR subtracts x; a digit is a slot's low byte
            h = mul(h, h)
            common = g.gcd(Poly(F, (h ^ 1 << 8 * w).to_bytes(w * f.degree, "little")[::w]))
        else:
            h = h.pow_mod(F.q, g)
            common = g.gcd(h - x)
        if common.degree > 0:
            yield common, d
            g = g // common
            if F.q != 2:
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
                t = _mul_mod(t, t, f)
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

    def mul_mod(self, a: Poly, b: Poly, n: Poly) -> Poly:
        return _mul_mod(a, b, n) if n.coeffs else self.reduce(a, n)  # reduce refuses n = 0

    def _product_mod(self, n: Poly):
        """Over a prime field a residue is a packed int of d = deg n digits
        in [0, p), and a product is reduced by Barrett's method (von zur
        Gathen and Gerhard, *Modern Computer Algebra*, 9.1): with mu =
        floor(x^(2d-2) / n), the quotient of f = x*y by n is floor(f / x^d)
        * mu less its d - 2 low digits, so f mod n is three big-int multiplies
        and three normalizations.  Over F_2 a normalization is one AND with a
        mask of one bit per slot, at any slot width.  A constant residue
        (d = 1) is one digit."""
        F, d = self.field, n.degree
        if F.k > 1 or d < 1:
            return super()._product_mod(n)
        p = F.p
        w = _slot_width(d, p)  # no slot sums more than d digit products
        bits = 8 * w

        def lift(a: Poly) -> int:
            return _pack(self.reduce(a, n).coeffs, w)
        if d == 1:
            return lift, lambda x, y: x * y % p
        mu = _pack(_packed(p, (0,) * (2 * d - 2) + (1,), (1,), n.coeffs)[0], w)
        minus_n = _pack([-c % p for c in n.coeffs], w)
        hi, mid, from_bytes = bits * d, bits * (d - 2), int.from_bytes
        if p == 2:  # a slot sum mod 2 is its low bit
            ones = ((1 << bits * (2 * d - 1)) - 1) // ((1 << bits) - 1)  # 1 in each slot
            low, top = ones >> bits * (d - 1), ones >> bits * d

            def mul(x: int, y: int) -> int:
                f = x * y & ones
                return f + ((f >> hi) * mu >> mid & top) * minus_n & low
            return lift, mul

        def mul(x: int, y: int) -> int:
            f = from_bytes(_normalize(x * y, w, 2 * d - 1, p), "little")
            q = from_bytes(_normalize((f >> hi) * mu >> mid, w, d - 1, p), "little")
            return from_bytes(_normalize(f + q * minus_n, w, d, p), "little")
        return lift, mul

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
