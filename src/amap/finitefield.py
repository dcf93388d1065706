"""Finite fields F_{p^k} with integer-encoded elements.

An element is an int in [0, p^k) whose base-p digits are the coefficients
of its polynomial representative, lowest degree first.  This makes
``range(q)`` the element enumeration and keeps elements hashable.

For k > 1 arithmetic a monic irreducible modulus of degree k over F_p is
required; if none is supplied the constructor takes the first one that
``polynomials.irreducibles`` yields (lexicographic coefficient order,
constant coefficient most significant), so field construction is
reproducible.  A supplied modulus must list codes of F_p, each in [0, p),
and is tested with Ben-Or's test ``polynomials.is_irreducible``; the
default one is irreducible by construction and not tested again.  Prime
fields compute with ``% p``.  ``check_codes`` states the one rule for a code
that enters from outside: an int in [0, q).
Beyond q = 64 a scalar extension product reads no table: it takes bit
operations when p = 2 and a packed ``Poly`` product reduced by the modulus
when p is odd, so no scalar operation builds a table of q entries.

The whole-table operations ``add_all``, ``sub_all``, ``mul_all`` and
``inverse_table`` evaluate an operation at every element in one list pass.
An extension field serves them from one set of tables of at most q entries,
built in O(q) steps by its first list operation (by the constructor when
q <= 64, whose scalar ``mul`` and ``inv`` then read it) and kept: ``exp`` and
``log`` from a primitive element g, and for odd p the Zech logarithms
log(1 + g^i), through which x + y = x * (1 + y/x) is read as a product
(Lidl-Niederreiter, *Finite Fields*).  Prime fields keep no table.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from .base import factor_int, is_prime, power
from .polynomials import Poly, _fp_linear_table, _mul_mod, irreducibles, is_irreducible

__all__ = ["GF", "field", "quadratic_character"]

_SMALL_Q = 64  # extension fields up to this order build their tables at once


class GF:
    """The finite field with p^k elements."""

    __slots__ = ("p", "k", "q", "modulus", "_modpoly", "_modbits", "_tables")

    def __init__(self, p: int, k: int = 1, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        if k == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
            self.modulus = self._modpoly = None
        else:
            if modulus is None:  # irreducible by construction
                self._modpoly = next(irreducibles(field(p), k))
            else:
                modulus = tuple(modulus)
                self._modpoly = Poly(field(p), modulus)  # refuses codes outside [0, p)
                if len(modulus) != k + 1 or modulus[-1] != 1:
                    raise ValueError(f"modulus must be monic of degree {k}")
                if not is_irreducible(self._modpoly):
                    raise ValueError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = self._modpoly.coeffs
        self._modbits = (sum(c << i for i, c in enumerate(self.modulus))
                         if p == 2 and k > 1 else 0)
        self._tables = None
        if k > 1 and self.q <= _SMALL_Q:  # `mul` computes directly until the set is built
            self._table_set()

    # ---- encoding ----

    def check_codes(self, codes) -> None:
        """Raise ValueError at the first entry that is not an element code."""
        for c in codes:
            if not 0 <= c < self.q:
                raise ValueError(f"{c} is not a field element code in [0, {self.q})")

    def decode(self, a: int) -> tuple[int, ...]:
        """Base-p digits of an element code, lowest degree first."""
        digits = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            digits.append(r)
        return tuple(digits)

    def encode(self, digits) -> int:
        out = 0
        for d in reversed(tuple(digits)):
            out = out * self.p + d % self.p
        return out

    def elements(self) -> range:
        return range(self.q)

    # ---- arithmetic ----

    @property
    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self.encode(x + y for x, y in zip(self.decode(a), self.decode(b)))

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return self.encode(x - y for x, y in zip(self.decode(a), self.decode(b)))

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if self._tables is not None and self.q <= _SMALL_Q:
            exp, log, _ = self._tables
            return exp[(log[a] + log[b]) % (self.q - 1)] if a and b else 0
        if self.p == 2:
            r = 0
            while b:
                if b & 1:
                    r ^= a
                a <<= 1
                b >>= 1
            m = self.k
            mb = self._modbits
            for i in range(r.bit_length() - 1, m - 1, -1):
                if (r >> i) & 1:
                    r ^= mb << (i - m)
            return r
        fp = self._modpoly.field
        prod = _mul_mod(Poly(fp, self.decode(a)), Poly(fp, self.decode(b)), self._modpoly)
        return self.encode(prod.coeffs)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        return power(a, e, self.mul, 1)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        if self._tables is not None and self.q <= _SMALL_Q:
            exp, log, _ = self._tables
            return exp[-log[a]]
        return self.pow(a, self.q - 2)

    # ---- whole tables ----

    def _table_set(self) -> tuple:
        """(exp, log, zech) of an extension field, built on first use.

        exp[i] = g^i for the least primitive g >= p, walked through the
        `_fp_linear_table` of x -> g*x, and log inverts it (log[0] = 0).  For
        odd p, zech[i] = log(1 + g^i) (None for p = 2): adding 1 changes the
        lowest base-p digit only, and at g^i = -1 the entry reads log[0] = 0,
        which no nonzero sum has, so it marks a zero sum.
        """
        if self._tables is not None:
            return self._tables
        p, k, q, m = self.p, self.k, self.q, self.q - 1
        g = next(g for g in range(p, q)
                 if all(self.pow(g, m // r) != 1 for r, _ in factor_int(m)))
        times_g = _fp_linear_table([self.mul(p**j, g) for j in range(k)], p)
        exp, log = self.code_array([1]), self.code_array([0]) * q
        v = 1
        for i in range(1, m):
            v = times_g[v]
            exp.append(v)
            log[v] = i
        zech = self.code_array(log[v - v % p + (v + 1) % p] for v in exp) if p > 2 else None
        self._tables = (exp, log, zech)
        return self._tables

    def add_all(self, xs, ys) -> list[int]:
        """[x + y for each pair]; the inputs must have equal lengths."""
        return self._sum_all(xs, ys, 0)

    def sub_all(self, xs, ys) -> list[int]:
        """[x - y for each pair]; the inputs must have equal lengths."""
        return self._sum_all(xs, ys, (self.q - 1) // 2)

    def _sum_all(self, xs, ys, s: int) -> list[int]:
        """[x + g^s * y for each pair], for s = 0 or (q - 1) / 2: g^s = +-1."""
        pairs = zip(xs, ys, strict=True)
        if self.k == 1:
            p = self.p
            return [(x - y) % p for x, y in pairs] if s else [(x + y) % p for x, y in pairs]
        if self.p == 2:
            return [x ^ y for x, y in pairs]
        exp, log, zech = self._table_set()
        m = self.q - 1
        return [x if not y else exp[(log[y] + s) % m] if not x
                else exp[(log[x] + z) % m] if (z := zech[(log[y] + s - log[x]) % m]) else 0
                for x, y in pairs]

    def mul_all(self, xs, ys) -> list[int]:
        """[x * y for each pair]; the inputs must have equal lengths."""
        pairs = zip(xs, ys, strict=True)
        if self.k == 1:
            p = self.p
            return [x * y % p for x, y in pairs]
        exp, log, _ = self._table_set()
        m = self.q - 1
        return [exp[(log[x] + log[y]) % m] if x and y else 0 for x, y in pairs]

    def code_array(self, codes=()) -> array:
        """A compact array of element codes, or of indices up to q; 4 bytes
        an entry while q < 2^32."""
        return array("I" if self.q < 1 << 32 else "Q", codes)

    def inverse_table(self) -> array:
        """1/x at every code x, with 0 -> 0; a new array on each call.  Over
        F_p the recurrence fills x <= (p - 1) / 2, as it reads p % x < x, and
        1/(p - x) = p - 1/x the rest."""
        if self.k == 1:
            p, h = self.p, (self.p - 1) // 2
            inv = [0, 1] + [0] * (h - 1)  # the recurrence runs faster on a list than on an array
            for i in range(2, h + 1):  # from p = (p // i) * i + p % i
                inv[i] = -(p // i) * inv[p % i] % p
            inv = self.code_array(inv)
            inv.fromlist([p - y for y in inv[h:0:-1]])
            return inv
        exp, log, _ = self._table_set()
        inv = self.code_array(exp[-i] for i in log)
        inv[0] = 0
        return inv

    # ---- towers ----

    def embedding(self, sub: GF) -> list[int]:
        """Table embedding a subfield, mapping its codes into this field.

        The subfield generator is sent to the smallest root of its modulus
        here, so the embedding is deterministic.
        """
        if sub.p != self.p or self.k % sub.k:
            raise ValueError(f"F_{sub.q} is not a subfield of F_{self.q}")
        table = list(range(sub.p))
        if sub.k > 1:
            # every root is in the copy of F_(sub.q), a power of g^((q-1)/(sub.q-1))
            points = list(self._table_set()[0][::(self.q - 1) // (sub.q - 1)])
            values = [0] * len(points)
            for c in reversed(sub.modulus):  # Horner over the whole list
                values = self.add_all(self.mul_all(values, points), [c] * len(points))
            root = min(x for x, y in zip(points, values) if y == 0)
            table = [0] * sub.q
            for j in reversed(range(sub.k)):  # Horner over the digits of every code
                table = self.add_all(self.mul_all(table, [root] * sub.q),
                                     [s // sub.p**j % sub.p for s in range(sub.q)])
        return table

    # ---- identity ----

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GF) and self.p == other.p
                and self.k == other.k and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"


@lru_cache(maxsize=None)
def field(p: int, k: int = 1) -> GF:
    """Shared field instances with the default modulus."""
    return GF(p, k)


def quadratic_character(f: GF, a: int) -> int:
    """+1 on nonzero squares, -1 on nonsquares, 0 at zero (odd q only), by
    Euler's criterion; over a prime field by builtin `pow`, as in `GF.pow`."""
    if f.q % 2 == 0:
        raise ValueError("the quadratic character needs odd field order")
    if a == 0:
        return 0
    e = (f.q - 1) // 2
    return 1 if (pow(a, e, f.p) if f.k == 1 else f.pow(a, e)) == 1 else -1
