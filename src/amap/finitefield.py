"""Finite fields F_{p^k} with integer-encoded elements.

An element is an int in [0, p^k) whose base-p digits are the coefficients
of its polynomial representative, lowest degree first.  This makes
``range(q)`` the element enumeration and keeps elements hashable.

For k > 1 arithmetic a monic irreducible modulus of degree k over F_p is
required; if none is supplied the constructor takes the first one that
``polynomials.irreducibles`` yields (lexicographic coefficient order,
constant coefficient most significant), so field construction is
reproducible.  A supplied modulus is tested with the Rabin test
``polynomials.is_irreducible``; the default one is irreducible by
construction and not tested again.  Prime-field products are integer
products mod p.  Extension products come from tables when q <= 64, and
otherwise from bit operations when p = 2 and from ``Poly`` products over F_p
reduced by the modulus when p is odd.

Besides the scalar operations there are whole-table ones: ``add_all``,
``sub_all`` and ``mul_all`` combine two equal-length lists of codes in one
pass, and ``inverse_table`` lists every inverse at once.  A caller that
evaluates a map at every field element makes one list pass per operation
with them, not one method call per element.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from .base import is_prime, power
from .polynomials import Poly, irreducibles, is_irreducible

__all__ = ["GF", "field", "quadratic_character"]


class GF:
    """The finite field with p^k elements."""

    __slots__ = ("p", "k", "q", "modulus", "_modpoly", "_modbits", "_mul_table",
                 "_inv_table", "_pow_tables", "_embed_cache")

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
                modulus = tuple(c % p for c in modulus)
                if len(modulus) != k + 1 or modulus[-1] != 1:
                    raise ValueError(f"modulus must be monic of degree {k}")
                self._modpoly = Poly(field(p), modulus)
                if not is_irreducible(self._modpoly):
                    raise ValueError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = self._modpoly.coeffs
        self._modbits = (sum(c << i for i, c in enumerate(self.modulus))
                         if p == 2 and k > 1 else 0)
        self._mul_table = self._inv_table = None
        if 1 < self.q <= 64 and k > 1:  # `mul` computes directly until its table is set
            self._mul_table = [[self.mul(a, b) for b in range(self.q)]
                               for a in range(self.q)]
            self._inv_table = [0] + [self.pow(a, self.q - 2)
                                     for a in range(1, self.q)]
        self._pow_tables: dict[int, list[int]] = {}
        self._embed_cache: dict[tuple, list[int]] = {}

    # ---- encoding ----

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
        if self._mul_table is not None:
            return self._mul_table[a][b]
        if self.k == 1:
            return (a * b) % self.p
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
        prod = Poly(fp, self.decode(a)) * Poly(fp, self.decode(b)) % self._modpoly
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
        if self._inv_table is not None:
            return self._inv_table[a]
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # ---- whole tables ----

    def add_all(self, xs, ys) -> list[int]:
        """[x + y for each pair]; the inputs must have equal lengths."""
        pairs = zip(xs, ys, strict=True)
        if self.k == 1:
            p = self.p
            return [(x + y) % p for x, y in pairs]
        if self.p == 2:
            return [x ^ y for x, y in pairs]
        add = self.add
        return [add(x, y) for x, y in pairs]

    def sub_all(self, xs, ys) -> list[int]:
        """[x - y for each pair]; the inputs must have equal lengths."""
        pairs = zip(xs, ys, strict=True)
        if self.k == 1:
            p = self.p
            return [(x - y) % p for x, y in pairs]
        if self.p == 2:
            return [x ^ y for x, y in pairs]
        sub = self.sub
        return [sub(x, y) for x, y in pairs]

    def mul_all(self, xs, ys) -> list[int]:
        """[x * y for each pair]; the inputs must have equal lengths."""
        pairs = zip(xs, ys, strict=True)
        if self._mul_table is not None:
            table = self._mul_table
            return [table[x][y] for x, y in pairs]
        if self.k == 1:
            p = self.p
            return [x * y % p for x, y in pairs]
        mul = self.mul
        return [mul(x, y) for x, y in pairs]

    def code_array(self, codes=()) -> array:
        """A compact array of element codes, or of indices up to q; 4 bytes
        an entry while q < 2^32."""
        return array("I" if self.q < 1 << 32 else "Q", codes)

    def inverse_table(self) -> array:
        """1/x at every code x, with 0 -> 0.

        Built afresh on each call and not kept: a prime field's table has p
        entries, and ``field`` keeps every field it has made.
        """
        if self._inv_table is not None:
            return self.code_array(self._inv_table)
        inv = self.code_array([0, 1])
        if self.k == 1:
            p = self.p
            for i in range(2, p):  # from p = (p // i) * i + p % i
                inv.append(-(p // i) * inv[p % i] % p)
        else:
            inv.extend(self.inv(x) for x in range(2, self.q))
        return inv

    # ---- towers ----

    def power_table(self, e: int) -> list[int]:
        """Cached table of x**e for every field element."""
        table = self._pow_tables.get(e)
        if table is None:
            table = [self.pow(x, e) for x in range(self.q)]
            self._pow_tables[e] = table
        return table

    def embedding(self, sub: GF) -> list[int]:
        """Table embedding a subfield, mapping its codes into this field.

        The subfield generator is sent to the smallest root of its modulus
        here, so the embedding is deterministic.
        """
        if sub.p != self.p or self.k % sub.k:
            raise ValueError(f"F_{sub.q} is not a subfield of F_{self.q}")
        key = (sub.p, sub.k, sub.modulus)
        table = self._embed_cache.get(key)
        if table is not None:
            return table
        if sub.k == 1:
            table = list(range(sub.p))
        else:
            root = None
            for x in range(self.q):
                acc = 0
                for c in reversed(sub.modulus):
                    acc = self.add(self.mul(acc, x), c)
                if acc == 0:
                    root = x
                    break
            if root is None:
                raise RuntimeError("subfield modulus has no root in the extension")
            table = []
            for s in range(sub.q):
                acc = 0
                for d in reversed(sub.decode(s)):
                    acc = self.add(self.mul(acc, root), d)
                table.append(acc)
        self._embed_cache[key] = table
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
    """+1 on nonzero squares, -1 on nonsquares, 0 at zero (odd q only)."""
    if f.q % 2 == 0:
        raise ValueError("the quadratic character needs odd field order")
    if a == 0:
        return 0
    return 1 if f.pow(a, (f.q - 1) // 2) == 1 else -1
