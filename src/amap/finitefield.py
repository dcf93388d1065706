"""Finite fields F_{p^k} with integer-encoded elements.

An element is an int in [0, p^k) whose base-p digits are the coefficients
of its polynomial representative, lowest degree first.  This makes
``range(q)`` the element enumeration and keeps elements hashable.

For k > 1 arithmetic a monic irreducible modulus of degree k over F_p is
required; if none is supplied the constructor picks the first irreducible
polynomial in lexicographic coefficient order (constant coefficient most
significant), so field construction is reproducible.  Moduli are tested
with the Rabin test ``polynomials.is_irreducible``.  GF(2^k) arithmetic
runs on bit operations; other extensions use digit vectors.
"""

from __future__ import annotations

from functools import lru_cache

from .base import is_prime, power

__all__ = ["GF", "field", "quadratic_character"]


# ---- polynomial helpers over the prime field, on plain digit lists ----

def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(out)


def _fp_mod(a: list[int], m: list[int], p: int) -> list[int]:
    # m monic
    a = a[:]
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for j in range(dm + 1):
                a[shift + j] = (a[shift + j] - c * m[j]) % p
        a.pop()
    return _fp_trim(a)


class GF:
    """The finite field with p^k elements."""

    __slots__ = ("p", "k", "q", "modulus", "_modbits", "_mul_table",
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
            self.modulus = None
        else:
            if modulus is None:
                modulus = self._find_modulus(p, k)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {k}")
            from .polynomials import Poly, is_irreducible

            if not is_irreducible(Poly(field(p), modulus)):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
        self._modbits = (sum(c << i for i, c in enumerate(self.modulus))
                         if p == 2 and k > 1 else 0)
        if 1 < self.q <= 64 and k > 1:
            self._mul_table = [[self._mul_raw(a, b) for b in range(self.q)]
                               for a in range(self.q)]
            self._inv_table = [0] + [self.pow(a, self.q - 2)
                                     for a in range(1, self.q)]
        else:
            self._mul_table = None
            self._inv_table = None
        self._pow_tables: dict[int, list[int]] = {}
        self._embed_cache: dict[tuple, list[int]] = {}

    @staticmethod
    def _find_modulus(p: int, k: int) -> tuple[int, ...]:
        # first irreducible in lexicographic order of (c_0, ..., c_{k-1});
        # c_0 starts at 1 because x divides every candidate with c_0 = 0 (k >= 2)
        import itertools

        from .polynomials import Poly, is_irreducible

        for tail in itertools.product(range(1, p), *[range(p)] * (k - 1)):
            cand = tail + (1,)
            if is_irreducible(Poly(field(p), cand)):
                return cand
        raise RuntimeError("no irreducible polynomial found")  # unreachable

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
    def zero(self) -> int:
        return 0

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

    def _mul_raw(self, a: int, b: int) -> int:
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
        prod = _fp_mul(list(self.decode(a)), list(self.decode(b)), self.p)
        prod = _fp_mod(prod, list(self.modulus), self.p)
        return self.encode(prod + [0] * (self.k - len(prod)))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_raw(a, b)

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
