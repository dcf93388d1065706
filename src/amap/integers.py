"""The rational integers as an arithmetic domain.

Ideals are their positive generators, so ideal arithmetic is plain integer
arithmetic; factorization is `base.factor_int`.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mod

from .base import Domain, check_positive_int, factor_int

__all__ = ["IntegerDomain"]


class IntegerDomain(Domain):
    """Z with ideals normalized to positive generators."""

    @property
    def one_element(self) -> int:
        return 1

    def is_zero(self, a: int) -> bool:
        return a == 0

    def principal(self, a: int) -> int:
        return check_positive_int(a, "generator")

    def norm(self, n: int) -> int:
        return check_positive_int(n)

    def factor(self, n: int) -> list[tuple[int, int]]:
        return factor_int(n)

    def ideal_mul(self, m: int, n: int) -> int:
        return m * n

    def ideal_div(self, n: int, m: int) -> int:
        q, r = divmod(n, m)
        if r:
            raise ValueError(f"{m} does not divide {n}")
        return q

    def ideal_gcd(self, m: int, n: int) -> int:
        return math.gcd(m, n)

    def reduce(self, a: int, n: int) -> int:
        return a % check_positive_int(n)

    def mul(self, a: int, b: int) -> int:
        return a * b

    def _product_mod(self, n: int):
        n = check_positive_int(n)
        return (lambda a: a % n), (lambda x, y: x * y % n)

    def residues(self, n: int) -> list[int]:
        """Residue i is the integer i."""
        return list(range(check_positive_int(n)))

    def successors(self, a: int, n: int) -> list[int]:
        """a*i mod n, from the image of the one generator 1."""
        n = check_positive_int(n)
        ar = self.mul_mod(1, a, n)
        return list(map(mod, range(0, ar * n, ar), repeat(n, n))) if ar else [0] * n

    def describe_element(self, a: int) -> int:
        return a

    def describe_ideal(self, n: int) -> int:
        return n

    def domain_json(self) -> dict:
        return {"kind": "Z"}

    def __repr__(self) -> str:
        return "IntegerDomain()"
