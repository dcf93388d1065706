"""Row-Euclid Hermite normal forms and Ben-Or irreducibility, against the
code they replaced.

`pivot_hnf_from_vectors` (with `xgcd`) keeps the earlier body of
`quadorder._hnf_from_vectors`, a pivot combined with each vector by an
extended gcd and a list of x-axis vectors, and `rabin_is_irreducible` the
earlier body of `polynomials.is_irreducible` (Rabin's test), as test-only
references.  Both HNFs and both verdicts are unique, so the new kernels
must match the references exactly.
"""

import itertools
import math
import random

import pytest

from amap.base import ZeroIdealError, factor_int
from amap.finitefield import GF, field
from amap.polynomials import Poly, factor_poly, irreducibles, is_irreducible
from amap.quadorder import _hnf_from_vectors


def xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def pivot_hnf_from_vectors(vectors):
    """HNF (a, b, c) of the lattice spanned by (x, y) coordinate vectors."""
    xs = []
    pivot = None  # (x, y) with minimal positive y reachable by combinations
    for vx, vy in vectors:
        if vy == 0:
            if vx:
                xs.append(vx)
            continue
        if pivot is None:
            pivot = (vx, vy)
            continue
        px, py = pivot
        g, s, t = xgcd(py, vy)
        # s*py + t*vy = g; the combination keeps the lattice span
        nx, ny = s * px + t * vx, g
        q1, q2 = py // g, vy // g
        xs.append(q2 * px - q1 * vx)  # y-part cancels
        pivot = (nx, ny)
    if pivot is None:
        raise ZeroIdealError("vectors span a rank-deficient lattice")
    px, py = pivot
    if py < 0:
        px, py = -px, -py
    a = 0
    for v in xs:
        a = math.gcd(a, abs(v))
    if a == 0:
        raise ZeroIdealError("vectors span a rank-deficient lattice")
    return a, px % a, py


def rabin_is_irreducible(f):
    """Rabin irreducibility test over F_q."""
    if f.degree < 1:
        return False
    F = f.field
    n = f.degree
    x = Poly.x(F)
    for r, _ in factor_int(n):
        h = x.pow_mod(F.q ** (n // r), f)
        if f.gcd(h - x).degree != 0:
            return False
    return x.pow_mod(F.q**n, f) == x % f


def _hnf_or_error(hnf, vectors):
    try:
        return hnf(vectors)
    except ZeroIdealError:
        return ZeroIdealError


def _coordinate(rng):
    # zeros, small values and values up to 10^12, of either sign
    return rng.choice((0, rng.randint(-9, 9), rng.randint(-10**12, 10**12)))


def test_hnf_matches_pivot_reference_on_seeded_lists():
    rng = random.Random(20)
    errors = 0
    for _ in range(20000):
        vectors = []
        for _ in range(rng.randint(1, 6)):
            shape = rng.random()
            if shape < 0.1:
                vectors.append((0, 0))
            elif shape < 0.25:
                vectors.append((_coordinate(rng), 0))
            else:
                vectors.append((_coordinate(rng), _coordinate(rng)))
        want = _hnf_or_error(pivot_hnf_from_vectors, vectors)
        assert _hnf_or_error(_hnf_from_vectors, vectors) == want, vectors
        errors += want is ZeroIdealError
    assert 0 < errors < 20000


def test_hnf_matches_pivot_reference_on_ideal_bases():
    # the (a, 0), (b, c) rows that ideal_mul and ideal_gcd pass, with
    # negative y and multiples of each other
    rng = random.Random(7)
    for _ in range(5000):
        c = rng.randint(1, 10**6)
        vectors = [(rng.randint(1, 10**6) * c, 0), (rng.randint(-10**6, 10**6), c)]
        k = rng.randint(-9, 9)
        vectors += [(k * x, k * y) for x, y in vectors]
        rng.shuffle(vectors)
        assert _hnf_from_vectors(vectors) == pivot_hnf_from_vectors(vectors), vectors


@pytest.mark.parametrize("vectors", [
    [], [(0, 0)], [(0, 0), (0, 0)], [(3, 0)], [(3, 0), (-6, 0), (0, 0)],
    [(0, 5)], [(0, 5), (0, -10)], [(1, 2), (2, 4)], [(1, -2), (-3, 6), (0, 0)],
])
def test_rank_deficient_lists_raise_as_before(vectors):
    with pytest.raises(ZeroIdealError):
        pivot_hnf_from_vectors(vectors)
    with pytest.raises(ZeroIdealError):
        _hnf_from_vectors(vectors)


def _polys(F, degree, leading):
    for tail in itertools.product(range(F.q), repeat=degree):
        yield Poly(F, tail + (leading,))


# (p, k, largest degree): 28,439 polynomials with leading coefficient 1 or q - 1
IRREDUCIBILITY_RANGES = [(2, 1, 11), (3, 1, 7), (2, 2, 5), (5, 1, 5), (3, 2, 3), (7, 1, 4)]


@pytest.mark.parametrize("p, k, top", IRREDUCIBILITY_RANGES)
def test_ben_or_matches_rabin_on_every_small_polynomial(p, k, top):
    F = field(p, k)
    for degree in range(top + 1):
        for leading in sorted({1, F.q - 1}):
            for f in _polys(F, degree, leading):
                assert is_irreducible(f) == rabin_is_irreducible(f), f


@pytest.mark.parametrize("p, k, top", [(2, 1, 10), (3, 1, 6), (2, 2, 4), (5, 1, 4),
                                       (3, 2, 3), (7, 1, 3)])
def test_irreducibles_lists_match_rabin_filter(p, k, top):
    F = field(p, k)
    for degree in range(1, top + 1):
        want = [f for f in _polys(F, degree, 1) if rabin_is_irreducible(f)]
        assert list(irreducibles(F, degree)) == want, degree


@pytest.mark.parametrize("p, ks", [(2, list(range(2, 13)) + [18, 20]), (3, range(2, 9)),
                                   (5, range(2, 5)), (7, range(2, 5))])
def test_default_moduli_are_the_first_rabin_irreducibles(p, ks):
    for k in ks:
        # the constant coefficient is the most significant; x divides c_0 = 0
        first = next(f for f in _polys(field(p), k, 1)
                     if f.coeffs[0] and rabin_is_irreducible(f))
        assert GF(p, k).modulus == first.coeffs, (p, k)


def _product(F, factors):
    out = Poly.one(F)
    for f, e in factors:
        for _ in range(e):
            out = out * f
    return out


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (7, 1)])
def test_seeded_factorizations_are_the_unique_one(p, k):
    # a sorted list of distinct monic Rabin-irreducibles whose product is the
    # monic input is the one factorization, and so what Rabin gave before
    F = field(p, k)
    rng = random.Random(p * 10 + k)
    for _ in range(150):
        built = []
        for _ in range(rng.randint(1, 4)):
            g = Poly(F, [rng.randrange(F.q) for _ in range(rng.randint(1, 4))] + [1])
            built.append((g, rng.choice((1, 1, 2, 3, p, 2 * p))))
        unit = rng.randrange(1, F.q)
        f = Poly(F, [F.mul(unit, c) for c in _product(F, built).coeffs])
        got = factor_poly(f)
        assert [g for g, _ in got] == sorted({g for g, _ in got}, key=Poly.sort_key), f
        assert all(g.coeffs[-1] == 1 and rabin_is_irreducible(g) for g, _ in got), f
        assert _product(F, got) == f.monic(), f
