"""Whole-table field operations, and the family maps built on them, against
the per-point code they replaced.

`reference_redei_successors`, `reference_chebyshev_successors` and
`reference_linearized_successors` keep the earlier per-point bodies of
`redei_check` (the `step` closure), `chebyshev_check` (the `cheb` closure)
and `linearized_check` (one scalar product per point and coefficient)
unchanged, as test-only references.  `ladder_chebyshev_successors` keeps the
earlier body of `_chebyshev_prime_successors`, which started its ladder at
(T_1, T_2) rather than at (T_2, T_3) or (T_3, T_4).
`full_field_redei_successors` and `full_field_chebyshev_successors` keep the
prime-field bodies that evaluated every point, before the tables evaluated
x <= (p - 1) / 2 and mirrored the rest by parity and the Redei ladder fused
each square with the multiply after it; the Redei one reads its inverses
from `pow` rather than from `GF.inverse_table`.
"""

import random
from array import array
from itertools import chain

import pytest

from amap import applications
from amap.applications import (_chebyshev_field_successors, _chebyshev_prime_successors,
                               _chebyshev_successors, _field_for, _linearized_successors,
                               _redei_field_successors, _redei_prime_successors,
                               _redei_successors, chebyshev_check, linearized_check,
                               redei_check)
from amap.base import is_prime, power
from amap.finitefield import GF, field, quadratic_character
from amap.quadorder import _sqrt_mod


def reference_redei_successors(F, n, a_code):
    excluded = {x for x in F.elements() if F.mul(x, x) == a_code}
    points = [None]  # None encodes the point at infinity
    points.extend(x for x in F.elements() if x not in excluded)
    index = {pt: i for i, pt in enumerate(points)}

    def step(x):
        num, den = x, F.one  # (x + sqrt(a))^1
        for _ in range(n - 1):
            num, den = (F.add(F.mul(num, x), F.mul(den, a_code)),
                        F.add(num, F.mul(den, x)))
        if den == 0:
            return None
        return F.mul(num, F.inv(den))

    return [index[None if pt is None else step(pt)] for pt in points]


def reference_chebyshev_successors(F, n):
    two = F.add(F.one, F.one)

    def cheb(c):
        prev, cur = two, c  # T_0, T_1
        for _ in range(n - 1):
            prev, cur = cur, F.sub(F.mul(c, cur), prev)
        return cur

    return [cheb(c) for c in F.elements()]


def ladder_chebyshev_successors(F, n):
    p = F.p
    bits = bin(n)[3:]
    succ = F.code_array()
    for xs in applications._blocks(range(p)):
        lo, hi = xs, [(x * x - 2) % p for x in xs]
        for i, bit in enumerate(bits, 1):
            more = i < len(bits)  # after the last bit only T_n is needed
            if bit == "1":
                lo, hi = ([(s * t - x) % p for s, t, x in zip(lo, hi, xs)],
                          [(t * t - 2) % p for t in hi] if more else None)
            else:
                lo, hi = ([(s * s - 2) % p for s in lo],
                          [(s * t - x) % p for s, t, x in zip(lo, hi, xs)] if more else None)
        succ.extend(lo)
    return succ


def full_field_redei_successors(F, n, a):
    p = F.p
    inv = [0] + [pow(x, -1, p) for x in range(1, p)]
    root = _sqrt_mod(a, p)
    if root is None:
        points, index = range(p), range(1, p + 1)
    else:  # no point maps to a root, so the roots' index entries are never read
        r1, r2 = sorted((root, p - root))
        points = chain(range(r1), range(r1 + 1, r2), range(r2 + 1, p))
        index = chain(range(1, r1 + 1), [0], range(r1 + 1, r2), [0], range(r2, p - 1))
    index = F.code_array(index)
    bits = bin(n)[3:]
    succ = F.code_array([0])  # infinity is absorbing
    for xs in applications._blocks(points):
        if n == 1:
            u, v = xs, [1] * len(xs)
        else:  # (x + sqrt(a))^2 = (x^2 + a) + 2x*sqrt(a)
            u, v = [(x * x + a) % p for x in xs], [2 * x % p for x in xs]
        for i, bit in enumerate(bits):
            if i:
                u, v = ([(s * s + a * t * t) % p for s, t in zip(u, v)],
                        [2 * s * t % p for s, t in zip(u, v)])
            if bit == "1":
                u, v = ([(s * x + a * t) % p for s, t, x in zip(u, v, xs)],
                        [(s + t * x) % p for s, t, x in zip(u, v, xs)])
        succ.extend([index[s * inv[t] % p] if t else 0 for s, t in zip(u, v)])
    return succ


def full_field_chebyshev_successors(F, n):
    p = F.p
    bits = bin(n)[3:]
    succ = F.code_array()
    for xs in applications._blocks(range(p)):
        if not bits:  # T_1
            lo = xs
        elif bits[0] == "0":  # (T_2, T_3)
            lo = [(x * x - 2) % p for x in xs]
            hi = [x * (x * x - 3) % p for x in xs] if bits[1:] else None
        else:  # (T_3, T_4)
            lo = [x * (x * x - 3) % p for x in xs]
            hi = [(x * x * (x * x - 4) + 2) % p for x in xs] if bits[1:] else None
        for i, bit in enumerate(bits[1:], 2):
            more = i < len(bits)  # after the last bit only T_n is needed
            if bit == "1":
                lo, hi = ([(s * t - x) % p for s, t, x in zip(lo, hi, xs)],
                          [(t * t - 2) % p for t in hi] if more else None)
            else:
                lo, hi = ([(s * s - 2) % p for s in lo],
                          [(s * t - x) % p for s, t, x in zip(lo, hi, xs)] if more else None)
        succ.extend(lo)
    return succ


def reference_linearized_successors(E, frob, coeffs):
    succ = []
    for c in E.elements():
        acc = 0
        x = c
        for i, ai in enumerate(coeffs):
            if i:
                x = frob[x]
            if ai:
                acc = E.add(acc, E.mul(ai, x))
        succ.append(acc)
    return succ


def _redei_params(F):
    """One nonzero square and one nonsquare of F."""
    square = F.mul(2, 2)
    nonsquare = next(x for x in range(2, F.q) if quadratic_character(F, x) == -1)
    return square, nonsquare


# prime fields, table fields (q <= 64) and odd-p Poly fields
PRIME_Q = (3, 5, 7, 11, 13, 1009)
POWER_Q = (9, 25, 27, 49, 81, 121, 125, 243, 343)
BIG_N = 10**9 + 7


def _degrees(F):
    """n = 1..13, and 31, 64, 97, 128 where the reference is quick enough:
    the per-point reference takes n Poly products per point in an odd-p
    field beyond the table size."""
    small = tuple(range(1, 14))
    return small if F.k > 1 and F.q > 64 else small + (31, 64, 97, 128)


@pytest.mark.parametrize("q", PRIME_Q + POWER_Q)
def test_redei_table_matches_per_point_reference(q):
    F = _field_for(q)
    params = _redei_params(F)
    for n in _degrees(F):
        a = params[n % 2]  # odd n with a square: the roots of a are dropped
        assert list(_redei_successors(F, n, a)) == \
            reference_redei_successors(F, n, a), (q, a, n)


@pytest.mark.parametrize("q", PRIME_Q + POWER_Q)
def test_chebyshev_table_matches_per_point_reference(q):
    F = _field_for(q)
    for n in _degrees(F):
        assert list(_chebyshev_successors(F, n)) == reference_chebyshev_successors(F, n), (q, n)


# GF(2^7..2^10) take the bitwise path
@pytest.mark.parametrize("q", PRIME_Q + POWER_Q + (128, 256, 512, 1024))
def test_linearized_table_matches_per_point_reference(q):
    E = _field_for(q)
    rng = random.Random(q)
    frob = [E.pow(x, E.p) for x in E.elements()]
    cases = [[3 % E.q, 0, 1, 2]]
    for length in range(1, E.k + 4):
        coeffs = [rng.choice((0, rng.randrange(E.q))) for _ in range(length - 1)]
        cases.append(coeffs + [rng.randrange(1, E.q)])
    for coeffs in cases:
        assert list(_linearized_successors(E, E.p, coeffs)) == \
            reference_linearized_successors(E, frob, coeffs), (q, coeffs)


def test_chebyshev_closed_form_start_matches_the_ladder():
    # seeded primes of the `families` band [300, 3000), both p mod 4, and
    # every n of 1..40, so both second bits and both one-bit n (2 and 3)
    rng = random.Random(23)
    primes = [p for p in range(300, 3000) if is_prime(p)]
    for p in rng.sample([p for p in primes if p % 4 == 1], 2) + \
            rng.sample([p for p in primes if p % 4 == 3], 2):
        F = field(p)
        for n in range(1, 41):
            assert _chebyshev_prime_successors(F, n) == ladder_chebyshev_successors(F, n), (p, n)


@pytest.mark.parametrize("q", (13, 25, 243))
def test_tables_split_into_blocks_match_reference(q, monkeypatch):
    # block sizes down to one point, and q = one block plus one
    F = _field_for(q)
    a = _redei_params(F)[1]
    degrees = (1, 2, 6, 13)
    redei = [reference_redei_successors(F, n, a) for n in degrees]
    cheb = [reference_chebyshev_successors(F, n) for n in degrees]
    for block in (q - 1, 4, 1):
        monkeypatch.setattr(applications, "_BLOCK", block)
        for n, want_redei, want_cheb in zip(degrees, redei, cheb):
            assert list(_redei_successors(F, n, a)) == want_redei
            assert list(_chebyshev_successors(F, n)) == want_cheb


# benchmark-band primes on both sides of p mod 4: -1 is a square mod 2909 only
@pytest.mark.parametrize("p", (2903, 2909))
def test_band_prime_tables_match_per_point_reference(p):
    F = field(p)
    params = _redei_params(F)
    for n in range(1, 14):
        for a in (params[n % 2], p - 1):
            assert list(_redei_successors(F, n, a)) == \
                reference_redei_successors(F, n, a), (p, a, n)
        assert list(_chebyshev_successors(F, n)) == reference_chebyshev_successors(F, n), (p, n)


@pytest.mark.parametrize("q", (3, 5, 7, 13, 1009))
def test_prime_ladders_match_list_op_ladders_at_huge_degree(q):
    # the prime path against the GF list-op path on the same field
    F = field(q)
    for n in (BIG_N, 2**64 + 1):
        for a in (*_redei_params(F), q - 1):
            assert list(_redei_prime_successors(F, n, a)) == \
                list(_redei_field_successors(F, n, a)), (q, a, n)
        assert list(_chebyshev_prime_successors(F, n)) == \
            list(_chebyshev_field_successors(F, n)), (q, n)


@pytest.mark.parametrize("q", (13, 4099))
def test_prime_tables_read_the_points_in_blocks(q, monkeypatch):
    # only the points x <= (q - 1) / 2, less a root of a, pass through
    # `_blocks`, at most _BLOCK at a time; parity gives the rest
    F = field(q)
    h = (q - 1) // 2
    real = applications._blocks
    sizes = []

    def recording(items):
        for block in real(items):
            assert max(block) <= h, (q, block)
            sizes.append(len(block))
            yield block

    monkeypatch.setattr(applications, "_blocks", recording)
    if q == 13:
        monkeypatch.setattr(applications, "_BLOCK", 4)
    square, nonsquare = _redei_params(F)
    for table, points in ((lambda: _redei_successors(F, 2, square), h),
                          (lambda: _redei_successors(F, 2, nonsquare), h + 1),
                          (lambda: _chebyshev_successors(F, 2), h + 1)):
        sizes.clear()
        table()
        assert sum(sizes) == points and max(sizes) <= applications._BLOCK, (q, sizes)


# n of both parities, of one and of many bits, and of both second bits
MIRROR_N = (*range(1, 14), 64, 65, 100, 1001)


@pytest.mark.parametrize("block", (4, applications._BLOCK))
def test_half_field_tables_match_full_field_tables(block, monkeypatch):
    # every a below 30, a square and a nonsquare (and -1) above; blocks of
    # 4 put block edges inside the evaluated half and inside the mirror
    monkeypatch.setattr(applications, "_BLOCK", block)
    primes = [p for p in range(3, 60) if is_prime(p)] if block == 4 else [4099]
    for p in primes:
        F = field(p)
        params = range(1, p) if p < 30 else (*_redei_params(F), p - 1)
        for n in MIRROR_N if p < 4099 else (1, 2, 5, 64, 65, 1001):
            for a in params:
                assert _redei_prime_successors(F, n, a) == \
                    full_field_redei_successors(F, n, a), (p, a, n)
            assert _chebyshev_prime_successors(F, n) == \
                full_field_chebyshev_successors(F, n), (p, n)


def test_field_of_several_real_blocks_matches_reference():
    # 4099 = 3 mod 4: p - 1 is a nonsquare; with a square a the two roots
    # leave 4097 points, one block and one point
    q = 4099  # prime, a little over one block
    assert q > applications._BLOCK
    F = field(q)
    for n in (1, 2, 5, 6):
        for a in (*_redei_params(F), q - 1):
            assert list(_redei_successors(F, n, a)) == \
                reference_redei_successors(F, n, a), (a, n)
        assert list(_chebyshev_successors(F, n)) == reference_chebyshev_successors(F, n), n


@pytest.mark.parametrize("q", (1009, 9, 243))
def test_huge_degree_matches_scalar_powers(q):
    # seeded points against base.power over pairs (Redei) and over the
    # matrix [[x, -1], [1, 0]] (Chebyshev); neither uses a doubling identity
    F = _field_for(q)
    rng = random.Random(q)
    a = _redei_params(F)[1]  # a nonsquare: every finite point stays
    redei = _redei_successors(F, BIG_N, a)
    cheb = _chebyshev_successors(F, BIG_N)
    minus_one = F.neg(F.one)
    two = F.add(F.one, F.one)
    for x in [0, 1, minus_one] + [rng.randrange(F.q) for _ in range(20)]:
        def pair_mul(s, t):
            return (F.add(F.mul(s[0], t[0]), F.mul(a, F.mul(s[1], t[1]))),
                    F.add(F.mul(s[0], t[1]), F.mul(s[1], t[0])))

        num, den = power((x, F.one), BIG_N, pair_mul, (F.one, 0))
        assert redei[x + 1] == (F.mul(num, F.inv(den)) + 1 if den else 0), (q, x)

        def mat_mul(s, t):
            return tuple(tuple(F.add(F.mul(s[i][0], t[0][j]), F.mul(s[i][1], t[1][j]))
                               for j in range(2)) for i in range(2))

        m = power(((x, minus_one), (F.one, 0)), BIG_N - 1, mat_mul, ((F.one, 0), (0, F.one)))
        assert cheb[x] == F.add(F.mul(m[0][0], x), F.mul(m[0][1], two)), (q, x)


def test_huge_degree_checks_hold():
    assert redei_check(1009, BIG_N, 3).isomorphic
    assert chebyshev_check(1009, BIG_N).ok


# ---- the table operations themselves ----

TABLE_FIELDS = [field(7), field(3, 2), field(2, 3), field(2, 7), field(3, 5)]


@pytest.mark.parametrize("F", TABLE_FIELDS + [field(1009)], ids=repr)
def test_table_ops_match_scalar_ops(F):
    if F.q > 300:
        rng = random.Random(F.q)
        pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(5000)]
    else:
        pairs = [(x, y) for x in F.elements() for y in F.elements()]
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    assert F.add_all(xs, ys) == [F.add(x, y) for x, y in pairs]
    assert F.sub_all(xs, ys) == [F.sub(x, y) for x, y in pairs]
    assert F.mul_all(xs, ys) == [F.mul(x, y) for x, y in pairs]
    inv = F.inverse_table()
    assert len(inv) == F.q and inv[0] == 0
    assert all(F.mul(x, inv[x]) == 1 for x in range(1, F.q))


@pytest.mark.parametrize("p", (2, 3, 5, 1009, 4099, 999983))
def test_prime_inverse_table_matches_pow(p):
    # the recurrence fills x <= (p - 1) / 2, and 1/(p - x) = p - 1/x the rest;
    # inverses are unique, so x * inv[x] = 1 everywhere pins the whole table,
    # and pow referees every entry below 5000 and a sample above
    inv = field(p).inverse_table()
    assert isinstance(inv, array) and len(inv) == p and inv[0] == 0
    assert [x * y % p for x, y in enumerate(inv)] == [0] + [1] * (p - 1)
    h = (p - 1) // 2
    xs = range(1, p) if p < 5000 else [1, h, h + 1, p - 1] + random.Random(p).sample(range(p), 1000)
    assert [inv[x] for x in xs if x] == [pow(x, -1, p) for x in xs if x]


@pytest.mark.parametrize("F", TABLE_FIELDS + [field(1009), field(3, 4)], ids=repr)
def test_table_ops_refuse_unequal_lengths(F):
    for op in (F.add_all, F.sub_all, F.mul_all):
        with pytest.raises(ValueError):
            op([1, 1], [1])
        with pytest.raises(ValueError):
            op(range(3), [])


def test_checks_leave_no_table_on_the_field():
    F = field(1009)

    def held():
        return {slot: repr(getattr(F, slot)) for slot in GF.__slots__}

    before = held()
    redei_check(1009, 6, 3)
    chebyshev_check(1009, 6)
    assert held() == before


def _count_scalar_calls(monkeypatch, least_k: int = 1,
                        names=("mul", "add", "sub", "inv", "pow")) -> list[int]:
    """Counts calls of the named GF ops, by default the scalar ones, on
    fields of degree at least least_k."""
    calls = [0]
    for name in names:
        real = getattr(GF, name)

        def counting(self, *args, _real=real):
            calls[0] += self.k >= least_k
            return _real(self, *args)

        monkeypatch.setattr(GF, name, counting)
    return calls


def test_checks_make_few_scalar_field_calls(monkeypatch):
    calls = _count_scalar_calls(monkeypatch)
    for check in (lambda: redei_check(1009, 6, 3), lambda: chebyshev_check(1009, 6)):
        calls[0] = 0
        check()
        assert calls[0] < 20


def test_prime_field_checks_make_no_gf_calls(monkeypatch):
    # a prime field computes on ints mod p; other fields keep the list ops
    scalar = _count_scalar_calls(monkeypatch)
    listed = _count_scalar_calls(monkeypatch, names=("mul_all", "add_all", "sub_all"))
    for q in (13, 1009, 2909):
        checks = [lambda a=a: redei_check(q, 5, a) for a in (*_redei_params(field(q)), q - 1)]
        for check in checks + [lambda: chebyshev_check(q, 6)]:
            scalar[0] = listed[0] = 0
            check()
            assert (scalar[0], listed[0]) == (0, 0), q
    for q in (25, 243):
        for check in (lambda: redei_check(q, 6, 2), lambda: chebyshev_check(q, 6)):
            listed[0] = 0
            check()
            assert listed[0] > 0, q


def test_warm_linearized_checks_make_few_scalar_field_calls(monkeypatch):
    # on a warm extension field every list op reads the field's tables; the
    # Poly arithmetic of the quotient ring and the prediction still makes
    # about a hundred scalar calls on the prime field, which are not counted
    checks = (lambda: linearized_check(2, 10, [1, 1, 0, 1]),
              lambda: linearized_check(3, 5, [2, 0, 1]))
    for check in checks:
        check()
    calls = _count_scalar_calls(monkeypatch, least_k=2)
    for check in checks:
        calls[0] = 0
        check()
        assert calls[0] < 20


def test_warm_linearized_checks_evaluate_only_basis_codes(monkeypatch):
    # L_f is F_p-linear: each list op spans the k basis codes of E
    checks = ((2, 10, [1, 1, 0, 1]), (3, 5, [2, 0, 1]))
    for q, n, f in checks:
        linearized_check(q, n, f)
    lengths = []
    for name in ("mul_all", "add_all"):
        real = getattr(GF, name)
        monkeypatch.setattr(GF, name, lambda self, xs, ys, _real=real:
                            lengths.append(len(xs)) or _real(self, xs, ys))
    for q, n, f in checks:
        lengths.clear()
        assert linearized_check(q, n, f).isomorphic
        assert lengths and max(lengths) <= field(q).k * n, (q, n)


@pytest.mark.parametrize("p,k", [(2, 7), (3, 5)])
def test_power_tables_share_the_one_table_slot(p, k):
    F = GF(p, k)  # fresh, so every slot it fills shows

    def held():
        return {slot: repr(getattr(F, slot)) for slot in GF.__slots__}

    before = held()
    F.inverse_table()
    after = held()
    assert [slot for slot in GF.__slots__ if before[slot] != after[slot]] == ["_tables"]
    xs = list(F.elements())
    F.mul_all(xs, xs)
    assert held() == after  # no second table set


def test_linearized_reports_agree_on_bitwise_fields():
    # F_2 -> F_2^7..F_2^10, where E takes the bitwise product
    rng = random.Random(5)
    for n in range(7, 11):
        coeffs = [rng.randrange(2) for _ in range(n)] + [1]
        assert linearized_check(2, n, coeffs).isomorphic
