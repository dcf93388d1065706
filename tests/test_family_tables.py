"""The family tables, each against its one test-side referee.

`_redei_successors`, `_chebyshev_successors` and `_linearized_successors`
are held at small degree to the per-point references of `references`
(`reference_redei_successors`, `reference_chebyshev_successors`,
`reference_linearized_successors`: the earlier per-point bodies of the
three checks; `_assert_tables_match` states the law once for the Redei and
Chebyshev tests), and the Redei and Chebyshev tables at degrees of a thousand
and more to the scalar powers `redei_by_powers` and `chebyshev_by_powers`,
O(log n) products a point.  A prime field takes its own path, which
evaluates x <= (p - 1) / 2 and mirrors the rest; tests reach it only
through `_redei_successors` and `_chebyshev_successors`, so no table path
judges another (a tooling test checks it).  The whole-table field
operations are refereed in `test_arithmetic_layer.TestLogTables`, and here
`inverse_table` over F_p by builtin `pow`.
"""

import random
from array import array

import pytest

from amap import applications
from amap.applications import (_chebyshev_successors, _field_for, _linearized_successors,
                               _redei_successors, chebyshev_check, linearized_check,
                               redei_check)
from amap.base import is_prime
from amap.finitefield import GF, field, quadratic_character
from references import (chebyshev_by_powers, redei_by_powers, redei_points,
                        reference_chebyshev_successors, reference_linearized_successors,
                        reference_redei_successors)


def _redei_params(F):
    """One nonzero square and one nonsquare of F."""
    square = F.mul(2, 2)
    nonsquare = next(x for x in range(2, F.q) if quadratic_character(F, x) == -1)
    return square, nonsquare


def _parameters(F):
    """Every nonzero a in a field below 30; beyond, a square, a nonsquare
    and -1.  A square a drops its two roots."""
    if F.q < 30:
        return tuple(range(1, F.q))
    return (*_redei_params(F), F.neg(F.one))


T = "T"  # the Chebyshev table; an int a stands for the Redei table with parameter a
BLOCK = applications._BLOCK
PRIMES = [p for p in range(3, 60) if is_prime(p)]
POWER_Q = (9, 25, 27, 49, 81, 121, 125, 243, 343)
FIELD_Q = (3, 5, 7, 11, 13, 1009) + POWER_Q  # prime, table and odd-p Poly fields
SMALL_N = tuple(range(1, 14))  # both parities, one and many bits, both second bits


def _parity_cases(q, degrees, extra=()):
    """Odd n with a square a, so the roots of a are dropped, and even n with
    a nonsquare; the Chebyshev table at every n."""
    square, nonsquare = _redei_params(_field_for(q))
    return [pytest.param(q, tuple(n for n in degrees if n % 2 == parity), (T, a, *extra), (BLOCK,),
                         id=f"{q}-{'odd' if parity else 'even'}")
            for parity, a in ((1, square), (0, nonsquare))]


TABLE_CASES = [
    # the primes below 60 with every a below 30, and three a above, in blocks
    # of 4, which put block edges inside the evaluated half and the mirror
    *(pytest.param(p, SMALL_N + (31, 64, 65, 97, 100, 128), (T, *_parameters(field(p))), (4,),
                   id=f"{p}-block4") for p in PRIMES),
    # block sizes down to one point, and q = one block plus one
    *(pytest.param(q, (1, 2, 6, 13), (T, _redei_params(_field_for(q))[1]), (q - 1, 4, 1),
                   id=f"{q}-blocks") for q in (13, 25, 243)),
    # `families` band primes on both sides of p mod 4 (-1 is a square mod
    # 2909 only), and four more, two a side, with Chebyshev tables to n = 40
    *(case for p in (2903, 2909) for case in _parity_cases(p, SMALL_N, extra=(p - 1,))),
    *(pytest.param(p, tuple(range(1, 41)), (T,), (BLOCK,), id=f"{p}-to-40")
      for p in (1297, 593, 359, 2447)),
    # 4099 = 3 mod 4, a little over one block: with a square a the two roots
    # leave 4097 points, one block and one point
    pytest.param(4099, (1, 2, 5, 6), (T, *_parameters(field(4099))), (BLOCK,), id="4099"),
]


def _assert_tables_match(q, degrees, maps, blocks, monkeypatch):
    """The per-point law: each map is T, the Chebyshev table, or a, the
    Redei table with parameter a, and at each degree and block size it is
    the per-point reference."""
    F = _field_for(q)
    for n in degrees:
        for a in maps:
            want = (reference_chebyshev_successors(F, n) if a == T
                    else reference_redei_successors(F, n, a))
            for block in blocks:
                monkeypatch.setattr(applications, "_BLOCK", block)
                got = _chebyshev_successors(F, n) if a == T else _redei_successors(F, n, a)
                assert list(got) == want, (q, a, n, block)


def _degrees(q):
    """n = 1..13, and 31, 64, 97, 128 but in odd-p Poly fields beyond the
    table size, where the reference takes n Poly products a point."""
    return SMALL_N + (() if q > 64 and not is_prime(q) else (31, 64, 97, 128))


@pytest.mark.parametrize("q", FIELD_Q)
def test_redei_table_matches_per_point_reference(q, monkeypatch):
    # odd n with a square a, so the roots of a are dropped; even n with a nonsquare
    square, nonsquare = _redei_params(_field_for(q))
    for parity, a in ((1, square), (0, nonsquare)):
        _assert_tables_match(q, [n for n in _degrees(q) if n % 2 == parity], (a,), (BLOCK,),
                             monkeypatch)


@pytest.mark.parametrize("q", FIELD_Q)
def test_chebyshev_table_matches_per_point_reference(q, monkeypatch):
    _assert_tables_match(q, _degrees(q), (T,), (BLOCK,), monkeypatch)


@pytest.mark.parametrize("q, degrees, maps, blocks", TABLE_CASES)
def test_tables_match_per_point_references(q, degrees, maps, blocks, monkeypatch):
    _assert_tables_match(q, degrees, maps, blocks, monkeypatch)


# GF(2^7..2^10) take the bitwise path
@pytest.mark.parametrize("q", FIELD_Q + (128, 256, 512, 1024))
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


BIG_N = 10**9 + 7
HUGE_N = (BIG_N, 2**64 + 1, 1001)

POWER_CASES = [
    *(pytest.param(q, HUGE_N, BLOCK, id=str(q)) for q in (3, 5, 7, 13, 1009, 9)),
    pytest.param(243, (BIG_N,), BLOCK, id="243"),  # about 30 Poly products a point and step
    pytest.param(4099, (64, 65, 1001), BLOCK, id="4099"),
    *(pytest.param(p, (1001,), 4, id=f"{p}-block4") for p in PRIMES),
]


@pytest.mark.parametrize("q, degrees, block", POWER_CASES)
def test_huge_degree_matches_scalar_powers(q, degrees, block, monkeypatch):
    # every point of a prime field, seeded points of F_9 and F_243: O(log n)
    # products a point, by `base.power`, with no doubling identity
    monkeypatch.setattr(applications, "_BLOCK", block)
    F = _field_for(q)
    rng = random.Random(q)
    xs = F.elements() if F.k == 1 else [0, 1, F.neg(F.one)] + [rng.randrange(q) for _ in range(20)]
    for n in degrees:
        cheb = _chebyshev_successors(F, n)
        assert [cheb[x] for x in xs] == [chebyshev_by_powers(F, n, x) for x in xs], (q, n)
        for a in _parameters(F):
            points = redei_points(F, a)  # the numbering, which skips the roots of a
            index = {pt: i for i, pt in enumerate(points)}
            redei = _redei_successors(F, n, a)
            assert len(redei) == len(points) and redei[0] == 0, (q, a, n)
            finite = [x for x in xs if x in index]
            assert [redei[index[x]] for x in finite] == \
                [index[redei_by_powers(F, n, a, x)] for x in finite], (q, a, n)


def test_huge_degree_checks_hold():
    assert redei_check(1009, BIG_N, 3).isomorphic
    assert chebyshev_check(1009, BIG_N).ok


# ---- the table operations themselves ----

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


@pytest.mark.parametrize("F", [field(7), field(3, 2), field(2, 3), field(2, 7), field(3, 5),
                               field(1009), field(3, 4)], ids=repr)
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
