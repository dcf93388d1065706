"""Whole-table field operations, and the family maps built on them, against
the per-point code they replaced.

`reference_redei_successors`, `reference_chebyshev_successors` and
`reference_linearized_successors` keep the earlier per-point bodies of
`redei_check` (the `step` closure), `chebyshev_check` (the `cheb` closure)
and `linearized_check` (one scalar product per point and coefficient)
unchanged, as test-only references.
"""

import random

import pytest

from amap import applications
from amap.applications import (_chebyshev_successors, _field_for, _linearized_successors,
                               _redei_successors, chebyshev_check, linearized_check,
                               redei_check)
from amap.base import power
from amap.finitefield import GF, field, quadratic_character


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


def test_field_of_several_real_blocks_matches_reference():
    q = 4099  # prime, a little over one block
    assert q > applications._BLOCK
    F = field(q)
    a = _redei_params(F)[0]
    for n in (2, 5):
        assert list(_redei_successors(F, n, a)) == reference_redei_successors(F, n, a)
        assert list(_chebyshev_successors(F, n)) == reference_chebyshev_successors(F, n)


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


def _count_scalar_calls(monkeypatch, least_k: int = 1) -> list[int]:
    """Counts scalar op calls on fields of degree at least least_k."""
    calls = [0]
    for name in ("mul", "add", "sub", "inv", "pow"):
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
