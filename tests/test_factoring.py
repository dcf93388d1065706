"""Integer factoring and primality against trial division.

`references.trial_factor` keeps the earlier body of `base.factor_int`, trial
division by 2, 3 and every 6k +- 1 up to the square root, as the one
test-side referee of integer factoring; it also judges the primes of the
factorization law in `test_domain_contract`.
`base.factor_int` still trial-divides below its bound (2^12) and hands a
larger cofactor to `is_prime` and to Pollard-Brent rho, so the differential
tests below reach all three paths.  `is_prime` is Miller-Rabin to the 13
prime bases 2..41, exact below psi_13, and from psi_13 up also the strong
Lucas test with Selfridge's parameters (`_strong_lucas`), which with base 2
makes Baillie-PSW.  Below 10^5 that Lucas test is held to trial division,
whose only disagreements must be the listed strong Lucas pseudoprimes.
"""

import random

from amap import base
from amap.base import _pollard_brent, _strong_lucas, factor_int, is_prime
from references import trial_factor

# the least strong pseudoprimes to the first 12 and the first 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n: int, base: int) -> bool:
    """Whether odd n passes the Miller-Rabin round to `base`."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def random_prime(rng, bits):
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if trial_factor(p) == [(p, 1)]:
            return p


def test_factor_int_and_is_prime_match_trial_division_below_1e5():
    for n in range(1, 10**5):
        expected = trial_factor(n)
        assert factor_int(n) == expected, n
        assert is_prime(n) == (expected == [(n, 1)]), n


def test_is_prime_rejects_strong_pseudoprimes():
    # each is the least strong pseudoprime to the first k prime bases, for
    # k = 1, 2, 3, 4, 5, 9 and 12: Miller-Rabin to 2..41 rejects them all
    for n in (2047, 1373653, 25326001, 3215031751, 3825123056546413051, PSI_12):
        assert not is_prime(n), n


def test_twelve_bases_are_not_enough_below_3_3e24():
    # psi_12 passes every base 2..37 and fails only 41, so the 13th base is
    # what makes is_prime exact below psi_13
    assert PSI_12 == 399165290221 * 798330580441 < 3.3e24
    assert [b for b in BASES if not strong_probable_prime(PSI_12, b)] == [41]


def test_psi_13_bounds_the_exact_range():
    # psi_13 is composite and passes all 13 bases: from it up, is_prime runs
    # the strong Lucas test as well, which rejects it
    assert PSI_13 == 1287836182261 * 2575672364521
    assert all(strong_probable_prime(PSI_13, b) for b in BASES)
    assert not is_prime(PSI_13)
    assert is_prime(1287836182261) and is_prime(2575672364521)


def test_psi_times_small_primes():
    # rho splits psi_12 in 0.2-0.3 s and psi_13 in about 0.8 s
    for m in (1, 4093):
        assert factor_int(PSI_12 * m) == sorted(
            trial_factor(m) + [(399165290221, 1), (798330580441, 1)]), m
    for m in (1, 2, 3 * 5**2, 4093, 2 * 4099):
        assert factor_int(PSI_13 * m) == sorted(
            trial_factor(m) + [(1287836182261, 1), (2575672364521, 1)]), m


# the strong Lucas pseudoprimes (Selfridge's parameters) below 10^5, OEIS A217255
LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
                      58519, 75077, 97439)


def test_strong_lucas_matches_trial_division_but_at_its_pseudoprimes():
    # every odd n in [43^2, 10^5) with no factor below 43, squares too, for
    # which no Selfridge D exists
    wrong = [n for n in range(43 * 43, 10**5, 2) if all(n % b for b in BASES)
             and _strong_lucas(n) != (trial_factor(n) == [(n, 1)])]
    assert wrong == list(LUCAS_PSEUDOPRIMES)
    assert not any(is_prime(n) for n in LUCAS_PSEUDOPRIMES)


def test_strong_lucas_runs_only_from_psi_13_up(monkeypatch):
    calls = []
    real = base._strong_lucas
    monkeypatch.setattr(base, "_strong_lucas", lambda n: calls.append(n) or real(n))
    rng = random.Random(13)
    below = [PSI_12, PSI_13 - 2, 2**61 - 1, 10**24 + 7] + [rng.randrange(PSI_13) | 1
                                                         for _ in range(200)]
    for n in below:
        is_prime(n)
    assert not calls
    # Mersenne primes above psi_13 pass both tests; psi_13 fails the second
    above = [2**89 - 1, 2**107 - 1, 2**127 - 1]
    assert all(is_prime(n) for n in above) and not is_prime(PSI_13)
    assert calls == above + [PSI_13]


def test_factor_int_splits_seeded_40_bit_semiprimes():
    rng = random.Random(40)
    for i in range(60):
        small = 20 if i % 3 else rng.randint(13, 19)  # balanced, then lopsided
        p, q = random_prime(rng, small), random_prime(rng, 40 - small)
        cofactor = rng.choice((1, 1, 2, 9, 4093 * 5))
        n = p * q * cofactor
        expected = sorted(trial_factor(cofactor) + ([(p, 2)] if p == q else [(p, 1), (q, 1)]))
        assert factor_int(n) == expected, (p, q, cofactor)
        assert not is_prime(p * q) and is_prime(p) and is_prime(q)


def test_factor_int_of_powers_of_large_primes():
    m61, m31, big = 2**61 - 1, 2**31 - 1, 10**9 + 7
    cases = {big**2: [(big, 2)],
             m31**3: [(m31, 3)],
             m31**2 * big: [(big, 1), (m31, 2)],
             2**5 * m31**6: [(2, 5), (m31, 6)],
             4099**5: [(4099, 5)],
             m61: [(m61, 1)],
             m61 * big: [(big, 1), (m61, 1)],
             67108879 * 67109923: [(67108879, 1), (67109923, 1)]}
    for n, expected in cases.items():
        assert factor_int(n) == expected, n


def test_trial_bound_edges():
    # the trial divisors stop at 2^12, so trial division alone settles any
    # cofactor below 2^24 and rho, is_prime or the perfect-power split the
    # rest; each side of that edge against the reference
    around = [4093 * 4099, 4099 * 4111, 4093**2, 4099**2, 4099**3, 4093 * 4099 * 4111,
              2**24 - 1, 2**24 + 1, 2**24 + 43, 16777259, 16777259 * 3, 4097 * 4099]
    around += range(2**24 - 300, 2**24 + 300)
    for n in around:
        assert factor_int(n) == trial_factor(n), n


def test_trial_division_alone_settles_every_n_below_2_24(monkeypatch):
    # inputs of benchmark size (N <= 10^7) never reach Miller-Rabin or rho
    calls = []
    monkeypatch.setattr(base, "_split_large", lambda *args: calls.append(args))
    rng = random.Random(24)
    for n in [4093 * 4099, 4093**2, 2**24 - 1, 10**7 + 19, 9999991]:
        factor_int(n)
    for _ in range(2000):
        factor_int(rng.randrange(1, 2**24))
    assert not calls
    factor_int(4099 * 4111)
    assert calls == [(4099 * 4111, 1, {})]


def test_pollard_brent_splits_every_small_odd_composite():
    # rho meets no small factor first here, unlike inside factor_int: these
    # are every odd composite below 20000 that is not a prime power
    for n in range(9, 20000, 2):
        if len(trial_factor(n)) < 2:
            continue
        d = _pollard_brent(n)
        assert 1 < d < n and n % d == 0, n
