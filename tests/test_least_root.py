"""The least rotation and primitive period of a word, from one Lyndon
factorization, against brute force and against the code it replaced.

`booth_min_rotation` and `kmp_primitive_length` keep the earlier bodies of
`graphs._min_rotation` (Booth 1980) and `graphs._primitive_length` (the
Knuth-Morris-Pratt failure function), as test-only references.
"""

import random
from itertools import product

import pytest

from amap.graphs import _least_root


def booth_min_rotation(items):
    """Index of a least rotation of a sequence of comparable items.

    Booth's least-rotation algorithm (Booth 1980), linear in the length:
    a failure function over the doubled sequence, with the candidate start
    k moved past every mismatch that shows a smaller rotation.
    """
    m = len(items)
    s = list(items) * 2
    fail = [-1] * (2 * m)
    k = 0
    for j in range(1, 2 * m):
        sj = s[j]
        i = fail[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != s[k + i + 1]:  # here i == -1
            if sj < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def kmp_primitive_length(word):
    """Length of the shortest u with word = u^k: the least period m - b,
    from the last border b of the Knuth-Morris-Pratt failure function
    (1977), when it divides m."""
    m = len(word)
    border = [0] * m  # border[j]: longest proper border of word[:j + 1]
    b = 0
    for j in range(1, m):
        wj = word[j]
        while b and wj != word[b]:
            b = border[b - 1]
        if wj == word[b]:
            b += 1
        border[j] = b
    p = m - border[-1]
    return p if m % p == 0 else m


def _rotated(word, r):
    return list(word[r:]) + list(word[:r])


@pytest.mark.parametrize("letters, longest", [(2, 11), (3, 9), (4, 7)])
def test_every_short_word_gets_its_least_rotation_and_period(letters, longest):
    for m in range(1, longest + 1):
        for word in product(range(letters), repeat=m):
            r, p = _least_root(word)
            doubled = word + word
            assert 0 <= r < m, word
            assert doubled[r:r + m] == min(doubled[i:i + m] for i in range(m)), word
            assert p == min(d for d in range(1, m + 1)
                            if m % d == 0 and doubled[d:d + m] == word), word


def _long_words(rng, m=10**4):
    period = [rng.randrange(3) for _ in range(100)]
    broken = period * (m // 100)
    broken[rng.randrange(m)] = 3
    near_uniform = [0] * m
    near_uniform[rng.randrange(m)] = 1
    return {"random": [rng.randrange(3) for _ in range(m)],
            "periodic": period * (m // 100),
            "near-uniform": near_uniform,
            "broken period": broken}


@pytest.mark.parametrize("shape", ["random", "periodic", "near-uniform", "broken period"])
def test_long_words_match_booth_and_kmp(shape):
    rng = random.Random(19)
    for _ in range(3):
        word = _long_words(rng)[shape]
        r, p = _least_root(word)
        assert p == kmp_primitive_length(word)
        assert _rotated(word, r) == _rotated(word, booth_min_rotation(word))
        assert _rotated(word, r)[:p] * (len(word) // p) == _rotated(word, r)

