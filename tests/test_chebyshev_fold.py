"""The fold behind the Chebyshev prediction, one torus at a time.

`applications._folded_torus` predicts x -> n*x on Z/m, m even, folded by
negation, from the prime-power rows; `trees.folded_tree` gives the tree at
the points negation fixes.  The one referee is `references.brute_fold`: the
quotient of `successors(n, m)` by the negation table `successors(-1, m)`,
each orbit {x, -x} named by min(x, m - x), decomposed by `brute_graph`.
All 40,198 cases with m < 400 even and 1 <= n <= m + 2 agreed in a one-off
run; the test keeps a seeded sample over every even m < 1200, so that it
takes about a second, and six small cases run on their own.
"""

import random

import pytest

from amap.applications import _folded_torus
from amap.graphs import Component, FunctionalGraph
from amap.trees import LEAF, RootedTree, elementary_tree, folded_tree
from references import brute_fold


def predicted_fold(n, m):
    nu, rows, fixed = _folded_torus(n, m)
    return FunctionalGraph(rows + [(Component(1, (folded_tree([nu]),)), fixed)])


def _cases():
    # every even m, so both classes mod 4; n = m -+ 1 (n = -+1 mod m, both
    # odd), an even n and an n below 60, where the old walk ran, and one more
    # n up to m + 2
    rng = random.Random(1200)
    for m in range(2, 1200, 2):
        picks = {m - 1, m + 1, rng.randrange(2, m + 3, 2), rng.randrange(1, 60),
                 rng.randint(1, m + 2)}
        yield from ((n, m) for n in sorted(picks))


def test_fold_matches_the_brute_quotient():
    cases = list(_cases())
    assert len(cases) > 2500
    assert {m % 4 for _, m in cases} == {0, 2} and {n % 2 for n, _ in cases} == {0, 1}
    for n, m in cases:
        assert predicted_fold(n, m) == brute_fold(n, m), (n, m)


@pytest.mark.parametrize("n, m", [(4, 2), (4, 4), (2, 24), (6, 72), (3, 54), (5, 50)])
def test_fold_of_small_cases(n, m):
    assert predicted_fold(n, m) == brute_fold(n, m)


def test_folded_tree_by_hand():
    # Z/8 under x -> 2x: 0 <- 4 <- {2, 6} <- {1, 3, 5, 7}.  Folded, 4 is the
    # 2-torsion child, {2, 6} one node under it, {1, 7} and {3, 5} its leaves
    assert folded_tree([(2, 2, 2)]) == RootedTree([elementary_tree((2, 2))])
    # Z/3 under x -> 3x: 1 and 2 are one node
    assert folded_tree([(3,)]) == RootedTree([LEAF])
    assert folded_tree([]) == folded_tree([()]) == LEAF
    # T_4 on F_3: Z/2 and Z/4 glued at 0; their 2-torsion points glue into
    # one leaf (x = -2), beside the pair {1, 3} of Z/4
    assert folded_tree([(2,), (4,)]) == RootedTree([LEAF, LEAF])
    with pytest.raises(ValueError, match="pair off"):
        folded_tree([(4, 3, 2)])
