"""The fold behind the Chebyshev prediction, one torus at a time.

`applications._folded_torus` predicts x -> n*x on Z/m, m even, folded by
negation, from the divisor rows; `trees.folded_tree` gives the tree at the
points negation fixes.  The referee is a test-only brute force: the quotient
of `successors(n, m)` by the negation table `successors(-1, m)`, each orbit
{x, -x} named by min(x, m - x), decomposed by `brute_graph`.  All 40,198
cases with m < 400 even and 1 <= n <= m + 2 agreed in a one-off run; the
test keeps a seeded sample of them, so that it takes about a second.

`walk_folded_torus` keeps the earlier body of `_folded_torus`, which read the
fold off every divisor row of the divisor walk (`domains.divisor_table`);
the fold by prime powers and `base.cycle_type` is tested against it on every
case with m < 1200 even and 1 <= n < min(m + 3, 60).
"""

import random

import pytest

from amap.applications import _folded_torus
from amap.graphs import Component, FunctionalGraph, brute_graph
from amap.integers import IntegerDomain
from amap.trees import LEAF, RootedTree, elementary_tree, folded_tree
from domains import divisor_table

Z = IntegerDomain()


def brute_fold(n, m):
    """brute_graph of x -> n*x on (Z/m)/+-1, on the orbit names 0..m/2."""
    succ, neg = Z.successors(n, m), Z.successors(-1, m)
    half = m // 2
    assert all(min(x, neg[x]) == x for x in range(half + 1))
    return brute_graph(half + 1, [min(succ[x], neg[succ[x]]) for x in range(half + 1)])


def predicted_fold(n, m):
    nu, rows, fixed = _folded_torus(n, m)
    return FunctionalGraph(rows + [(Component(1, (folded_tree([nu]),)), fixed)])


def walk_folded_torus(n, m):
    """x -> n*x on Z/m, m even, folded by x ~ -x: its nu-series, the
    (component, count) pairs of the divisor rows d > 2, and how many rows have
    d | 2.  A cycle folds onto itself when -1 is in <n mod d>, else it meets
    its negative; off d | 2 a point and its negative keep disjoint trees T(nu).
    """
    nu, m1 = Z.gcd_chain(n, m)
    tree = (elementary_tree(nu),)
    rows = []
    fixed = 0
    for d, phi, o in divisor_table(Z, n, m1):
        if d <= 2:
            fixed += 1
        elif o % 2 == 0 and pow(n, o // 2, d) == d - 1:
            rows.append((Component(o // 2, tree), phi // o))
        else:
            rows.append((Component(o, tree), phi // (2 * o)))
    return nu, rows, fixed


def test_fold_matches_the_divisor_walk():
    cases = [(n, m) for m in range(2, 1200, 2) for n in range(1, min(m + 3, 60))]
    assert len(cases) == 34_557
    for n, m in cases:
        nu, rows, fixed = _folded_torus(n, m)
        want_nu, want_rows, want_fixed = walk_folded_torus(n, m)
        assert (nu, fixed) == (want_nu, want_fixed), (n, m)
        assert FunctionalGraph(rows) == FunctionalGraph(want_rows), (n, m)


def _cases():
    rng = random.Random(400)
    for m in range(2, 400, 2):
        picks = {1, 2, m - 1, m + 1} | {rng.randint(1, m + 2) for _ in range(12)}
        yield from ((n, m) for n in sorted(picks))


def test_fold_matches_the_brute_quotient():
    cases = list(_cases())
    assert len(cases) > 2500
    for n, m in cases:
        assert predicted_fold(n, m) == brute_fold(n, m), (n, m)


@pytest.mark.parametrize("n, m", [(4, 2), (4, 4), (2, 24), (6, 72), (3, 54), (5, 50)])
def test_fold_of_small_cases(n, m):
    assert predicted_fold(n, m) == brute_fold(n, m)


def test_folded_tree_by_hand():
    # Z/8 under x -> 2x: 0 <- 4 <- {2, 6} <- {1, 3, 5, 7}.  Folded, 4 is the
    # 2-torsion child, {2, 6} one node under it, {1, 7} and {3, 5} its leaves
    assert folded_tree([(2, 2, 2)]) == RootedTree([elementary_tree((2, 2))])
    assert folded_tree([(2, 2, 2)]).code == "(((()())))"
    # Z/3 under x -> 3x: 1 and 2 are one node
    assert folded_tree([(3,)]).code == "(())"
    assert folded_tree([]) == folded_tree([()]) == LEAF
    # T_4 on F_3: Z/2 and Z/4 glued at 0; their 2-torsion points glue into
    # one leaf (x = -2), beside the pair {1, 3} of Z/4
    assert folded_tree([(2,), (4,)]).code == "(()())"
    with pytest.raises(ValueError, match="pair off"):
        folded_tree([(4, 3, 2)])
