"""Graphs stored as distinct components with counts: counts add, empty
classes vanish and bad counts are refused, copies are numbered in turn, a
prediction builds one component per class, and a long mixed cycle builds
in linear time.

The counted form against the eager text is `test_interned_ids`'s
`test_graph_keys_agree_with_eager_codes`, a brute-force graph against the
code of its map `test_class_counting`'s
`test_random_maps_and_permutations_match_the_reference_code`, and a
prediction and its corrupted control against the divisor walk
`test_orders.assert_prediction_matches_the_walk`.
"""

import random
import time

import pytest

from amap.dynamics import predicted_graph
from amap.graphs import Component, FunctionalGraph, disjoint_sum, materialize, to_dot
from amap.integers import IntegerDomain
from amap.trees import LEAF, elementary_tree
from domains import divisor_table
from references import component_text, cyc

Z = IntegerDomain()


# ---- counts ----

def test_counts_add_up_and_empty_classes_vanish():
    loop, pair = Component(1, (LEAF,)), Component(2, (LEAF, LEAF))
    graph = FunctionalGraph([(pair, 2), (loop, 3), (Component(1, (LEAF,)), 1), (pair, 0)])
    assert graph.classes == ((loop, 4), (pair, 2))
    assert graph == FunctionalGraph([(loop, 1)] * 4 + [(pair, 1)] * 2)
    assert FunctionalGraph([(loop, 0)]) == FunctionalGraph()


def test_a_negative_or_fractional_count_is_refused():
    loop, pair = Component(1, (LEAF,)), Component(2, (LEAF, LEAF))
    for pairs in ([(loop, -1)], [(loop, 2), (loop, -1)], [(pair, 1), (loop, -3)],
                  [(loop, 1.5)], [(pair, 2.0)]):
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            FunctionalGraph(pairs)


def test_dot_numbers_the_copies_of_a_class_in_turn():
    graph = disjoint_sum([cyc(2)] * 3)
    assert materialize(graph) == [1, 0, 3, 2, 5, 4]
    edges = [line for line in to_dot(graph).splitlines() if "->" in line]
    assert edges == ["  n%d -> n%d;" % edge for edge in enumerate([1, 0, 3, 2, 5, 4])]


# ---- assembly: one component per divisor row ----

@pytest.mark.parametrize("a", [1, -1])
def test_prediction_builds_one_component_per_divisor_row(monkeypatch, a):
    n = 10**6
    nu, n1 = Z.gcd_chain(a, n)
    rows = len(divisor_table(Z, a, n1))
    built = []
    real = Component.__init__

    def counting(self, *args):
        built.append(None)
        real(self, *args)

    monkeypatch.setattr(Component, "__init__", counting)
    graph = predicted_graph(Z, a, n).graph
    # one Component per class of the result and none besides (no fixed
    # overhead), where the divisor walk had 49 rows
    assert rows == 49 and len(built) == len(graph.classes)
    assert graph.node_count == n
    assert sum(count for _, count in graph.classes) == (10**6 if a == 1 else 500_001)
    assert len(graph.classes) == (1 if a == 1 else 2)


# ---- a long cycle of mixed trees ----

def test_long_mixed_cycle_builds_in_linear_time():
    rng = random.Random(95)
    trees = [LEAF, elementary_tree((2,)), elementary_tree((3, 2))]
    m = 100_000
    hanging = [rng.choice(trees) for _ in range(m)]
    start = time.perf_counter()
    comp = Component(m, hanging)
    assert time.perf_counter() - start < 2.0
    assert comp.node_count == sum(t.node_count for t in hanging)
    # the code is that of a rotation of the hanging trees
    joined = ",".join(t.code for t in comp.hanging)
    assert comp.code == component_text(m, [t.code for t in comp.hanging])
    given = ",".join(t.code for t in hanging)
    assert len(joined) == len(given) and joined in given + "," + given
