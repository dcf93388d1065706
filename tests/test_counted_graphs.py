"""Graphs stored as distinct components with counts, against the code they
replaced.

`ReferenceGraph` and `reference_disjoint_sum` keep the earlier bodies of
`FunctionalGraph` (one entry per component, sorted by code) and
`disjoint_sum` unchanged, and `reference_prediction` and
`reference_corrupt` the earlier per-cycle assembly of
`dynamics.assemble_prediction` (one entry per cycle, over the divisor walk
of `references.walk_prediction`) and the earlier `dynamics._corrupt`, as
test-only references; the operands come from `references`.
"""

import random
import time

import pytest

from amap.dynamics import _corrupt, predicted_graph
from amap.graphs import (Component, FunctionalGraph, brute_graph, decompose_successors,
                         disjoint_sum, materialize, to_dot)
from amap.integers import IntegerDomain
from amap.trees import LEAF, elementary_tree
from domains import ENTRIES, divisor_table
from references import (cyc, extended_tree, partial_tree, reference_restricted_tensor,
                        walk_prediction)

Z = IntegerDomain()


class ReferenceGraph:
    """Multiset of components; equality is graph isomorphism."""

    __slots__ = ("components", "code", "node_count")

    def __init__(self, components=()):
        comps = tuple(sorted(components, key=lambda c: c.code))
        self.components = comps
        self.code = ";".join(c.code for c in comps)
        self.node_count = sum(c.node_count for c in comps)


def reference_disjoint_sum(graphs):
    comps = []
    for g in graphs:
        comps.extend(g.components)
    return ReferenceGraph(comps)


def reference_cyc(m, tree=LEAF):
    return ReferenceGraph([Component(m, (tree,) * m)])


def reference_prediction(dom, a, n):
    tree, table = walk_prediction(dom, a, n)
    return reference_disjoint_sum([reference_cyc(r, tree) for _, phi, r in table
                                   for _ in range(phi // r)])


def reference_corrupt(graph):
    comps = list(graph.components)
    first = comps[0]
    longer = Component(first.cycle_len + 1,
                       tuple(first.hanging) + (first.hanging[0],))
    return ReferenceGraph([longer] + comps[1:])


def assert_same(graph, ref):
    assert graph.code == ref.code
    assert graph.node_count == ref.node_count
    assert [c.code for c in graph.components] == [c.code for c in ref.components]
    codes = [c.code for c, _ in graph.classes]
    assert codes == sorted(set(codes))
    assert all(count > 0 for _, count in graph.classes)
    assert sum(count for _, count in graph.classes) == len(ref.components)


def _random_tree(rng):
    seq = sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 3))), reverse=True)
    if seq and rng.random() < 0.5:
        return partial_tree(seq, rng.randint(0, len(seq)))
    return elementary_tree(seq)


def _random_component(rng, trees):
    m = rng.randint(1, 6)
    if rng.random() < 0.5:
        return Component(m, (rng.choice(trees),) * m)
    return Component(m, [rng.choice(trees) for _ in range(m)])


# ---- graphs: the counted form against one entry per component ----

def test_sums_of_cycles_match_the_reference():
    rng = random.Random(91)
    for _ in range(150):
        trees = [_random_tree(rng) for _ in range(3)]
        comps = [_random_component(rng, trees) for _ in range(rng.randint(0, 8))]
        comps += rng.choices(comps, k=rng.randint(0, 5)) if comps else []
        rng.shuffle(comps)
        assert_same(FunctionalGraph((c, 1) for c in comps), ReferenceGraph(comps))
        parts = [(cyc(c.cycle_len, c.hanging[0]), reference_cyc(c.cycle_len, c.hanging[0]))
                 for c in comps]
        parts += rng.choices(parts, k=3) if parts else []
        got = disjoint_sum(g for g, _ in parts)
        assert_same(got, reference_disjoint_sum(r for _, r in parts))
        # a sum of sums adds the counts of equal components
        assert_same(disjoint_sum([got, got, FunctionalGraph()]),
                    reference_disjoint_sum([reference_disjoint_sum(r for _, r in parts)] * 2))


def test_brute_graphs_of_random_maps_match_the_reference():
    rng = random.Random(92)
    for _ in range(150):
        size = rng.randint(0, 120)
        if rng.random() < 0.5:
            succ = [rng.randrange(size) for _ in range(size)]
        else:  # a permutation or a few sinks give many equal components
            succ = list(range(size))
            rng.shuffle(succ)
            succ = [s if rng.random() < 0.8 else succ[s] for s in succ]
        ref = ReferenceGraph(Component(len(cycle), trees)
                             for cycle, trees in decompose_successors(succ))
        graph = brute_graph(size, succ)
        assert_same(graph, ref)
        assert materialize(graph) == materialize(FunctionalGraph((c, 1) for c in ref.components))


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=repr)
def test_predictions_and_corrupted_controls_match_the_reference(entry):
    dom = entry.dom
    for a, n in entry.sample(25, 93):
        graph = predicted_graph(dom, a, n).graph
        ref = reference_prediction(dom, a, n)
        assert_same(graph, ref)
        assert_same(_corrupt(graph), reference_corrupt(ref))


def test_large_predictions_match_the_reference():
    for a, n in [(1, 10**5), (-1, 10**5), (6, 2**5 * 3**3 * 5 * 7 * 11), (10, 3**4 * 7**3)]:
        graph = predicted_graph(Z, a, n).graph
        ref = reference_prediction(Z, a, n)
        assert_same(graph, ref)
        assert_same(_corrupt(graph), reference_corrupt(ref))


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


def test_an_extended_tree_argument_is_one_class_of_one_copy():
    t = elementary_tree((2, 2))
    looped = extended_tree(t)
    assert reference_restricted_tensor(looped, looped) == elementary_tree((4, 4))
    for bad in (disjoint_sum([looped, looped]), cyc(2, t), disjoint_sum([looped, cyc(1)])):
        with pytest.raises(ValueError, match=r"single Cyc\(1, T\)"):
            reference_restricted_tensor(bad, LEAF)


def test_dot_numbers_the_copies_of_a_class_in_turn():
    graph = disjoint_sum([cyc(2)] * 3)
    ref = reference_disjoint_sum([reference_cyc(2)] * 3)
    assert to_dot(graph) == to_dot(FunctionalGraph((c, 1) for c in ref.components))
    assert materialize(graph) == [1, 0, 3, 2, 5, 4]


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
    assert comp.code == "C%d[%s]" % (m, joined)
    given = ",".join(t.code for t in hanging)
    assert len(joined) == len(given) and joined in given + "," + given
