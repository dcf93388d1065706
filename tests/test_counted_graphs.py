"""Graphs stored as distinct components with counts, against the code they
replaced.

`ReferenceGraph` and `reference_disjoint_sum` keep the earlier bodies of
`FunctionalGraph` (one entry per component, sorted by code) and
`disjoint_sum` unchanged, `reference_min_rotation` the earlier slice search
of the least rotation (which referees the Booth reference of
`test_least_root`), and `reference_prediction` and
`reference_corrupt` the earlier per-cycle assembly of
`dynamics.assemble_prediction` and the earlier `dynamics._corrupt`, as
test-only references.
"""

import random
import time
from itertools import product

import pytest

from amap.dynamics import _corrupt, predicted_graph
from amap.finitefield import field
from amap.graphs import (Component, FunctionalGraph, brute_graph, cyc,
                         decompose_successors, disjoint_sum, extended_tree,
                         materialize, restricted_tensor, to_dot)
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain
from amap.quadorder import QuadInt, QuadOrder
from amap.trees import LEAF, elementary_tree, partial_tree
from test_least_root import booth_min_rotation

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


def reference_min_rotation(codes):
    """Index of the lexicographically minimal rotation of a code sequence."""
    m = len(codes)
    if m == 1 or len(set(codes)) == 1:
        return 0
    doubled = list(codes) + list(codes)
    return min(range(m), key=lambda r: doubled[r:r + m])


def reference_prediction(dom, a, n):
    nu, n1 = dom.gcd_chain(a, n)
    tree = elementary_tree(nu)
    parts = []
    for _, phi, r in dom.divisor_table(a, n1):
        parts.extend([reference_cyc(r, tree)] * (phi // r))
    return reference_disjoint_sum(parts)


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


DOMAINS = [Z, PolyDomain(field(2)), PolyDomain(field(3)), QuadOrder(-1), QuadOrder(-5)]


def _instances(dom, rng, count):
    while count:
        if isinstance(dom, IntegerDomain):
            a, n = rng.randint(-30, 30), rng.randint(1, 5000)
        elif isinstance(dom, PolyDomain):
            p = dom.field.q
            n = Poly(dom.field, [rng.randrange(p) for _ in range(rng.randint(1, 7))] + [1])
            a = Poly(dom.field, [rng.randrange(p) for _ in range(rng.randint(0, 4))]
                     + [rng.randrange(1, p)])
        else:
            x, y, ax, ay = (rng.randint(-12, 12) for _ in range(4))
            if (x, y) == (0, 0):
                continue
            a, n = QuadInt(ax, ay), dom.principal(QuadInt(x, y))
        if dom.is_zero(a):
            continue
        yield a, n
        count -= 1


@pytest.mark.parametrize("dom", DOMAINS, ids=["Z", "F2", "F3", "ZI", "Z5"])
def test_predictions_and_corrupted_controls_match_the_reference(dom):
    rng = random.Random(93)
    for a, n in _instances(dom, rng, 25):
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
    assert restricted_tensor(looped, looped) == elementary_tree((4, 4))
    for bad in (disjoint_sum([looped, looped]), cyc(2, t), disjoint_sum([looped, cyc(1)])):
        with pytest.raises(ValueError, match=r"single Cyc\(1, T\)"):
            restricted_tensor(bad, LEAF)


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
    rows = len(Z.divisor_table(a, n1))
    built = []
    real = Component.__init__

    def counting(self, *args):
        built.append(None)
        real(self, *args)

    monkeypatch.setattr(Component, "__init__", counting)
    graph = predicted_graph(Z, a, n).graph
    # one Component per divisor row and none besides (no fixed overhead)
    assert len(built) <= rows == 49
    assert graph.node_count == n
    assert sum(count for _, count in graph.classes) == (10**6 if a == 1 else 500_001)
    assert len(graph.classes) == (1 if a == 1 else 2)


# ---- minimal rotation: Booth's algorithm against the slice search ----

def _rotated(codes, r):
    return list(codes[r:]) + list(codes[:r])


def test_min_rotation_matches_the_reference_on_every_short_word():
    for m in range(1, 9):
        for word in product("()x", repeat=m):
            assert _rotated(word, booth_min_rotation(word)) == \
                _rotated(word, reference_min_rotation(word)), word


def test_min_rotation_matches_the_reference_on_periodic_and_aperiodic_words():
    rng = random.Random(94)
    codes = [t.code for t in (LEAF, elementary_tree((2,)), elementary_tree((3,)),
                              elementary_tree((2, 2)))]
    for _ in range(300):
        period = [rng.choice(codes[:rng.randint(2, 4)]) for _ in range(rng.randint(1, 12))]
        word = period * rng.randint(1, 5)
        if rng.random() < 0.5:  # break the period at one place
            word[rng.randrange(len(word))] = rng.choice(codes)
        r = rng.randrange(len(word))
        word = word[r:] + word[:r]
        k = booth_min_rotation(word)
        assert 0 <= k < len(word)
        assert _rotated(word, k) == _rotated(word, reference_min_rotation(word)), word


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
