"""Class counting in `graphs.brute_graph` and the lazy order of
`graphs.decompose_successors`, against the earlier walk.

`brute_graph` counts cycles by their word of hanging trees and builds one
`Component` per distinct word; `references.reference_code`, the canonical
code as eager text over the earlier walk, is the referee.  One test states
that law for the seeded maps of every graph test, and that `materialize`
lays out a map of the same graph.  The decomposition yields one cycle at a
time, in the order of the least cycle node, each cycle starting at that
node; `references.reference_decompose` referees its cycle nodes.
"""

import random
from collections.abc import Iterator

import pytest

from amap import applications
from amap.applications import chebyshev_check, redei_check
from amap.dynamics import brute_amap_graph
from amap.graphs import Component, brute_graph, decompose_successors, materialize
from amap.polynomials import Poly
from amap.quadorder import QuadInt
from amap.trees import LEAF, elementary_tree
from domains import ENTRIES
from references import (branch_maps, extended_tree, partial_tree, random_maps, reference_code,
                        reference_decompose, reference_restricted_tensor)


# ---- linear maps of a few thousand nodes in each domain ----

def _linear_cases():
    Z = ENTRIES["Z"].dom
    cases = [(Z, a, n) for n in (2310, 4096, 4900) for a in (1, -1, 2, 6, 35, n + 1)]
    for p, modulus in ((2, (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),  # x^11 + x + 1, 2048
                       (2, (1,) + (0,) * 11 + (1,)),                 # x^12 + 1, 4096
                       (3, (2, 0, 1, 0, 0, 0, 0, 1))):               # 2187
        D = ENTRIES[f"poly:{p}"].dom
        F = D.field
        n = Poly(F, modulus)
        # 2 % p: a code of F_p (x^2 over F_2, where a 2 is refused)
        for a in ((1,), (p - 1,), (0, 1), (1, 1), (0, 1, 1), (2 % p, 0, 1)):
            cases.append((D, Poly(F, a), n))
    for d, g in ((-1, QuadInt(40, 30)), (-5, QuadInt(60, 0)), (-2, QuadInt(44, 10))):
        O = ENTRIES[f"quad:{d}"].dom
        n = O.principal(g)
        for a in (QuadInt(1, 0), QuadInt(-1, 0), QuadInt(0, 1), QuadInt(2, 1),
                  QuadInt(3, 0), QuadInt(5, -1)):
            cases.append((O, a, n))
    return cases


@pytest.mark.parametrize("dom, a, n", _linear_cases())
def test_linear_maps_match_the_reference_code(dom, a, n):
    succ = dom.successors(a, n)
    assert 2000 <= len(succ) <= 5000
    want = reference_code(succ)
    assert brute_amap_graph(dom, a, n).code == want
    assert brute_graph(len(succ), succ).code == want


# ---- the family tables ----

def test_redei_tables_match_the_reference_code(monkeypatch):
    seen = []
    real = applications.brute_graph

    def spy(size, succ, max_nodes):
        graph = real(size, succ, max_nodes=max_nodes)
        seen.append((succ, graph))
        return graph

    monkeypatch.setattr(applications, "brute_graph", spy)
    for q, n, a in ((101, 2, 3), (101, 5, 2), (243, 3, 2), (625, 4, 7), (1009, 6, 11)):
        redei_check(q, n, a)
    assert len(seen) == 5
    for succ, graph in seen:
        assert graph.code == reference_code(succ)


def test_chebyshev_tables_match_the_reference_code(monkeypatch):
    seen = []
    real = applications.brute_graph

    def spy(size, succ, max_nodes):
        graph = real(size, succ, max_nodes=max_nodes)
        seen.append((succ, graph))
        return graph

    monkeypatch.setattr(applications, "brute_graph", spy)
    for q, n in ((101, 2), (101, 3), (243, 4), (625, 6), (1009, 5)):
        chebyshev_check(q, n)
    assert len(seen) == 5
    for succ, graph in seen:
        assert graph.code == reference_code(succ)


# ---- random maps, permutations and the identity ----

def _maps(rng):
    """The walk test's random maps and permutations, the identity, x -> -x,
    and permutations made of equal cycles, relabelled."""
    maps = random_maps(rng) + [list(range(300)), [-x % 300 for x in range(300)]]
    for _ in range(100):
        n = rng.randrange(1, 200)
        m = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        perm = list(range(n))
        rng.shuffle(perm)
        succ = [0] * n
        for i in range(n):
            succ[perm[i]] = perm[i - i % m + (i + 1) % m]
        maps.append(succ)
    return maps


def _sink_maps(rng):
    """Random maps, and permutations with a few nodes sent on to their
    successor's successor: many equal components."""
    maps = []
    for _ in range(150):
        size = rng.randint(0, 120)
        if rng.random() < 0.5:
            succ = [rng.randrange(size) for _ in range(size)]
        else:
            succ = list(range(size))
            rng.shuffle(succ)
            succ = [s if rng.random() < 0.8 else succ[s] for s in succ]
        maps.append(succ)
    return maps


def test_random_maps_and_permutations_match_the_reference_code():
    # a deep tree's code costs O(depth^2): the branch maps under 1000 nodes
    maps = (_maps(random.Random(13)) + random_maps(random.Random(11))
            + _sink_maps(random.Random(92))
            + [succ for succ in branch_maps(random.Random(17)) if len(succ) < 1000])
    for succ in maps:
        graph = brute_graph(len(succ), succ)
        assert graph.code == reference_code(succ), succ
        assert graph.node_count == len(succ), succ
        laid_out = materialize(graph)
        assert brute_graph(len(laid_out), laid_out) == graph, succ


@pytest.fixture
def built(monkeypatch):
    calls = [0]
    real = Component.__init__

    def counting(self, *args):
        calls[0] += 1
        real(self, *args)

    monkeypatch.setattr(Component, "__init__", counting)
    return calls


def test_one_component_per_class(built):
    n = 10**5
    graph = brute_graph(n, range(n))
    assert built[0] == 1
    assert graph.classes == ((Component(1, (LEAF,)), n),)

    built[0] = 0
    graph = brute_graph(n, [-x % n for x in range(n)])
    assert built[0] == 2
    assert graph.classes == ((Component(1, (LEAF,)), 2), (Component(2, (LEAF,)), n // 2 - 1))


# ---- the order of the decomposition ----

def test_decomposition_is_an_iterator():
    components = decompose_successors([1, 0, 0, 3])
    assert isinstance(components, Iterator)
    assert next(components) == ([0, 1], [elementary_tree((2,)), LEAF])
    assert next(components) == ([3], [LEAF])
    with pytest.raises(StopIteration):
        next(components)


def test_cycles_come_by_least_cycle_node_and_start_there():
    for succ in _maps(random.Random(14)):
        cycles = [cycle for cycle, _ in decompose_successors(succ)]
        assert all(cycle[0] == min(cycle) for cycle in cycles), succ
        assert [cycle[0] for cycle in cycles] == sorted(cycle[0] for cycle in cycles), succ
        assert sorted(v for cycle in cycles for v in cycle) == \
            sorted(v for cycle, _ in reference_decompose(succ) for v in cycle), succ


def test_root_pair_comes_first_before_a_smaller_tree_node():
    # the product map of trees x and y on the pairs i * len(y) + j, its root
    # pair 0 made fixed: a pair with a side unmapped, as the root of a bare
    # tree is, goes to the last node, a looping sink; node 1 is such a pair,
    # while every node below the root pair is at least 2
    for succ, x, y in (
            ([0, 12, 12, 12, 12, 12, 0, 0, 1, 1, 1, 0, 12],
             elementary_tree((2,)), extended_tree(elementary_tree((3, 2)))),
            ([0, 40, 40, 40, 40, 0, 1, 1, 40, 4, 5, 5, 40, 4, 5, 5, 40, 4, 5, 5, 40,
              0, 1, 1, 40, 20, 21, 21, 40, 20, 21, 21, 40, 20, 21, 21, 40, 0, 1, 1, 40],
             partial_tree((3, 2, 2), 2), elementary_tree((2, 2))),
            ([0, 3, 3, 3], elementary_tree((3,)), LEAF)):
        sink = len(succ) - 1
        assert succ[1] == sink == succ[sink]
        components = list(decompose_successors(succ))
        assert [cycle for cycle, _ in components] == [[0], [sink]]
        assert components[0][1][0] == reference_restricted_tensor(x, y)


# ---- the Chebyshev report skips no point: its skip list is empty ----

@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27, 49, 101])
def test_chebyshev_skipped_points_ascend(q):
    for n in (1, 2, 3, 5, 7, 9):
        rep = chebyshev_check(q, n)
        # the periodic points are the eventual image of the map
        succ = applications._chebyshev_successors(applications._field_for(q), n)
        image, points = set(succ), set(range(q))
        while image != points:
            image, points = {succ[x] for x in image}, image
        assert rep.skipped == [] and rep.periodic_checked == len(image), (q, n)
        assert sum(count * comp.cycle_len for comp, count in rep.brute.counted) == len(image)
