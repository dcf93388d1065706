"""The graph-layer checks, and the tensor products' own checks.

The tensor products exist on the test side alone, in `references`:
`reference_tensor` enumerates the pairs of two materialized graphs in a
nested loop, and `reference_restricted_tensor` searches the preimage pairs
from the root pair and builds one `RootedTree` per node by `build_trees`.
Every product identity the tests check goes through them.  `cyc`,
`extended_tree` and `partial_tree` build the operands and the expected
values of those identities; the library builds its components and trees
directly.

The product rule is also the referee of the prediction's convolution, with no
use of it: for coprime m and n, D/mn is D/m x D/n (CRT) and x -> a*x acts on
each side, so its brute-force graph is the tensor product of the two.
"""

import random

import pytest

from amap import graphs
from amap.dynamics import brute_amap_graph
from amap.graphs import Component, FunctionalGraph, GraphSizeError, brute_graph, disjoint_sum
from amap.trees import LEAF, RootedTree, elementary_tree
from domains import ENTRIES
from references import (cyc, extended_tree, ref_component_code, reference_restricted_tensor,
                        reference_tensor)


# ---- the referee's size cap and argument checks ----

def test_restricted_tensor_size_cap_and_argument_errors():
    t = elementary_tree((4, 4))
    with pytest.raises(GraphSizeError):
        reference_restricted_tensor(t, extended_tree(t), max_nodes=255)
    assert reference_restricted_tensor(t, extended_tree(t), max_nodes=256) == \
        reference_restricted_tensor(t, extended_tree(t))
    # a graph argument must be one class of one copy of Cyc(1, T)
    u = elementary_tree((2, 2))
    looped = extended_tree(u)
    assert reference_restricted_tensor(looped, looped) == t
    for bad in (cyc(2), cyc(2, u), disjoint_sum([cyc(1), cyc(1)]),
                disjoint_sum([looped, looped]), disjoint_sum([looped, cyc(1)])):
        for args in ((bad, LEAF), (LEAF, bad)):
            with pytest.raises(ValueError, match=r"single Cyc\(1, T\)"):
                reference_restricted_tensor(*args)
    for bad in ("not a tree", [0]):
        for args in ((bad, LEAF), (LEAF, bad)):
            with pytest.raises(TypeError):
                reference_restricted_tensor(*args)


# ---- brute_graph's successor sequences ----

def test_brute_graph_rejects_a_sequence_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"length 2, not the size 4"):
        brute_graph(4, [0, 3])
    with pytest.raises(ValueError, match=r"length 3, not the size 2"):
        brute_graph(2, [0, 1, 1])
    with pytest.raises(ValueError, match=r"length 1, not the size 0"):
        brute_graph(0, (0,))


def test_brute_graph_reads_a_sequence_in_place(monkeypatch):
    seen = []
    decompose = graphs.decompose_successors

    def spy(succ):
        seen.append(succ)
        return decompose(succ)

    monkeypatch.setattr(graphs, "decompose_successors", spy)
    succ = (1, 2, 0, 0)
    graph = brute_graph(4, succ)
    assert len(seen) == 1 and seen[0] is succ
    assert graph == FunctionalGraph([(Component(3, (RootedTree([LEAF]), LEAF, LEAF)), 1)])
    assert graph == brute_graph(4, list(succ)) == brute_graph(4, [succ[i] for i in range(4)])
    assert brute_graph(0, ()) == FunctionalGraph()


# ---- components with one tree all round ----

def test_long_uniform_cycle_code_is_the_per_node_join():
    t = elementary_tree((3, 2))
    m = 100_003
    comp = Component(m, (t,) * m)
    assert comp.code == ref_component_code(m, [t.code] * m)
    assert comp.node_count == sum(t.node_count for _ in range(m)) == 6 * m
    assert comp.hanging == (t,) * m


def test_equal_but_distinct_trees_give_the_same_component():
    t, u = RootedTree([LEAF, LEAF]), RootedTree([LEAF, LEAF])
    assert t is not u
    same = Component(5, (t,) * 5)
    mixed = Component(5, (t, u, t, u, u))
    assert same == mixed and same.node_count == mixed.node_count


# ---- the product rule for a-maps: brute force on m*n against the tensor ----

@pytest.mark.parametrize("entry", ENTRIES.values(), ids=repr)
def test_amap_graph_of_a_coprime_product_is_the_tensor(entry):
    dom, rng = entry.dom, random.Random(entry.spec)
    norm, moduli = dom.norm, entry.moduli
    triples = [(a, m, n) for i, m in enumerate(moduli) for n in moduli[i + 1:]
               if dom.ideal_gcd(m, n) == dom.unit_ideal and min(norm(m), norm(n)) >= 2
               and norm(m) * norm(n) <= 3000 for a in entry.elements]
    for a, m, n in rng.sample(triples, 25 if entry.full else 10):
        whole = brute_amap_graph(dom, a, dom.ideal_mul(m, n))
        assert whole == reference_tensor(brute_amap_graph(dom, a, m),
                                         brute_amap_graph(dom, a, n)), (a, m, n)
