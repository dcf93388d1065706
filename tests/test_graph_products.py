"""Graph algebra that only the tests use, and the graph-layer checks.

The tensor products exist here alone: `reference_tensor` enumerates the
pairs of two materialized graphs in a nested loop, and
`reference_restricted_tensor` searches the preimage pairs from the root pair
and builds one `RootedTree` per node by `_build_tree`.  Every product
identity the tests check goes through them.  `cyc`, `extended_tree` and
`partial_tree` build the operands and the expected values of those
identities; the library builds its components and trees directly.

The product rule is also the referee of the prediction's convolution, with no
use of it: for coprime m and n, D/mn is D/m x D/n (CRT) and x -> a*x acts on
each side, so its brute-force graph is the tensor product of the two.
"""

import random

import pytest

from amap import graphs
from amap.dynamics import brute_amap_graph
from amap.graphs import (DEFAULT_MAX_NODES, Component, FunctionalGraph, GraphSizeError,
                         brute_graph, disjoint_sum, materialize)
from amap.trees import LEAF, RootedTree, _partials, _validated, elementary_tree
from domains import ENTRIES
from test_successor_table import _build_tree


def cyc(m, tree=LEAF):
    """Cycle of length m with a copy of `tree` hanging at every cycle node."""
    return FunctionalGraph([(Component(m, (tree,)), 1)])


def extended_tree(tree):
    """The extended tree {T}: a loop at the root of T."""
    return cyc(1, tree)


def partial_tree(seq, k):
    """k-th partial tree of the sequence, for 0 <= k <= len(seq)."""
    seq = _validated(seq)
    if not 0 <= k <= len(seq):
        raise ValueError(f"k must be between 0 and {len(seq)}, got {k}")
    return _partials(seq, k)[k]


def reference_tensor(g1, g2, max_nodes=DEFAULT_MAX_NODES):
    """Functional graph of the product map, built by brute enumeration."""
    s1, s2 = materialize(g1), materialize(g2)
    n1, n2 = len(s1), len(s2)
    if n1 * n2 > max_nodes:
        raise GraphSizeError(f"product would have {n1 * n2} nodes (cap {max_nodes})")
    succ = [0] * (n1 * n2)
    for i in range(n1):
        row = i * n2
        ti = s1[i] * n2
        for j in range(n2):
            succ[row + j] = ti + s2[j]
    return brute_graph(n1 * n2, succ, max_nodes=max_nodes)


def _append_tree(succ, tree, root):
    """Append the nodes below the root of `tree` (at index `root`) depth first."""
    stack = [(child, root) for child in reversed(tree.children)]
    while stack:
        sub, parent = stack.pop()
        node_id = len(succ)
        succ.append(parent)
        stack.extend((child, node_id) for child in reversed(sub.children))


def _tree_successors(arg):
    """Partial successor map of a tree (root unmapped) or extended tree {T}.

    Returns (succ, root) with node 0 the root; succ[root] is None for a bare
    tree and root itself for an extended tree.
    """
    if isinstance(arg, RootedTree):
        tree, looped = arg, False
    elif isinstance(arg, FunctionalGraph):
        if len(arg.components) != 1 or arg.components[0].cycle_len != 1:
            raise ValueError("extended-tree argument must be a single Cyc(1, T)")
        tree, looped = arg.components[0].hanging[0], True
    else:
        raise TypeError("expected a RootedTree or an extended tree")
    succ = [0 if looped else None]
    _append_tree(succ, tree, 0)
    return succ, 0


def reference_restricted_tensor(arg1, arg2, max_nodes=DEFAULT_MAX_NODES):
    """Hanging tree at the pair of roots in the tensor of two (extended) trees.

    Each argument is either a rooted tree or an extended tree {T}; the result
    is the connected component of the root pair, as a tree rooted there.
    """
    s1, r1 = _tree_successors(arg1)
    s2, r2 = _tree_successors(arg2)
    n1, n2 = len(s1), len(s2)
    if n1 * n2 > max_nodes:
        raise GraphSizeError(f"product would have {n1 * n2} nodes (cap {max_nodes})")
    pre1 = [[] for _ in range(n1)]
    pre2 = [[] for _ in range(n2)]
    for v, s in enumerate(s1):
        if s is not None:
            pre1[s].append(v)
    for v, s in enumerate(s2):
        if s is not None:
            pre2[s].append(v)
    # preimage pairs; skip the self-loop when both are extended
    children = {}
    stack = [(r1, r2)]
    while stack:
        x, y = pair = stack.pop()
        kids = [(u, v) for u in pre1[x] for v in pre2[y] if (u, v) != pair]
        children[pair] = kids
        stack.extend(kids)
    return _build_tree((r1, r2), children)


# ---- the referee's size cap and argument checks ----

def test_restricted_tensor_size_cap_and_argument_errors():
    t = elementary_tree((4, 4))
    with pytest.raises(GraphSizeError):
        reference_restricted_tensor(t, extended_tree(t), max_nodes=255)
    assert reference_restricted_tensor(t, extended_tree(t), max_nodes=256) == \
        reference_restricted_tensor(t, extended_tree(t))
    with pytest.raises(ValueError):
        reference_restricted_tensor(LEAF, disjoint_sum([cyc(1), cyc(1)]))
    with pytest.raises(TypeError):
        reference_restricted_tensor(LEAF, [0])


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
    assert graph.code == "C3[(()),(),()]"
    assert graph.code == brute_graph(4, list(succ)).code == \
        brute_graph(4, [succ[i] for i in range(4)]).code
    assert brute_graph(0, ()) == FunctionalGraph()


# ---- components with one tree all round ----

def _per_node_code(m, hanging):
    return "C%d[%s]" % (m, ",".join(t.code for t in hanging))


def test_long_uniform_cycle_code_is_the_per_node_join():
    t = elementary_tree((3, 2))
    m = 100_003
    comp = Component(m, (t,) * m)
    assert comp.code == _per_node_code(m, (t,) * m)
    assert comp.node_count == sum(t.node_count for _ in range(m)) == 6 * m
    assert comp.hanging == (t,) * m


def test_equal_but_distinct_trees_give_the_same_component():
    t, u = RootedTree([LEAF, LEAF]), RootedTree([LEAF, LEAF])
    assert t is not u
    same = Component(5, (t,) * 5)
    mixed = Component(5, (t, u, t, u, u))
    assert same.code == mixed.code and same.node_count == mixed.node_count
    # an unequal tree still turns the cycle to its minimal rotation
    rotated = Component(4, (t, t, LEAF, t))
    assert rotated.code == "C4[(()()),(()()),(()()),()]"


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
