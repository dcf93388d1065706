"""The tensor products and the graph-layer checks against the code they replaced.

`reference_tensor` keeps the earlier body of `graphs.tensor` (a nested loop
over the pairs) and `reference_restricted_tensor` the earlier body of
`graphs.restricted_tensor` (a search over preimage pairs from the root pair,
built one `RootedTree` per node by `_build_tree`), with the earlier
`_tree_successors` and `_append_tree`, unchanged, as test-only references.
The library now decomposes one product map for both.
"""

import random

import pytest

from amap import graphs
from amap.graphs import (DEFAULT_MAX_NODES, Component, FunctionalGraph, GraphSizeError,
                         _product_map, brute_graph, cyc, disjoint_sum, extended_tree,
                         materialize, restricted_tensor, tensor)
from amap.trees import LEAF, RootedTree, elementary_tree, partial_tree
from test_successor_table import _build_tree


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


# ---- seeded operands ----

def _random_tree(rng, depth):
    if depth == 0:
        return LEAF
    return RootedTree(_random_tree(rng, rng.randrange(depth))
                      for _ in range(rng.randint(0, 3)))


def _random_sequence(rng):
    d = rng.randint(0, 3)
    return tuple(sorted((rng.randint(1, 4) for _ in range(d)), reverse=True))


def _random_tree_operand(rng):
    """A bare or extended tree: LEAF, a partial or elementary tree, or a random one."""
    kind = rng.randrange(4)
    if kind == 0:
        tree = LEAF
    elif kind == 1:
        seq = _random_sequence(rng)
        tree = partial_tree(seq, rng.randint(0, len(seq)))
    elif kind == 2:
        tree = elementary_tree(_random_sequence(rng))
    else:
        tree = _random_tree(rng, rng.randint(1, 4))
    return extended_tree(tree) if rng.random() < 0.5 else tree


def _random_graph(rng):
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(1, 40)
        return brute_graph(n, [rng.randrange(n) for _ in range(n)])
    if kind == 1:
        return disjoint_sum([cyc(rng.randint(1, 4), _random_tree(rng, rng.randint(0, 3)))
                             for _ in range(rng.randint(1, 3))])
    return extended_tree(elementary_tree(_random_sequence(rng)))


# ---- the product map ----

def test_product_map_pairs_and_sink():
    assert _product_map([1, 0], [0, 2, 1], 100) == [3, 5, 4, 0, 2, 1]
    # node 0 of the first map and node 1 of the second are unmapped
    succ = _product_map([None, 0], [0, None], 100)
    sink = 4
    assert succ == [sink, sink, 0, sink, sink]
    assert _product_map([], [0], 100) == []
    with pytest.raises(GraphSizeError):
        _product_map([0] * 11, [0] * 10, 100)


def test_tensor_matches_reference_loop():
    rng = random.Random(81)
    for _ in range(120):
        g1, g2 = _random_graph(rng), _random_graph(rng)
        assert tensor(g1, g2).code == reference_tensor(g1, g2).code
    empty = FunctionalGraph()
    assert tensor(empty, cyc(3)).code == reference_tensor(empty, cyc(3)).code == ""


def test_restricted_tensor_matches_reference_search():
    rng = random.Random(82)
    for _ in range(300):
        x, y = _random_tree_operand(rng), _random_tree_operand(rng)
        assert restricted_tensor(x, y).code == reference_restricted_tensor(x, y).code


def test_restricted_tensor_matches_reference_on_partial_trees():
    # LEAF on either side, every depth of a partial tree, bare and extended
    for u, v in (((2, 2), (3, 1)), ((4, 2, 1), (2, 2, 2)), ((3,), (2, 1))):
        trees_u = [partial_tree(u, k) for k in range(len(u) + 1)] + [elementary_tree(u)]
        trees_v = [partial_tree(v, k) for k in range(len(v) + 1)] + [elementary_tree(v)]
        for s in trees_u + [LEAF]:
            for t in trees_v + [LEAF]:
                for x in (s, extended_tree(s)):
                    for y in (t, extended_tree(t)):
                        assert restricted_tensor(x, y).code == \
                            reference_restricted_tensor(x, y).code


def test_restricted_tensor_size_cap_and_argument_errors():
    t = elementary_tree((4, 4))
    with pytest.raises(GraphSizeError):
        restricted_tensor(t, extended_tree(t), max_nodes=255)
    assert restricted_tensor(t, extended_tree(t), max_nodes=256) == \
        reference_restricted_tensor(t, extended_tree(t))
    with pytest.raises(ValueError):
        restricted_tensor(LEAF, disjoint_sum([cyc(1), cyc(1)]))
    with pytest.raises(TypeError):
        restricted_tensor(LEAF, [0])


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
