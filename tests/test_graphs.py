"""Cycles, sums, brute-force graphs, codes and the tensor identities, by the
tensor-product referees of `references`.
"""

import math
import random

import pytest

from amap.graphs import (DEFAULT_MAX_CODE_BYTES, Component, FunctionalGraph, GraphSizeError,
                         brute_graph, disjoint_sum, render, to_dot)
from amap.trees import LEAF, RootedTree, elementary_tree
from references import (cyc, extended_tree, partial_tree, reference_restricted_tensor,
                        reference_tensor)


def test_cyc_basics():
    loop = cyc(1, LEAF)
    assert loop.node_count == 1
    assert loop.code == "C1[()]"
    assert cyc(3).node_count == 3
    with pytest.raises(ValueError):
        Component(0, ())


def test_cyc_with_tree_counts():
    assert cyc(2, elementary_tree((6, 2))).node_count == 24


def test_component_rotation_invariance():
    a, b = elementary_tree((2,)), elementary_tree((3,))
    c1 = Component(3, (a, a, b))
    c2 = Component(3, (a, b, a))
    c3 = Component(3, (b, a, a))
    assert c1.code == c2.code == c3.code


def test_disjoint_sum_multiset():
    g = disjoint_sum([cyc(1), cyc(1)])
    assert g.code == "C1[()];C1[()]"
    assert disjoint_sum([g, FunctionalGraph()]) == g


def test_brute_identity_and_shift():
    assert brute_graph(5, list(range(5))) == disjoint_sum([cyc(1)] * 5)
    assert brute_graph(5, [(x + 1) % 5 for x in range(5)]) == cyc(5)


def test_brute_doubling_mod_24():
    g = brute_graph(24, [2 * x % 24 for x in range(24)])
    t = elementary_tree((2, 2, 2))
    assert g == disjoint_sum([cyc(1, t), cyc(2, t)])


def test_brute_rejects_out_of_range():
    with pytest.raises(ValueError):
        brute_graph(3, [5] * 3)
    with pytest.raises(GraphSizeError):
        brute_graph(100, list(range(100)), max_nodes=10)


def test_tensor_of_cycles():
    for a in range(1, 9):
        for b in range(1, 9):
            got = reference_tensor(cyc(a), cyc(b))
            want = disjoint_sum([cyc(math.lcm(a, b))] * math.gcd(a, b))
            assert got == want, (a, b)


def test_tensor_cycle_with_extended_tree():
    t = RootedTree([LEAF, LEAF])
    assert reference_tensor(cyc(3), extended_tree(t)) == cyc(3, t)


def test_tensor_of_extended_elementary_trees():
    lhs = reference_tensor(extended_tree(elementary_tree((2,))),
                           extended_tree(elementary_tree((2,))))
    assert lhs == extended_tree(elementary_tree((4,)))


def test_tensor_commutes_and_distributes():
    rng = random.Random(3)
    for _ in range(15):
        gs = []
        for _ in range(3):
            m = rng.randint(1, 4)
            tree = elementary_tree(
                tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 2))),
                             reverse=True)))
            gs.append(cyc(m, tree))
        g1, g2, g3 = gs
        assert reference_tensor(g1, g2) == reference_tensor(g2, g1)
        assert reference_tensor(g1, disjoint_sum([g2, g3])) == \
            disjoint_sum([reference_tensor(g1, g2), reference_tensor(g1, g3)])


def test_tensor_size_cap():
    with pytest.raises(GraphSizeError):
        reference_tensor(cyc(1000), cyc(1001), max_nodes=10**6)


def test_restricted_tensor_with_leaf():
    t = elementary_tree((6, 2))
    assert reference_restricted_tensor(t, LEAF) == LEAF
    assert reference_restricted_tensor(LEAF, t) == LEAF


def test_restricted_tensor_partial_trees():
    # depth-1 complete trees multiply their widths
    r = reference_restricted_tensor(partial_tree((2,), 1), partial_tree((2,), 1))
    assert r == partial_tree((4,), 1)
    r = reference_restricted_tensor(partial_tree((2, 2), 1),
                                    extended_tree(elementary_tree((2, 2))))
    assert r == partial_tree((4, 4), 1)


def test_restricted_tensor_identities_random():
    # brute-force restricted tensors match the elementary partial trees
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(1, 3)
        u = tuple(sorted((rng.randint(1, 4) for _ in range(d)), reverse=True))
        v = tuple(sorted((rng.randint(1, 4) for _ in range(d)), reverse=True))
        uv = tuple(x * y for x, y in zip(u, v))
        for i in range(d + 1):
            for j in range(d + 1):
                got = reference_restricted_tensor(partial_tree(u, i), partial_tree(v, j))
                assert got == partial_tree(uv, min(i, j))
            got = reference_restricted_tensor(partial_tree(u, i),
                                              extended_tree(elementary_tree(v)))
            assert got == partial_tree(uv, i)


def test_canonical_code_examples():
    assert LEAF.code == "()"
    assert RootedTree([LEAF, LEAF]).code == "(()())"
    t = elementary_tree((2,))
    assert Component(2, (t, LEAF)).code == Component(2, (LEAF, t)).code
    assert cyc(2).code == "C2[(),()]"
    with pytest.raises(TypeError):
        render("nope", DEFAULT_MAX_CODE_BYTES)


def test_dot_output_shape():
    g = disjoint_sum([cyc(2, elementary_tree((2,))), cyc(1)])
    dot = to_dot(g)
    lines = dot.splitlines()
    assert lines[0] == "digraph G {"
    assert lines[-1] == "}"
    node_lines = [ln for ln in lines if ln.endswith(";") and "->" not in ln]
    edge_lines = [ln for ln in lines if "->" in ln]
    assert len(node_lines) == g.node_count
    assert len(edge_lines) == g.node_count
