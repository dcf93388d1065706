"""Rooted trees, their codes and the elementary trees of the paper;
`references.partial_tree` builds the partial trees.
"""

import math
import re

import pytest

from amap import trees
from amap.trees import LEAF, RootedTree, elementary_tree
from references import partial_tree


def test_leaf_code():
    assert LEAF.code == "()"
    assert LEAF.node_count == 1


def test_two_leaf_children_code():
    t = RootedTree([LEAF, LEAF])
    assert t.code == "(()())"
    assert t.node_count == 3


def test_children_order_is_canonical():
    a = RootedTree([RootedTree([LEAF]), LEAF])
    b = RootedTree([LEAF, RootedTree([LEAF])])
    assert a == b and a.code == b.code


@pytest.mark.parametrize("count", [-1, 2.5, 2.0, "1", None])
def test_a_child_count_must_be_a_nonnegative_int(count):
    # RootedTree({LEAF: -1}) had LEAF's code but another id; 2.5 had a
    # node count of 3.5 and no code
    with pytest.raises(ValueError, match=re.escape(f"count {count!r} is not a nonnegative int")):
        RootedTree({LEAF: count})
    with pytest.raises(ValueError, match="not a nonnegative integer"):
        RootedTree({LEAF: 1, RootedTree([LEAF]): count})


def test_zero_child_counts_are_dropped():
    t = RootedTree([LEAF])
    assert RootedTree({LEAF: 0}) == LEAF
    assert RootedTree({LEAF: 0, t: 2}) == RootedTree([t, t])
    assert RootedTree({LEAF: 0, t: 2}).counted == ((t, 2),)


def test_counts_are_checked_once_per_distinct_child(monkeypatch):
    seen, t = [], RootedTree([LEAF])
    monkeypatch.setattr(trees, "_checked_count", lambda count: seen.append(count) or count)
    RootedTree([LEAF] * 1000 + [t] * 3)
    assert sorted(seen) == [3, 1000]


def test_elementary_22_matches_worked_example():
    # T_(2,2) is a chain: root -> node -> two leaves, 4 nodes
    t = elementary_tree((2, 2))
    assert t.code == "((()()))"
    assert t.node_count == 4


def test_elementary_single_entry_is_star():
    t = elementary_tree((5,))
    assert t == RootedTree([LEAF] * 4)
    assert t.node_count == 5


def test_elementary_62_shape():
    # root with 5 children: the root of <6 leaves> plus 4 leaves
    t = elementary_tree((6, 2))
    assert t.node_count == 12
    kids = t.children
    assert len(kids) == 5
    assert sorted(k.node_count for k in kids) == [1, 1, 1, 1, 7]


@pytest.mark.parametrize("seq", [(2,), (3, 2), (4, 4, 2), (6, 2), (5, 3, 3, 1)])
def test_node_count_is_product(seq):
    assert elementary_tree(seq).node_count == math.prod(seq)


def test_node_count_product_sweep():
    # all non-increasing sequences with entries <= 6 and length <= 5
    def sequences(maxlen, maxv):
        if maxlen == 0:
            return [()]
        out = [()]
        for shorter in sequences(maxlen - 1, maxv):
            lo = shorter[-1] if shorter else 1
            out.extend(shorter + (v,) for v in range(lo, maxv + 1))
        return out

    seen = set()
    for rev in sequences(5, 6):
        seq = tuple(reversed(rev))
        if seq in seen or not seq:
            continue
        seen.add(seq)
        assert elementary_tree(seq).node_count == math.prod(seq), seq


@pytest.mark.parametrize("seq", [(2, 2), (6, 2), (4, 3, 2), (5,)])
def test_padding_with_ones_is_invisible(seq):
    assert elementary_tree(seq) == elementary_tree(seq + (1, 1, 1))


def test_empty_sequence_gives_leaf():
    assert elementary_tree(()) == LEAF


def test_partial_tree_bounds_and_height():
    seq = (3, 2, 2)
    assert partial_tree(seq, 0) == LEAF
    t1 = partial_tree(seq, 1)
    assert t1 == RootedTree([LEAF] * 3)
    with pytest.raises(ValueError):
        partial_tree(seq, 4)


def test_partial_tree_complete_ary():
    # for a constant sequence (b, ..., b) the k-th partial tree is the
    # complete b-ary tree of height k
    b = 3
    seq = (b, b, b)
    for k in range(4):
        t = partial_tree(seq, k)
        assert t.node_count == (b ** (k + 1) - 1) // (b - 1)


def test_rejects_bad_sequences():
    with pytest.raises(ValueError):
        elementary_tree((2, 3))
    with pytest.raises(ValueError):
        elementary_tree((2, 0))
    with pytest.raises(ValueError):
        elementary_tree((2, -1))
