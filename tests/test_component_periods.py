"""Components stored as one period of hanging trees.

A component from any word of trees is `test_interned_ids`'s
`test_component_keys_agree_with_eager_codes`, against
`references.ref_component_code`; here are the refused words, the cycles of
one tree and the predicted classes, each against the same referee.
"""

import pytest

from amap.dynamics import predicted_graph
from amap.graphs import Component
from amap.integers import IntegerDomain
from amap.trees import LEAF, RootedTree, elementary_tree
from domains import ENTRIES
from references import cyc, ref_component_code

Z = IntegerDomain()


# ---- Component: one period, any power of it ----

def test_a_list_period_is_stored_as_a_tuple():
    t, u = LEAF, elementary_tree([2])
    comp = Component(4, [t, u])
    assert comp.hanging[:2] == (u, t)  # "(" sorts before ")"
    assert comp.hanging == (u, t, u, t)
    assert comp.code == "C4[(()),(),(()),()]"
    assert comp.node_count == 6
    # an unequal tree turns the cycle to its least rotation in code order
    w = RootedTree([LEAF, LEAF])
    assert Component(4, (w, w, LEAF, w)).code == "C4[(()()),(()()),(()()),()]"


@pytest.mark.parametrize("cycle_len, hanging", [
    (5, "tu"), (3, "tu"), (2, "ttt"), (4, ""), (1, "tu"), (0, "t"), (-2, "t"),
])
def test_a_word_that_does_not_divide_the_cycle_is_refused(cycle_len, hanging):
    trees = {"t": LEAF, "u": elementary_tree([2])}
    with pytest.raises(ValueError):
        Component(cycle_len, tuple(trees[c] for c in hanging))


def test_cyc_and_the_extended_tree_store_one_tree():
    tree = elementary_tree([3, 2, 2])
    for m in (1, 2, 7, 10**6):
        (comp, count), = cyc(m, tree).classes
        assert count == 1
        assert comp.root == (tree,)
        assert comp.cycle_len == m
        assert comp.node_count == m * tree.node_count
    (comp, _), = cyc(3, tree).classes
    assert comp.code == ref_component_code(3, [tree.code])
    assert comp.hanging == (tree,) * 3


# ---- predictions: one tree per class ----

@pytest.mark.parametrize("entry", ENTRIES.values(), ids=repr)
def test_every_predicted_class_has_a_period_of_one_tree(entry):
    dom = entry.dom
    for a, n in entry.sample(25, 104):
        prediction = predicted_graph(dom, a, n)
        for comp, _ in prediction.graph.classes:
            assert len(comp.root) == 1
            assert comp.root == (prediction.tree,)
            assert comp.code == ref_component_code(comp.cycle_len, [prediction.tree.code])
            assert comp.node_count == comp.cycle_len * prediction.tree.node_count


def test_a_long_prediction_keeps_one_tree_per_class():
    # 2 is a primitive root mod the prime 1000003: one cycle through every unit
    prediction = predicted_graph(Z, 2, 1000003)
    assert [(c.cycle_len, len(c.root), count) for c, count in prediction.graph.classes] \
        == [(1000002, 1, 1), (1, 1, 1)]
