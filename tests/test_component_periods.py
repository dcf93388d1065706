"""Components stored as one period of hanging trees, and the shallow report
dict and the four-product ideal product.

A component from any word of trees is `test_interned_ids`'s
`test_component_keys_agree_with_eager_codes`, against
`references.ref_component_code`; here are the refused words, the cycles of
one tree and the predicted classes.  `reference_ideal_mul` keeps the
earlier eight-vector body of `QuadOrder.ideal_mul` (the four products of
the HNF bases and their w-multiples), and `reference_as_dict` the earlier
`JsonReport.as_dict` over `asdict` (with a graph field written as its code,
or as the name of the first field with the same code), as test-only
references, each the one referee of its operation.
"""

import json
import random
from dataclasses import asdict

import pytest

from amap.applications import chebyshev_check, ec_generic_trees, linearized_check, redei_check
from amap.dynamics import predicted_graph, verify
from amap.graphs import Component
from amap.integers import IntegerDomain
from amap.quadorder import QuadInt, QuadOrder, _hnf_from_vectors
from amap.trees import LEAF, Keyed, elementary_tree
from domains import ENTRIES
from references import cyc, ref_component_code

Z = IntegerDomain()


def reference_ideal_mul(order, m, n):
    order._check_pair(m, n)
    basis_m = [QuadInt(m.a, 0), QuadInt(m.b, m.c)]
    basis_n = [QuadInt(n.a, 0), QuadInt(n.b, n.c)]
    vectors = []
    for u in basis_m:
        for v in basis_n:
            uv = order.mul(u, v)
            wuv = order.mul(QuadInt(0, 1), uv)
            vectors.append((uv.x, uv.y))
            vectors.append((wuv.x, wuv.y))
    return order._make_ideal(*_hnf_from_vectors(vectors))


def reference_as_dict(report):
    out = {"family": report.family} if report.family is not None else {}
    written = []  # (graph, field name) of every code written so far
    for k, v in asdict(report).items():
        if isinstance(v, Keyed):  # a graph field is written as its code once
            same = [name for graph, name in written if graph.code == v.code]
            if same:
                out[f"{k}_same_as"] = same[0]
            else:
                out[f"{k}_code"] = v.code
                written.append((v, k))
        elif v is not None:
            out[k] = v
    return out


# ---- Component: one period, any power of it ----

def test_a_list_period_is_stored_as_a_tuple():
    t, u = LEAF, elementary_tree([2])
    comp = Component(4, [t, u])
    assert comp.hanging[:2] == (u, t)  # "(" sorts before ")"
    assert comp.hanging == (u, t, u, t)
    assert comp.code == "C4[(()),(),(()),()]"
    assert comp.node_count == 6


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


# ---- QuadOrder.ideal_mul: four products span the product ideal ----

@pytest.mark.parametrize("d", [-1, -2, -3, -5, -6, -7, -10, -11, -15, -23])
def test_ideal_mul_matches_the_eight_vector_product(d):
    order = QuadOrder(d)
    rng = random.Random(105 - d)

    def ideal():
        gens = [QuadInt(rng.randint(-15, 15), rng.randint(-15, 15))
                for _ in range(rng.randint(1, 2))]
        if all(g.is_zero for g in gens):
            gens.append(QuadInt(1, 1))
        return order.ideal_from_generators(gens)

    for _ in range(120):
        m, n = ideal(), ideal()
        got = order.ideal_mul(m, n)
        assert got == reference_ideal_mul(order, m, n)
        assert got.norm == m.norm * n.norm
        assert got == order.ideal_mul(n, m)


# ---- JsonReport: the same JSON without a deep copy ----

def _reports():
    yield verify(Z, 2, 24)
    yield verify(Z, 2, 24, corrupt_cycle=True)
    yield verify(QuadOrder(-5), QuadInt(1, 1), QuadOrder(-5).principal(QuadInt(6, 0)))
    yield redei_check(7, 2, 3)
    yield chebyshev_check(7, 3)
    yield linearized_check(2, 4, [1, 1])
    yield ec_generic_trees(-1, QuadInt(3, -1), QuadInt(-3, 8), 1)


def test_report_json_is_unchanged_and_the_dict_is_shallow():
    graph_fields = 0
    for report in _reports():
        ref = reference_as_dict(report)
        got = report.as_dict()
        assert list(got) == list(ref)
        assert json.dumps(got) == json.dumps(ref)
        assert report.to_json(indent=2) == json.dumps(ref, indent=2)
        for key, value in got.items():
            graph = getattr(report, key.removesuffix("_code"), None)
            same = getattr(report, key.removesuffix("_same_as"), None)
            if key.endswith("_code") and isinstance(graph, Keyed):
                assert value == graph.code
                graph_fields += 1
            elif key.endswith("_same_as") and isinstance(same, Keyed):
                assert same == getattr(report, value)
            elif key != "family":
                assert value is getattr(report, key)
    # one code for each passing check, two for the corrupt verify
    assert graph_fields == 1 + 2 + 1 + 1 + 1 + 1
