"""Components stored as one period of hanging trees, against the code they
replaced, and the shallow report dict and the four-product ideal product.

`ReferenceComponent` keeps the earlier body of `graphs.Component` (the full
list of hanging trees, a uniform branch and the least rotation otherwise),
`reference_ideal_mul` the earlier eight-vector body of `QuadOrder.ideal_mul`
(the four products of the HNF bases and their w-multiples), and
`reference_as_dict` the earlier `JsonReport.as_dict` over `asdict` (with
a graph field written as its code, or as the name of the first field with
the same code), as test-only references.
"""

import json
import random
from dataclasses import asdict

import pytest

from amap.applications import chebyshev_check, ec_generic_trees, linearized_check, redei_check
from amap.dynamics import predicted_graph, verify
from amap.finitefield import field
from amap.graphs import Component, brute_graph
from amap.integers import IntegerDomain
from amap.polynomials import Poly, PolyDomain
from amap.quadorder import QuadInt, QuadOrder, _hnf_from_vectors
from amap.trees import LEAF, Keyed, elementary_tree
from test_graph_products import cyc, partial_tree
from test_least_root import booth_min_rotation

Z = IntegerDomain()


class ReferenceComponent:
    """One connected component: a cycle with hanging trees in cyclic order."""

    def __init__(self, cycle_len, hanging):
        if cycle_len < 1:
            raise ValueError("cycle length must be positive")
        if len(hanging) != cycle_len:
            raise ValueError("need one hanging tree per cycle node")
        hanging = tuple(hanging)
        first = hanging[0]
        if hanging.count(first) == cycle_len:
            joined = ",".join([first.code] * cycle_len)
            self.node_count = cycle_len * first.node_count
        else:
            codes = [t.code for t in hanging]
            r = booth_min_rotation(codes)
            if r:
                hanging = hanging[r:] + hanging[:r]
                codes = codes[r:] + codes[:r]
            joined = ",".join(codes)
            self.node_count = sum(t.node_count for t in hanging)
        self.cycle_len = cycle_len
        self.hanging = hanging
        self.code = "C%d[%s]" % (cycle_len, joined)


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


def _three_trees(rng):
    pool = [LEAF, elementary_tree([2]), elementary_tree([3, 1]), partial_tree([2, 2], 1),
            elementary_tree([2, 2]), elementary_tree([3, 2, 2])]
    return rng.sample(pool, 3)


def _words(rng, count):
    """Seeded words over three trees; about half are powers of a shorter word."""
    for _ in range(count):
        trees = _three_trees(rng)
        root = [rng.choice(trees) for _ in range(rng.randint(1, 4))]
        yield tuple(root * (rng.randint(2, 3) if rng.random() < 0.5 else 1))


def assert_same_component(comp, ref):
    assert comp.code == ref.code
    assert comp.node_count == ref.node_count
    assert comp.cycle_len == ref.cycle_len
    assert comp.hanging == ref.hanging


# ---- Component: one period, any power of it ----

def test_a_period_and_its_full_repetition_give_one_component():
    rng = random.Random(101)
    seen_nonprimitive = 0
    for w in _words(rng, 300):
        m = len(w)
        seen_nonprimitive += any(w == w[d:] + w[:d] for d in range(1, m))
        for k in range(1, 6):
            short, full = Component(m * k, w), Component(m * k, w * k)
            assert short.code == full.code
            assert short.node_count == full.node_count
            assert short.hanging == full.hanging
            assert_same_component(full, ReferenceComponent(m * k, w * k))
            assert len(short.hanging) == m * k
            assert short.hanging[:m] * k == short.hanging
    assert seen_nonprimitive > 50


def test_the_period_is_the_least_rotation_of_the_given_word():
    rng = random.Random(102)
    for w in _words(rng, 200):
        comp = Component(len(w) * 2, w)
        r = booth_min_rotation([t.code for t in w])
        assert comp.hanging[:len(w)] == w[r:] + w[:r]
        assert comp.hanging == (w[r:] + w[:r]) * 2


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
    assert_same_component(comp, ReferenceComponent(3, (tree,) * 3))


def test_brute_components_match_the_reference():
    rng = random.Random(103)
    for _ in range(100):
        size = rng.randint(1, 80)
        succ = [rng.randrange(size) for _ in range(size)]
        graph = brute_graph(size, succ)
        for comp, _ in graph.classes:
            assert_same_component(comp, ReferenceComponent(comp.cycle_len, comp.hanging))


# ---- predictions: one tree per class ----

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
def test_every_predicted_class_has_a_period_of_one_tree(dom):
    rng = random.Random(104)
    for a, n in _instances(dom, rng, 25):
        prediction = predicted_graph(dom, a, n)
        for comp, _ in prediction.graph.classes:
            assert len(comp.root) == 1
            assert comp.root == (prediction.tree,)
            assert_same_component(comp, ReferenceComponent(
                comp.cycle_len, (prediction.tree,) * comp.cycle_len))


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
