"""Interned tree ids and on-demand code rendering, against eager codes.

`ref_tree_code`, `ref_component_code` and `ref_graph_code` build the
canonical text eagerly from plain nested structures, the way the library
did before trees had ids: sorted child codes, the least rotation of the
full list of hanging-tree codes by trying every rotation, sorted component
codes.  They are test-only references, and code-string equality stays the
referee: ids and keys must be equal exactly when these codes are.
"""

import json
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amap import graphs
from amap.cli import main
from amap.dynamics import _corrupt, assemble_prediction, predicted_graph
from amap.graphs import (DEFAULT_MAX_CODE_BYTES, Component, FunctionalGraph, GraphSizeError,
                         brute_graph, compact, cyc, decompose_successors,
                         disjoint_sum, extended_tree, materialize, render,
                         restricted_tensor, tensor, to_dot)
from amap.integers import IntegerDomain
from amap.trees import LEAF, Keyed, RootedTree, elementary_tree, partial_tree

Z = IntegerDomain()
# seeded like the rest of the suite: the same examples on every run
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---- eager references on plain structures ----

def ref_tree_code(shape):
    """shape is a list of child shapes."""
    return "(%s)" % "".join(sorted(ref_tree_code(child) for child in shape))


def build(shape):
    return RootedTree(build(child) for child in shape)


def ref_component_code(cycle_len, codes):
    """codes: one period of hanging-tree codes; the cycle repeats it."""
    full = list(codes) * (cycle_len // len(codes))
    best = min(full[r:] + full[:r] for r in range(len(full)))
    return "C%d[%s]" % (cycle_len, ",".join(best))


def ref_graph_code(component_codes):
    return ";".join(sorted(component_codes))


def ref_brute_code(succ):
    """Eager code of a map's graph, from a walk over its cycles."""
    n = len(succ)
    preds = [[] for _ in range(n)]
    for v, s in enumerate(succ):
        preds[s].append(v)
    on_cycle = [False] * n
    seen = [False] * n
    cycles = []
    for start in range(n):
        path, v = [], start
        while not seen[v]:
            seen[v] = True
            path.append(v)
            v = succ[v]
        if v in path:
            cycle = path[path.index(v):]
            for u in cycle:
                on_cycle[u] = True
            cycles.append(cycle)

    def code(v):
        order, i = [v], 0
        while i < len(order):
            order.extend(u for u in preds[order[i]] if not on_cycle[u])
            i += 1
        done = {}
        for u in reversed(order):
            done[u] = "(%s)" % "".join(sorted(done[c] for c in preds[u] if not on_cycle[c]))
        return done[v]

    return ref_graph_code(ref_component_code(len(c), [code(v) for v in c]) for c in cycles)


shapes = st.recursive(st.just([]), lambda kids: st.lists(kids, max_size=4), max_leaves=12)


# ---- trees: equal ids exactly when equal codes ----

@SETTINGS
@given(st.lists(shapes, min_size=2, max_size=6))
def test_tree_ids_agree_with_eager_codes(shape_list):
    trees = [build(s) for s in shape_list]
    codes = [ref_tree_code(s) for s in shape_list]
    for tree, code in zip(trees, codes):
        assert tree.code == code
        assert tree.code == code
        assert tree.code_bytes == len(code) == 2 * tree.node_count
        assert "".join(t.code for t in tree.children) == code[1:-1]
    for (t, c), (u, d) in combinations(zip(trees, codes), 2):
        assert (t.key == u.key) == (t == u) == (c == d)
        if c == d:
            assert hash(t) == hash(u)


@SETTINGS
@given(st.lists(st.integers(1, 5), max_size=4), st.data())
def test_seeded_trees_agree_with_structures(seq, data):
    seq = sorted(seq, reverse=True)
    k = data.draw(st.integers(0, len(seq)))
    for tree in (elementary_tree(seq), partial_tree(seq, k)):
        rebuilt = build(_shape(tree))
        assert rebuilt == tree and rebuilt.code == tree.code
        assert tree.code == ref_tree_code(_shape(tree))


def _shape(tree):
    return [_shape(child) for child in tree.children]


@SETTINGS
@given(st.lists(st.integers(0, 11), min_size=1, max_size=40), st.integers(0, 10**6))
def test_trees_of_two_decompositions_share_ids(succ_seed, shift):
    n = len(succ_seed)
    succ = [s % n for s in succ_seed]
    # the same map with its nodes renamed by a rotation: separate calls,
    # separate tree objects, one id per isomorphism class
    r = shift % n
    renamed = [(succ[(v - r) % n] + r) % n for v in range(n)]
    trees = [t for _, ts in decompose_successors(succ) for t in ts]
    others = [t for _, ts in decompose_successors(renamed) for t in ts]
    for t in trees:
        for u in others:
            assert (t.key == u.key) == (t.code == u.code)
    assert sorted(t.key for t in trees) == sorted(u.key for u in others)
    graph = brute_graph(n, succ)
    assert graph == brute_graph(n, renamed)
    assert graph.code == ref_brute_code(succ) == render(graph, graph.code_bytes)


# ---- components: keys from the primitive root under id order ----

POOL = [LEAF, elementary_tree([2]), elementary_tree([3, 1]), partial_tree([2, 2], 1),
        elementary_tree([2, 2]), elementary_tree([3, 2, 2])]
words = st.lists(st.sampled_from(range(len(POOL))), min_size=1, max_size=6)


@SETTINGS
@given(st.lists(st.tuples(words, st.integers(1, 3), st.integers(1, 3), st.integers(0, 20)),
                min_size=1, max_size=6))
def test_component_keys_agree_with_eager_codes(specs):
    comps, codes = [], []
    for word, power, reps, turn in specs:
        w = [POOL[i] for i in word] * power  # a power: not primitive when power > 1
        turn %= len(w)
        w = w[turn:] + w[:turn]  # any rotation of it
        m = len(w) * reps
        comp = Component(m, w)
        code = ref_component_code(m, [t.code for t in w])
        assert comp.code == code
        assert render(comp, len(code)) == code
        assert comp.code_bytes == len(code)
        assert comp.hanging[:len(w)] * reps == comp.hanging and len(comp.hanging) == m
        assert ",".join(t.code for t in comp.hanging) == code[code.index("[") + 1:-1]
        assert comp == Component(m, w * reps)
        comps.append(comp)
        codes.append(code)
    for (c, x), (d, y) in combinations(zip(comps, codes), 2):
        assert (c.key == d.key) == (c == d) == (x == y)


@SETTINGS
@given(st.lists(st.tuples(words, st.integers(1, 3), st.integers(0, 3)), max_size=6),
       st.lists(st.tuples(words, st.integers(1, 3), st.integers(0, 3)), max_size=6))
def test_graph_keys_agree_with_eager_codes(left, right):
    def graph_and_code(spec):
        pairs, comp_codes = [], []
        for word, reps, count in spec:
            w = [POOL[i] for i in word]
            comp = Component(len(w) * reps, w)
            pairs.append((comp, count))
            comp_codes += [ref_component_code(len(w) * reps, [t.code for t in w])] * count
        return FunctionalGraph(pairs), ref_graph_code(comp_codes)

    (g, x), (h, y) = graph_and_code(left), graph_and_code(right)
    for graph, code in ((g, x), (h, y)):
        assert graph.code == code
        assert graph.code_bytes == len(code)
        assert render(graph, len(code)) == code
        ordered = [c.code for c, _ in graph.classes]
        assert ordered == sorted(set(ordered))
    assert (g.key == h.key) == (g == h) == (x == y)
    parts = [code for code in (x, y) if code]
    assert disjoint_sum([g, h]).code == \
        ref_graph_code(";".join(parts).split(";") if parts else [])


# ---- render: refused from the length alone ----

def test_render_refuses_an_oversized_code_before_building_it(monkeypatch):
    graph = predicted_graph(Z, 1, 10**18).graph
    assert graph.code_bytes == 7 * 10**18 - 1  # "C1[()]" per node, ";" between
    _forbid_text(monkeypatch)
    for obj in (graph, Component(10**9, (LEAF,)), elementary_tree([10**9, 10**9])):
        with pytest.raises(GraphSizeError):
            render(obj, DEFAULT_MAX_CODE_BYTES)
    with pytest.raises(TypeError):
        render("()", 10)


def test_render_cap_is_inclusive():
    graph = cyc(3, elementary_tree([2]))
    assert render(graph, len(graph.code)) == "C3[(()),(()),(())]"
    with pytest.raises(GraphSizeError):
        render(cyc(3, elementary_tree([2])), 17)


# ---- predictions never render ----

def _no_text(self):
    raise AssertionError("code text rendered")


def _forbid_text(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("code text rendered")
    monkeypatch.setattr(graphs, "render", refuse)
    for cls in (RootedTree, Component, FunctionalGraph):
        monkeypatch.setattr(cls, "_render", _no_text)
    monkeypatch.setattr(Keyed, "code", property(_no_text))


SCALE = [(2, 10**9 + 7), (1, 10**8), (2, 2**64), (1, 10**18)]


def test_predictions_merge_compare_and_corrupt_without_text(monkeypatch):
    _forbid_text(monkeypatch)
    for a, n in SCALE + [(6, 2**9 * 3**4 * 5 * 7 * 11), (-1, 10**6), (10, 3**4 * 7**3)]:
        prediction = predicted_graph(Z, a, n)
        graph = prediction.graph
        assert graph.node_count == n
        assert graph == predicted_graph(Z, a, n).graph
        assert len({graph, predicted_graph(Z, a, n).graph}) == 1
        assert graph.classes  # ordered without rendering: one tree, distinct lengths
        assert _corrupt(graph) != graph
        assert disjoint_sum([graph, graph]).node_count == 2 * n
        assert compact(graph)["classes"]
    nu, n1 = Z.gcd_chain(6, 10**12)
    assert assemble_prediction(Z, 6, nu, n1).graph.node_count == 10**12


@pytest.mark.parametrize("a, n", SCALE)
def test_large_predictions_are_fast_and_small(a, n):
    best = min(_timed(a, n) for _ in range(3))
    assert best < 0.05, (a, n, best)
    tracemalloc.start()
    try:
        graph = predicted_graph(Z, a, n).graph
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.node_count == n
    assert peak < 20 * 2**20, peak


def _timed(a, n):
    start = time.perf_counter()
    graph = predicted_graph(Z, a, n).graph
    elapsed = time.perf_counter() - start
    assert graph.node_count == n
    return elapsed


# ---- compact form: the structure, enough to render the code ----

def _code_from_compact(doc):
    codes = []
    for pairs in doc["trees"]:
        codes.append("(%s)" % "".join(sorted(codes[k] * c for k, c in pairs)))
    if "root" in doc:
        return codes[doc["root"]]
    comps = []
    for cycle_len, period, count in doc["classes"]:
        comps += [ref_component_code(cycle_len, [codes[k] for k in period])] * count
    return ref_graph_code(comps)


def test_compact_form_determines_the_code():
    for a, n in [(2, 24), (6, 2**5 * 3**3 * 5 * 7), (-1, 1000), (10, 3**4 * 7**3)]:
        graph = predicted_graph(Z, a, n).graph
        assert _code_from_compact(compact(graph)) == graph.code
        brute = brute_graph(n, [a * x % n for x in range(n)])
        assert _code_from_compact(compact(brute)) == brute.code
    mixed = disjoint_sum([brute_graph(12, [1, 2, 0, 0, 0, 4, 7, 8, 6, 6, 9, 9]), cyc(2)])
    assert _code_from_compact(compact(mixed)) == mixed.code
    tree = elementary_tree([4, 3, 3])
    assert _code_from_compact(compact(tree)) == tree.code
    # a tree of 10^18 nodes is three rows
    assert len(compact(elementary_tree([10**9, 10**9]))["trees"]) == 3


@pytest.mark.parametrize("obj", [Component(1, (LEAF,)), "()", None])
def test_compact_refuses_anything_but_a_tree_or_a_graph(obj):
    with pytest.raises(TypeError, match="no compact form"):
        compact(obj)


def test_deep_trees_render_without_recursion():
    n = 3000  # three times the default recursion limit
    graph = brute_graph(n, [max(v - 1, 0) for v in range(n)])  # one long path
    assert graph.code == "C1[" + "(" * n + ")" * n + "]"


# ---- the graph materializers check their size first ----

def test_materializers_refuse_huge_graphs_before_allocating(monkeypatch):
    huge = predicted_graph(Z, 1, 10**18).graph
    big = cyc(10**4)
    with pytest.raises(GraphSizeError):
        to_dot(huge)
    with pytest.raises(GraphSizeError):
        materialize(huge)
    real = graphs.materialize
    calls = []
    monkeypatch.setattr(graphs, "materialize",
                        lambda g, *args: calls.append(g.node_count) or real(g, *args))
    with pytest.raises(GraphSizeError):
        tensor(big, big)  # 10^8 nodes: refused before either side is built
    assert calls == []
    with pytest.raises(GraphSizeError):  # each side is checked as it is built
        restricted_tensor(elementary_tree([10**9]), LEAF)
    assert to_dot(cyc(2), max_nodes=2).count("->") == 2
    assert tensor(cyc(2), cyc(3), max_nodes=6) == cyc(6)
    looped = extended_tree(elementary_tree([2, 2]))
    assert restricted_tensor(looped, looped, max_nodes=16) == elementary_tree([4, 4])


# ---- the CLI: code below the cap, the compact graph above it ----

def test_cli_prints_a_compact_graph_above_the_cap(capsys):
    n = "1," + "0," * 60 + "1"  # x^61 + 1 over F_2: 2^61 nodes
    assert main(["predict", "--domain", "poly:2", "--a", "0,1", "--n", n]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "code" not in doc
    assert doc["node_count"] == 2**61
    assert "over the cap" in doc["note"]
    assert doc["graph"] == {"trees": [[]],
                            "classes": [[1, [0], 2], [61, [0], 2 * (2**60 - 1) // 61]]}


def test_cli_dot_of_a_huge_prediction_exits_two(tmp_path, capsys):
    out = tmp_path / "g.dot"
    assert main(["predict", "--domain", "Z", "--a", "1", "--n", str(10**18),
                 "--dot", str(out)]) == 2
    assert "exceeds the cap" in capsys.readouterr().err
    assert not out.exists()


def test_cli_tree_above_the_cap(capsys):
    assert main(["tree", "1000000000,1000000000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tree"] == {"trees": [[], [[0, 10**9]], [[1, 10**9 - 1]]], "root": 2}
    assert doc["node_count"] == 10**18 and "code" not in doc
    assert main(["tree", "6,2"]) == 0
    assert json.loads(capsys.readouterr().out)["code"] == elementary_tree([6, 2]).code

