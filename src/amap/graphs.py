"""Functional graphs of self-maps on finite sets.

A functional graph is stored as its distinct components with counts; each
component is a directed cycle together with one period of the rooted trees
hanging at its cycle nodes, recorded in cyclic order (a cycle of an a-map
carries one tree all round, a period of length one).  Canonical codes make
equality coincide with graph isomorphism: a component code is
``C<len>[...]`` around the lexicographically minimal rotation of the
hanging-tree codes (Booth's least-rotation algorithm), and a graph code
joins the sorted component codes with ``;``, each repeated by its count.
Codes are rendered eagerly (a component repeats its period's text, a graph
makes one join), but a prediction takes O(1) tree steps per distinct component.

The one trusted primitive is :func:`brute_graph`, which decomposes an
explicit successor map into cycles and hanging trees.  The decomposition
peels nodes of in-degree zero and labels the trees bottom-up, building each
distinct tree once, so isomorphic hanging trees are one interned object and
no tree is built per node; every tree built from a map comes from this
decomposition.  Both tensor products materialize their operands as
successor maps and decompose one product map on the pairs, never using
algebraic identities.  For the restricted product the root of a bare tree
is unmapped: every pair with an unmapped side goes to one looping sink,
the root pair is made a fixed point, and its hanging tree is the result.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import compress, repeat

from .trees import LEAF, Coded, RootedTree

__all__ = [
    "Component",
    "FunctionalGraph",
    "GraphSizeError",
    "DEFAULT_MAX_NODES",
    "canonical_code",
    "cyc",
    "extended_tree",
    "disjoint_sum",
    "brute_graph",
    "decompose_successors",
    "materialize",
    "tensor",
    "restricted_tensor",
    "to_dot",
]

DEFAULT_MAX_NODES = 10**6


class GraphSizeError(ValueError):
    """Raised when a brute-force construction would exceed the node cap."""


def _min_rotation(codes: Sequence[str]) -> int:
    """Index of a lexicographically minimal rotation of a code sequence.

    Booth's least-rotation algorithm (Booth 1980), linear in the length:
    a failure function over the doubled sequence, with the candidate start
    k moved past every mismatch that shows a smaller rotation.  The codes
    are compared by their rank among the distinct codes.
    """
    m = len(codes)
    if m == 1 or len(distinct := set(codes)) == 1:
        return 0
    rank = {c: i for i, c in enumerate(sorted(distinct))}
    s = [rank[c] for c in codes]
    s += s
    fail = [-1] * (2 * m)
    k = 0
    for j in range(1, 2 * m):
        sj = s[j]
        i = fail[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != s[k + i + 1]:  # here i == -1
            if sj < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


class Component(Coded):
    """One connected component: a cycle with hanging trees in cyclic order.

    The trees are given as any nonempty word whose length divides the cycle
    length, one period of them; the full list is one such word.  `period`
    keeps the word turned to its least rotation and `hanging` repeats it
    round the cycle.  The code joins the period's codes once and repeats
    that text, so a cycle with one tree all round takes O(1) tree steps.
    """

    __slots__ = ("cycle_len", "period")

    def __init__(self, cycle_len: int, hanging: Sequence[RootedTree]):
        if cycle_len < 1:
            raise ValueError("cycle length must be positive")
        if not hanging or cycle_len % len(hanging):
            raise ValueError(f"{len(hanging)} hanging trees do not repeat evenly "
                             f"round a cycle of length {cycle_len}")
        hanging = tuple(hanging)
        codes = [t.code for t in hanging]
        r = _min_rotation(codes)
        # the least rotation of w^k is (least rotation of w)^k
        self.period = hanging[r:] + hanging[:r]
        body = ",".join(codes[r:] + codes[:r])
        reps = cycle_len // len(hanging)
        self.cycle_len = cycle_len
        self.node_count = reps * sum([t.node_count for t in self.period])
        self.code = "C%d[%s%s]" % (cycle_len, body, ("," + body) * (reps - 1))

    @property
    def hanging(self) -> tuple[RootedTree, ...]:
        """The tree at every cycle node, in cyclic order from the least rotation."""
        return self.period * (self.cycle_len // len(self.period))


class FunctionalGraph(Coded):
    """Multiset of components; equality is graph isomorphism.

    `classes` holds one `(component, count)` pair per distinct component
    code, sorted by code.
    """

    __slots__ = ("classes",)

    def __init__(self, components: Iterable[Component] = ()):
        self._merge(zip(components, repeat(1)))

    def _merge(self, pairs: Iterable[tuple[Component, int]]) -> None:
        merged: dict[str, list] = {}
        for comp, count in pairs:
            code = comp.code
            if code in merged:
                merged[code][1] += count
            else:
                merged[code] = [comp, count]
        self.classes = tuple((comp, count) for _, (comp, count) in sorted(merged.items())
                             if count)
        codes: list[str] = []
        for comp, count in self.classes:
            codes.extend(repeat(comp.code, count))
        self.code = ";".join(codes)
        self.node_count = sum(count * comp.node_count for comp, count in self.classes)

    @property
    def components(self) -> tuple[Component, ...]:
        """Every component, one per copy, in sorted code order."""
        comps: list[Component] = []
        for comp, count in self.classes:
            comps.extend(repeat(comp, count))
        return tuple(comps)


def _counted(pairs: Iterable[tuple[Component, int]]) -> FunctionalGraph:
    """Graph of `count` copies of each `(component, count)` pair; pairs with
    equal codes add up."""
    graph = FunctionalGraph.__new__(FunctionalGraph)
    graph._merge(pairs)
    return graph


def canonical_code(obj: Coded) -> str:
    """Text encoding under which equality is exactly isomorphism."""
    if isinstance(obj, Coded):
        return obj.code
    raise TypeError(f"no canonical code for {type(obj).__name__}")


def cyc(m: int, tree: RootedTree = LEAF) -> FunctionalGraph:
    """Cycle of length m with a copy of `tree` hanging at every cycle node."""
    return FunctionalGraph([Component(m, (tree,))])


def extended_tree(tree: RootedTree) -> FunctionalGraph:
    """The extended tree {T}: a loop at the root of T."""
    return cyc(1, tree)


def disjoint_sum(graphs: Iterable[FunctionalGraph]) -> FunctionalGraph:
    return _counted(pair for g in graphs for pair in g.classes)


def decompose_successors(succ: Sequence[int]) -> list[tuple[list[int], list[RootedTree]]]:
    """Split a successor map into (cycle nodes, hanging trees) per component.

    The i-th hanging tree is rooted at the i-th cycle node; cycle nodes are
    listed in cycle order.  Components come in the order of their least
    node, and each cycle starts at the cycle node whose tree holds it.

    Trees are labelled bottom-up (Aho, Hopcroft and Ullman, The Design and
    Analysis of Computer Algorithms, 1974, 3.2).  Nodes of in-degree zero
    are peeled off in rounds.  A node's label is its number of leaf
    children followed by the sorted labels of its other children, and each
    distinct label is built into a RootedTree once, so isomorphic trees are
    one shared object.
    """
    n = len(succ)
    indeg = [0] * n
    for s in succ:
        indeg[s] += 1
    children = indeg[:]  # on a cycle, one of these is the cycle predecessor
    low = [n] * n  # least node strictly below each node
    inner: dict[int, list[int]] = {}  # node -> labels of its peeled inner children
    trees = [LEAF]
    label_of: dict[tuple[int, ...], int] = {(0,): 0}

    def label(v: int) -> int:
        kids = sorted(inner.pop(v, ()))
        key = (children[v] - len(kids), *kids)
        t = label_of.get(key)
        if t is None:
            t = label_of[key] = len(trees)
            trees.append(RootedTree([LEAF] * key[0] + [trees[k] for k in kids]))
        return t

    leaves = [v for v in range(n) if not indeg[v]]
    ready = []
    for v in leaves:
        s = succ[v]
        if v < low[s]:
            low[s] = v
        indeg[s] -= 1
        if not indeg[s]:
            ready.append(s)
    while ready:
        frontier, ready = ready, []
        for v in frontier:
            t = label(v)
            lv = low[v] if low[v] < v else v
            s = succ[v]
            if lv < low[s]:
                low[s] = lv
            got = inner.get(s)
            if got is None:
                inner[s] = [t]
            else:
                got.append(t)
            indeg[s] -= 1
            if not indeg[s]:
                ready.append(s)

    # what is left is on cycles, each node with its cycle predecessor unpeeled
    cycles: list[tuple[int, list[int]]] = []
    for start in compress(range(n), indeg):
        if not indeg[start]:
            continue  # on a cycle already walked
        cycle = []
        v = start
        while indeg[v]:
            indeg[v] = 0
            children[v] -= 1  # the cycle predecessor
            cycle.append(v)
            v = succ[v]
        lows = [low[v] if low[v] < v else v for v in cycle]
        first = lows.index(min(lows))
        cycles.append((lows[first], cycle[first:] + cycle[:first]))
    cycles.sort()
    return [(cycle, [trees[label(v)] if children[v] else LEAF for v in cycle])
            for _, cycle in cycles]


def brute_graph(size: int, successor: Callable[[int], int] | Sequence[int],
                max_nodes: int = DEFAULT_MAX_NODES) -> FunctionalGraph:
    """Functional graph of an arbitrary self-map on {0, ..., size-1}."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    if size > max_nodes:
        raise GraphSizeError(f"{size} nodes exceeds the cap of {max_nodes}")
    if callable(successor):
        succ = [successor(i) for i in range(size)]
    else:
        succ = successor
        if len(succ) != size:
            raise ValueError(f"successor sequence has length {len(succ)}, "
                             f"not the size {size}")
    if succ and not (0 <= min(succ) and max(succ) < size):
        for i, s in enumerate(succ):
            if not 0 <= s < size:
                raise ValueError(f"successor({i}) = {s} out of range")
    comps = [Component(len(cycle), trees)
             for cycle, trees in decompose_successors(succ)]
    return FunctionalGraph(comps)


def materialize(graph: FunctionalGraph) -> list[int]:
    """Successor map realizing the graph, numbered by canonical traversal.

    Components are laid out in sorted code order; within a component the
    cycle nodes come first (in canonical rotation order), then each cycle
    node's tree in depth-first order with children in canonical order.
    """
    succ: list[int] = []
    for comp in graph.components:
        base = len(succ)
        m = comp.cycle_len
        succ.extend(base + (i + 1) % m for i in range(m))
        for i, tree in enumerate(comp.hanging):
            stack = [(child, base + i) for child in reversed(tree.children)]
            while stack:
                sub, parent = stack.pop()
                node_id = len(succ)
                succ.append(parent)
                stack.extend((child, node_id) for child in reversed(sub.children))
    return succ


def _product_map(s1: Sequence[int | None], s2: Sequence[int | None],
                 max_nodes: int) -> list[int]:
    """Successor map of the product of two maps, on the pairs i*n2 + j.

    A None entry leaves a node unmapped, as the root of a bare tree is.
    Every pair with an unmapped side goes to one extra sink node, which
    loops; without unmapped nodes there is no sink.
    """
    n1, n2 = len(s1), len(s2)
    size = n1 * n2
    if size > max_nodes:
        raise GraphSizeError(f"product would have {size} nodes (cap {max_nodes})")
    sink = size
    succ = [sink if t1 is None or t2 is None else t1 * n2 + t2 for t1 in s1 for t2 in s2]
    if None in s1 or None in s2:
        succ.append(sink)
    return succ


def tensor(g1: FunctionalGraph, g2: FunctionalGraph,
           max_nodes: int = DEFAULT_MAX_NODES) -> FunctionalGraph:
    """Functional graph of the product map, built by brute enumeration."""
    succ = _product_map(materialize(g1), materialize(g2), max_nodes)
    return brute_graph(len(succ), succ, max_nodes=max_nodes)


def _tree_successors(arg: RootedTree | FunctionalGraph) -> list[int | None]:
    """`materialize` of the extended tree {T}, root 0; for a bare tree T the
    root is unmapped (None)."""
    if isinstance(arg, RootedTree):
        succ: list[int | None] = materialize(extended_tree(arg))
        succ[0] = None
        return succ
    if isinstance(arg, FunctionalGraph):
        classes = arg.classes
        if len(classes) != 1 or classes[0][1] != 1 or classes[0][0].cycle_len != 1:
            raise ValueError("extended-tree argument must be a single Cyc(1, T)")
        return materialize(arg)
    raise TypeError("expected a RootedTree or an extended tree")


def restricted_tensor(arg1: RootedTree | FunctionalGraph,
                      arg2: RootedTree | FunctionalGraph,
                      max_nodes: int = DEFAULT_MAX_NODES) -> RootedTree:
    """Hanging tree at the pair of roots in the tensor of two (extended) trees.

    Each argument is either a rooted tree or an extended tree {T}; the result
    is the connected component of the root pair, as a tree rooted there.
    """
    succ = _product_map(_tree_successors(arg1), _tree_successors(arg2), max_nodes)
    succ[0] = 0  # the root pair is fixed, so its component is a loop and its tree
    (_, trees), *_ = decompose_successors(succ)
    return trees[0]


def to_dot(graph: FunctionalGraph, name: str = "G") -> str:
    """DOT source with one edge per node; numbering follows materialize()."""
    succ = materialize(graph)
    lines = [f"digraph {name} {{"]
    lines.extend(f"  n{i};" for i in range(len(succ)))
    lines.extend(f"  n{i} -> n{s};" for i, s in enumerate(succ))
    lines.append("}")
    return "\n".join(lines)
