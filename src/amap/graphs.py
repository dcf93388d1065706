"""Functional graphs of self-maps on finite sets.

A functional graph is stored as a multiset of components; each component is
a directed cycle together with the rooted trees hanging at its cycle nodes,
recorded in cyclic order.  Canonical codes make equality coincide with graph
isomorphism: a component code is ``C<len>[...]`` around the lexicographically
minimal rotation of the hanging-tree codes, and a graph code joins the sorted
component codes with ``;``.

The one trusted primitive is :func:`brute_graph`, which decomposes an
explicit successor map into cycles and hanging trees.  The decomposition
peels nodes of in-degree zero and labels the trees bottom-up, building each
distinct tree once, so isomorphic hanging trees are one interned object and
no tree is built per node.  Tensor products are computed by materializing
both operands as successor maps and decomposing the product map, never
through algebraic identities.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import compress

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
    """Index of the lexicographically minimal rotation of a code sequence."""
    m = len(codes)
    if m == 1 or len(set(codes)) == 1:
        return 0
    doubled = list(codes) + list(codes)
    return min(range(m), key=lambda r: doubled[r:r + m])


class Component(Coded):
    """One connected component: a cycle with hanging trees in cyclic order."""

    __slots__ = ("cycle_len", "hanging")

    def __init__(self, cycle_len: int, hanging: Sequence[RootedTree]):
        if cycle_len < 1:
            raise ValueError("cycle length must be positive")
        if len(hanging) != cycle_len:
            raise ValueError("need one hanging tree per cycle node")
        hanging = tuple(hanging)
        codes = [t.code for t in hanging]
        r = _min_rotation(codes)
        if r:
            hanging = hanging[r:] + hanging[:r]
            codes = codes[r:] + codes[:r]
        self.cycle_len = cycle_len
        self.hanging = hanging
        joined = ",".join(codes)
        del codes  # freed before the formatted copy, which keeps peak memory down
        self.code = "C%d[%s]" % (cycle_len, joined)
        self.node_count = sum(t.node_count for t in self.hanging)


class FunctionalGraph(Coded):
    """Multiset of components; equality is graph isomorphism."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Component] = ()):
        comps = tuple(sorted(components, key=lambda c: c.code))
        self.components = comps
        self.code = ";".join(c.code for c in comps)
        self.node_count = sum(c.node_count for c in comps)


def canonical_code(obj: Coded) -> str:
    """Text encoding under which equality is exactly isomorphism."""
    if isinstance(obj, Coded):
        return obj.code
    raise TypeError(f"no canonical code for {type(obj).__name__}")


def cyc(m: int, tree: RootedTree = LEAF) -> FunctionalGraph:
    """Cycle of length m with a copy of `tree` hanging at every cycle node."""
    return FunctionalGraph([Component(m, (tree,) * m)])


def extended_tree(tree: RootedTree) -> FunctionalGraph:
    """The extended tree {T}: a loop at the root of T."""
    return cyc(1, tree)


def disjoint_sum(graphs: Iterable[FunctionalGraph]) -> FunctionalGraph:
    comps: list[Component] = []
    for g in graphs:
        comps.extend(g.components)
    return FunctionalGraph(comps)


def _build_tree(root, children) -> RootedTree:
    """Tree of the nodes below `root`, where children[v] lists v's children."""
    order = [root]
    for v in order:  # breadth first: the loop also visits what it appends
        order.extend(children[v])
    built = {}
    for v in reversed(order):
        kids = children[v]
        built[v] = RootedTree(built[c] for c in kids) if kids else LEAF
    return built[root]


def _append_tree(succ: list, tree: RootedTree, root: int) -> None:
    """Append the nodes below the root of `tree` (at index `root`) depth first."""
    stack = [(child, root) for child in reversed(tree.children)]
    while stack:
        sub, parent = stack.pop()
        node_id = len(succ)
        succ.append(parent)
        stack.extend((child, node_id) for child in reversed(sub.children))


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
        succ = list(successor[:size])
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
        for i in range(m):
            succ.append(base + (i + 1) % m)
        for i, tree in enumerate(comp.hanging):
            _append_tree(succ, tree, base + i)
    return succ


def tensor(g1: FunctionalGraph, g2: FunctionalGraph,
           max_nodes: int = DEFAULT_MAX_NODES) -> FunctionalGraph:
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


def _tree_successors(arg: RootedTree | FunctionalGraph) -> tuple[list[int | None], int]:
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
    succ: list[int | None] = [0 if looped else None]
    _append_tree(succ, tree, 0)
    return succ, 0


def restricted_tensor(arg1: RootedTree | FunctionalGraph,
                      arg2: RootedTree | FunctionalGraph,
                      max_nodes: int = DEFAULT_MAX_NODES) -> RootedTree:
    """Hanging tree at the pair of roots in the tensor of two (extended) trees.

    Each argument is either a rooted tree or an extended tree {T}; the result
    is the connected component of the root pair, as a tree rooted there.
    """
    s1, r1 = _tree_successors(arg1)
    s2, r2 = _tree_successors(arg2)
    n1, n2 = len(s1), len(s2)
    if n1 * n2 > max_nodes:
        raise GraphSizeError(f"product would have {n1 * n2} nodes (cap {max_nodes})")
    pre1: list[list[int]] = [[] for _ in range(n1)]
    pre2: list[list[int]] = [[] for _ in range(n2)]
    for v, s in enumerate(s1):
        if s is not None:
            pre1[s].append(v)
    for v, s in enumerate(s2):
        if s is not None:
            pre2[s].append(v)
    # preimage pairs; skip the self-loop when both are extended
    children: dict[tuple[int, int], list[tuple[int, int]]] = {}
    stack = [(r1, r2)]
    while stack:
        x, y = pair = stack.pop()
        kids = [(u, v) for u in pre1[x] for v in pre2[y] if (u, v) != pair]
        children[pair] = kids
        stack.extend(kids)
    return _build_tree((r1, r2), children)


def to_dot(graph: FunctionalGraph, name: str = "G") -> str:
    """DOT source with one edge per node; numbering follows materialize()."""
    succ = materialize(graph)
    lines = [f"digraph {name} {{"]
    lines.extend(f"  n{i};" for i in range(len(succ)))
    lines.extend(f"  n{i} -> n{s};" for i, s in enumerate(succ))
    lines.append("}")
    return "\n".join(lines)
