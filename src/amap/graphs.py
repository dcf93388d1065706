"""Functional graphs of self-maps on finite sets.

A functional graph is stored as its distinct components with counts; each
component is a directed cycle together with one period of the rooted trees
hanging at its cycle nodes, recorded in cyclic order (a cycle of an a-map
carries one tree all round, a period of length one).  Identity works on
keys made of tree ids, never on text: a component key is its cycle length
and the least rotation, in id order, of the primitive root of its period;
a graph key is the set of its (component key, count) pairs.  So a
prediction costs O(divisor rows) whatever the number of nodes.

A graph is built from `(component, count)` pairs, the paper's sum of
cycle classes with multiplicities.  Canonical codes are rendered when read,
as ``obj.code``, and memoised: a component code is ``C<len>[...]`` around
the lexicographically minimal rotation of the hanging-tree codes, and a
graph code joins the sorted component codes with ``;``, each repeated by its
count.  One linear scan, Duval's Lyndon factorization, gives both the least
rotation of a word and its primitive period.  Equal codes and equal keys
both mean isomorphic graphs.  A code's length is known from the key, so
:func:`render` refuses an oversized one before building it; :func:`compact`
gives the structure instead.

The one trusted primitive is :func:`brute_graph`, which decomposes an
explicit successor sequence into cycles and hanging trees.  The decomposition
peels nodes of in-degree zero and labels the trees bottom-up, building each
distinct tree once, so isomorphic hanging trees are one interned object and
no tree is built per node; every tree built from a map comes from this
decomposition.  It is a generator: it yields one cycle at a time, in the
order of the least cycle node, so no list of cycles is kept.  `brute_graph`
counts the cycles by length and word of tree ids and builds one Component
per distinct word, not one per cycle.  Both tensor products materialize
their operands as successor maps and decompose one product map on the
pairs, never using algebraic identities.  For the restricted product the root of a bare tree
is unmapped: every pair with an unmapped side goes to one looping sink,
the root pair is made a fixed point, and its hanging tree is the result.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress, repeat
from operator import itemgetter, not_

from .trees import LEAF, Keyed, RootedTree, _bottom_up

__all__ = [
    "Component",
    "FunctionalGraph",
    "GraphSizeError",
    "DEFAULT_MAX_NODES",
    "DEFAULT_MAX_CODE_BYTES",
    "compact",
    "render",
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
DEFAULT_MAX_CODE_BYTES = 2**24


class GraphSizeError(ValueError):
    """Raised when a construction or a rendering would exceed its size cap."""


def _check_size(size: int, max_nodes: int) -> None:
    if size > max_nodes:
        raise GraphSizeError(f"{size} nodes exceeds the cap of {max_nodes}")


def _least_root(items: Sequence) -> tuple[int, int]:
    """(r, p): the least rotation of a nonempty sequence starts at index r
    and is its first p items repeated, p the least period dividing the length.

    Duval's Lyndon factorization (Duval 1983) of the doubled sequence, each
    factor compared over at most one rotation's length, linear in the length:
    the least rotation starts the last group of equal Lyndon factors that
    begins in the first copy, and one factor of that group is its period.
    """
    m = len(items)
    s = list(items) * 2
    i = 0
    while True:
        r = k = i
        # s[r:j] is a power of the Lyndon word s[r:r + j - k], then a prefix of it
        for j in range(i + 1, i + m):
            a = s[k]
            b = s[j]
            if a == b:
                k += 1
            elif a < b:
                k = r
            else:
                break
        else:
            j = i + m
        p = j - k
        i += (k - r) // p * p + p
        if i >= m:
            return r, p


class Component(Keyed):
    """One connected component: a cycle with hanging trees in cyclic order.

    The trees are given as any nonempty word whose length divides the cycle
    length, one period of them; the full list is one such word.  `root` is
    the word's primitive root at its least rotation in id order, and the key
    is `(cycle_len, ids of root)`, so powers and rotations of one word give
    one key.  `hanging` is the tree at every cycle node, from the least
    rotation in code order; it renders tree codes when the root has more
    than one tree.
    """

    __slots__ = ("cycle_len", "root")

    def __init__(self, cycle_len: int, hanging: Sequence[RootedTree]):
        if cycle_len < 1:
            raise ValueError("cycle length must be positive")
        if not hanging or cycle_len % len(hanging):
            raise ValueError(f"{len(hanging)} hanging trees do not repeat evenly "
                             f"round a cycle of length {cycle_len}")
        hanging = tuple(hanging)
        m = len(hanging)
        if hanging.count(hanging[0]) == m:  # identical trees compare in C
            root = hanging[:1]
        else:
            r, p = _least_root([t.key for t in hanging])
            root = (hanging[r:] + hanging[:r])[:p]
        self.cycle_len = cycle_len
        self.root = root
        self.key = (cycle_len, tuple([t.key for t in root]))
        self.node_count = cycle_len // len(root) * sum([t.node_count for t in root])
        self._code = None

    def _ordered_root(self) -> tuple[RootedTree, ...]:
        """`root` turned to its least rotation in code order."""
        root = self.root
        if len(root) == 1:
            return root
        r = _least_root([t.code for t in root])[0]
        return root[r:] + root[:r]

    @property
    def hanging(self) -> tuple[RootedTree, ...]:
        """The tree at every cycle node, in cyclic order from the least rotation."""
        return self._ordered_root() * (self.cycle_len // len(self.root))

    @property
    def code_bytes(self) -> int:
        # "C<len>[", a tree text of 2 bytes a node, a comma between trees, "]"
        return len(str(self.cycle_len)) + 2 + 2 * self.node_count + self.cycle_len

    def __lt__(self, other: Component) -> bool:
        """Code order.  A code starts ``C<len>[``, a prefix that decides
        between two cycle lengths, so only equal lengths render codes."""
        a, b = "%d[" % self.cycle_len, "%d[" % other.cycle_len
        return a < b if a != b else self.code < other.code

    def _render(self) -> str:
        body = ",".join([t.code for t in self._ordered_root()])
        reps = self.cycle_len // len(self.root)
        return "C%d[%s%s]" % (self.cycle_len, body, ("," + body) * (reps - 1))


class FunctionalGraph(Keyed):
    """Multiset of components; equality is graph isomorphism.

    Built from `(component, count)` pairs: `count` copies of each component,
    pairs with equal keys adding up and zero counts dropped; a count that
    is not a nonnegative integer raises ValueError.  `counted` holds one
    such pair per distinct component key, in no fixed order, and the key is
    the set of `(component key, count)` pairs.  `classes` is the same pairs
    sorted by code, and `components` one entry per copy in that order.
    """

    __slots__ = ("counted", "_classes")

    def __init__(self, pairs: Iterable[tuple[Component, int]] = ()):
        merged: dict[tuple, list] = {}
        for comp, count in pairs:
            if not isinstance(count, int) or count < 0:
                raise ValueError(f"count {count!r} is not a nonnegative integer")
            got = merged.get(comp.key)
            if got is None:
                merged[comp.key] = [comp, count]
            else:
                got[1] += count
        self.counted = tuple((comp, count) for comp, count in merged.values() if count)
        self.key = frozenset((comp.key, count) for comp, count in self.counted)
        self.node_count = sum([count * comp.node_count for comp, count in self.counted])
        self._code = None
        self._classes = None

    @property
    def classes(self) -> tuple[tuple[Component, int], ...]:
        if self._classes is None:
            self._classes = tuple(sorted(self.counted, key=itemgetter(0)))
        return self._classes

    @property
    def components(self) -> tuple[Component, ...]:
        """Every component, one per copy, in sorted code order."""
        return tuple(chain.from_iterable(repeat(comp, count)
                                         for comp, count in self.classes))

    @property
    def code_bytes(self) -> int:
        # the component codes, with a ";" between two copies
        copies = sum(count for _, count in self.counted)
        texts = sum(count * comp.code_bytes for comp, count in self.counted)
        return texts + max(copies - 1, 0)

    def _render(self) -> str:
        return ";".join(chain.from_iterable(repeat(comp.code, count)
                                            for comp, count in self.classes))


def render(obj: Keyed, max_bytes: int) -> str:
    """`obj.code` of a tree, component or graph, capped at `max_bytes`.

    Its length is known from the key, so a code longer than `max_bytes`
    is refused with GraphSizeError before anything is allocated.
    """
    if not isinstance(obj, Keyed):
        raise TypeError(f"no canonical code for {type(obj).__name__}")
    if obj.code_bytes > max_bytes:
        raise GraphSizeError(f"code of {obj.code_bytes} bytes exceeds the cap "
                             f"of {max_bytes}")
    return obj.code


def compact(obj: RootedTree | FunctionalGraph) -> dict:
    """Structure of a tree or a graph in O(distinct trees + classes) space.

    `trees` lists each distinct tree once, children before parents, as its
    `[child index, count]` pairs.  A tree adds its `root` index; a graph
    adds `classes`, one `[cycle_len, period, count]` row per distinct
    component, the period as tree indices (the `root` of the component).
    """
    index: dict[int, int] = {}
    trees: list[list] = []

    def add(tree: RootedTree) -> int:
        for t in _bottom_up(tree, lambda t: t.key in index):
            index[t.key] = len(trees)
            trees.append([[index[c.key], count] for c, count in t.counted])
        return index[tree.key]

    if isinstance(obj, RootedTree):
        root = add(obj)
        return {"trees": trees, "root": root}
    if not isinstance(obj, FunctionalGraph):
        raise TypeError(f"no compact form for {type(obj).__name__}")
    rows = [[comp.cycle_len, [add(t) for t in comp.root], count]
            for comp, count in sorted(obj.counted, key=lambda pair: pair[0].key)]
    return {"trees": trees, "classes": rows}


def cyc(m: int, tree: RootedTree = LEAF) -> FunctionalGraph:
    """Cycle of length m with a copy of `tree` hanging at every cycle node."""
    return FunctionalGraph([(Component(m, (tree,)), 1)])


def extended_tree(tree: RootedTree) -> FunctionalGraph:
    """The extended tree {T}: a loop at the root of T."""
    return cyc(1, tree)


def disjoint_sum(graphs: Iterable[FunctionalGraph]) -> FunctionalGraph:
    return FunctionalGraph(pair for g in graphs for pair in g.counted)


def decompose_successors(succ: Sequence[int]) -> Iterator[tuple[list[int], list[RootedTree]]]:
    """Yield (cycle nodes, hanging trees) for each component of a successor map.

    The i-th hanging tree is rooted at the i-th cycle node; cycle nodes are
    listed in cycle order.  Components come lazily, one cycle at a time, in
    the order of their least cycle node, and each cycle starts at that node.
    Every node off the cycles is labelled before the first component is
    yielded, and the cycle nodes of a component as it is yielded.

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
    inner: dict[int, list[int]] = {}  # node -> labels of its peeled inner children
    trees = [LEAF]
    label_of: dict[tuple[int, ...], int] = {(0,): 0}

    def label(v: int, tree_kids: int) -> int:
        kids = sorted(inner.pop(v, ()))
        key = (tree_kids - len(kids), *kids)  # the leaf children come first
        t = label_of.get(key)
        if t is None:
            t = label_of[key] = len(trees)
            trees.append(RootedTree([LEAF] * key[0] + [trees[k] for k in kids]))
        return t

    # the successors of the leaves, listed before indeg changes
    ready = []
    for s in list(map(succ.__getitem__, compress(range(n), map(not_, indeg)))):
        indeg[s] -= 1
        if not indeg[s]:
            ready.append(s)
    while ready:
        frontier, ready = ready, []
        for v in frontier:
            t = label(v, children[v])
            s = succ[v]
            got = inner.get(s)
            if got is None:
                inner[s] = [t]
            else:
                got.append(t)
            indeg[s] -= 1
            if not indeg[s]:
                ready.append(s)

    # what is left is on cycles; a walk zeroes the nodes compress has still to pass
    for start in compress(range(n), indeg):
        cycle = [start]
        v = succ[start]
        while v != start:
            indeg[v] = 0
            cycle.append(v)
            v = succ[v]
        if max(map(children.__getitem__, cycle)) <= 1:  # only the cycle predecessor
            yield cycle, [LEAF] * len(cycle)
        else:
            yield cycle, [trees[label(v, children[v] - 1)] if children[v] > 1 else LEAF
                          for v in cycle]


def brute_graph(size: int, succ: Sequence[int],
                max_nodes: int = DEFAULT_MAX_NODES) -> FunctionalGraph:
    """Functional graph of a self-map on {0, ..., size-1}, given as its
    sequence of `size` successors, with one Component built per distinct
    (cycle length, word of tree ids)."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    _check_size(size, max_nodes)
    if len(succ) != size:
        raise ValueError(f"successor sequence has length {len(succ)}, "
                         f"not the size {size}")
    if succ and not (0 <= min(succ) and max(succ) < size):
        for i, s in enumerate(succ):
            if not 0 <= s < size:
                raise ValueError(f"successor({i}) = {s} out of range")
    counted: dict[tuple[int, ...], list] = {}  # (m, tree ids) -> [word, count]
    for _, word in decompose_successors(succ):
        m = len(word)
        # identical trees compare in C, and int keys hash in C
        key = (m, word[0].key) if word.count(word[0]) == m else (m, *[t.key for t in word])
        got = counted.get(key)
        if got is None:
            counted[key] = [word, 1]
        else:
            got[1] += 1
    return FunctionalGraph((Component(len(word), word), count)
                           for word, count in counted.values())


def materialize(graph: FunctionalGraph, max_nodes: int = DEFAULT_MAX_NODES) -> list[int]:
    """Successor map realizing the graph, numbered by canonical traversal.

    Components are laid out in sorted code order; within a component the
    cycle nodes come first (in canonical rotation order), then each cycle
    node's tree in depth-first order with children in canonical order.
    A graph of more than `max_nodes` nodes raises GraphSizeError first.
    """
    _check_size(graph.node_count, max_nodes)
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
    _check_size(size, max_nodes)
    sink = size
    succ = [sink if t1 is None or t2 is None else t1 * n2 + t2 for t1 in s1 for t2 in s2]
    if None in s1 or None in s2:
        succ.append(sink)
    return succ


def tensor(g1: FunctionalGraph, g2: FunctionalGraph,
           max_nodes: int = DEFAULT_MAX_NODES) -> FunctionalGraph:
    """Functional graph of the product map, built by brute enumeration.

    The product's size is checked before either operand is materialized.
    """
    _check_size(g1.node_count * g2.node_count, max_nodes)
    succ = _product_map(materialize(g1, max_nodes), materialize(g2, max_nodes), max_nodes)
    return brute_graph(len(succ), succ, max_nodes=max_nodes)


def _tree_successors(arg: RootedTree | FunctionalGraph,
                     max_nodes: int) -> list[int | None]:
    """`materialize` of the extended tree {T}, root 0; for a bare tree T the
    root is unmapped (None)."""
    if isinstance(arg, RootedTree):
        succ: list[int | None] = materialize(extended_tree(arg), max_nodes)
        succ[0] = None
        return succ
    if isinstance(arg, FunctionalGraph):
        counted = arg.counted
        if len(counted) != 1 or counted[0][1] != 1 or counted[0][0].cycle_len != 1:
            raise ValueError("extended-tree argument must be a single Cyc(1, T)")
        return materialize(arg, max_nodes)
    raise TypeError("expected a RootedTree or an extended tree")


def restricted_tensor(arg1: RootedTree | FunctionalGraph,
                      arg2: RootedTree | FunctionalGraph,
                      max_nodes: int = DEFAULT_MAX_NODES) -> RootedTree:
    """Hanging tree at the pair of roots in the tensor of two (extended) trees.

    Each argument is either a rooted tree or an extended tree {T}; the result
    is the connected component of the root pair, as a tree rooted there.
    """
    succ = _product_map(_tree_successors(arg1, max_nodes),
                        _tree_successors(arg2, max_nodes), max_nodes)
    succ[0] = 0  # the root pair is fixed, so its component is a loop and its tree
    _, trees = next(decompose_successors(succ))  # the cycle of node 0 comes first
    return trees[0]


def to_dot(graph: FunctionalGraph, max_nodes: int = DEFAULT_MAX_NODES) -> str:
    """DOT source with one edge per node; numbering follows materialize().

    A graph of more than `max_nodes` nodes raises GraphSizeError first.
    """
    succ = materialize(graph, max_nodes)
    lines = ["digraph G {"]
    lines.extend(f"  n{i};" for i in range(len(succ)))
    lines.extend(f"  n{i} -> n{s};" for i, s in enumerate(succ))
    lines.append("}")
    return "\n".join(lines)
