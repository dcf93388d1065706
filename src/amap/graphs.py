"""Functional graphs of self-maps on finite sets.

A functional graph is stored as its distinct components with counts; each
component is a directed cycle together with one period of the rooted trees
hanging at its cycle nodes, recorded in cyclic order (a cycle of an a-map
carries one tree all round, a period of length one).  Identity works on
keys made of tree ids, never on text: a component key is its cycle length
and the least rotation, in id order, of the primitive root of its period;
a graph key is the set of its (component key, count) pairs.  So a
prediction costs O(cycle lengths) whatever the number of nodes.

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
peels nodes of in-degree zero and labels the trees bottom-up, a star (a root
over leaves only) by its leaf count, building each distinct tree once from
child counts, so isomorphic hanging trees are one interned object and no
tree is built per node; every tree built from a map comes from this
decomposition.  All trees, the cycle nodes' too, are labelled before the
first cycle is yielded; then it yields one cycle at a time, in the order of
the least cycle node, so no list of cycles is kept, and when one tree hangs
at every cycle node each word repeats it.  `brute_graph`
counts the cycles by length and word of tree ids and builds one Component
per distinct word, not one per cycle.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress, repeat
from operator import itemgetter, not_

from .trees import LEAF, Keyed, RootedTree, _bottom_up, _checked_count

__all__ = [
    "Component",
    "FunctionalGraph",
    "GraphSizeError",
    "DEFAULT_MAX_NODES",
    "DEFAULT_MAX_CODE_BYTES",
    "compact",
    "render",
    "disjoint_sum",
    "brute_graph",
    "decompose_successors",
    "materialize",
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
    is not a nonnegative int raises ValueError (`trees._checked_count`).
    `counted` holds one such pair per distinct component key, in no fixed
    order, and the key is the set of `(component key, count)` pairs.
    `classes` is the same pairs sorted by code, and `components` one entry
    per copy in that order.
    """

    __slots__ = ("counted",)

    def __init__(self, pairs: Iterable[tuple[Component, int]] = ()):
        merged: dict[tuple, list] = {}
        for comp, count in pairs:
            merged.setdefault(comp.key, [comp, 0])[1] += _checked_count(count)
        self.counted = tuple((comp, count) for comp, count in merged.values() if count)
        self.key = frozenset((comp.key, count) for comp, count in self.counted)
        self.node_count = sum([count * comp.node_count for comp, count in self.counted])
        self._code = None

    @property
    def classes(self) -> tuple[tuple[Component, int], ...]:
        return tuple(sorted(self.counted, key=itemgetter(0)))

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


def disjoint_sum(graphs: Iterable[FunctionalGraph]) -> FunctionalGraph:
    return FunctionalGraph(pair for g in graphs for pair in g.counted)


def decompose_successors(succ: Sequence[int]) -> Iterator[tuple[list[int], list[RootedTree]]]:
    """Yield (cycle nodes, hanging trees) for each component of a successor map.

    The i-th hanging tree is rooted at the i-th cycle node; cycle nodes are
    listed in cycle order.  Components come lazily, one cycle at a time, in
    the order of their least cycle node, and each cycle starts at that node.
    Every tree is labelled before the first component is yielded, and an
    entry outside [0, len(succ)) raises ValueError there, naming the first.

    Trees are labelled bottom-up (Aho, Hopcroft and Ullman, The Design and
    Analysis of Computer Algorithms, 1974, 3.2).  Nodes of in-degree zero
    are peeled off in rounds.  A node's label is its number of leaf
    children followed by the sorted labels of its other children, or the
    leaf count alone for a star (no other children), and each distinct
    label is built into a RootedTree once, from child counts, so isomorphic
    trees are one shared object.  The cycle nodes' trees are labelled once
    each, a star only for a leaf count that occurs; when one tree hangs at
    every cycle node, every word repeats it.
    """
    n = len(succ)
    if succ and not (0 <= min(succ) and max(succ) < n):
        for i, s in enumerate(succ):
            if not 0 <= s < n:
                raise ValueError(f"successor({i}) = {s} out of range")
    indeg = [0] * n
    for s in succ:
        indeg[s] += 1
    children = indeg[:]  # on a cycle, one of these is the cycle predecessor
    inner: dict[int, list[int]] = {}  # node -> labels of its peeled inner children
    trees = [LEAF]
    # a star's leaf count, or (leaf count, *sorted inner labels) -> label
    label_of: dict[int | tuple[int, ...], int] = {0: 0}

    def label(kids: list[int] | None, tree_kids: int) -> int:
        if kids is None:  # a star, keyed by its leaf count alone
            key, kids = tree_kids, ()
        else:
            kids.sort()
            key = (tree_kids - len(kids), *kids)  # the leaf children come first
        t = label_of.get(key)
        if t is None:
            t = label_of[key] = len(trees)
            counts = Counter(map(trees.__getitem__, kids))
            counts[LEAF] = tree_kids - len(kids)
            trees.append(RootedTree(counts))
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
            t = label(inner.pop(v, None), children[v])
            s = succ[v]
            got = inner.get(s)
            if got is None:
                inner[s] = [t]
            else:
                got.append(t)
            indeg[s] -= 1
            if not indeg[s]:
                ready.append(s)

    # what is left is on cycles, and the inner lists left are the cycle nodes'
    # with deeper trees: their children entries become those trees' labels,
    # negated; any other cycle node's entry is one more than its leaf count
    for v, kids in inner.items():
        children[v] = -label(kids, children[v] - 1)
    tree_at = {c: trees[-c] if c < 0 else trees[label(None, c - 1)]
               for c in set(compress(children, indeg))}
    # when one tree hangs at every cycle node, every word repeats it
    shared = next(iter(tree_at.values())) if len(tree_at) == 1 else None
    # a walk zeroes the nodes compress has still to pass
    for start in compress(range(n), indeg):
        cycle = [start]
        v = succ[start]
        while v != start:
            indeg[v] = 0
            cycle.append(v)
            v = succ[v]
        if shared is None:
            yield cycle, list(map(tree_at.__getitem__, map(children.__getitem__, cycle)))
        else:
            yield cycle, [shared] * len(cycle)


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
