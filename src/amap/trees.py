"""Unlabeled rooted trees and the elementary trees of non-increasing sequences.

Trees get integer ids from one process-wide table (AHU labelling, Aho,
Hopcroft and Ullman 1974, with multiplicities): a node's id is that of the
sorted pairs (child id, count) of its children, so ids are equal exactly
when trees are isomorphic.  A tree keeps its distinct children with
counts, and its node count from theirs, so an elementary tree costs
O(len(seq)^2) lookups whatever the product of its sequence.

The canonical code is the classic parenthesis encoding: a leaf is ``()``,
an inner node wraps the concatenation of its children's codes in sorted
order.  It is rendered on demand and memoised; its length is 2 * node_count.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from itertools import chain, repeat

__all__ = ["RootedTree", "LEAF", "elementary_tree", "folded_tree"]


class Keyed:
    """Value identified by a key made of tree ids, never by its text.

    Equal keys mean isomorphic values, as do equal canonical codes.  `code`
    is rendered by `_render` on first use and memoised; `code_bytes` is its
    length, known beforehand, so a repr never renders a long code.
    """

    __slots__ = ("key", "node_count", "_code")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        size = self.code_bytes
        text = repr(self.code) if size <= 200 else f"<{size} code bytes>"
        return f"{type(self).__name__}({text})"

    @property
    def code(self) -> str:
        if self._code is None:
            self._code = self._render()
        return self._code


def _checked_count(count) -> int:
    """The number of copies of a child tree or a component: ValueError unless
    it is a nonnegative int."""
    if not isinstance(count, int) or count < 0:
        raise ValueError(f"count {count!r} is not a nonnegative integer")
    return count


# (child id, count) pairs sorted by child id -> tree id
_TREE_IDS: dict[tuple[tuple[int, int], ...], int] = {}


class RootedTree(Keyed):
    """Immutable unlabeled rooted tree; equality is isomorphism.

    The children are given one per copy, or as a mapping from child tree to
    its number of copies: zero counts are dropped, and a count that is not a
    nonnegative int raises ValueError (`_checked_count`).  `key` is the
    tree's id; `counted` holds its distinct children with their counts, in
    id order.
    """

    __slots__ = ("counted",)

    def __init__(self, children: Iterable[RootedTree] | Mapping[RootedTree, int] = ()):
        kids = sorted((tree.key, count, tree) for tree, count in Counter(children).items()
                      if _checked_count(count))
        self.counted = tuple((tree, count) for _, count, tree in kids)
        key = tuple((k, count) for k, count, _ in kids)
        self.key = _TREE_IDS.setdefault(key, len(_TREE_IDS))
        self.node_count = 1 + sum([count * tree.node_count for tree, count in self.counted])
        self._code = None

    @property
    def children(self) -> tuple[RootedTree, ...]:
        """Every child, one per copy, in code order (renders their codes)."""
        ordered = sorted(self.counted, key=lambda pair: pair[0].code)
        return tuple(chain.from_iterable(repeat(t, count) for t, count in ordered))

    @property
    def code_bytes(self) -> int:
        return 2 * self.node_count

    def _render(self) -> str:
        for tree in _bottom_up(self, lambda t: t._code is not None):
            ordered = sorted(tree.counted, key=lambda pair: pair[0]._code)
            tree._code = "(%s)" % "".join(t._code * count for t, count in ordered)
        return self._code


def _bottom_up(tree: RootedTree,
               done: Callable[[RootedTree], bool]) -> Iterator[RootedTree]:
    """The subtrees of `tree` not yet `done`, each once and children first;
    the caller makes each one done.  The stack is explicit, as trees from a
    map can be as deep as the map."""
    stack = [tree]
    while stack:
        t = stack[-1]
        if not done(t):
            todo = [child for child, _ in t.counted if not done(child)]
            if todo:
                stack.extend(todo)
                continue
            yield t
        stack.pop()


#: The single-node tree.
LEAF = RootedTree()


def _validated(seq: Sequence[int]) -> tuple[int, ...]:
    seq = tuple(seq)
    if any(not isinstance(v, int) or v < 1 for v in seq):
        raise ValueError(f"sequence entries must be positive integers: {seq}")
    if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
        raise ValueError(f"sequence must be non-increasing: {seq}")
    return seq


def _partials(seq: tuple[int, ...], upto: int) -> list[RootedTree]:
    # trees[k] is the k-th partial tree of seq; trees[0] is the leaf.  Their
    # heights differ, so the child mappings below never merge two keys.
    trees = [LEAF]
    for k in range(1, upto + 1):
        kids = {trees[i - 1]: seq[i - 1] - seq[i] for i in range(1, k)}
        kids[trees[k - 1]] = seq[k - 1]
        trees.append(RootedTree(kids))
    return trees


def elementary_tree(seq: Sequence[int]) -> RootedTree:
    """Tree attached to a non-increasing sequence of positive integers.

    The empty sequence gives the single-node tree; trailing 1 entries do
    not change the result.  The node count is the product of the entries.
    """
    seq = _validated(seq)
    d = len(seq)
    if d == 0:
        return LEAF
    trees = _partials(seq, d - 1)
    kids = {trees[i - 1]: seq[i - 1] - seq[i] for i in range(1, d)}
    kids[trees[d - 1]] = seq[d - 1] - 1
    return RootedTree(kids)


def folded_tree(seqs: Iterable[Sequence[int]]) -> RootedTree:
    """Tree at 0 of x -> a*x on Z/m folded by x ~ -x, for each nu-series of
    Z/m0 in `seqs`, the folds glued at 0.

    Negation pairs off the children of the root of T(nu), save the nonzero
    2-torsion point when nu has e >= 1 even entries, whose subtree is the
    (e-1)-th partial tree: one copy of it is taken out, the rest are halved.
    The 2-torsion points glue into one more child, its children halved too;
    any other node's orbit is free, so its subtree is not folded."""
    kids: Counter = Counter()
    torsion = None  # children of the glued 2-torsion point
    for seq in map(_validated, seqs):
        children = Counter(dict(elementary_tree(seq).counted))
        if e := sum(v % 2 == 0 for v in seq):
            half = _partials(seq, e - 1)[e - 1]
            children[half] -= 1
            torsion = (torsion or Counter()) + Counter(dict(half.counted))
        if any(count % 2 for count in children.values()):  # a missing copy leaves -1
            raise ValueError(f"negation does not pair off the children in T({seq})")
        kids.update({t: count // 2 for t, count in children.items()})
    if torsion is not None:
        kids[RootedTree({t: count // 2 for t, count in torsion.items()})] += 1
    return RootedTree(kids)

