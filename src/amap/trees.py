"""Unlabeled rooted trees and the elementary trees of non-increasing sequences.

A tree is identified by the multiset of its child subtrees.  Children are
kept sorted by canonical code at construction, so that two trees are equal
(and hash equal) exactly when they are isomorphic.  The canonical code is
the classic parenthesis encoding: a leaf is ``()``, an inner node wraps the
concatenation of its children's codes in sorted order.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["RootedTree", "LEAF", "elementary_tree", "partial_tree"]


class Coded:
    """Value identified by its canonical code: equal codes, isomorphic values."""

    __slots__ = ("code", "node_count")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.code!r})"


class RootedTree(Coded):
    """Immutable unlabeled rooted tree; equality is isomorphism."""

    __slots__ = ("children",)

    def __init__(self, children: Iterable[RootedTree] = ()):
        kids = tuple(sorted(children, key=lambda t: t.code))
        self.children = kids
        self.code = "(%s)" % "".join(t.code for t in kids)
        self.node_count = 1 + sum(t.node_count for t in kids)


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
    # trees[k] is the k-th partial tree of seq; trees[0] is the leaf
    trees = [LEAF]
    for k in range(1, upto + 1):
        forest = [trees[k - 1]] * seq[k - 1]
        for i in range(1, k):
            forest += [trees[i - 1]] * (seq[i - 1] - seq[i])
        trees.append(RootedTree(forest))
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
    forest = [trees[d - 1]] * (seq[d - 1] - 1)
    for i in range(1, d):
        forest += [trees[i - 1]] * (seq[i - 1] - seq[i])
    return RootedTree(forest)


def partial_tree(seq: Sequence[int], k: int) -> RootedTree:
    """k-th partial tree of the sequence, for 0 <= k <= len(seq)."""
    seq = _validated(seq)
    if not 0 <= k <= len(seq):
        raise ValueError(f"k must be between 0 and {len(seq)}, got {k}")
    return _partials(seq, k)[k]
