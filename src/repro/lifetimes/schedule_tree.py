"""R-schedules and the binary schedule tree (paper sections 8.1–8.3).

Any single appearance schedule for an acyclic graph can be written as
``(iL SL)(iR SR)`` — an *R-schedule* — and therefore represented as a
binary tree: internal nodes carry loop factors, leaves carry actors with
their residual firing counts.  Lifetime extraction runs entirely on this
tree using an abstract notion of time in which *each invocation of a
leaf node is one schedule step* (so ``2(A 3B)`` spans 4 time steps).

This module builds the tree from a :class:`~repro.sdf.schedule.LoopedSchedule`
(binarizing loop bodies with more than two elements; the paper notes the
choice of split "will not affect any of the computations"), and runs the
three depth-first computations of sections 8.2–8.3:

* ``dur(v) = loop(v) * (dur(left) + dur(right))``, ``dur(leaf) = 1``;
* ``start``/``stop`` times of the first iteration of every node;
* leaf lookup and lowest-common-ancestor queries for buffer lifetimes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..exceptions import ScheduleError
from ..sdf.schedule import Firing, Loop, LoopedSchedule, ScheduleNode

__all__ = ["ScheduleTreeNode", "ScheduleTree"]


class ScheduleTreeNode:
    """A node of the binary schedule tree.

    Leaves have ``actor`` set and ``loop == 1``; their ``residual`` is
    the firing count the leaf performs per invocation (the ``4`` of a
    leaf ``4A``).  Internal nodes have ``left``/``right`` children and a
    ``loop`` iteration count.
    """

    __slots__ = (
        "loop", "actor", "residual", "left", "right", "parent",
        "dur", "start", "stop",
    )

    def __init__(
        self,
        loop: int = 1,
        actor: Optional[str] = None,
        residual: int = 1,
    ) -> None:
        self.loop = loop
        self.actor = actor
        self.residual = residual
        self.left: Optional[ScheduleTreeNode] = None
        self.right: Optional[ScheduleTreeNode] = None
        self.parent: Optional[ScheduleTreeNode] = None
        self.dur = 0
        self.start = 0
        self.stop = 0

    def is_leaf(self) -> bool:
        return self.actor is not None

    def body_duration(self) -> int:
        """``dur(left) + dur(right)``: one iteration of this node's body.

        This is the period constant ``a_i`` of section 8.4 for nodes in
        a buffer's parent set.  For a leaf it equals 1.
        """
        if self.is_leaf():
            return 1
        return self.dur // self.loop

    def ancestors(self) -> Iterator["ScheduleTreeNode"]:
        """This node's proper ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_leaf():
            return f"Leaf({self.residual}{self.actor})"
        return f"Node(loop={self.loop}, dur={self.dur})"


class ScheduleTree:
    """The binary schedule tree of a single appearance schedule.

    Examples
    --------
    >>> from repro.sdf.schedule import parse_schedule
    >>> tree = ScheduleTree(parse_schedule("(2A(3B))"))
    >>> tree.root.dur          # 2 iterations x (leaf A + leaf 3B)
    4
    >>> tree.leaf("B").start   # first invocation of 3B
    1
    """

    def __init__(self, schedule: LoopedSchedule) -> None:
        if not schedule.is_single_appearance():
            raise ScheduleError(
                "schedule trees require a single appearance schedule; "
                f"got {schedule}"
            )
        self.schedule = schedule
        self.root = self._binarize(list(schedule.body), loop=1)
        self._leaves: Dict[str, ScheduleTreeNode] = {}
        self._set_parents(self.root, None)
        self._compute_durations(self.root)
        self._compute_times(self.root, 0)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _binarize(
        self, body: List[ScheduleNode], loop: int
    ) -> ScheduleTreeNode:
        """Convert a loop body into a binary subtree with loop factor."""
        if len(body) == 1:
            node = body[0]
            if isinstance(node, Firing):
                if loop == 1:
                    return ScheduleTreeNode(actor=node.actor,
                                            residual=node.count)
                # A loop around a single firing folds into the residual.
                return ScheduleTreeNode(actor=node.actor,
                                        residual=loop * node.count)
            inner = self._binarize(list(node.body), node.count)
            if loop == 1:
                return inner
            if inner.is_leaf():
                return ScheduleTreeNode(
                    actor=inner.actor, residual=loop * inner.residual
                )
            inner.loop *= loop
            return inner
        parent = ScheduleTreeNode(loop=loop)
        # Left-deep binarization: first element vs the rest.  The paper
        # notes the binarization point does not affect the computations.
        parent.left = self._binarize(body[:1], 1)
        parent.right = self._binarize(body[1:], 1)
        return parent

    def _set_parents(
        self, node: ScheduleTreeNode, parent: Optional[ScheduleTreeNode]
    ) -> None:
        node.parent = parent
        if node.is_leaf():
            if node.actor in self._leaves:
                raise ScheduleError(
                    f"actor {node.actor!r} appears twice in schedule tree"
                )
            self._leaves[node.actor] = node
            return
        self._set_parents(node.left, node)
        self._set_parents(node.right, node)

    def _compute_durations(self, node: ScheduleTreeNode) -> int:
        if node.is_leaf():
            node.dur = 1
            return 1
        total = self._compute_durations(node.left) + self._compute_durations(
            node.right
        )
        node.dur = node.loop * total
        return node.dur

    def _compute_times(self, node: ScheduleTreeNode, start: int) -> None:
        node.start = start
        node.stop = start + node.dur
        if not node.is_leaf():
            self._compute_times(node.left, start)
            self._compute_times(node.right, start + node.left.dur)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def leaf(self, actor: str) -> ScheduleTreeNode:
        try:
            return self._leaves[actor]
        except KeyError:
            raise ScheduleError(
                f"actor {actor!r} not in schedule tree"
            ) from None

    def actors(self) -> List[str]:
        return list(self._leaves)

    def total_duration(self) -> int:
        """Schedule-step count of one complete period."""
        return self.root.dur

    def least_parent(self, a: str, b: str) -> ScheduleTreeNode:
        """The *smallest parent* (LCA / innermost common loop) of two actors."""
        ancestors_a = [self.leaf(a)]
        ancestors_a.extend(self.leaf(a).ancestors())
        mark = set(map(id, ancestors_a))
        node: Optional[ScheduleTreeNode] = self.leaf(b)
        while node is not None:
            if id(node) in mark:
                return node
            node = node.parent
        raise ScheduleError(f"no common ancestor of {a!r} and {b!r}")

    def iter_nodes(self) -> Iterator[ScheduleTreeNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf():
                stack.append(node.right)
                stack.append(node.left)

    def invocations_per_iteration(self, actor: str, node: ScheduleTreeNode) -> int:
        """Firings of ``actor`` within one iteration of ``node``'s body.

        The product of the leaf's residual and the loop factors strictly
        between the leaf and ``node`` (exclusive).  ``node`` must be an
        ancestor of the actor's leaf (or the leaf itself).
        """
        leaf = self.leaf(actor)
        if leaf is node:
            return leaf.residual
        count = leaf.residual
        current = leaf.parent
        while current is not None and current is not node:
            count *= current.loop
            current = current.parent
        if current is None:
            raise ScheduleError(
                f"{actor!r} is not inside the given node"
            )
        return count
