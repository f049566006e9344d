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
depth-first computations of sections 8.2–8.3:

* ``dur(v) = loop(v) * (dur(left) + dur(right))``, ``dur(leaf) = 1``,
  bottom-up while the tree is built;
* one pre-order pass that sets each node's parent and its labels:
  ``start``/``stop`` (first-iteration times), ``depth``,
  ``loop_product`` (the loop factors of the node and all its
  ancestors: its body iterations per period) and ``right_sum`` (the
  durations of the right siblings passed on the way up to the root).

Lifetime queries are then lookups plus one depth-aligned LCA climb:
figure 16's stop, firings per body iteration and the section 8.4
parent-set basis (memoized per node) all read the labels.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

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
        "dur", "start", "stop", "depth", "loop_product", "right_sum",
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
        self.dur = 1 if actor is not None else 0
        # parent, start, stop and the labels: set by ScheduleTree._label

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
        self._periods: Dict[ScheduleTreeNode, tuple] = {}
        self._label(self.root, None, 0, 1, 0)

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
            inner.dur *= loop
            return inner
        parent = ScheduleTreeNode(loop=loop)
        # Left-deep binarization: first element vs the rest.  The paper
        # notes the binarization point does not affect the computations.
        parent.left = self._binarize(body[:1], 1)
        parent.right = self._binarize(body[1:], 1)
        parent.dur = loop * (parent.left.dur + parent.right.dur)
        return parent

    def _label(
        self,
        node: ScheduleTreeNode,
        parent: Optional[ScheduleTreeNode],
        start: int,
        loop_product: int,
        right_sum: int,
    ) -> None:
        node.parent = parent
        node.start = start
        node.stop = start + node.dur
        node.depth = 0 if parent is None else parent.depth + 1
        node.loop_product = loop_product * node.loop
        node.right_sum = right_sum
        if node.is_leaf():
            if node.actor in self._leaves:
                raise ScheduleError(
                    f"actor {node.actor!r} appears twice in schedule tree"
                )
            self._leaves[node.actor] = node
            return
        self._label(node.left, node, start, node.loop_product,
                    right_sum + node.right.dur)
        self._label(node.right, node, start + node.left.dur,
                    node.loop_product, right_sum)

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
        """The *smallest parent* (LCA / innermost common loop) of two
        actors, by a depth-aligned climb from both leaves."""
        u, v = self.leaf(a), self.leaf(b)
        while u.depth > v.depth:
            u = u.parent
        while v.depth > u.depth:
            v = v.parent
        while u is not v:
            u, v = u.parent, v.parent
        return u

    def _leaf_under(
        self, actor: str, node: ScheduleTreeNode
    ) -> ScheduleTreeNode:
        """``actor``'s leaf, which must lie under ``node`` (or be it):
        first-iteration time ranges nest as the tree does."""
        leaf = self.leaf(actor)
        if not node.start <= leaf.start < node.stop:
            raise ScheduleError(f"{actor!r} is not inside the given node")
        return leaf

    def stop_within(self, node: ScheduleTreeNode, actor: str) -> int:
        """Figure 16: the end of ``actor``'s final firing within one body
        iteration of its ancestor ``node`` -- the body's end less the
        right siblings passed on the climb from the actor's leaf.
        """
        leaf = self._leaf_under(actor, node)
        return (node.start + node.body_duration()
                - (leaf.right_sum - node.right_sum))

    def periods(self, node: ScheduleTreeNode) -> Tuple[Tuple[int, int], ...]:
        """The section 8.4 basis of ``node``: ``(body duration, loop)``
        for ``node`` and each ancestor with a non-unit loop.

        Body durations grow strictly toward the root, so the pairs come
        out ascending, as :class:`~repro.lifetimes.periodic.PeriodicLifetime`
        wants them.  Memoized per node.
        """
        basis = self._periods.get(node)
        if basis is None:
            basis = () if node.parent is None else self.periods(node.parent)
            if node.loop > 1:
                basis = ((node.body_duration(), node.loop),) + basis
            self._periods[node] = basis
        return basis

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
        leaf = self._leaf_under(actor, node)
        return leaf.residual * (leaf.loop_product // node.loop_product)
