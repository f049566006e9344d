"""Buffer lifetime extraction from a single appearance schedule (section 8).

Given an SDF graph and a SAS, this module derives one
:class:`~repro.lifetimes.periodic.PeriodicLifetime` per physical buffer.
A physical buffer is one written stream and its reader edges
(:meth:`~repro.sdf.graph.SDFGraph.buffers`): a plain edge is a buffer
with one reader, a broadcast group one with a reader per member sink.
Every buffer gets the same construction, around its *least parent* —
the innermost loop holding the source and every sink, found once:

* **start** — the start time of the producing actor's leaf (section 8.3);
* **stop** — the end of the *last* reader's final firing within one
  iteration of the least parent: figure 16's subtraction of the
  right-sibling durations passed on the way up from the reader's leaf,
  read off the tree's ``right_sum`` labels
  (:meth:`ScheduleTree.stop_within`);
* **size** — the coarse-model array: every token written during one
  live episode (``prod(e)`` times the producer's firings per least-parent
  body iteration, a quotient of ``loop_product`` labels), plus initial
  tokens, in words;
* **periods** — the ``(a_i, loop_i)`` pairs of the parent-set nodes with
  non-unit loop factors (section 8.4), memoized per least parent
  (:meth:`ScheduleTree.periods`).

No step walks the tree per buffer beyond the depth-aligned climb that
finds the least parent.

The least parent is also where the buffer's linear cursors reset
(:attr:`Buffer.reset`), which the VMs and both emitters read.

Buffers with initial tokens are handled per section 5: the buffer is
live from time zero; if its token count never returns to zero within
the period the lifetime covers the whole schedule.  We use the safe
envelope: any delayed buffer's lifetime is the whole schedule period,
sized for peak occupancy, and its cursors are circular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ScheduleError
from ..sdf.graph import Edge, SDFGraph
from ..sdf.repetitions import repetitions_vector, total_tokens_exchanged
from ..sdf.schedule import LoopedSchedule
from .periodic import PeriodicLifetime
from .schedule_tree import ScheduleTree, ScheduleTreeNode

__all__ = [
    "extract_lifetimes",
    "lifetime_for_buffer",
    "Buffer",
    "LifetimeSet",
]


@dataclass(eq=False)
class Buffer:
    """One physical buffer: a written stream and its reader edges.

    ``members`` share source, production, delay and token size, so
    ``members[0]`` stands for the write side and keys the buffer's
    lifetime.  ``reset`` is the least parent, whose every iteration
    starts a live episode and resets the linear cursors; it is None for
    a delayed buffer, whose cursors are circular.
    """

    members: Tuple[Edge, ...]
    reset: Optional[ScheduleTreeNode]


@dataclass
class LifetimeSet:
    """All buffer lifetimes of a schedule, with shared bookkeeping.

    ``lifetimes`` is keyed by edge key; every member of a buffer maps
    to that buffer's one :class:`PeriodicLifetime`.  ``buffers`` lists
    the physical buffers in :meth:`SDFGraph.buffers` order; ``tree`` is
    the schedule tree the times refer to, ``total_span`` its period in
    schedule steps.
    """

    lifetimes: Dict[Tuple[str, str, int], PeriodicLifetime]
    tree: ScheduleTree
    total_span: int
    buffers: List[Buffer]

    def as_list(self) -> List[PeriodicLifetime]:
        """One lifetime per physical buffer, in buffer order."""
        return [self.lifetimes[b.members[0].key] for b in self.buffers]

    def total_size(self) -> int:
        """Sum of buffer sizes — the non-shared cost of these arrays."""
        return sum(b.size for b in self.as_list())


def extract_lifetimes(
    graph: SDFGraph,
    schedule: LoopedSchedule,
    q: Optional[Dict[str, int]] = None,
) -> LifetimeSet:
    """Extract the lifetime of every physical buffer under ``schedule``.

    ``schedule`` must be a single appearance schedule for ``graph``.
    """
    tree = ScheduleTree(schedule)
    fired = set(tree.actors())
    missing = [a for a in graph.actor_names() if a not in fired]
    if missing:
        raise ScheduleError(
            f"schedule does not fire actors {missing!r}"
        )
    if q is None:
        q = repetitions_vector(graph)
    lifetimes = {}
    buffers = []
    for members in graph.buffers():
        buffer, lifetime = lifetime_for_buffer(tree, members, q)
        buffers.append(buffer)
        for m in members:
            lifetimes[m.key] = lifetime
    return LifetimeSet(
        lifetimes=lifetimes,
        tree=tree,
        total_span=tree.total_duration(),
        buffers=buffers,
    )


def lifetime_for_buffer(
    tree: ScheduleTree,
    members: Sequence[Edge],
    q: Dict[str, int],
) -> Tuple[Buffer, PeriodicLifetime]:
    """The coarse-model lifetime of the buffer read by ``members``.

    See the module docstring for the construction.  A plain edge's
    lifetime is named ``A->B`` (``A->B#i`` for parallel edge ``i``), a
    broadcast group's ``A=>group``.  For a delayed buffer the safe
    whole-period envelope is returned.
    """
    first = members[0]
    if first.broadcast is None:
        name = f"{first.source}->{first.sink}"
        if first.index:
            name += f"#{first.index}"
    else:
        name = f"{first.source}=>{first.broadcast}"
    span = tree.total_duration()
    if first.delay == 0 and first.is_self_loop():
        raise ScheduleError(
            f"self-loop {first} requires initial tokens; delay-free "
            f"self-loops cannot be scheduled"
        )

    lp = tree.least_parent(first.source, first.sink)
    for m in members[1:]:
        # Every pairwise least parent lies on the source's root path;
        # the set's least parent is the one nearest the root.
        other = tree.least_parent(first.source, m.sink)
        if other.depth < lp.depth:
            lp = other

    if first.delay > 0:
        # Section 5: a buffer with initial tokens is live from the start
        # of the schedule.  We keep the safe envelope: live all period,
        # sized for its peak occupancy (transfer per episode + delay).
        tnse_words = total_tokens_exchanged(first, q) * first.token_size
        size = tnse_words // lp.loop_product + first.delay * first.token_size
        return Buffer(tuple(members), None), PeriodicLifetime(
            name=name,
            size=size,
            start=0,
            duration=span,
            periods=(),
            total_span=span,
        )

    start = tree.leaf(first.source).start
    stop = max(tree.stop_within(lp, m.sink) for m in members)
    if stop <= start:
        what = (
            f"edge {first}" if first.broadcast is None
            else f"broadcast group {first.broadcast!r}"
        )
        raise ScheduleError(
            f"{what}: computed stop {stop} <= start {start}; "
            f"is the schedule's lexical order topological?"
        )

    producer_firings = tree.invocations_per_iteration(first.source, lp)
    size = first.production * producer_firings * first.token_size

    return Buffer(tuple(members), lp), PeriodicLifetime(
        name=name,
        size=size,
        start=start,
        duration=stop - start,
        periods=tree.periods(lp),
        total_span=span,
    )

