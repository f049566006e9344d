"""Buffer lowering: one placement of every buffer for all four back ends.

:func:`lower` resolves, once per compiled program, where each physical
buffer (:attr:`LifetimeSet.buffers`) lives in the shared pool and which
ports touch it.  Both emitters (:mod:`repro.codegen.c_emitter`,
:mod:`repro.codegen.py_emitter`) and both VMs
(:class:`repro.codegen.vm.SharedMemoryVM`,
:class:`repro.codegen.batched_vm.BatchedVM`) read the one
:class:`Layout`, so they agree by construction on a buffer's base,
size, write side, readers and reset point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..exceptions import CodegenError
from ..sdf.graph import Edge, SDFGraph
from ..allocation.first_fit import Allocation
from ..lifetimes.intervals import LifetimeSet
from ..lifetimes.periodic import PeriodicLifetime
from ..lifetimes.schedule_tree import ScheduleTreeNode

__all__ = ["Placement", "Layout", "lower"]

Key = Tuple[str, str, int]


@dataclass(eq=False)
class Placement:
    """One physical buffer, placed.

    ``first`` is the buffer's first member: the write side (the one
    output port of its source) and the name of the buffer.  ``eid`` is
    the buffer's position in :attr:`LifetimeSet.buffers`; ``readers``
    its member edges, one read port each.  A delayed buffer is
    ``circular``; its cursors never reset.
    """

    first: Edge
    eid: int
    lifetime: PeriodicLifetime
    base: int
    size: int
    circular: bool
    readers: Tuple[Edge, ...]


@dataclass
class Layout:
    """Every buffer's :class:`Placement` and every actor's ports.

    ``placement`` maps each member edge's key to its buffer;
    ``reads[actor]`` lists the actor's in-edges in ``in_edges`` order
    and ``writes[actor]`` the buffers it writes, once each, in
    ``out_edges`` order of their first members; ``reset_at`` maps a
    tree node's ``id`` to the buffers whose least parent it is.
    ``extent`` is the pool's size in words: ``allocation.total``, at
    least 1, and past every buffer, so a buffer placed past the pool
    stays addressable (and shows up as an address beyond ``total``).
    """

    buffers: List[Placement]
    placement: Dict[Key, Placement]
    reads: Dict[str, List[Edge]]
    writes: Dict[str, List[Placement]]
    reset_at: Dict[int, List[Placement]]
    extent: int

    def resets(self, node: ScheduleTreeNode) -> Sequence[Placement]:
        """The buffers whose linear cursors reset at each iteration of
        ``node``, in buffer order."""
        return self.reset_at.get(id(node), ())


def lower(
    graph: SDFGraph, lifetimes: LifetimeSet, allocation: Allocation
) -> Layout:
    """Place every buffer of ``lifetimes`` at its ``allocation`` offset.

    Raises
    ------
    CodegenError
        If ``allocation`` has no offset for some buffer.
    """
    buffers: List[Placement] = []
    placement: Dict[Key, Placement] = {}
    writer: Dict[Key, Placement] = {}
    reset_at: Dict[int, List[Placement]] = {}
    offsets = allocation.offsets
    for eid, b in enumerate(lifetimes.buffers):
        first = b.members[0]
        lt = lifetimes.lifetimes[first.key]
        try:
            base = offsets[lt.name]
        except KeyError:
            raise CodegenError(
                f"allocation missing buffer {lt.name!r}"
            ) from None
        placed = Placement(
            first, eid, lt, base, lt.size, first.delay > 0, b.members
        )
        buffers.append(placed)
        for m in b.members:
            placement[m.key] = placed
        writer[first.key] = placed
        if b.reset is not None:
            reset_at.setdefault(id(b.reset), []).append(placed)
    reads: Dict[str, List[Edge]] = {}
    writes: Dict[str, List[Placement]] = {}
    for a in graph.actor_names():
        reads[a] = graph.in_edges(a)
        writes[a] = [
            writer[k] for k in (e.key for e in graph.out_edges(a))
            if k in writer
        ]
    extent = max([allocation.total, 1] + [p.base + p.size for p in buffers])
    return Layout(buffers, placement, reads, writes, reset_at, extent)
