"""First-fit dynamic storage allocation (paper section 9, figure 19).

Dynamic storage allocation (DSA): place each buffer at a fixed base
offset such that buffers whose lifetimes intersect occupy disjoint
address ranges, minimizing the total extent.  DSA is NP-complete even
for sizes 1 and 2 (Theorem 1), so the paper uses the *first-fit*
heuristic — scan the already-placed intersecting neighbours and take the
lowest feasible offset — applied to two buffer orderings suggested by
the empirical study in its reference [20]:

* ``ffdur``  — by decreasing lifetime duration (best on average);
* ``ffstart`` — by increasing earliest start time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import AllocationError
from ..lifetimes.periodic import DEFAULT_OCCURRENCE_CAP, PeriodicLifetime
from .intersection_graph import IntersectionGraph, build_intersection_graph

__all__ = ["Allocation", "first_fit", "ffdur", "ffstart"]


@dataclass
class Allocation:
    """A placement of buffers in a single shared memory pool.

    ``offsets[name]`` is the base address (in words) of each buffer;
    ``total`` the pool extent: ``max(offset + size)``.
    """

    offsets: Dict[str, int]
    total: int
    order: List[str]
    graph: IntersectionGraph

    def offset_of(self, name: str) -> int:
        try:
            return self.offsets[name]
        except KeyError:
            raise AllocationError(f"no allocation for buffer {name!r}") from None


def first_fit(
    buffers: Sequence[PeriodicLifetime],
    order: Optional[Sequence[int]] = None,
    graph: Optional[IntersectionGraph] = None,
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
    recorder=None,
) -> Allocation:
    """First-fit allocation of an enumerated instance (figure 19).

    Parameters
    ----------
    buffers:
        The lifetimes to place.  Names must be unique.
    order:
        Indices into ``buffers`` giving the placement order; defaults to
        the given sequence order.
    graph:
        A prebuilt intersection graph (reused across ``ffdur`` and
        ``ffstart`` runs on the same instance).
    recorder:
        Optional :class:`repro.obs.Recorder`; receives one
        ``first_fit.probes`` count per placed-neighbour comparison —
        the heuristic's unit of work.
    """
    names = [b.name for b in buffers]
    if len(set(names)) != len(names):
        raise AllocationError("buffer names must be unique")
    if graph is None:
        graph = build_intersection_graph(buffers, occurrence_cap=occurrence_cap)
    if order is None:
        order = list(range(len(buffers)))
    if sorted(order) != list(range(len(buffers))):
        raise AllocationError("order must be a permutation of the instance")

    probes = 0
    offsets: Dict[int, int] = {}
    for i in order:
        b = buffers[i]
        placed = [
            (offsets[j], graph.buffers[j].size)
            for j in graph.neighbors[i]
            if j in offsets and graph.buffers[j].size > 0
        ]
        placed.sort()
        candidate = 0
        for base, size in placed:
            probes += 1
            if candidate + b.size <= base:
                break  # fits in the gap before this neighbour
            candidate = max(candidate, base + size)
        offsets[i] = candidate
    if recorder is not None:
        recorder.count("first_fit.probes", probes)

    total = max(
        (offsets[i] + buffers[i].size for i in range(len(buffers))), default=0
    )
    return Allocation(
        offsets={buffers[i].name: off for i, off in offsets.items()},
        total=total,
        order=[buffers[i].name for i in order],
        graph=graph,
    )


def ffdur(
    buffers: Sequence[PeriodicLifetime],
    graph: Optional[IntersectionGraph] = None,
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
    recorder=None,
    backend: Optional[str] = None,
) -> Allocation:
    """First-fit ordered by decreasing duration (ties: larger size first).

    The reference study found duration ordering the best performer;
    long-lived buffers placed early end up at low addresses, letting
    short-lived ones fill gaps above them.  ``backend`` is accepted and
    ignored (first-fit has one implementation); ``perfbench`` still
    passes it.
    """
    order = sorted(
        range(len(buffers)),
        key=lambda i: (-buffers[i].duration, -buffers[i].size, buffers[i].start),
    )
    return first_fit(buffers, order, graph, occurrence_cap, recorder=recorder)


def ffstart(
    buffers: Sequence[PeriodicLifetime],
    graph: Optional[IntersectionGraph] = None,
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
    recorder=None,
    backend: Optional[str] = None,
) -> Allocation:
    """First-fit ordered by increasing earliest start time.

    ``backend`` is ignored, as in :func:`ffdur`.
    """
    order = sorted(
        range(len(buffers)),
        key=lambda i: (buffers[i].start, -buffers[i].size),
    )
    return first_fit(buffers, order, graph, occurrence_cap, recorder=recorder)
