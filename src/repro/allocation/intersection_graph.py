"""Weighted intersection graphs of buffer lifetimes (paper section 9.1).

The *weighted intersection graph* (WIG) of a set of buffer lifetimes has
one node per buffer, node weights equal to buffer sizes, and an edge
between two buffers iff their lifetimes overlap in time (using the
periodic intersection test of section 8.4).  First-fit consults the WIG
to know which already-placed buffers constrain a placement; the maximum
clique weight of the WIG lower-bounds the achievable allocation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from ..lifetimes.periodic import DEFAULT_OCCURRENCE_CAP, PeriodicLifetime

__all__ = ["IntersectionGraph", "build_intersection_graph"]


@dataclass
class IntersectionGraph:
    """Adjacency-set representation of a WIG over an enumerated instance.

    ``buffers[i]`` is the i-th lifetime; ``neighbors[i]`` the indices of
    lifetimes whose live intervals intersect it.
    """

    buffers: List[PeriodicLifetime]
    neighbors: List[Set[int]]

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])

    def num_edges(self) -> int:
        return sum(len(n) for n in self.neighbors) // 2

    def are_adjacent(self, i: int, j: int) -> bool:
        return j in self.neighbors[i]


def build_intersection_graph(
    buffers: Sequence[PeriodicLifetime],
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
) -> IntersectionGraph:
    """Build the WIG of an enumerated instance of buffer lifetimes.

    Follows the sweep of figure 19's ``buildIntersectionGraph``: sort by
    earliest start, and for each buffer ``bi`` test only candidates
    ``bj`` whose earliest start precedes ``bi``'s last stop (others
    cannot intersect).  The sort already decides most candidates:
    ``bj`` is live at ``bj.start``, so the pair overlaps when that lies
    in ``bi``'s first occurrence (always, for a non-periodic ``bi``),
    and when both lifetimes exceed ``occurrence_cap`` (their solid
    envelopes then meet at ``bj.start``).  Only the remaining pairs run
    the periodic intersection test (:meth:`PeriodicLifetime.overlaps`).
    Each adjacency set receives its members in the order a pairwise
    sweep adds them, so iterating it gives the same order too.

    Zero-size buffers participate normally; they cost nothing to place
    but keep the instance aligned with the graph's edge set.
    """
    n = len(buffers)
    neighbors: List[Set[int]] = [set() for _ in range(n)]
    order = sorted(range(n), key=lambda i: buffers[i].start)
    starts = [buffers[i].start for i in order]
    for a_pos, i in enumerate(order):
        bi = buffers[i]
        hi = bisect_left(starts, bi.last_stop, a_pos + 1)
        first = bisect_left(starts, bi.start + bi.duration, a_pos + 1, hi)
        row = neighbors[i]
        for j in order[a_pos + 1:first]:  # bj starts in bi's first occurrence
            row.add(j)
            neighbors[j].add(i)
        dense = bi.num_occurrences > occurrence_cap
        for j in order[first:hi]:
            bj = buffers[j]
            if (
                dense and bj.num_occurrences > occurrence_cap
            ) or bi.overlaps(bj, occurrence_cap=occurrence_cap):
                row.add(j)
                neighbors[j].add(i)
    return IntersectionGraph(buffers=list(buffers), neighbors=neighbors)
