"""Flat-SAS buffer sharing baseline, after Ritz et al. (section 11.1.2).

Ritz et al. minimize buffer memory *on flat single appearance schedules
only* (their primary goals are code size and context-switch overhead).
On a flat SAS ``(q1 x1)(q2 x2)...(qn xn)`` every edge's buffer holds its
full ``TNSE`` tokens — each producer runs to completion before its
consumer starts — so sharing can only exploit the coarse-grained
sequencing of whole actors.

This module reimplements that strategy within our framework: choose a
topological sort (the same search over candidate sorts as RPMC's
prefix-sweep, to be generous to the baseline), build the *flat* SAS,
extract lifetimes, and run first-fit.  The paper reports this class of
approach allocating "more than 2000 units" on the satellite receiver
versus 991 for the nested techniques (more than 100% worse); the bench
``bench_satrec_baselines`` reproduces that comparison's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..sdf.graph import SDFGraph
from ..sdf.repetitions import repetitions_vector
from ..sdf.schedule import LoopedSchedule, flat_single_appearance_schedule
from ..sdf.simulate import buffer_memory_nonshared
from ..lifetimes.intervals import extract_lifetimes
from ..lifetimes.periodic import DEFAULT_OCCURRENCE_CAP
from ..allocation.first_fit import Allocation, allocate

__all__ = ["FlatSharingResult", "flat_shared_implementation"]


@dataclass
class FlatSharingResult:
    """Outcome of the flat-SAS sharing baseline."""

    order: List[str]
    schedule: LoopedSchedule
    nonshared_total: int
    shared_total: int
    allocation: Allocation


def flat_shared_implementation(
    graph: SDFGraph,
    order: Optional[Sequence[str]] = None,
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
) -> FlatSharingResult:
    """Share buffers over a *flat* single appearance schedule.

    Uses the given lexical ``order`` or the graph's deterministic
    topological order.  Returns both the non-shared flat cost (every
    edge at its full ``TNSE``) and the first-fit shared total.
    """
    q = repetitions_vector(graph)
    chosen = list(order) if order is not None else graph.topological_order()
    schedule = flat_single_appearance_schedule(chosen, q)
    lifetimes = extract_lifetimes(graph, schedule, q)
    best = allocate(lifetimes.as_list(), occurrence_cap=occurrence_cap).best
    return FlatSharingResult(
        order=chosen,
        schedule=schedule,
        nonshared_total=buffer_memory_nonshared(graph, schedule),
        shared_total=best.total,
        allocation=best,
    )
