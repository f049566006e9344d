"""Buffer merging across actors (paper section 12, "Future directions").

The lifetime model of sections 5–9 assumes every output buffer of an
actor is live from the moment the actor starts and every input buffer
stays live until it finishes — so an actor's output can never share
memory with its own input.  Section 12 sketches the fix the authors
published later as *buffer merging*: when the actor consumes each input
token before producing the output that depends on it (formalized by the
consume-before-produce, CBP, parameter), the output array can overlay
the input array in place.

This module implements the CBP-zero case, the one the paper motivates
with the addition-actor example:

* a merge of input edge ``e1 = (u, X)`` with output edge ``e2 = (X, v)``
  is *safe* when, at every firing of ``X``, the words produced onto
  ``e2`` fit in the words already consumed from ``e1``.  With linear
  cursors from a common base this holds iff the per-firing production
  (in words) does not exceed the per-firing consumption, both buffers
  reset episodes at the same loop (identical least parents in the
  schedule tree), and the output array is no larger than the input
  array;
* merged buffers occupy one region sized ``max(s1, s2) = s1`` with the
  union lifetime, so first-fit sees a single node where it saw two.

Safety is not taken on faith: the shared-memory VM of
:mod:`repro.codegen.vm` executes merged allocations with per-token
integrity checking — an unsafe merge is caught as corruption (its reads
of e1 would find e2's tokens).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..sdf.graph import Edge, SDFGraph
from ..lifetimes.intervals import LifetimeSet
from ..lifetimes.periodic import DEFAULT_OCCURRENCE_CAP, PeriodicLifetime
from ..allocation.first_fit import Allocation, allocate

__all__ = ["MergeCandidate", "find_merge_candidates", "merged_allocation"]


@dataclass(frozen=True)
class MergeCandidate:
    """A safe in-place merge of an actor's input and output buffers."""

    actor: str
    input_edge: Tuple[str, str, int]
    output_edge: Tuple[str, str, int]
    saved_words: int


def find_merge_candidates(
    graph: SDFGraph, lifetimes: LifetimeSet
) -> List[MergeCandidate]:
    """All safe CBP-zero merges under the current schedule.

    Each buffer participates in at most one merge (input and output
    alike); among an actor's eligible pairs the one saving the most
    words wins.
    """
    tree = lifetimes.tree

    def episode_count(edge: Edge) -> int:
        return tree.least_parent(edge.source, edge.sink).loop_product

    used: Set[Tuple[str, str, int]] = set()
    candidates: List[MergeCandidate] = []
    for actor in graph.actor_names():
        best: Optional[MergeCandidate] = None
        for e_in in graph.in_edges(actor):
            if e_in.delay or e_in.key in used:
                continue
            lt_in = lifetimes.lifetimes[e_in.key]
            for e_out in graph.out_edges(actor):
                if e_out.delay or e_out.key in used:
                    continue
                if e_out.key == e_in.key:
                    continue
                lt_out = lifetimes.lifetimes[e_out.key]
                # Per-firing words: production must fit in consumption.
                if (
                    e_out.production * e_out.token_size
                    > e_in.consumption * e_in.token_size
                ):
                    continue
                # Episodes must share a cadence: one fill/drain of each
                # buffer per common loop iteration.  The two least
                # parents lie on one root path (both are ancestors of
                # the actor's leaf); equal occurrence counts mean every
                # loop strictly between them is unit.
                if episode_count(e_in) != episode_count(e_out):
                    continue
                # The output array must fit inside the input array.
                if lt_out.size > lt_in.size:
                    continue
                saved = lt_out.size
                if best is None or saved > best.saved_words:
                    best = MergeCandidate(
                        actor=actor,
                        input_edge=e_in.key,
                        output_edge=e_out.key,
                        saved_words=saved,
                    )
        if best is not None:
            used.add(best.input_edge)
            used.add(best.output_edge)
            candidates.append(best)
    return candidates


def merged_allocation(
    graph: SDFGraph,
    lifetimes: LifetimeSet,
    candidates: Optional[Sequence[MergeCandidate]] = None,
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
) -> Tuple[Allocation, List[MergeCandidate]]:
    """First-fit allocation with merge groups packed as single nodes.

    Returns the allocation (every original buffer name still gets an
    offset; merged outputs share their input's base) and the applied
    candidates.
    """
    if candidates is None:
        candidates = find_merge_candidates(graph, lifetimes)
    out_to_in = {c.output_edge: c.input_edge for c in candidates}

    # Build the reduced instance: merged pairs become one lifetime with
    # the union span (conservative: solid over the pair's joint extent,
    # with the pair's common periodicity preserved when identical).
    reduced: List[PeriodicLifetime] = []
    group_of: Dict[str, List[Tuple[str, str, int]]] = {}
    for e in graph.edges():
        if e.key in out_to_in:
            continue  # packed with its input edge below
        lt = lifetimes.lifetimes[e.key]
        members = [e.key]
        merged_out = [
            c.output_edge for c in candidates if c.input_edge == e.key
        ]
        if merged_out:
            out_lt = lifetimes.lifetimes[merged_out[0]]
            members.append(merged_out[0])
            lt = _union_lifetime(lt, out_lt)
        reduced.append(lt)
        group_of[lt.name] = members

    best = allocate(reduced, occurrence_cap=occurrence_cap).best

    # Expand group offsets back to every original buffer name.
    offsets: Dict[str, int] = {}
    for lt in reduced:
        base = best.offsets[lt.name]
        for key in group_of[lt.name]:
            offsets[lifetimes.lifetimes[key].name] = base
    expanded = Allocation(
        offsets=offsets,
        total=best.total,
        order=best.order,
        graph=best.graph,
        probes=best.probes,
    )
    return expanded, list(candidates)


def _union_lifetime(
    a: PeriodicLifetime, b: PeriodicLifetime
) -> PeriodicLifetime:
    """The joint lifetime of a merged pair, sized for the larger member.

    When both lifetimes carry identical periodicity (same least parent,
    hence same period stack), the union keeps it; otherwise the solid
    envelope of both is used — conservative and therefore safe.
    """
    size = max(a.size, b.size)
    name = f"{a.name}+{b.name}"
    if a.periods == b.periods:
        start = min(a.start, b.start)
        stop = max(a.start + a.duration, b.start + b.duration)
        return PeriodicLifetime(
            name=name,
            size=size,
            start=start,
            duration=stop - start,
            periods=a.periods,
            total_span=max(a.total_span, b.total_span),
        )
    sa, sb = a.solid(), b.solid()
    start = min(sa.start, sb.start)
    stop = max(sa.start + sa.duration, sb.start + sb.duration)
    return PeriodicLifetime(
        name=name,
        size=size,
        start=start,
        duration=stop - start,
        periods=(),
        total_span=max(a.total_span, b.total_span),
    )
