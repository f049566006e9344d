"""Buffer-sharing granularity sweep (paper section 5, figure 3).

Between the *fine-grained* model (a buffer's live size tracks its exact
token count, firing by firing) and the *coarse-grained* model the paper
adopts (the whole episode array is live from first write to last read)
lies a spectrum: "there are a number of granularities within these
extremes, based on how many levels of loop nests we consider".  The
paper's example: for ``7(5A 2(2B 3C))`` with C producing one token per
firing, C's output buffer grows in steps of 1, 3, 6 or jumps to 42
depending on how many loop levels are aggregated.

This module measures that spectrum for any graph/schedule pair:

* :func:`granularity_levels` — the shared-memory requirement (peak of
  summed live array sizes) when buffers are aggregated at each loop
  depth ``d``: tokens moved within one iteration of the depth-``d``
  ancestor loop count as a unit;
* level 0 aggregates at the schedule root (the paper's coarse model for
  top-level buffers), the maximum depth reproduces the fine-grained
  token count (:func:`fine_grained_peak`).

A broadcast group is one physical buffer (every member reads the same
produced stream), so both functions charge it once, at its largest
member count, as :func:`repro.sdf.simulate.max_live_tokens` does.

The sweep quantifies how much memory the coarse model leaves on the
table in exchange for its simple pointer management — the trade the
paper makes explicitly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..exceptions import ScheduleError
from ..sdf.graph import SDFGraph
from ..sdf.schedule import Firing, LoopedSchedule

__all__ = ["granularity_levels", "fine_grained_peak"]

#: A firing's loop path: one ``(loop id, iteration)`` per enclosing
#: loop, outermost first.
_Path = Tuple[Tuple[int, int], ...]


def _replay(
    graph: SDFGraph, schedule: LoopedSchedule
) -> Tuple[List[_Path], List[str], List[Tuple[int, ...]]]:
    """Walk ``schedule`` one firing at a time.

    Returns ``(paths, actors, states)``: each firing's loop path and
    actor, and the token count of every edge (in ``graph.edges()``
    order) before each firing; ``states`` ends with the final state,
    so it is one longer than the firing lists.
    """
    index = {e.key: i for i, e in enumerate(graph.edges())}
    tokens = [e.delay for e in graph.edges()]
    paths: List[_Path] = []
    actors: List[str] = []
    states: List[Tuple[int, ...]] = [tuple(tokens)]
    stack: List[Tuple[int, int]] = []

    def walk(node) -> None:
        if isinstance(node, Firing):
            ins = graph.in_edges(node.actor)  # raises for unknown actors
            outs = graph.out_edges(node.actor)
            path = tuple(stack)
            for _ in range(node.count):
                for e in ins:
                    i = index[e.key]
                    tokens[i] -= e.consumption
                    if tokens[i] < 0:
                        raise ScheduleError(
                            f"firing {node.actor!r} drives edge {e} to "
                            f"{tokens[i]} tokens"
                        )
                for e in outs:
                    tokens[index[e.key]] += e.production
                paths.append(path)
                actors.append(node.actor)
                states.append(tuple(tokens))
            return
        for iteration in range(node.count):
            stack.append((id(node), iteration))
            for child in node.body:
                walk(child)
            stack.pop()

    for node in schedule.body:
        walk(node)
    return paths, actors, states


def _buffers(graph: SDFGraph) -> List[Tuple[List[int], int]]:
    """Physical buffers as ``(member edge indices, token size)``.

    An ordinary edge is its own buffer; a broadcast group's members
    share one.
    """
    buffers: List[Tuple[List[int], int]] = []
    groups: Dict[str, List[int]] = {}
    for i, e in enumerate(graph.edges()):
        if e.broadcast is None:
            buffers.append(([i], e.token_size))
        elif e.broadcast in groups:
            groups[e.broadcast].append(i)
        else:
            groups[e.broadcast] = [i]
            buffers.append((groups[e.broadcast], e.token_size))
    return buffers


def fine_grained_peak(graph: SDFGraph, schedule: LoopedSchedule) -> int:
    """Peak of summed live token words, exact per firing (finest model)."""
    _, _, states = _replay(graph, schedule)
    buffers = _buffers(graph)
    return max(
        sum(max(state[i] for i in members) * size for members, size in buffers)
        for state in states
    )


def granularity_levels(
    graph: SDFGraph, schedule: LoopedSchedule, max_depth: int = 8
) -> List[Tuple[int, int]]:
    """Memory requirement at each aggregation depth.

    Returns ``[(depth, peak_words), ...]`` for depths 0 (coarsest: an
    edge's whole live episode measured against the outermost loops) up
    to ``max_depth`` (finest returned as the exact token peak).  The
    sequence is non-increasing: finer models never need more memory.

    Aggregation at depth ``d`` rounds every buffer's occupancy *up* to
    the total it reaches within the current iteration of its depth-``d``
    enclosing loop: production is credited at that loop iteration's
    start, consumption at its end.
    """
    paths, actors, states = _replay(graph, schedule)
    edges = list(graph.edges())
    index = {e.key: i for i, e in enumerate(edges)}
    outs = {
        a: [(index[e.key], e.production) for e in graph.out_edges(a)]
        for a in set(actors)
    }
    # A delayed buffer is circular (its initial tokens wrap the period
    # boundary), so no aggregation level can charge it more than its
    # peak occupancy: the live-array charge below is capped there.
    buffers: List[Tuple[List[int], int, Optional[int]]] = []
    for members, size in _buffers(graph):
        cap = None
        if edges[members[0]].delay > 0:
            cap = size * max(
                max(state[i] for i in members) for state in states
            )
        buffers.append((members, size, cap))

    n = len(actors)
    results: List[Tuple[int, int]] = []
    for depth in range(0, max_depth + 1):
        # Firings sharing one depth-d loop path form a segment.  Walk
        # each segment backwards, accumulating what it still produces
        # per edge: a buffer's charge before firing j is its tokens
        # plus everything the segment produces on it from j onward.
        peak = 0
        end = n
        while end > 0:
            start = end - 1
            segment = paths[start][:depth]
            while start > 0 and paths[start - 1][:depth] == segment:
                start -= 1
            future = [0] * len(edges)
            for j in range(end - 1, start - 1, -1):
                for i, production in outs[actors[j]]:
                    future[i] += production
                state = states[j]
                live = 0
                for members, size, cap in buffers:
                    charge = size * max(state[i] + future[i] for i in members)
                    if cap is not None and charge > cap:
                        charge = cap
                    live += charge
                if live > peak:
                    peak = live
            end = start
        results.append((depth, peak))
        if all(len(p) <= depth for p in paths):
            break
    return results
