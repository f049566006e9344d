"""Naive reference implementations for differential comparison.

Every function here recomputes a quantity the optimized layers produce
incrementally, using the most direct algorithm available: full
per-step token snapshots, O(firings x edges) walks, per-step clique
sums.  Slow and obviously correct — the point is that the code shares
*nothing* with the block-level replay of :mod:`repro.sdf.simulate`, so
agreement is evidence rather than tautology.  Only suitable for the
small graphs the harness generates.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..exceptions import ScheduleError
from ..sdf.graph import SDFGraph
from ..sdf.schedule import LoopedSchedule

EdgeKey = Tuple[str, str, int]

__all__ = [
    "full_trace",
    "reference_max_tokens",
    "reference_peak_token_words",
    "reference_coarse_intervals",
    "reference_episode_sizes",
    "reference_group_episode_sizes",
    "reference_max_live_tokens",
]


def full_trace(
    graph: SDFGraph, schedule: LoopedSchedule
) -> List[Dict[EdgeKey, int]]:
    """Per-step full token snapshots: ``counts[t]`` after firing ``t``.

    ``counts[0]`` is the initial state (delays).  Raises
    :class:`ScheduleError` if a firing would drive an edge negative,
    with the message :func:`repro.sdf.simulate.validate_schedule`
    raises.
    """
    state = {e.key: e.delay for e in graph.edges()}
    snapshots = [dict(state)]
    for actor in schedule.firing_sequence():
        for e in graph.in_edges(actor):
            state[e.key] -= e.consumption
            if state[e.key] < 0:
                raise ScheduleError(
                    f"firing {actor!r} drives edge {e} to "
                    f"{state[e.key]} tokens"
                )
        for e in graph.out_edges(actor):
            state[e.key] += e.production
        snapshots.append(dict(state))
    return snapshots


def reference_max_tokens(
    graph: SDFGraph, schedule: LoopedSchedule
) -> Dict[EdgeKey, int]:
    """Per-edge peak token counts from the full snapshot list."""
    snapshots = full_trace(graph, schedule)
    return {
        e.key: max(s[e.key] for s in snapshots) for e in graph.edges()
    }


def reference_peak_token_words(
    graph: SDFGraph, schedule: LoopedSchedule
) -> int:
    """Peak over time of the summed live token *words* (all edges).

    Unlike the coarse model this counts only tokens actually present —
    the occupancy a circular buffer must hold — so it lower-bounds any
    feasible allocation extent regardless of delays.  A broadcast
    group's tokens live once in one shared buffer (each member's unread
    tokens are a suffix of the produced stream), so a group contributes
    its *maximum* member count, not the member sum.
    """
    snapshots = full_trace(graph, schedule)
    ordinary = [e for e in graph.edges() if e.broadcast is None]
    groups = graph.broadcast_groups()
    peak = 0
    for s in snapshots:
        live = sum(s[e.key] * e.token_size for e in ordinary)
        for members in groups.values():
            live += max(s[m.key] for m in members) * members[0].token_size
        if live > peak:
            peak = live
    return peak


def reference_coarse_intervals(
    graph: SDFGraph, schedule: LoopedSchedule
) -> Dict[EdgeKey, List[Tuple[int, int]]]:
    """Coarse-model live episodes per edge, from full snapshots.

    Mirrors the model of :func:`repro.sdf.simulate.coarse_live_intervals`
    — a buffer is live from the firing that makes it non-zero (interval
    start = that firing minus one: memory is reserved when the producer
    starts) until the firing that returns it to zero; edges with delays
    start live at step 0 — but derives it by scanning the snapshot list
    rather than stepping firing blocks.
    """
    snapshots = full_trace(graph, schedule)
    intervals: Dict[EdgeKey, List[Tuple[int, int]]] = {
        e.key: [] for e in graph.edges()
    }
    for e in graph.edges():
        k = e.key
        open_at = 0 if snapshots[0][k] > 0 else None
        for t in range(1, len(snapshots)):
            count = snapshots[t][k]
            if open_at is None and count > 0:
                open_at = t - 1
            elif open_at is not None and count == 0:
                intervals[k].append((open_at, t))
                open_at = None
        if open_at is not None:
            intervals[k].append((open_at, len(snapshots) - 1))
    return intervals


def reference_episode_sizes(
    graph: SDFGraph, schedule: LoopedSchedule
) -> List[Tuple[EdgeKey, int, int, int]]:
    """``(edge, start, stop, words)`` per live episode.

    The coarse-model array for a delayless edge's episode holds every
    word transferred during it: tokens present when it opens plus
    everything the source produces before it drains, times the edge's
    token size.  Production per step is re-derived from the firing
    sequence (not from snapshot deltas, which would be circular for
    self-loops).  A delayed edge's buffer is circular — its initial
    tokens wrap the period boundary — so its episode needs only the
    peak token occupancy over the episode's snapshots.
    """
    firings = schedule.firing_list()
    snapshots = full_trace(graph, schedule)
    intervals = reference_coarse_intervals(graph, schedule)
    episodes: List[Tuple[EdgeKey, int, int, int]] = []
    for e in graph.edges():
        k = e.key
        for start, stop in intervals[k]:
            if e.delay > 0:
                peak = max(
                    snapshots[t][k] for t in range(start, stop + 1)
                )
                words = peak * e.token_size
            else:
                produced = sum(
                    e.production
                    for t in range(start + 1, stop + 1)
                    if firings[t - 1] == e.source
                )
                words = (snapshots[start][k] + produced) * e.token_size
            episodes.append((k, start, stop, words))
    return episodes


def reference_group_episode_sizes(
    graph: SDFGraph, schedule: LoopedSchedule
) -> List[Tuple[str, int, int, int]]:
    """``(group, start, stop, words)`` per broadcast-group live episode.

    The shared buffer is live while *any* member holds tokens; its
    per-step occupancy is the maximum member count (the union of unread
    suffixes of one produced stream is the largest suffix).  Delayless
    episodes are sized by tokens present at open plus everything the
    producer emits before the group drains — production counted once,
    not once per member; delayed groups need only the occupancy peak
    (circular buffer).
    """
    firings = schedule.firing_list()
    snapshots = full_trace(graph, schedule)
    episodes: List[Tuple[str, int, int, int]] = []
    for name, members in graph.broadcast_groups().items():
        counts = [max(s[m.key] for m in members) for s in snapshots]
        first = members[0]
        open_at = 0 if counts[0] > 0 else None
        spans: List[Tuple[int, int]] = []
        for t in range(1, len(counts)):
            if open_at is None and counts[t] > 0:
                open_at = t - 1
            elif open_at is not None and counts[t] == 0:
                spans.append((open_at, t))
                open_at = None
        if open_at is not None:
            spans.append((open_at, len(counts) - 1))
        for start, stop in spans:
            if first.delay > 0:
                words = max(counts[start:stop + 1]) * first.token_size
            else:
                produced = sum(
                    first.production
                    for t in range(start + 1, stop + 1)
                    if firings[t - 1] == first.source
                )
                words = (counts[start] + produced) * first.token_size
            episodes.append((name, start, stop, words))
    return episodes


def reference_max_live_tokens(
    graph: SDFGraph, schedule: LoopedSchedule
) -> int:
    """Peak of the coarse-model live-array total, by per-step summation.

    An episode ``(s, t)`` covers the half-open step range ``[s, t)``:
    a buffer dying at firing ``t`` frees its words before anything born
    at ``t`` occupies them.  Broadcast members are accounted through
    their group's merged episodes (one shared array), not per member.
    """
    member_keys = {
        m.key
        for members in graph.broadcast_groups().values()
        for m in members
    }
    episodes = [
        ep
        for ep in reference_episode_sizes(graph, schedule)
        if ep[0] not in member_keys
    ]
    episodes.extend(reference_group_episode_sizes(graph, schedule))
    steps = len(full_trace(graph, schedule))
    peak = 0
    for step in range(steps):
        live = sum(
            words for _, s, t, words in episodes if s <= step < t
        )
        if live > peak:
            peak = live
    return peak
