"""Schedule replay: token counting and buffer profiles.

The algorithms in this package reason about schedules symbolically, but
everything they claim must be checkable by actually *running* the
schedule.  This module executes a looped schedule against a graph,
tracking the token count of every edge, and derives:

* validity (paper section 2): each actor fires ``q`` times, no edge goes
  negative, and every edge returns to its initial token count;
* ``max_tokens(e, S)`` (section 4): the peak token count per edge, the
  cost metric of the non-shared buffer model (EQ 1);
* coarse-grained live episodes and the live-array peak (section 5,
  figure 3), used to validate the lifetime analysis of sections 8–9
  against ground truth;
* deadlock detection for arbitrary (possibly cyclic) graphs, via greedy
  symbolic execution.

One engine replays schedules: :class:`BlockScan` takes one closed-form
step per firing block (a ``Firing(actor, n)`` leaf visit) and covers
delays, self-loops, broadcasts, cyclic and non-SAS schedules.  Where
:meth:`repro.sdf.symbolic.SymbolicTrace.try_build` accepts a schedule
(delayless, self-loop-free, broadcast-free, full topological SAS),
``max_tokens``, ``coarse_live_intervals`` and ``max_live_tokens``
come from its closed forms instead, at a cost independent of the firing
count.  The choice follows from the input alone.  Naive firing-at-a-time
references for both live in :mod:`repro.check.reference`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..exceptions import InconsistentGraphError, ScheduleError
from .graph import SDFGraph
from .repetitions import repetitions_vector
from .schedule import Firing, LoopedSchedule, ScheduleNode

__all__ = [
    "BlockScan",
    "validate_schedule",
    "is_valid_schedule",
    "max_tokens",
    "buffer_memory_nonshared",
    "coarse_live_intervals",
    "max_live_tokens",
    "assert_deadlock_free",
    "has_valid_schedule",
]

Key = Tuple[str, str, int]


def _check_firing_counts(
    graph: SDFGraph, schedule: LoopedSchedule
) -> Dict[str, int]:
    """The structural half of schedule validation: firing counts only.

    Checks that every fired actor exists, every graph actor fires, and
    the per-actor counts are a uniform positive multiple of the
    repetitions vector.
    """
    counts = schedule.firings_per_actor()
    for a in counts:
        if a not in graph:
            raise ScheduleError(f"schedule fires unknown actor {a!r}")
    missing = [a for a in graph.actor_names() if a not in counts]
    if missing:
        raise ScheduleError(f"schedule never fires actors {missing!r}")

    q = repetitions_vector(graph)
    blocking = None
    for a, n in counts.items():
        if n % q[a] != 0:
            raise ScheduleError(
                f"actor {a!r} fires {n} times, not a multiple of its "
                f"repetition count {q[a]}"
            )
        factor = n // q[a]
        if blocking is None:
            blocking = factor
        elif factor != blocking:
            raise ScheduleError(
                f"actor firing counts are not a uniform multiple of the "
                f"repetitions vector (actor {a!r}: {factor} periods, "
                f"expected {blocking})"
            )
    return counts


def _blocks(schedule: LoopedSchedule) -> Iterator[Tuple[str, int]]:
    """The dispatch-block sequence of one schedule period.

    Yields ``(actor, n)`` per ``Firing`` leaf visit, in execution
    order.  A fully blocked SAS yields one entry per actor; a flat
    unblocked schedule degenerates to one entry per firing.
    """

    def walk(node: ScheduleNode) -> Iterator[Tuple[str, int]]:
        if isinstance(node, Firing):
            yield node.actor, node.count
        else:
            for _ in range(node.count):
                for child in node.body:
                    yield from walk(child)

    for node in schedule.body:
        yield from walk(node)


class BlockScan:
    """One replay of ``schedule``, one closed-form step per firing block.

    A block is one visit of a ``Firing(actor, n)`` leaf.  Within it,
    every touched token count is linear in the firing index ``i``: an
    in-edge falls by ``c`` per firing, an out-edge rises by ``p``, a
    self-loop moves by ``p - c``, and a broadcast group's occupancy is
    the max of its members' linears.  Three consequences carry the
    engine:

    * underflow (the mid-firing value ``T - c`` going negative) is
      checked at the endpoints of each linear, and the first failing
      firing is recovered in closed form — the exception names the
      same firing and edge a firing-at-a-time replay would;
    * post-firing peaks of a linear sit at ``i = 1`` or ``i = n``, so
      peaks and episode occupancy need two evaluations per block;
    * on a valid schedule no token count reaches zero strictly inside
      a block (a non-self in-edge at zero underflows on the next firing
      of the same block; rising counts never return to zero), so
      coarse-model episodes open at block starts and close at block
      ends.

    Time is still counted in firings: an episode ``(s, t)`` is live
    after firing ``s`` up to and including the state after firing
    ``t`` (0 = the initial state).

    Attributes
    ----------
    tokens / peaks:
        Final and peak token count per edge (``peaks`` includes the
        initial tokens and post-firing counts of each fired actor's
        out-edges: ``max_tokens``).
    blocks / firings:
        Blocks replayed and the firings they stand for.
    intervals:
        Coarse-model live episodes per edge (logical token counts, so
        broadcast members appear per edge).
    episodes:
        ``(edge key, start, stop, array words)`` per episode.  A
        delayless episode's array holds everything transferred during
        it (tokens at start plus tokens produced); a delayed edge's
        buffer is circular, so it needs only its peak occupancy.
    group_episodes:
        ``(group, start, stop, words)`` per broadcast-group episode:
        the group's one physical buffer is live while any member holds
        tokens, production is counted once, and occupancy is the max
        member count (the union of unread suffixes of one stream is the
        largest suffix).
    member_keys:
        Edge keys of all broadcast members, whose per-edge episodes
        :meth:`live_peak` replaces with their group's.
    """

    def __init__(
        self, graph: SDFGraph, schedule: LoopedSchedule, recorder=None
    ) -> None:
        by_key = {e.key: e for e in graph.edges()}
        self.by_key = by_key
        self.tokens: Dict[Key, int] = {k: e.delay for k, e in by_key.items()}
        self.peaks: Dict[Key, int] = dict(self.tokens)
        self.blocks = 0
        self.firings = 0

        in_edges = {a: graph.in_edges(a) for a in graph.actor_names()}
        out_edges = {a: graph.out_edges(a) for a in graph.actor_names()}

        intervals: Dict[Key, List[Tuple[int, int]]] = {k: [] for k in by_key}
        episodes: List[Tuple[Key, int, int, int]] = []
        # Per-edge open episode: start time, tokens present at the
        # start, tokens produced since, and peak occupancy.  Edges with
        # initial tokens start live at time 0.
        open_at: Dict[Key, Optional[int]] = {}
        start_count: Dict[Key, int] = {}
        produced: Dict[Key, int] = {}
        peak_occ: Dict[Key, int] = {}
        for k, e in by_key.items():
            open_at[k] = 0 if e.delay > 0 else None
            start_count[k] = e.delay
            produced[k] = 0
            peak_occ[k] = e.delay

        groups = graph.broadcast_groups()
        group_keys = {
            name: [m.key for m in members] for name, members in groups.items()
        }
        group_episodes: List[Tuple[str, int, int, int]] = []
        g_open: Dict[str, Optional[int]] = {}
        g_start: Dict[str, int] = {}
        g_produced: Dict[str, int] = {}
        g_peak: Dict[str, int] = {}
        for name, members in groups.items():
            first = members[0]
            g_open[name] = 0 if first.delay > 0 else None
            g_start[name] = first.delay
            g_produced[name] = 0
            g_peak[name] = first.delay

        def group_words(name: str) -> int:
            first = groups[name][0]
            if first.delay > 0:
                return g_peak[name] * first.token_size
            return (g_start[name] + g_produced[name]) * first.token_size

        def episode_words(k: Key) -> int:
            e = by_key[k]
            if e.delay > 0:
                return peak_occ[k] * e.token_size
            return (start_count[k] + produced[k]) * e.token_size

        tokens = self.tokens
        peaks = self.peaks
        t = 0
        for actor, n in _blocks(schedule):
            self.blocks += 1
            self.firings += n
            ins = in_edges.get(actor)
            if ins is None:
                ins = graph.in_edges(actor)  # raises for unknown actors
            outs = out_edges[actor]
            self_keys = {e.key for e in ins if e.is_self_loop()}

            # Underflow: each in-edge's mid-firing value at firing i is
            # linear in i, so the first failing firing (if any) is a
            # division away.  Earliest firing wins; ties resolve in
            # in-edge order, as a firing-at-a-time replay would.
            fail: Optional[Tuple[int, Key, int]] = None
            for e in ins:
                T = tokens[e.key]
                c = e.consumption
                if e.key in self_keys:
                    slope = e.production - c
                    if T - c < 0:
                        i = 1
                    elif slope >= 0:
                        continue
                    else:
                        i = (T - c) // (-slope) + 2
                        if i > n:
                            continue
                    value = T + (i - 1) * slope - c
                else:
                    if T - n * c >= 0:
                        continue
                    i = T // c + 1
                    value = T - i * c
                if fail is None or i < fail[0]:
                    fail = (i, e.key, value)
            if fail is not None:
                _, k, value = fail
                raise ScheduleError(
                    f"firing {actor!r} drives edge {by_key[k]} to "
                    f"{value} tokens"
                )

            # Post-block state, plus each touched edge's post-firing
            # value after the FIRST firing of the block (``v1``): a
            # linear's peak sits at an endpoint, so ``v1`` and the final
            # count are all the peak logic below ever needs.
            t0 = t
            t += n
            v1: Dict[Key, int] = {}
            for e in ins:
                k = e.key
                if k in self_keys:
                    continue
                v1[k] = tokens[k] - e.consumption
                tokens[k] -= n * e.consumption
            for e in outs:
                k = e.key
                step = e.production
                if k in self_keys:
                    step -= e.consumption
                v1[k] = tokens[k] + step
                tokens[k] += n * step

            # Peaks: post-firing counts of the fired actor's out-edges.
            for e in outs:
                k = e.key
                cand = max(v1[k], tokens[k])
                if cand > peaks[k]:
                    peaks[k] = cand

            # Episode transitions, on post-firing states (a self-loop
            # that transits zero mid-firing does not end its episode):
            # outs open/peak before ins close.
            for e in outs:
                k = e.key
                if open_at[k] is None:
                    # A dead edge holds zero tokens; the first firing's
                    # production revives it at time t0.
                    open_at[k] = t0
                    start_count[k] = 0
                    produced[k] = n * e.production
                    peak_occ[k] = max(v1[k], tokens[k])
                else:
                    produced[k] += n * e.production
                    cand = max(v1[k], tokens[k])
                    if cand > peak_occ[k]:
                        peak_occ[k] = cand
            for e in ins:
                k = e.key
                if tokens[k] == 0 and open_at[k] is not None:
                    s = open_at[k]
                    intervals[k].append((s, t))
                    episodes.append((k, s, t, episode_words(k)))
                    open_at[k] = None
                    produced[k] = 0
                    peak_occ[k] = 0

            # Group transitions: occupancy is the max of the members'
            # linears, so its peak also sits at an endpoint.
            touched_groups = {e.broadcast for e in outs if e.broadcast}
            touched_groups.update(e.broadcast for e in ins if e.broadcast)
            for name in touched_groups:
                keys = group_keys[name]
                occ1 = max(v1.get(k, tokens[k]) for k in keys)
                occn = max(tokens[k] for k in keys)
                first = groups[name][0]
                inc = n * first.production if actor == first.source else 0
                if g_open[name] is None:
                    if occn > 0:
                        g_open[name] = t0
                        g_start[name] = 0
                        g_produced[name] = inc
                        g_peak[name] = max(occ1, occn)
                else:
                    g_produced[name] += inc
                    cand = max(occ1, occn)
                    if cand > g_peak[name]:
                        g_peak[name] = cand
                    if occn == 0:
                        s = g_open[name]
                        group_episodes.append((name, s, t, group_words(name)))
                        g_open[name] = None
                        g_produced[name] = 0
                        g_peak[name] = 0

        for k in by_key:
            if open_at[k] is not None:
                s = open_at[k]
                intervals[k].append((s, t))
                episodes.append((k, s, t, episode_words(k)))
        for name in groups:
            if g_open[name] is not None:
                s = g_open[name]
                group_episodes.append((name, s, t, group_words(name)))
        self.intervals = intervals
        self.episodes = episodes
        self.group_episodes = group_episodes
        self.member_keys = frozenset(
            k for keys in group_keys.values() for k in keys
        )
        if recorder is not None:
            recorder.count("sim.blocks", self.blocks)
            recorder.count("sim.block_firings", self.firings)

    def live_peak(self) -> int:
        """Peak over time of the summed live episode arrays, in words.

        Broadcast member episodes are logical views of one shared
        buffer, so their group's merged episodes stand in for them.
        """
        events: List[Tuple[int, int]] = []  # (time, +size/-size)
        for k, s, t, size in self.episodes:
            if k in self.member_keys:
                continue
            events.append((s, size))
            events.append((t, -size))
        for _, s, t, size in self.group_episodes:
            events.append((s, size))
            events.append((t, -size))
        # Intervals are half-open: a buffer dying at firing t frees its
        # memory before anything born at t occupies it, so deaths
        # (negative deltas) sort first at equal times.
        events.sort()
        live = 0
        peak = 0
        for _, delta in events:
            live += delta
            peak = max(peak, live)
        return peak


def _symbolic(graph: SDFGraph, schedule: LoopedSchedule, recorder):
    """The schedule's :class:`SymbolicTrace`, or None if unsupported."""
    # Function-level import: repro.sdf.__init__ imports this module, and
    # symbolic pulls in repro.lifetimes which imports repro.sdf.
    from .symbolic import SymbolicTrace

    trace = SymbolicTrace.try_build(graph, schedule, recorder=recorder)
    if trace is not None and recorder is not None:
        recorder.count("sim.symbolic_shortcuts")
    return trace


def validate_schedule(
    graph: SDFGraph, schedule: LoopedSchedule, recorder=None
) -> Dict[str, int]:
    """Check that ``schedule`` is a valid schedule for ``graph``.

    Returns the per-actor firing counts on success.  The token replay
    runs one closed-form step per firing block (:class:`BlockScan`).

    Raises
    ------
    ScheduleError
        If an actor outside the graph is fired, a firing would consume
        from an empty buffer, an actor fires a number of times that is
        not its repetition count (times a common positive integer), or
        an edge does not return to its initial token count.
    """
    counts = _check_firing_counts(graph, schedule)
    scan = BlockScan(graph, schedule, recorder)
    for k, e in scan.by_key.items():
        if scan.tokens[k] != e.delay:
            raise ScheduleError(
                f"edge {e} ends with {scan.tokens[k]} tokens, "
                f"expected {e.delay}"
            )
    return counts


def is_valid_schedule(graph: SDFGraph, schedule: LoopedSchedule) -> bool:
    try:
        validate_schedule(graph, schedule)
        return True
    except (ScheduleError, InconsistentGraphError):
        return False


def max_tokens(
    graph: SDFGraph, schedule: LoopedSchedule, recorder=None
) -> Dict[Key, int]:
    """``max_tokens(e, S)`` for every edge: the peak token count.

    This is the size of the buffer needed for each edge when each edge
    gets its own, non-shared buffer.  Includes initial tokens.

    Examples
    --------
    Paper section 4: for figure 1's graph with S1 = (3A)(6B)(2C),
    ``max_tokens((A,B)) == 7`` (one delay plus six produced) and for
    S2 = (3A(2B))(2C) it is 3.
    """
    symbolic = _symbolic(graph, schedule, recorder)
    if symbolic is not None:
        return symbolic.max_tokens()
    return BlockScan(graph, schedule, recorder).peaks


def buffer_memory_nonshared(graph: SDFGraph, schedule: LoopedSchedule) -> int:
    """``bufmem(S)`` under the non-shared model (EQ 1), in words.

    A broadcast group owns *one* physical buffer: every member sink
    reads the same produced stream, and each member's unread tokens are
    a suffix of that stream, so the group's occupancy is the *maximum*
    member token count (the union of suffixes is the largest suffix) —
    counted once, not once per member.
    """
    peaks = max_tokens(graph, schedule)
    by_key = {e.key: e for e in graph.edges()}
    total = 0
    group_peaks: Dict[str, int] = {}
    group_sizes: Dict[str, int] = {}
    for k, peak in peaks.items():
        e = by_key[k]
        if e.broadcast is None:
            total += peak * e.token_size
        else:
            group_peaks[e.broadcast] = max(
                group_peaks.get(e.broadcast, 0), peak
            )
            group_sizes[e.broadcast] = e.token_size
    for name, peak in group_peaks.items():
        total += peak * group_sizes[name]
    return total


def coarse_live_intervals(
    graph: SDFGraph, schedule: LoopedSchedule, recorder=None
) -> Dict[Key, List[Tuple[int, int]]]:
    """Ground-truth coarse-grained liveness intervals per edge.

    Under the coarse model (section 5, figure 3) a buffer is live from
    the firing that makes its token count non-zero until the firing that
    returns it to zero; an edge with initial tokens starts live.  Time is
    measured in *firings* of the flattened schedule: the interval
    ``(s, t)`` means the buffer is live after firing ``s`` up to and
    including the state after firing ``t`` (with 0 = initial state).

    Used by tests to cross-check the schedule-tree lifetime extraction.
    Schedules the symbolic engine covers enumerate their episodes from
    the mixed-radix closed form (output-sized); the rest are replayed
    block by block.
    """
    symbolic = _symbolic(graph, schedule, recorder)
    if symbolic is not None:
        return symbolic.coarse_live_intervals()
    return BlockScan(graph, schedule, recorder).intervals


def max_live_tokens(
    graph: SDFGraph, schedule: LoopedSchedule, recorder=None
) -> int:
    """Peak of the coarse-model live-array total over the schedule.

    Under the coarse model each live episode of a delayless edge's
    buffer requires an array holding *all* tokens that pass through
    during that episode (tokens present at episode start plus tokens
    produced before it drains); a delayed edge's buffer is circular
    (its initial tokens wrap the period boundary) and needs only its
    peak token occupancy.  This sums, per time step, the episode array
    sizes of the edges whose episodes cover that step — ground truth
    against which the schedule-tree lifetime extraction and the
    allocators are checked.

    Schedules the symbolic engine covers resolve the peak by a
    hierarchical range-max over the schedule tree, with no replay and
    no episode enumeration; the rest are replayed block by block.
    """
    symbolic = _symbolic(graph, schedule, recorder)
    if symbolic is not None:
        return symbolic.max_live_tokens()
    return BlockScan(graph, schedule, recorder).live_peak()


def assert_deadlock_free(graph: SDFGraph) -> LoopedSchedule:
    """Prove a consistent graph deadlock-free by constructing a schedule.

    Greedy symbolic execution: repeatedly fire any actor that has enough
    input tokens and has not yet reached its repetition count.  For SDF
    this is complete — if the greedy run stalls, *every* schedule
    deadlocks (class-S algorithm of Lee & Messerschmitt).

    Returns the constructed (generally non-single-appearance) valid
    schedule as a flat firing list.

    Raises
    ------
    InconsistentGraphError
        With ``kind="deadlock"`` if the graph deadlocks, or
        ``kind="rate"`` if the balance equations fail.
    """
    q = repetitions_vector(graph)
    tokens = {e.key: e.delay for e in graph.edges()}
    remaining = dict(q)
    firings: List[str] = []

    def can_fire(a: str) -> bool:
        return remaining[a] > 0 and all(
            tokens[e.key] >= e.consumption for e in graph.in_edges(a)
        )

    ready = [a for a in graph.actor_names() if can_fire(a)]
    while ready:
        a = ready.pop()
        if not can_fire(a):
            continue
        for e in graph.in_edges(a):
            tokens[e.key] -= e.consumption
        for e in graph.out_edges(a):
            tokens[e.key] += e.production
        remaining[a] -= 1
        firings.append(a)
        if can_fire(a):
            ready.append(a)
        for e in graph.out_edges(a):
            if can_fire(e.sink):
                ready.append(e.sink)
    if any(r > 0 for r in remaining.values()):
        stuck = sorted(a for a, r in remaining.items() if r > 0)
        raise InconsistentGraphError(
            f"graph {graph.name!r} deadlocks; actors never enabled: {stuck}",
            kind="deadlock",
        )
    return LoopedSchedule([Firing(a) for a in firings])


def has_valid_schedule(graph: SDFGraph) -> bool:
    """True if ``graph`` is consistent: rates balance and no deadlock."""
    try:
        assert_deadlock_free(graph)
        return True
    except InconsistentGraphError:
        return False
