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

One engine replays schedules here: :class:`BlockScan` takes one
closed-form step per firing block (a ``Firing(actor, n)`` leaf visit)
and covers delays, self-loops, broadcasts, cyclic and non-SAS
schedules.  Every observable below comes from it, with one code path
per physical buffer (:meth:`SDFGraph.buffers`; a plain edge is a
buffer with one member).  Two firing-at-a-time replays live elsewhere:
the naive reference of :mod:`repro.check.reference`, which judges this
engine, and the one in :mod:`repro.lifetimes.granularity`, which keeps
the token state after every firing for the granularity sweep and
:func:`~repro.lifetimes.granularity.fine_grained_peak`.
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
        ``(first member key, start, stop, array words)`` per episode of
        each physical buffer (:meth:`SDFGraph.buffers`; a plain edge is
        a buffer with one member).  A buffer is live while any member
        holds tokens, its production is counted once, and its
        occupancy is the max member count.  A delayless episode's array
        holds every token produced during it; a delayed buffer is
        circular, so it needs only its peak occupancy.
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
        # Per-edge open interval start; edges with initial tokens start
        # live at time 0.
        edge_open: Dict[Key, Optional[int]] = {
            k: 0 if e.delay > 0 else None for k, e in by_key.items()
        }

        # Per-buffer open episode: start time, tokens produced since,
        # and peak occupancy (the max over members: the union of unread
        # suffixes of one stream is the largest suffix).  A plain edge
        # is a buffer with one member.  A delayed buffer starts live at
        # time 0; a delayless one holds no tokens when an episode opens.
        buffers = graph.buffers()
        b_open: List[Optional[int]] = [
            0 if m[0].delay > 0 else None for m in buffers
        ]
        b_produced = [0] * len(buffers)
        b_peak = [m[0].delay for m in buffers]
        episodes: List[Tuple[Key, int, int, int]] = []

        def words(b: int) -> int:
            first = buffers[b][0]
            if first.delay > 0:
                return b_peak[b] * first.token_size
            return b_produced[b] * first.token_size

        # Per actor: ``(buffer, member keys, tokens written per firing)``
        # of every buffer it writes or reads, in buffer order.
        touched: Dict[str, List[Tuple[int, List[Key], int]]] = {
            a: [] for a in in_edges
        }
        for b, members in enumerate(buffers):
            first = members[0]
            keys = [m.key for m in members]
            touched[first.source].append((b, keys, first.production))
            for sink in {m.sink for m in members} - {first.source}:
                touched[sink].append((b, keys, 0))

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

            # Transitions on post-firing states (a self-loop that
            # transits zero mid-firing does not end its episode).
            for e in outs:
                if edge_open[e.key] is None:
                    edge_open[e.key] = t0
            for e in ins:
                k = e.key
                if tokens[k] == 0 and edge_open[k] is not None:
                    intervals[k].append((edge_open[k], t))
                    edge_open[k] = None
            # A buffer's occupancy is the max of its members' linears,
            # so its peak also sits at an endpoint.  A dead buffer holds
            # zero tokens; the first firing's production revives it.
            for b, keys, step in touched[actor]:
                occn = occ = 0
                for k in keys:
                    x = tokens[k]
                    if x > occn:
                        occn = x
                    x = v1.get(k, x)
                    if x > occ:
                        occ = x
                if occn > occ:
                    occ = occn
                if b_open[b] is None:
                    if occn > 0:
                        b_open[b] = t0
                        b_produced[b] = n * step
                        b_peak[b] = occ
                else:
                    b_produced[b] += n * step
                    if occ > b_peak[b]:
                        b_peak[b] = occ
                    if occn == 0:
                        episodes.append((keys[0], b_open[b], t, words(b)))
                        b_open[b] = None
                        b_produced[b] = 0
                        b_peak[b] = 0

        for k, s in edge_open.items():
            if s is not None:
                intervals[k].append((s, t))
        for b, s in enumerate(b_open):
            if s is not None:
                episodes.append((buffers[b][0].key, s, t, words(b)))
        self.intervals = intervals
        self.episodes = episodes
        if recorder is not None:
            recorder.count("sim.blocks", self.blocks)
            recorder.count("sim.block_firings", self.firings)

    def live_peak(self) -> int:
        """Peak over time of the summed live buffer episode arrays, in
        words."""
        events: List[Tuple[int, int]] = []  # (time, +size/-size)
        for _, s, t, size in self.episodes:
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
    return sum(
        max(peaks[m.key] for m in members) * members[0].token_size
        for members in graph.buffers()
    )


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
    """
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
    """
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
