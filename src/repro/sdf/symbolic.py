"""Loop-compressed symbolic simulation of single appearance schedules.

The block-level replay in :mod:`repro.sdf.simulate` executes every
``Firing`` leaf visit, so its cost scales with the number of loop
iterations that reach a leaf — ruinous for deeply nested high-rate
schedules (a scaled CD-DAT chain fires millions of times per period).
But the paper's whole premise (sections 3–5) is that single appearance
schedules *are* loops, and within a loop body the token profile of
every edge is affine-periodic: exactly the structure
:class:`~repro.lifetimes.periodic.PeriodicLifetime` models.

This module computes the replay's observables directly from the
binary schedule tree, in time polynomial in the *tree* size and
independent of the firing count:

``max_tokens``
    For a delayless edge whose producer appears lexically before its
    consumer, all production inside one iteration of the pair's
    innermost common loop (the *least parent*) precedes all
    consumption, and local balance returns the edge to zero tokens at
    the end of each iteration.  The peak is therefore exactly
    ``n_p * prod(e)``, where ``n_p`` is the producer's firing count per
    least-parent body iteration.

``coarse_live_intervals``
    The edge has exactly one live episode per least-parent iteration
    (the count rises monotonically through the producer phase and
    strictly falls at each consumer firing, so it cannot touch zero
    early).  The first episode starts at the producer leaf's first
    firing and stops at the consumer's last firing of the iteration;
    the remaining episodes are its translates under the mixed-radix
    basis of the pair's parent set, measured on the flat *firing-time*
    clock (``fdur``/``fstart``) that the schedule tree carries
    alongside the paper's schedule-step clock.

``max_live_tokens``
    A hierarchical range-max over the tree: each node owns the episode
    rectangles of the edges whose least parent it is, the profile of a
    node's full span is periodic with its body length, and the peak
    over a body is resolved by splitting at episode boundaries, adding
    the (constant) covering-episode elevation per segment, and
    recursing into the child spans.  Memoized per ``(node, lo, hi)``.

If the symbolic preconditions hold, the schedule provably never
underflows an edge and returns every edge to its initial (zero) token
count; ``repro check``'s ``symb:`` oracle verifies that claim against a
naive replay.

Supported exactly (bit-identical to the replay): single
appearance schedules covering all graph actors, where every edge is
delayless, is not a self-loop, and has its producer lexically before
its consumer.  Everything else — delays, self-loops, non-SAS
schedules, partial or non-topological schedules — makes
:meth:`SymbolicTrace.try_build` return ``None`` and the callers in
:mod:`repro.sdf.simulate` fall back to the block-level replay (this
mirrors the delay-model limitations pinned in
``tests/test_check_regressions.py``: the closed forms are only claimed
where the coarse model itself is exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..exceptions import ScheduleError
from ..lifetimes.periodic import PeriodicLifetime
from ..lifetimes.schedule_tree import ScheduleTree, ScheduleTreeNode
from .graph import SDFGraph
from .schedule import LoopedSchedule

__all__ = ["EdgeProfile", "SymbolicTrace"]

EdgeKey = Tuple[str, str, int]


@dataclass(frozen=True)
class EdgeProfile:
    """Closed-form per-edge summary on the flat firing-time clock."""

    key: EdgeKey
    #: ``max_tokens(e, S)``: peak token count (tokens, not words).
    peak: int
    #: Coarse-model episode array size in words (everything transferred
    #: during one episode, times ``token_size``).
    words: int
    #: First episode as a 0-based half-open firing interval.
    start: int
    stop: int
    #: All episodes: the first one repeated under the parent-set basis.
    lifetime: PeriodicLifetime


class SymbolicTrace:
    """Replay observables computed from the schedule tree.

    Build via :meth:`try_build`, which returns ``None`` whenever the
    closed forms do not apply; the dispatchers in ``simulate`` then
    fall back to replaying the schedule block by block.
    """

    def __init__(
        self,
        graph: SDFGraph,
        schedule: LoopedSchedule,
        tree: ScheduleTree,
        profiles: Dict[EdgeKey, EdgeProfile],
        own_ranges: Dict[int, List[Tuple[int, int, int]]],
    ) -> None:
        self.graph = graph
        self.schedule = schedule
        self.tree = tree
        self.profiles = profiles
        # node id -> [(start, stop, words)] episode ranges, body-relative,
        # for the edges whose least parent is that node.
        self._own = own_ranges
        self._memo: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def try_build(
        cls,
        graph: SDFGraph,
        schedule: LoopedSchedule,
        recorder=None,
    ) -> Optional["SymbolicTrace"]:
        """Build a symbolic trace, or ``None`` if unsupported.

        With a ``recorder``, tallies ``symbolic.builds`` /
        ``symbolic.declines`` so traces show how often the closed forms
        applied versus fell back to the block-level replay.
        """
        trace = cls._try_build(graph, schedule)
        if recorder is not None:
            recorder.count(
                "symbolic.builds" if trace is not None
                else "symbolic.declines"
            )
        return trace

    @classmethod
    def _try_build(
        cls, graph: SDFGraph, schedule: LoopedSchedule
    ) -> Optional["SymbolicTrace"]:
        """The coverage test and construction behind :meth:`try_build`.

        Preconditions (each checked; any failure means the firing
        replay must be used instead):

        * the schedule is a single appearance schedule whose actor set
          equals the graph's (every actor fires, none is unknown);
        * every edge is delayless and not a self-loop;
        * every edge's producer leaf precedes its consumer leaf
          (otherwise the first consumer firing underflows);
        * local balance: per least-parent iteration, tokens produced
          equal tokens consumed (rules out truncated schedules whose
          firing counts are not a repetitions-vector multiple).
        """
        if not schedule.body or not schedule.is_single_appearance():
            return None
        # Broadcast groups share one physical buffer across members;
        # the per-edge episode algebra below models disjoint buffers,
        # so decline and let the block-level replay handle them.
        if graph.has_broadcasts():
            return None
        try:
            tree = ScheduleTree(schedule)
        except ScheduleError:
            return None
        if set(graph.actor_names()) != set(tree.actors()):
            return None
        total = tree.total_firings()
        profiles: Dict[EdgeKey, EdgeProfile] = {}
        own: Dict[int, List[Tuple[int, int, int]]] = {}
        for e in graph.edges():
            if e.delay != 0 or e.source == e.sink:
                return None
            src_leaf = tree.leaf(e.source)
            snk_leaf = tree.leaf(e.sink)
            if src_leaf.start >= snk_leaf.start:
                return None
            lp = tree.least_parent(e.source, e.sink)
            n_p = tree.invocations_per_iteration(e.source, lp)
            n_c = tree.invocations_per_iteration(e.sink, lp)
            if n_p * e.production != n_c * e.consumption:
                return None
            # First episode: opens one step before the producer's first
            # firing (the replay's 0-based episode start), closes
            # at the consumer's last firing of the least-parent body
            # iteration — its leaf start plus the last-iteration offset
            # of every loop strictly between the leaf and the least
            # parent, plus the leaf's own residual firings.
            start = src_leaf.fstart
            stop = snk_leaf.fstart + snk_leaf.residual
            node = snk_leaf.parent
            while node is not lp:
                stop += (node.loop - 1) * node.body_firings()
                node = node.parent
            peak = n_p * e.production
            words = peak * e.token_size
            lifetime = PeriodicLifetime.from_basis(
                name=f"{e.source}->{e.sink}",
                size=words,
                start=start,
                duration=stop - start,
                basis=[
                    (w.body_firings(), w.loop)
                    for w in tree.parent_set(e.source, e.sink)
                ],
                total_span=total,
            )
            profiles[e.key] = EdgeProfile(
                key=e.key, peak=peak, words=words,
                start=start, stop=stop, lifetime=lifetime,
            )
            own.setdefault(id(lp), []).append(
                (start - lp.fstart, stop - lp.fstart, words)
            )
        return cls(graph, schedule, tree, profiles, own)

    # ------------------------------------------------------------------
    # replay observables
    # ------------------------------------------------------------------
    def max_tokens(self) -> Dict[EdgeKey, int]:
        """Per-edge peak token counts (``simulate.max_tokens``)."""
        return {key: p.peak for key, p in self.profiles.items()}

    def coarse_live_intervals(self) -> Dict[EdgeKey, List[Tuple[int, int]]]:
        """Per-edge live episodes (``simulate.coarse_live_intervals``).

        Output-sized: materializes one interval per episode, without
        replaying the firings between them.
        """
        return {
            key: list(p.lifetime.intervals())
            for key, p in self.profiles.items()
        }

    def edge_lifetime(self, key: EdgeKey) -> PeriodicLifetime:
        """The edge's episodes as a mixed-radix periodic lifetime."""
        return self.profiles[key].lifetime

    def max_live_tokens(self) -> int:
        """Peak summed episode-array words (``simulate.max_live_tokens``).

        Hierarchical range-max over the tree; cost is polynomial in the
        tree size, independent of the firing count.
        """
        if not self.profiles:
            return 0
        return self._span_max(self.tree.root, 0, self.tree.root.fdur)

    def _span_max(self, node: ScheduleTreeNode, lo: int, hi: int) -> int:
        """Peak of the subtree profile over firing offsets [lo, hi).

        A node's full span is ``loop`` identical tiles of its body, so
        the query reduces to at most two partial body tiles plus (when
        the window covers one) the memoized full-body peak.
        """
        if lo >= hi or node.is_leaf():
            return 0
        body = node.body_firings()
        first, last = lo // body, (hi - 1) // body
        if first == last:
            return self._body_max(node, lo - first * body, hi - first * body)
        best = self._body_max(node, lo - first * body, body)
        best = max(best, self._body_max(node, 0, hi - last * body))
        if last - first >= 2:
            best = max(best, self._body_max(node, 0, body))
        return best

    def _body_max(self, node: ScheduleTreeNode, lo: int, hi: int) -> int:
        """Peak over [lo, hi) of one iteration of ``node``'s body.

        The body profile is the sum of the node's own episode ranges
        (edges whose least parent is ``node``; each spans the left/right
        boundary) and the child span profiles.  Splitting at range
        endpoints makes the own-range elevation constant per segment,
        so the peak is elevation plus the child-span peak, maximized
        over segments.
        """
        if lo >= hi:
            return 0
        key = (id(node), lo, hi)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        ranges = self._own.get(id(node), ())
        left_span = node.left.fdur
        cuts = {lo, hi}
        if lo < left_span < hi:
            cuts.add(left_span)
        for s, t, _ in ranges:
            if lo < s < hi:
                cuts.add(s)
            if lo < t < hi:
                cuts.add(t)
        points = sorted(cuts)
        best = 0
        for a, b in zip(points, points[1:]):
            elevation = sum(w for s, t, w in ranges if s <= a and b <= t)
            if a >= left_span:
                below = self._span_max(node.right, a - left_span, b - left_span)
            else:
                below = self._span_max(node.left, a, b)
            best = max(best, elevation + below)
        self._memo[key] = best
        return best
