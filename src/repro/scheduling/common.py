"""Shared infrastructure for the dynamic-programming schedulers.

Both DPPO (non-shared model, section 4) and SDPPO (shared model,
section 5) run the same bottom-up DP over a fixed lexical order
``(A_1, ..., A_n)``: they differ only in how the costs of the two halves
of a split combine.  This module provides the common machinery:

* :class:`ChainContext` — the lexical order, repetitions, per-window
  gcds ``g[i][j] = gcd(q_i..q_j)``, and incremental split-crossing cost
  sums (EQ 3/4);
* :func:`chain_dp` — the one recurrence both run, with every window
  cost split into an episodic part (combined with ``max``) and a
  persistent part (summed);
* :func:`build_schedule_from_splits` — reconstruct the nested looped
  schedule from the optimal split points, applying the factoring
  decision recorded per window.

Positions are 0-based; a *window* ``(i, j)`` covers actors
``order[i] .. order[j]`` inclusive.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import GraphStructureError, ScheduleError
from ..sdf.graph import SDFGraph
from ..sdf.repetitions import repetitions_vector, total_tokens_exchanged
from ..sdf.schedule import Firing, Loop, LoopedSchedule, ScheduleNode
from ..sdf.topsort import is_topological_order

__all__ = [
    "ChainContext",
    "build_schedule_from_splits",
    "chain_dp",
    "buffer_weights",
]


#: Per physical buffer: ``(source, sinks, (tw, dw, ptw))``.
BufferWeights = List[Tuple[str, Tuple[str, ...], Tuple[int, int, int]]]


def buffer_weights(graph: SDFGraph, q: Dict[str, int]) -> BufferWeights:
    """Per physical buffer (:meth:`SDFGraph.buffers`): ``(source, sinks,
    (TNSE words, delay words, delayed-buffer TNSE words))``.

    Members of a buffer share source, production, delay and token size,
    so they all have the first member's TNSE: the buffer's weight,
    counted once.  A plain edge is a buffer with one sink.  The third
    component restricts the first to buffers carrying initial tokens —
    the *persistent* buffers whose circular arrays stay live across the
    whole period and therefore cannot share memory with anything (see
    the episodic/persistent split of EQ 5 in :func:`chain_dp`).

    Order-invariant, so a compilation session computes it once per
    graph; the sink that carries the weight depends on the order and is
    resolved per :class:`ChainContext`.
    """
    weights: BufferWeights = []
    for members in graph.buffers():
        first = members[0]
        tw = total_tokens_exchanged(first, q) * first.token_size
        weights.append((
            first.source,
            tuple(m.sink for m in members),
            (tw, first.delay * first.token_size, tw if first.delay else 0),
        ))
    return weights


class ChainContext:
    """Precomputed quantities for DP over a lexical order.

    Each physical buffer enters the weight tables once, as an edge from
    its source to its sink at the greatest order position (a plain
    edge's own sink).  For a broadcast group this is exact for the DP
    cost models: within any window, the first split separating the source
    from *any* member sink also separates it from the farthest one
    (windows are contiguous and every sink is after the source), and
    window nesting makes inner gcds multiples of outer gcds, so
    ``TNSE/g`` at that outermost separation is the maximum over the
    members' individual crossing costs — exactly the shared buffer's
    occupancy peak (max over member token counts).

    Parameters
    ----------
    graph:
        A consistent SDF graph.  For single appearance schedules to be
        valid the graph restricted to the order must be acyclic and the
        order topological; this is checked unless ``trusted=True``.
    order:
        The lexical order (a topological sort of the actors).
    trusted:
        Skip the O(n·e) topological re-validation.  Safe for orders our
        own generators produced (RPMC, APGAN, the topsort samplers); a
        :class:`~repro.scheduling.session.CompilationSession` sets this
        for every trial of a search.
    weights:
        Precomputed per-buffer weights from :func:`buffer_weights`, as
        built once per graph by a compilation session; computed here
        when absent.
    """

    def __init__(
        self,
        graph: SDFGraph,
        order: Sequence[str],
        q: Optional[Dict[str, int]] = None,
        trusted: bool = False,
        weights: Optional[BufferWeights] = None,
    ) -> None:
        if sorted(order) != sorted(graph.actor_names()):
            raise GraphStructureError(
                "lexical order must contain each actor exactly once"
            )
        if not trusted and not is_topological_order(graph, order):
            raise GraphStructureError(
                f"order {list(order)!r} is not a topological sort of "
                f"{graph.name!r}; a single appearance schedule with this "
                f"lexical order would deadlock"
            )
        self.graph = graph
        self.order: List[str] = list(order)
        self.n = len(self.order)
        self.q = q if q is not None else repetitions_vector(graph)
        self.position = {a: i for i, a in enumerate(self.order)}

        # g[i][j] = gcd(q_i, ..., q_j), stored as list of lists where
        # row i holds gcds for windows starting at i.
        self._g: List[List[int]] = []
        for i in range(self.n):
            row = [0] * self.n
            acc = 0
            for j in range(i, self.n):
                acc = gcd(acc, self.q[self.order[j]])
                row[j] = acc
            self._g.append(row)

        # 2D prefix sums over (source position, sink position) of the
        # TNSE words and delay words, so crossing sums are O(1)
        # rectangle queries.  Summing TNSE before dividing by the
        # window gcd is exact: g_ij divides q(src) for every source in
        # the window and TNSE(e) is a multiple of q(src), so each
        # tw // g term divides evenly.
        if weights is None:
            weights = buffer_weights(graph, self.q)
        position = self.position
        m = self.n + 1
        tws = [[0] * m for _ in range(m)]
        dws = [[0] * m for _ in range(m)]
        ptws = [[0] * m for _ in range(m)]
        for src, sinks, (tw, dw, ptw) in weights:
            ps = position[src] + 1
            pt = max(position[s] for s in sinks) + 1
            tws[ps][pt] += tw
            dws[ps][pt] += dw
            ptws[ps][pt] += ptw
        for grid in (tws, dws, ptws):
            for r in range(1, m):
                row, prev = grid[r], grid[r - 1]
                acc = 0
                for c in range(1, m):
                    acc += row[c]
                    row[c] = acc + prev[c]
        self._tw_prefix = tws
        self._dw_prefix = dws
        self._ptw_prefix = ptws
        self._scan_arrays: Optional[tuple] = None
        #: Whether the cc-compiled DP kernel may run.  It accumulates
        #: in int64, so contexts whose costs could overflow (bounded by
        #: the total weight times the nesting depth) take the exact
        #: big-int Python path instead.
        total_w = tws[self.n][self.n] + dws[self.n][self.n]
        self.use_native = (
            self.n >= 2 and (total_w + 1) * (self.n + 2) < 2**62
        )
        #: Flattened ctypes copies of the prefix/gcd grids, built and
        #: cached by :mod:`repro.native.kernels` on first native DP.
        self._native_state: Optional[tuple] = None
        # Window -> crossing-cost list, shared by the DPPO/SDPPO pair
        # running over this same context (the lists are never mutated).
        self._window_costs: List[List[Optional[List[int]]]] = [
            [None] * self.n for _ in range(self.n)
        ]
        #: Window-cost cache statistics, flushed to a recorder by the
        #: pipeline (plain ints: the DP inner loop is the hot path).
        self.window_hits = 0
        self.window_misses = 0

    def _scan_state(self) -> tuple:
        """Column-combined arrays for the pure-Python window cost scan.

        Per prefix column jj, fold the transposed prefix with its
        diagonal (T = twT - diag_t, D = dwT - diag_d, A = T + D), and
        per row the tw/dw prefix sum, so the scan zips two (gcd 1) or
        four contiguous slices instead of six.  Built lazily — the
        native DP never needs them.
        """
        if self._scan_arrays is None:
            tws, dws = self._tw_prefix, self._dw_prefix
            m = self.n + 1
            diag_t = [tws[r][r] for r in range(m)]
            diag_d = [dws[r][r] for r in range(m)]
            colT = [[x - d for x, d in zip(col, diag_t)] for col in zip(*tws)]
            colD = [[x - d for x, d in zip(col, diag_d)] for col in zip(*dws)]
            colA = [
                [x + y for x, y in zip(ct, cd)] for ct, cd in zip(colT, colD)
            ]
            sum_prefix = [
                [a + b for a, b in zip(rt, rd)] for rt, rd in zip(tws, dws)
            ]
            self._scan_arrays = (colT, colD, colA, sum_prefix)
        return self._scan_arrays

    # ------------------------------------------------------------------
    def window_gcd(self, i: int, j: int) -> int:
        """``g_ij = gcd(q(A_i), ..., q(A_j))``."""
        return self._g[i][j]

    def actor(self, i: int) -> str:
        return self.order[i]

    def rep(self, i: int) -> int:
        return self.q[self.order[i]]

    def _rect(self, grid: List[List[int]], r0: int, r1: int, c0: int, c1: int) -> int:
        """Sum of ``grid`` entries with source in [r0, r1], sink in [c0, c1]."""
        return (
            grid[r1 + 1][c1 + 1]
            - grid[r0][c1 + 1]
            - grid[r1 + 1][c0]
            + grid[r0][c0]
        )

    def crossing_cost(self, i: int, j: int, k: int) -> int:
        """``c_ij[k]`` (EQ 3): buffer words on edges crossing split ``k``.

        Sum over edges with source in window positions ``[i, k]`` and
        sink in ``[k+1, j]`` of ``TNSE(e)/g_ij`` words, plus the edges'
        initial-token words (a delayed crossing buffer additionally holds
        its ``del(e)`` tokens at the peak).
        """
        g = self._g[i][j]
        tw = self._rect(self._tw_prefix, i, k, k + 1, j)
        dw = self._rect(self._dw_prefix, i, k, k + 1, j)
        return tw // g + dw

    def crossing_costs_for_window(self, i: int, j: int) -> List[int]:
        """``[c_ij[k] for k in i..j-1]``, one rectangle query per split.

        The returned list is cached per window (and must be treated as
        read-only): DPPO and SDPPO over the same context walk the same
        windows, so the second DP reuses every list.
        """
        cached = self._window_costs[i][j]
        if cached is not None:
            self.window_hits += 1
            return cached
        self.window_misses += 1
        colT, colD, colA, sum_prefix = self._scan_state()
        g = self._g[i][j]
        jj = j + 1
        lo = i + 1
        # Rectangle query at split k, with r = k + 1 the prefix row just
        # below the sources [i, k] and columns (k, j] the sinks:
        # tw = P[r][jj] - P[i][jj] - P[r][r] + P[i][r], likewise dw —
        # regrouped through the folded column arrays.
        if g == 1:
            s_row = sum_prefix[i]
            sj = s_row[jj]
            costs = [
                a + p - sj for a, p in zip(colA[jj][lo:jj], s_row[lo:jj])
            ]
        else:
            top_t, top_d = self._tw_prefix[i], self._dw_prefix[i]
            tj, dj = top_t[jj], top_d[jj]
            costs = [
                (at + pt - tj) // g + ad + pd - dj
                for at, ad, pt, pd in zip(
                    colT[jj][lo:jj],
                    colD[jj][lo:jj],
                    top_t[lo:jj],
                    top_d[lo:jj],
                )
            ]
        self._window_costs[i][j] = costs
        return costs

    def pers_crossing_cost(self, i: int, j: int, k: int) -> int:
        """Persistent part of ``c_ij[k]``: delayed crossing edges only.

        A delayed edge's buffer holds live tokens across the whole
        schedule period (the ``del(e)`` tokens wrap around), so its
        ``TNSE(e)/g_ij + del(e)`` words can never share memory with any
        other buffer.  The *episodic* part of the crossing cost is
        ``crossing_cost(i, j, k) - pers_crossing_cost(i, j, k)``.

        The division is exact for the same reason as in
        :meth:`crossing_cost`: the prefix restricts to delayed edges,
        and each of their TNSE values is a multiple of ``q(src)``.
        """
        g = self._g[i][j]
        ptw = self._rect(self._ptw_prefix, i, k, k + 1, j)
        dw = self._rect(self._dw_prefix, i, k, k + 1, j)
        return ptw // g + dw


def chain_dp(
    context: ChainContext,
    shared: bool,
    factoring: str = "auto",
    backend: str = "python",
) -> Tuple[
    List[List[int]], Dict[Tuple[int, int], int], Dict[Tuple[int, int], bool]
]:
    """The chain DP of EQ 2 and EQ 5: ``(b rows, split, factored)``.

    One recurrence serves both models.  Every window cost is split into
    an episodic part ``ep`` (buffers whose lifetimes the two halves of
    a split never share, combined with ``max``) and a persistent part
    ``pers`` (buffers live across both halves, always summed)::

        b[i, j] = min_k  max(ep[i, k], ep[k+1, j])
                         + pers[i, k] + pers[k+1, j] + c_ij[k]

    and the chosen split adds its persistent crossing words to
    ``pers[i, j]``.  Under the shared model (EQ 5) those are the
    delayed edges' words, :meth:`ChainContext.pers_crossing_cost`: a
    delayed edge's circular buffer carries its ``del(e)`` tokens across
    the period boundary, so it can never overlay anything.  On a
    delayless graph every ``pers`` is zero and this is EQ 5's
    ``max(b[i, k], b[k+1, j]) + c_ij[k]``.  Under the non-shared model
    (EQ 2) every buffer is persistent: the whole ``c_ij[k]`` is added,
    every ``ep`` is zero, and this is ``b[i, k] + b[k+1, j] + c_ij[k]``.

    The split scan keeps the first minimum.  ``factored`` records the
    section 5.1 decision per window under the shared model — with
    ``factoring="auto"``, factor iff the merge has internal
    (split-crossing) edges, ``"always"`` or ``"never"`` otherwise — and
    is empty under the non-shared model, whose every merge factors.

    ``backend`` other than ``"python"`` runs the cc-compiled kernel
    (:meth:`repro.native.kernels.NativeKernels.dp_over_context`) when
    ``context.use_native`` holds and the kernel loads, bit-identical to
    the recurrence here; otherwise this falls through to it silently.
    """
    if backend != "python" and context.use_native:
        from ..native import resolve_backend

        _, kernels = resolve_backend(backend)
        if kernels is not None:
            return kernels.dp_over_context(context, shared, factoring)
    n = context.n
    # The episodic and persistent tables, each kept both row-major and
    # transposed so the split scan zips contiguous slices: the left
    # halves [i][i..j-1] and the right halves T[j][i+1..j].
    b = [[0] * n for _ in range(n)]
    ep = [[0] * n for _ in range(n)]
    epT = [[0] * n for _ in range(n)]
    pers = [[0] * n for _ in range(n)]
    persT = [[0] * n for _ in range(n)]
    split: Dict[Tuple[int, int], int] = {}
    factored: Dict[Tuple[int, int], bool] = {}
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length - 1
            costs = context.crossing_costs_for_window(i, j)
            epi, epj = ep[i], epT[j]
            pi, pj = pers[i], persT[j]
            candidates = [
                (x if x > y else y) + pl + pr + c
                for x, y, pl, pr, c in zip(
                    epi[i:j], epj[i + 1 : j + 1], pi[i:j], pj[i + 1 : j + 1],
                    costs,
                )
            ]
            best = min(candidates)
            best_k = i + candidates.index(best)
            cost = costs[best_k - i]
            if shared:
                p_cross = context.pers_crossing_cost(i, j, best_k)
                # Crossing costs are strictly positive whenever a
                # crossing edge exists, so a zero cost means the halves
                # are independent; unfactored, their buffers stay
                # disjoint (figure 7(a) vs 7(b)).
                factored[(i, j)] = (
                    cost > 0 if factoring == "auto" else factoring == "always"
                )
            else:
                p_cross = cost
            new_pers = pi[best_k] + pj[best_k + 1] + p_cross
            b[i][j] = best
            pi[j] = pj[i] = new_pers
            epi[j] = epj[i] = best - new_pers
            split[(i, j)] = best_k
    return b, split, factored


def build_schedule_from_splits(
    context: ChainContext,
    split: Dict[Tuple[int, int], int],
    factored: Dict[Tuple[int, int], bool],
) -> LoopedSchedule:
    """Reconstruct the nested SAS from the optimal splits (section 4).

    ``split[(i, j)]`` is the chosen ``k`` for window ``(i, j)``;
    ``factored[(i, j)]`` whether the merge there introduces the common
    loop factor (a window it omits factors, as DPPO's every merge does).

    The window ``(i, j)`` executes ``g_ij`` times per schedule period;
    nested inside an enclosing loop that already supplies
    ``enclosing`` iterations, its own loop factor is
    ``g_ij / enclosing`` when factored, and 1 when the factoring
    heuristic declined to factor (children then keep their own factors
    relative to ``enclosing``).
    """

    def build(i: int, j: int, enclosing: int) -> ScheduleNode:
        if i == j:
            count = context.rep(i) // enclosing
            return Firing(context.actor(i), count)
        key = (i, j)
        if key not in split:
            raise ScheduleError(f"split table missing window {key}")
        k = split[key]
        if factored.get(key, True):
            g = context.window_gcd(i, j)
            factor = g // enclosing
            inner = g
        else:
            factor = 1
            inner = enclosing
        left = build(i, k, inner)
        right = build(k + 1, j, inner)
        if factor == 1:
            # Avoid spurious unit loops; keep the tree binary by using a
            # unit Loop only when a child is itself a bare multi-node —
            # here children are single nodes, so inline them.
            return Loop(1, (left, right))
        return Loop(factor, (left, right))

    root = build(0, context.n - 1, 1)
    return LoopedSchedule([root]).normalized()
