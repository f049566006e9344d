"""Shared infrastructure for the dynamic-programming schedulers.

Both DPPO (non-shared model, section 4) and SDPPO (shared model,
section 5) run the same bottom-up DP over a fixed lexical order
``(A_1, ..., A_n)``: they differ only in how the costs of the two halves
of a split combine.  This module provides the common machinery:

* :class:`ChainContext` — the lexical order, repetitions, per-window
  gcds ``g[i][j] = gcd(q_i..q_j)``, and incremental split-crossing cost
  sums (EQ 3/4);
* :func:`build_schedule_from_splits` — reconstruct the nested looped
  schedule from a table of optimal split points, applying the factoring
  decision recorded per window.

Positions are 0-based; a *window* ``(i, j)`` covers actors
``order[i] .. order[j]`` inclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.util import find_spec
from math import gcd
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import GraphStructureError, ScheduleError
from ..sdf.graph import SDFGraph
from ..sdf.repetitions import repetitions_vector, total_tokens_exchanged
from ..sdf.schedule import Firing, Loop, LoopedSchedule, ScheduleNode
from ..sdf.topsort import is_topological_order

#: Whether the vectorized DP is available.  numpy is an optional
#: acceleration (every algorithm has a pure-Python path) that costs
#: about 100 ms to import, so this only checks that it is installed;
#: the first :func:`dp_over_context` to run imports it.
_HAVE_NUMPY = find_spec("numpy") is not None

__all__ = [
    "ChainContext",
    "build_schedule_from_splits",
    "SplitTable",
    "aggregate_pair_weights",
    "broadcast_group_weights",
    "dp_over_context",
]


def aggregate_pair_weights(
    graph: SDFGraph, q: Dict[str, int]
) -> Dict[Tuple[str, str], Tuple[int, int, int]]:
    """Per actor pair: ``(TNSE words, delay words, delayed-edge TNSE words)``.

    Parallel edges are summed.  The third component restricts the first
    to edges carrying initial tokens — the *persistent* edges whose
    circular buffers stay live across the whole period and therefore
    cannot share memory with anything (see EQ 5's episodic/persistent
    split in :func:`dp_over_context`).

    Order-invariant, so a compilation session computes it once per graph
    and every per-order :class:`ChainContext` reuses it.

    Broadcast members are *excluded*: a group owns one shared buffer,
    counted once, so its weight enters the DP as a single virtual edge
    whose sink position depends on the order — see
    :func:`broadcast_group_weights` and the folding in
    :class:`ChainContext`.
    """
    weights: Dict[Tuple[str, str], Tuple[int, int, int]] = {}
    for e in graph.edges():
        if e.broadcast is not None:
            continue
        tw = total_tokens_exchanged(e, q) * e.token_size
        dw = e.delay * e.token_size
        ptw = tw if e.delay > 0 else 0
        prev = weights.get((e.source, e.sink))
        if prev is not None:
            tw += prev[0]
            dw += prev[1]
            ptw += prev[2]
        weights[(e.source, e.sink)] = (tw, dw, ptw)
    return weights


def broadcast_group_weights(
    graph: SDFGraph, q: Dict[str, int]
) -> Dict[str, Tuple[str, Tuple[str, ...], Tuple[int, int, int]]]:
    """Per broadcast group: ``(source, sinks, (tw, dw, ptw))``.

    Members of a group share source, production, delay, and token size,
    so they all have the same TNSE — the weight of the one shared
    buffer, counted once.  Order-invariant (cached per session); the
    position of the virtual edge carrying the weight is order-dependent
    and resolved per :class:`ChainContext`.
    """
    weights: Dict[str, Tuple[str, Tuple[str, ...], Tuple[int, int, int]]] = {}
    for name, members in graph.broadcast_groups().items():
        first = members[0]
        tw = total_tokens_exchanged(first, q) * first.token_size
        dw = first.delay * first.token_size
        ptw = tw if first.delay > 0 else 0
        weights[name] = (
            first.source,
            tuple(m.sink for m in members),
            (tw, dw, ptw),
        )
    return weights


class ChainContext:
    """Precomputed quantities for DP over a lexical order.

    A broadcast group enters the weight tables as one *virtual edge*
    from its source to the member sink at the greatest order position,
    carrying the group's weight once.  This is exact for the DP cost
    models: within any window, the first split separating the source
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
    pair_weights:
        Precomputed ``(source, sink) -> (tnse words, delay words,
        delayed-edge tnse words)`` with parallel edges aggregated
        (broadcast members excluded), as built once per graph by a
        compilation session; computed here when absent.
    broadcast_weights:
        Precomputed per-group weights from
        :func:`broadcast_group_weights`; computed here when absent.
    """

    def __init__(
        self,
        graph: SDFGraph,
        order: Sequence[str],
        q: Optional[Dict[str, int]] = None,
        trusted: bool = False,
        pair_weights: Optional[Dict[Tuple[str, str], Tuple[int, int, int]]] = None,
        broadcast_weights: Optional[
            Dict[str, Tuple[str, Tuple[str, ...], Tuple[int, int, int]]]
        ] = None,
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

        if pair_weights is None:
            pair_weights = aggregate_pair_weights(graph, self.q)
        if broadcast_weights is None:
            broadcast_weights = broadcast_group_weights(graph, self.q)
        if broadcast_weights:
            # Fold each broadcast group in as a virtual edge to the
            # member sink farthest along *this* order (see class
            # docstring for why this is exact).  pair_weights itself is
            # order-invariant session state and must not be mutated.
            pair_weights = dict(pair_weights)
            for source, sinks, (tw, dw, ptw) in broadcast_weights.values():
                far = max(sinks, key=lambda s: self.position[s])
                prev = pair_weights.get((source, far))
                if prev is not None:
                    tw, dw, ptw = (
                        tw + prev[0], dw + prev[1], ptw + prev[2]
                    )
                pair_weights[(source, far)] = (tw, dw, ptw)

        # 2D prefix sums over (source position, sink position) of the
        # edge count, TNSE words and delay words, so crossing sums are
        # O(1) rectangle queries.  Summing TNSE before dividing by the
        # window gcd is exact: g_ij divides q(src) for every source in
        # the window and TNSE(e) is a multiple of q(src), so each
        # tw // g term divides evenly.
        m = self.n + 1
        cnt = [[0] * m for _ in range(m)]
        tws = [[0] * m for _ in range(m)]
        dws = [[0] * m for _ in range(m)]
        ptws = [[0] * m for _ in range(m)]
        for (src, snk), (tw, dw, ptw) in pair_weights.items():
            ps, pt = self.position[src], self.position[snk]
            cnt[ps + 1][pt + 1] += 1
            tws[ps + 1][pt + 1] += tw
            dws[ps + 1][pt + 1] += dw
            ptws[ps + 1][pt + 1] += ptw
        for grid in (cnt, tws, dws, ptws):
            for r in range(1, m):
                row, prev = grid[r], grid[r - 1]
                acc = 0
                for c in range(1, m):
                    acc += row[c]
                    row[c] = acc + prev[c]
        self._cnt_prefix = cnt
        self._tw_prefix = tws
        self._dw_prefix = dws
        self._ptw_prefix = ptws
        #: Whether any edge carries initial tokens — when false the
        #: persistent component of every crossing cost is zero and the
        #: shared DP reduces to the plain EQ 5 recurrence.
        self.has_delays = dws[self.n][self.n] > 0
        self._scan_arrays: Optional[tuple] = None
        self._np_state: Optional[tuple] = None
        # The vectorized DP stores prefix sums in int64; bail out to the
        # pure-Python path (exact big ints) if DP accumulations could
        # overflow: costs are bounded by the total weight times the
        # nesting depth.  Below ~30 actors the per-length array overhead
        # exceeds the win, so small chains stay pure Python.
        total_w = tws[self.n][self.n] + dws[self.n][self.n]
        self.use_numpy = (
            _HAVE_NUMPY
            and self.n >= 30
            and (total_w + 1) * (self.n + 2) < 2**62
        )
        #: Whether the cc-compiled DP kernel may run: same int64
        #: accumulation bound as the numpy path but no size floor — a
        #: C call is cheap enough for small windows, and running native
        #: everywhere maximizes differential coverage.  Ineligible
        #: contexts (big-int weights) silently take the Python path.
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
        vectorized DP never needs them.
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

    def _numpy_state(self) -> tuple:
        """int64 copies of the prefix/gcd tables for the vectorized DP."""
        if self._np_state is None:
            import numpy as np

            Pt = np.asarray(self._tw_prefix, dtype=np.int64)
            Pd = np.asarray(self._dw_prefix, dtype=np.int64)
            Pp = np.asarray(self._ptw_prefix, dtype=np.int64)
            G = np.asarray(self._g, dtype=np.int64) if self.n else None
            self._np_state = (Pt, Pd, Pp, G)
        return self._np_state

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

    def has_crossing_edge(self, i: int, j: int, k: int) -> bool:
        """True if any edge crosses split ``k`` of window ``(i, j)``.

        These are the *internal edges* of the merge in the factoring
        heuristic of section 5.1.
        """
        return self._rect(self._cnt_prefix, i, k, k + 1, j) > 0

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

    def single_crossing_edge_cost(self, i: int, j: int, k: int) -> int:
        """Crossing cost when the graph is a chain: the one edge (k, k+1)."""
        g = self._g[i][j]
        tw = self._rect(self._tw_prefix, k, k, k + 1, k + 1)
        dw = self._rect(self._dw_prefix, k, k, k + 1, k + 1)
        return tw // g + dw

    def pers_single_crossing_edge_cost(self, i: int, j: int, k: int) -> int:
        """Persistent part of the chain crossing cost for edge (k, k+1)."""
        g = self._g[i][j]
        ptw = self._rect(self._ptw_prefix, k, k, k + 1, k + 1)
        dw = self._rect(self._dw_prefix, k, k, k + 1, k + 1)
        return ptw // g + dw


def dp_over_context(
    context: ChainContext,
    shared: bool,
    factoring: str = "auto",
) -> Tuple[List[List[int]], Dict[Tuple[int, int], int], Dict[Tuple[int, int], bool]]:
    """Vectorized EQ 2 / EQ 5 DP over ``context`` (requires numpy).

    Processes one window length per step: all windows of that length
    are strided views into the DP table and the weight prefix sums, so
    each anti-diagonal costs a constant number of array operations.
    Returns ``(b, split, factored)`` with ``b`` the dense cost table
    (rows of plain ints), matching the pure-Python DP bit for bit —
    ``argmin`` and ``list.index`` both take the first minimum, and all
    arithmetic is exact int64 (guarded by ``context.use_numpy``).

    ``shared`` selects the combiner.  Non-shared (EQ 2) sums the
    halves.  Shared (EQ 5) splits every cost into an *episodic* part
    (delayless buffers, live only during their episode — combined with
    ``max``) and a *persistent* part (delayed-edge circular buffers,
    live across the whole period — always summed):

        total = max(ep_l, ep_r) + pers_l + pers_r + c_ij[k]

    The persistent part of the crossing cost cancels in the total (it
    is included in ``c_ij[k]``), so only the episodic/persistent book
    tables need the extra rectangle query.  On a delayless graph every
    persistent term is zero and the recurrence collapses to the plain
    ``max(left, right) + c`` form, so that path skips the bookkeeping.

    ``factored`` is only meaningful for the shared DP, where
    ``factoring`` applies the section 5.1 policy; the non-shared DP
    always factors.
    """
    import numpy as np

    n = context.n
    Pt, Pd, Pp, G = context._numpy_state()
    s0, s1 = Pt.strides
    b = np.zeros((n, n), dtype=np.int64)
    bs0, bs1 = b.strides
    split: Dict[Tuple[int, int], int] = {}
    factored: Dict[Tuple[int, int], bool] = {}
    strided = np.lib.stride_tricks.as_strided
    pers_split = shared and context.has_delays
    if pers_split:
        ep = np.zeros((n, n), dtype=np.int64)
        pers = np.zeros((n, n), dtype=np.int64)

    def rect(P, L, W, K):
        # Crossing cost rectangles with r = i+d+1, jj = i+L:
        # x = P[r][jj] - P[i][jj] - P[r][r] + P[i][r].
        return (
            strided(P[1:, L:], shape=(W, K), strides=(s0 + s1, s0))
            - np.diagonal(P, offset=L)[:W, None]
            - strided(P[1:, 1:], shape=(W, K), strides=(s0 + s1, s0 + s1))
            + strided(P[:, 1:], shape=(W, K), strides=(s0 + s1, s1))
        )

    for L in range(2, n + 1):
        W = n - L + 1  # windows of this length
        K = L - 1  # splits per window; d = k - i below
        rows = np.arange(W)
        tw = rect(Pt, L, W, K)
        dw = rect(Pd, L, W, K)
        g = np.diagonal(G, offset=L - 1)[:W, None]  # g[i][i+L-1]
        cost = tw // g + dw
        if pers_split:
            # ep_l[i, d] = ep[i, i+d]; ep_r[i, d] = ep[i+d+1, i+L-1],
            # likewise the persistent halves.
            ep_l = strided(ep, shape=(W, K), strides=(bs0 + bs1, bs1))
            ep_r = strided(ep[1:, L - 1:], shape=(W, K), strides=(bs0 + bs1, bs0))
            p_l = strided(pers, shape=(W, K), strides=(bs0 + bs1, bs1))
            p_r = strided(pers[1:, L - 1:], shape=(W, K), strides=(bs0 + bs1, bs0))
            total = np.maximum(ep_l, ep_r) + p_l + p_r + cost
        else:
            # left[i, d] = b[i, i+d]; right[i, d] = b[i+d+1, i+L-1].
            left = strided(b, shape=(W, K), strides=(bs0 + bs1, bs1))
            right = strided(b[1:, L - 1:], shape=(W, K), strides=(bs0 + bs1, bs0))
            total = (np.maximum(left, right) if shared else left + right) + cost
        kd = np.argmin(total, axis=1)
        b[rows, rows + K] = total[rows, kd]
        if pers_split:
            p_cost = rect(Pp, L, W, K) // g + dw
            new_pers = p_l[rows, kd] + p_r[rows, kd] + p_cost[rows, kd]
            pers[rows, rows + K] = new_pers
            ep[rows, rows + K] = total[rows, kd] - new_pers
        keys = list(zip(rows.tolist(), (rows + K).tolist()))
        split.update(zip(keys, (rows + kd).tolist()))
        if shared:
            if factoring == "auto":
                flags = (cost[rows, kd] > 0).tolist()
            else:
                flags = [factoring == "always"] * W
            factored.update(zip(keys, flags))
    return b.tolist(), split, factored


@dataclass
class SplitTable:
    """Optimal split points and factoring decisions from a DP run.

    ``split[(i, j)]`` is the chosen ``k`` for window ``(i, j)``;
    ``factored[(i, j)]`` records whether the merge at that window
    introduced a common loop factor (always true for DPPO; per the
    section 5.1 heuristic for SDPPO).
    """

    split: Dict[Tuple[int, int], int]
    factored: Dict[Tuple[int, int], bool]


def build_schedule_from_splits(
    context: ChainContext, table: SplitTable
) -> LoopedSchedule:
    """Reconstruct the nested SAS from a split table (section 4).

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
        if key not in table.split:
            raise ScheduleError(f"split table missing window {key}")
        k = table.split[key]
        if table.factored.get(key, True):
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
