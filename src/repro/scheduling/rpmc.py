"""RPMC: recursive partitioning by minimum legal cuts (section 7).

A top-down heuristic for generating the lexical order of a single
appearance schedule: find a cut of the DAG into a left set and a right
set such that every crossing edge points left-to-right (so each half can
be scheduled recursively without deadlock) and the total size of the
buffers crossing the cut is minimized; then recurse on each half.

The cut-crossing buffers are exactly the ones a split-level loop cannot
overlay (they are live across the transition), so minimizing them is
attractive under both the non-shared and the shared model (the paper
argues this in section 7).

Implementation: a legal cut's left set is an *order ideal* (closed under
predecessors).  Candidate ideals are generated as prefixes of several
topological orders (the deterministic order plus seeded random ones),
subject to the classical RPMC balance bound ``|V_L| in [n/3, 2n/3]``,
then improved by greedy boundary moves that preserve legality.  The
best cut found recurses into both sides, one connected component at a
time (a cut can disconnect a side).

The recursion works on sorted lists of actor indices over one adjacency
built for the whole graph; a level stamps its actors in a mark array
instead of copying a subgraph, and scans its edges once for the cut
weights and the successor lists all its topological orders share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd
from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import GraphStructureError
from ..sdf.graph import SDFGraph
from ..sdf.repetitions import repetitions_vector, total_tokens_exchanged

__all__ = ["RPMCResult", "rpmc"]


@dataclass
class RPMCResult:
    """Outcome of RPMC: a lexical order for SAS construction."""

    order: List[str]


def rpmc(
    graph: SDFGraph,
    q: Optional[Dict[str, int]] = None,
    seed: int = 0,
    num_random_orders: int = 4,
    recorder=None,
) -> RPMCResult:
    """Run RPMC on a consistent acyclic SDF graph.

    Parameters
    ----------
    seed, num_random_orders:
        RPMC explores prefixes of ``1 + num_random_orders`` topological
        orders per recursion level; the random orders derive from
        ``seed`` deterministically, so results are reproducible.
    recorder:
        Optional :class:`repro.obs.Recorder`; tallies ``rpmc.cuts``
        (one per recursive bipartition) and ``rpmc.moves`` (applied
        greedy boundary improvements).
    """
    if not graph.is_acyclic():
        raise GraphStructureError(
            f"rpmc requires an acyclic graph; {graph.name!r} has a cycle"
        )
    if q is None:
        q = repetitions_vector(graph)
    names = graph.actor_names()
    cutter = _Cutter(graph, q, random.Random(seed), num_random_orders,
                     recorder)
    order = cutter.order(list(range(len(names))))
    return RPMCResult(order=[names[i] for i in order])


class _Cutter:
    """The recursion state: one adjacency and per-level scratch arrays.

    Actors are indices into ``graph.actor_names()``; ``out[a]``/``inn[a]``
    list ``(neighbour, edge id)`` pairs in edge order, with each edge's
    ``TNSE``, delay and token size alongside.  A level sets ``mark[a]``
    to its stamp for each of its actors, and ``left[a]`` too while
    ``a`` is left of the cut, and ``pos[a]`` to ``a``'s position in
    the level's sorted actor list; it writes the other arrays for its
    own actors and edges before reading them.
    """

    def __init__(self, graph: SDFGraph, q: Dict[str, int],
                 rng: random.Random, num_random_orders: int,
                 recorder) -> None:
        names = graph.actor_names()
        index = {a: i for i, a in enumerate(names)}
        edges = graph.edge_list()
        self.out: List[List[Tuple[int, int]]] = [[] for _ in names]
        self.inn: List[List[Tuple[int, int]]] = [[] for _ in names]
        for i, e in enumerate(edges):
            self.out[index[e.source]].append((index[e.sink], i))
            self.inn[index[e.sink]].append((index[e.source], i))
        self.tnse = [total_tokens_exchanged(e, q) for e in edges]
        self.delay = [e.delay for e in edges]
        self.token_size = [e.token_size for e in edges]
        self.weight = [0] * len(edges)
        self.q = [q[a] for a in names]
        # ``rng.randrange(n)`` is ``_randbelow(n)``: draws of
        # ``n.bit_length()`` bits until one is below ``n``.  The Kahn
        # passes inline that loop over the bound ``getrandbits``, so the
        # stream, and every order, matches ``randrange`` draw for draw.
        self.getrandbits, self.recorder = rng.getrandbits, recorder
        self.num_random_orders = num_random_orders
        self.stamp = 0
        self.mark, self.left, self.out_sum, self.in_sum, self.pos = (
            [0] * len(names) for _ in range(5)
        )

    def _enter(self, acts: List[int]) -> int:
        """Stamp ``acts`` as the current level's actors."""
        self.stamp += 1
        for a in acts:
            self.mark[a] = self.stamp
        return self.stamp

    def order(self, acts: List[int]) -> List[int]:
        """RPMC's lexical order of the subgraph induced by ``acts``."""
        n = len(acts)
        if n <= 1:
            return acts
        s = self._enter(acts)
        succ, indeg = self._level(acts, s)
        if n == 2:
            return [acts[i] for i in self._kahn(succ, indeg)]
        if self.recorder is not None:
            self.recorder.count("rpmc.cuts")
        out_sum, in_sum = self.out_sum, self.in_sum

        lo, hi = n // 3, (2 * n) // 3
        orders = [self._kahn(succ, indeg)]
        for _ in range(self.num_random_orders):
            orders.append(self._kahn(succ, indeg, self.getrandbits))
        # Dead from here on: keep it off the stack of the recursion below.
        del succ, indeg

        # Cutting after a prefix of a topological order, every in-edge
        # of a placed actor comes from the prefix, so the cut cost is
        # the running sum of out-weight minus in-weight.
        net = [out_sum[a] - in_sum[a] for a in acts]
        best_cost: Optional[int] = None
        best_order, best_p = orders[0], 0
        for order in orders:
            cost = 0
            for p in range(1, n):
                cost += net[order[p - 1]]
                if lo <= p <= hi and (best_cost is None or cost < best_cost):
                    best_cost, best_order, best_p = cost, order, p
        left = self.left
        for i in best_order[:best_p]:
            left[acts[i]] = s
        self._improve_cut(acts, s, best_p, lo, hi)
        # Split before recursing: deeper levels overwrite ``left``.
        left_acts = [a for a in acts if left[a] == s]
        right_acts = [a for a in acts if left[a] != s]
        return self._components(left_acts) + self._components(right_acts)

    def _level(
        self, acts: List[int], s: int
    ) -> Tuple[List[List[int]], List[int]]:
        """The level's cut weights and its adjacency, in one edge scan.

        Writes ``weight``, ``out_sum`` and ``in_sum`` for the level's
        edges and actors, and returns successor lists and in-degrees
        over positions in ``acts`` (sorted, so a position compares like
        its actor index), in edge order, parallel edges included.
        """
        mark, pos, weight = self.mark, self.pos, self.weight
        out_sum, in_sum = self.out_sum, self.in_sum
        tnse, delay, token_size = self.tnse, self.delay, self.token_size

        # Cut cost of an edge, in words: TNSE(e) / g -- the tokens the
        # buffer holds per iteration of the loop factor g shared by the
        # whole (sub)graph -- plus initial tokens.
        g = 0
        for i, a in enumerate(acts):
            g = gcd(g, self.q[a])
            out_sum[a] = in_sum[a] = 0
            pos[a] = i
        succ: List[List[int]] = [[] for _ in acts]
        indeg = [0] * len(acts)
        for i, a in enumerate(acts):
            nxt = succ[i]
            for b, e in self.out[a]:
                if mark[b] == s:
                    j = pos[b]
                    nxt.append(j)
                    indeg[j] += 1
                    w = weight[e] = (tnse[e] // g + delay[e]) * token_size[e]
                    out_sum[a] += w
                    in_sum[b] += w
        return succ, indeg

    def _components(self, acts: List[int]) -> List[int]:
        """Order each connected component of ``acts`` in turn (a cut can
        disconnect a side), in the order of their first actors."""
        if len(acts) <= 1:
            return acts
        s = self._enter(acts)
        mark, out, inn = self.mark, self.out, self.inn
        components: List[List[int]] = []
        for start in acts:
            if mark[start] != s:
                continue
            mark[start] = -s  # visited
            comp = [start]
            for a in comp:  # grows while it is scanned
                for edges in (out[a], inn[a]):
                    for b, _ in edges:
                        if mark[b] == s:
                            mark[b] = -s
                            comp.append(b)
            components.append(sorted(comp))
        if len(components) == 1:
            return self.order(acts)
        return [a for comp in components for a in self.order(comp)]

    @staticmethod
    def _kahn(
        succ: List[List[int]], indeg: List[int],
        getrandbits: Optional[Callable[[int], int]] = None,
    ) -> List[int]:
        """A topological order of a level, as positions in its ``acts``.

        Without ``getrandbits``, Kahn's algorithm popping the lowest
        position, as :meth:`SDFGraph.topological_order` does.  With it,
        the draws and swaps of
        :func:`repro.sdf.topsort.random_topological_sort`, one
        ``randrange(len(ready))`` draw per pop.
        """
        deg = indeg[:]
        ready = [i for i, d in enumerate(deg) if d == 0]  # sorted: a heap
        order: List[int] = []
        if getrandbits is None:
            while ready:
                i = heappop(ready)
                order.append(i)
                for j in succ[i]:
                    deg[j] -= 1
                    if deg[j] == 0:
                        heappush(ready, j)
            return order
        while ready:
            n = len(ready)
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            ready[r], ready[-1] = ready[-1], ready[r]
            i = ready.pop()
            order.append(i)
            for j in succ[i]:
                deg[j] -= 1
                if deg[j] == 0:
                    ready.append(j)
        return order

    def _improve_cut(
        self, acts: List[int], s: int, size: int, lo: int, hi: int,
        max_passes: int = 4,
    ) -> None:
        """Greedy boundary improvement preserving legality and size bounds.

        A node may move right if none of its successors is in the left
        set; it may move left if all of its predecessors are.  Each
        pass applies the single best strictly improving move until none
        exists.  A move's cost delta touches only the moved node's own
        edges, so it is evaluated in O(deg) rather than by recomputing
        the whole cut.
        """
        mark, left, weight = self.mark, self.left, self.weight
        for _ in range(max_passes):
            best_delta = 0
            best_actor = -1
            for a in acts:
                if left[a] == s:
                    if size - 1 < lo or any(
                        left[b] == s for b, _ in self.out[a]
                    ):
                        continue
                    # All of a's out-edges stop crossing; in-edges from
                    # the remaining left set start crossing.
                    delta = sum(
                        weight[e] for b, e in self.inn[a] if left[b] == s
                    ) - self.out_sum[a]
                else:
                    if size + 1 > hi or any(
                        mark[b] == s and left[b] != s for b, _ in self.inn[a]
                    ):
                        continue
                    # All of a's in-edges stop crossing; out-edges to the
                    # right start crossing.
                    delta = sum(
                        weight[e] for b, e in self.out[a]
                        if mark[b] == s and left[b] != s
                    ) - self.in_sum[a]
                if delta < best_delta:
                    best_delta = delta
                    best_actor = a
            if best_actor < 0:
                break
            if self.recorder is not None:
                self.recorder.count("rpmc.moves")
            if left[best_actor] == s:
                left[best_actor] = 0
                size -= 1
            else:
                left[best_actor] = s
                size += 1
