"""SDPPO: DPPO for the shared (coarse-grained) buffer model (section 5).

Under the coarse shared-buffer model, a buffer on an edge is an array
holding all tokens transferred during one live episode; disjoint-lifetime
arrays can overlay each other in memory.  SDPPO post-optimizes a lexical
order with the shared cost as objective (EQ 5):

    bufmem[i, j] = min_k  max(bufmem[i, k], bufmem[k+1, j]) + c_ij[k]

The intuition (figure 5): buffers entirely on the left of a split are
never live at the same time as buffers entirely on the right, so only
the larger side matters; the split-crossing buffers are live across both
and are added in full.

Edges with initial tokens break the "never live at the same time"
premise: a delayed edge's circular buffer carries its ``del(e)`` tokens
across the period boundary, so it is live during *every* instant of the
schedule and can never overlay anything.  The recurrence therefore
splits each cost into an episodic part (delayless buffers, combined
with ``max``) and a persistent part (delayed-edge buffers, always
summed); on delayless graphs the two formulations coincide exactly.

Factoring heuristic (section 5.1): factoring the gcd loop out of a
split-merge shrinks the crossing buffers but forces the left side's
input buffers to overlap the right side's output buffers.  Following the
paper, we factor exactly when the merge has internal (split-crossing)
edges, and leave the halves as consecutive unfactored loops otherwise.

The resulting ``bufmem[0, n-1]`` is the paper's ``sdppo`` *estimate*
(Table 1 columns ``sdppo(R)``/``sdppo(A)``); the actual memory usage is
determined afterwards by lifetime extraction and first-fit allocation,
and is typically within a few percent of the estimate (figure 27(d)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sdf.graph import SDFGraph
from ..sdf.schedule import LoopedSchedule
from .common import ChainContext, SplitTable, build_schedule_from_splits

__all__ = ["SDPPOResult", "sdppo"]


@dataclass
class SDPPOResult:
    """Outcome of an SDPPO run.

    ``cost`` is the shared-model buffer memory *estimate* in words;
    ``schedule`` the chosen nested SAS; ``table`` the DP cost table
    (derived on demand from the raw DP rows ``b``); ``split`` the chosen
    split per window; ``factored`` the per-window factoring decisions.
    """

    cost: int
    schedule: LoopedSchedule
    order: List[str]
    b: List[List[int]]
    split: Dict[Tuple[int, int], int]
    factored: Dict[Tuple[int, int], bool]

    @property
    def table(self) -> Dict[Tuple[int, int], int]:
        n = len(self.b)
        return {
            (i, j): self.b[i][j] for i in range(n) for j in range(i, n)
        }


def sdppo(
    graph: SDFGraph,
    order: Sequence[str],
    q: Optional[Dict[str, int]] = None,
    factoring: str = "auto",
    context: Optional[ChainContext] = None,
    backend: str = "python",
) -> SDPPOResult:
    """Shared-buffer-optimized SAS over a fixed lexical order (EQ 5).

    O(n^3).  The cost of a one-actor window is zero (a single actor has
    no internal buffers).

    ``factoring`` selects the section 5.1 policy: ``"auto"`` (the
    paper's heuristic — factor iff the merge has internal edges),
    ``"always"``, or ``"never"``.  The non-default policies exist for
    the ablation study (``benchmarks/bench_ablations.py``): figure 7
    shows either extreme can lose.

    ``backend`` selects the DP implementation exactly as in
    :func:`repro.scheduling.dppo.dppo`: ``"native"``/``"auto"`` run
    the cc-compiled kernel where available and eligible, bit-identical
    to the Python path, falling through silently otherwise.

    Examples
    --------
    The paper's figure 6 intuition: sharing takes the max of the two
    sides rather than their sum, so deep chains cost only their widest
    cut plus the crossing buffers along the way.

        >>> from repro.sdf.graph import SDFGraph
        >>> g = SDFGraph()
        >>> _ = g.add_actors("ABC")
        >>> _ = g.add_edge("A", "B", 10, 2)
        >>> _ = g.add_edge("B", "C", 2, 3)
        >>> result = sdppo(g, ["A", "B", "C"])
        >>> result.cost <= 36
        True
    """
    if factoring not in ("auto", "always", "never"):
        raise ValueError(f"unknown factoring policy {factoring!r}")
    if context is None:
        context = ChainContext(graph, order, q)
    n = context.n
    b = None
    if backend != "python" and context.use_native:
        from ..native import resolve_backend

        _, kernels = resolve_backend(backend)
        if kernels is not None:
            b, split, factored = kernels.dp_over_context(
                context, shared=True, factoring=factoring
            )
    if b is None and not context.has_delays:
        # Delayless graphs: every buffer is episodic, so EQ 5 is the
        # plain max-combiner recurrence.  b[i][j] = optimal cost of
        # window (i, j), kept both row-major and transposed so the
        # split scan zips two contiguous slices: the left halves
        # b[i][i..j-1] and the right halves b[i+1..j][j].
        b = [[0] * n for _ in range(n)]
        bT = [[0] * n for _ in range(n)]
        split = {}
        factored = {}
        for length in range(2, n + 1):
            for i in range(0, n - length + 1):
                j = i + length - 1
                costs = context.crossing_costs_for_window(i, j)
                bi = b[i]
                candidates = [
                    (x if x > y else y) + c
                    for x, y, c in zip(bi[i:j], bT[j][i + 1 : j + 1], costs)
                ]
                best = min(candidates)
                best_k = i + candidates.index(best)
                bi[j] = best
                bT[j][i] = best
                split[(i, j)] = best_k
                # Section 5.1 heuristic: factor iff the merge has
                # internal edges.  Crossing costs are strictly positive
                # whenever a crossing edge exists, so a zero cost means
                # the halves are independent; keep them unfactored so
                # their buffers stay disjoint (figure 7(a) vs 7(b)).
                if factoring == "auto":
                    factored[(i, j)] = costs[best_k - i] > 0
                else:
                    factored[(i, j)] = factoring == "always"
    elif b is None:
        # Delayed edges hold live tokens across the whole period, so
        # their circular buffers are *persistent* — they can never
        # share memory — while delayless buffers stay episodic and
        # share via max.  Split every window cost accordingly:
        #
        #   total(k) = max(ep_l, ep_r) + pers_l + pers_r + c_ij[k]
        #
        # The persistent part of the crossing cost is inside c_ij[k]
        # already (it cancels in the total), so only the chosen split
        # needs the extra pers_crossing_cost rectangle query to update
        # the episodic/persistent book tables.  On delayless inputs
        # every pers term is 0 and this reduces (including tie-breaks)
        # to the branch above.
        b = [[0] * n for _ in range(n)]
        ep = [[0] * n for _ in range(n)]
        epT = [[0] * n for _ in range(n)]
        pers = [[0] * n for _ in range(n)]
        persT = [[0] * n for _ in range(n)]
        split = {}
        factored = {}
        for length in range(2, n + 1):
            for i in range(0, n - length + 1):
                j = i + length - 1
                costs = context.crossing_costs_for_window(i, j)
                epi = ep[i]
                pi = pers[i]
                candidates = [
                    (x if x > y else y) + pl + pr + c
                    for x, y, pl, pr, c in zip(
                        epi[i:j],
                        epT[j][i + 1 : j + 1],
                        pi[i:j],
                        persT[j][i + 1 : j + 1],
                        costs,
                    )
                ]
                best = min(candidates)
                best_k = i + candidates.index(best)
                p_cross = context.pers_crossing_cost(i, j, best_k)
                new_pers = pi[best_k] + persT[j][best_k + 1] + p_cross
                b[i][j] = best
                pi[j] = new_pers
                persT[j][i] = new_pers
                epi[j] = best - new_pers
                epT[j][i] = best - new_pers
                split[(i, j)] = best_k
                if factoring == "auto":
                    factored[(i, j)] = costs[best_k - i] > 0
                else:
                    factored[(i, j)] = factoring == "always"

    schedule = build_schedule_from_splits(
        context, SplitTable(split=split, factored=factored)
    )
    return SDPPOResult(
        cost=b[0][n - 1],
        schedule=schedule,
        order=list(order),
        b=b,
        split=split,
        factored=factored,
    )
