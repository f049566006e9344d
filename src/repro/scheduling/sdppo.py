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
That split recurrence is :func:`repro.scheduling.common.chain_dp`,
and DPPO's EQ 2 is its all-persistent case: with every buffer
persistent, ``max`` sees only zeros and the halves sum.

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
from .common import ChainContext, build_schedule_from_splits, chain_dp

__all__ = ["SDPPOResult", "sdppo"]


@dataclass
class SDPPOResult:
    """Outcome of an SDPPO run.

    ``cost`` is the shared-model buffer memory *estimate* in words;
    ``schedule`` the chosen nested SAS; ``b`` the DP cost rows;
    ``split`` the chosen split per window; ``factored`` the per-window
    factoring decisions.
    """

    cost: int
    schedule: LoopedSchedule
    order: List[str]
    b: List[List[int]]
    split: Dict[Tuple[int, int], int]
    factored: Dict[Tuple[int, int], bool]


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
    b, split, factored = chain_dp(
        context, shared=True, factoring=factoring, backend=backend
    )
    return SDPPOResult(
        cost=b[0][context.n - 1],
        schedule=build_schedule_from_splits(context, split, factored),
        order=list(order),
        b=b,
        split=split,
        factored=factored,
    )
