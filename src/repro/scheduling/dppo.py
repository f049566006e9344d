"""DPPO: dynamic programming post optimization, non-shared model (section 4).

Given an SDF graph and a lexical ordering (a topological sort), DPPO
computes the loop hierarchy minimizing the *non-shared* buffer memory
requirement ``bufmem(S) = sum_e max_tokens(e, S)`` (EQ 1) over all
single appearance schedules with that lexical order — the
*order-optimal* schedule.  The recurrence (EQ 2):

    b[i, j] = min_{i <= k < j}  b[i, k] + b[k+1, j] + c_ij[k]

with ``c_ij[k]`` the total size of buffers crossing the split (EQ 3):
the crossing edges' ``TNSE`` divided by ``gcd(q_i..q_j)`` — the loop
factor the split shares — plus initial tokens.

This is the paper's baseline: Table 1's ``dppo(R)`` and ``dppo(A)``
columns post-optimize the RPMC- and APGAN-generated lexical orders with
this algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sdf.graph import SDFGraph
from ..sdf.schedule import LoopedSchedule
from .common import ChainContext, build_schedule_from_splits, chain_dp

__all__ = ["DPPOResult", "dppo"]


@dataclass
class DPPOResult:
    """Outcome of a DPPO run.

    Attributes
    ----------
    cost:
        Order-optimal non-shared buffer memory requirement, in words.
    schedule:
        The order-optimal nested single appearance schedule.
    order:
        The lexical order the optimization was performed over.
    b:
        The DP cost rows: ``b[i][j]`` is the optimal cost of window
        ``(i, j)``.
    split:
        The chosen split ``k`` per window ``(i, j)``.
    """

    cost: int
    schedule: LoopedSchedule
    order: List[str]
    b: List[List[int]]
    split: Dict[Tuple[int, int], int]


def dppo(
    graph: SDFGraph,
    order: Sequence[str],
    q: Optional[Dict[str, int]] = None,
    context: Optional[ChainContext] = None,
    backend: str = "python",
) -> DPPOResult:
    """Order-optimal SAS under the non-shared buffer model.

    Runs in O(n^3) time for ``n`` actors (plus edge bookkeeping).
    ``context`` supplies a prebuilt :class:`ChainContext` for ``order``
    (e.g. from a compilation session) so DPPO and SDPPO runs over the
    same order share one precomputation.

    The DP is :func:`~repro.scheduling.common.chain_dp` under the
    non-shared model, where every buffer is persistent.  ``backend``
    is its keyword: ``"python"`` (the default) runs the scalar
    recurrence, ``"native"`` or ``"auto"`` the cc-compiled kernel where
    available and eligible — bit-identical results either way, with a
    silent fall-through to the Python path when the kernel cannot run.

    Examples
    --------
    For the chain ``A -10/2-> B -2/3-> C`` (repetitions 3, 15, 10) the
    order-optimal schedule is ``(3A)(5(3B)(2C))`` with cost 30 + 6::

        >>> from repro.sdf.graph import SDFGraph
        >>> g = SDFGraph()
        >>> _ = g.add_actors("ABC")
        >>> _ = g.add_edge("A", "B", 10, 2)
        >>> _ = g.add_edge("B", "C", 2, 3)
        >>> result = dppo(g, ["A", "B", "C"])
        >>> result.cost
        36
        >>> str(result.schedule)
        '(3A)(5(3B)(2C))'
    """
    if context is None:
        context = ChainContext(graph, order, q)
    b, split, _ = chain_dp(context, shared=False, backend=backend)
    return DPPOResult(
        cost=b[0][context.n - 1],
        schedule=build_schedule_from_splits(context, split, {}),
        order=list(order),
        b=b,
        split=split,
    )
