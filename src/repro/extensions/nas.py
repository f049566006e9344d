"""n-appearance schedules (paper section 11.1.4, after Sung et al.).

Single appearance schedules minimize code size but can pay dearly in
buffer memory: an actor that must fire many times back to back fills
its output buffers completely before anything drains them.  Sung et
al. [25] let selected actors appear *twice* (or more), splitting their
firings, and show the buffer reduction can be significant — a
systematic code-size/buffer-memory trade-off.

This module implements a two-appearance search over *slot sequences*:
a generalized lexical order whose entries are ``(actor, firing_count)``
slots.  For each actor we try splitting its firings into two slots at
every insertion point of the order; each candidate flat schedule is
validated and costed by simulation (both the non-shared ``bufmem`` and
the coarse shared peak), and the best trade-off per extra appearance is
reported.  Small and exact rather than heuristic-at-scale: the paper's
point — two appearances can beat every SAS — is demonstrated, and the
machinery composes with the rest of the flow (the returned schedule is
an ordinary :class:`~repro.sdf.schedule.LoopedSchedule`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sdf.graph import SDFGraph
from ..sdf.repetitions import repetitions_vector
from ..sdf.schedule import Firing, LoopedSchedule
from ..sdf.simulate import (
    buffer_memory_nonshared,
    is_valid_schedule,
    max_live_tokens,
)

__all__ = ["TwoAppearanceResult", "two_appearance_search"]


@dataclass
class TwoAppearanceResult:
    """Best two-appearance schedule found for one graph.

    ``sas_cost`` is the flat SAS baseline over the same lexical order;
    ``cost`` the best two-appearance cost under the same metric;
    ``split_actor`` the duplicated actor (None if no split helped).
    """

    schedule: LoopedSchedule
    cost: int
    sas_cost: int
    split_actor: Optional[str]
    metric: str


def two_appearance_search(
    graph: SDFGraph,
    order: Optional[Sequence[str]] = None,
    metric: str = "nonshared",
    max_fractions: Sequence[int] = (2, 3, 4),
) -> TwoAppearanceResult:
    """Search two-appearance flat schedules derived from a lexical order.

    Parameters
    ----------
    metric:
        ``"nonshared"`` (sum of per-edge peaks — Sung et al.'s metric)
        or ``"shared"`` (coarse-model live peak).
    max_fractions:
        For each actor with repetition count ``q``, the first slot gets
        ``ceil(q / f)`` firings for each ``f`` here (``q`` permitting).

    The search preserves the relative order of all other actors, moving
    only the second slot of the split actor to later positions, which
    keeps every candidate topological if the input order was.
    """
    if metric not in ("nonshared", "shared"):
        raise ValueError(f"unknown metric {metric!r}")
    q = repetitions_vector(graph)
    chosen = list(order) if order is not None else graph.topological_order()

    def cost_of(schedule: LoopedSchedule) -> int:
        if metric == "nonshared":
            return buffer_memory_nonshared(graph, schedule)
        return max_live_tokens(graph, schedule)

    baseline = LoopedSchedule([Firing(a, q[a]) for a in chosen])
    best_schedule = baseline
    best_cost = cost_of(baseline)
    sas_cost = best_cost
    best_actor: Optional[str] = None

    for index, actor in enumerate(chosen):
        total = q[actor]
        if total < 2:
            continue
        first_counts = sorted(
            {max(1, (total + f - 1) // f) for f in max_fractions if f >= 2}
        )
        for first in first_counts:
            second = total - first
            if second < 1:
                continue
            # Second slot at each later insertion point.
            for position in range(index + 1, len(chosen) + 1):
                slots: List[Tuple[str, int]] = []
                for pos, other in enumerate(chosen):
                    if pos == index:
                        slots.append((actor, first))
                    else:
                        slots.append((other, q[other]))
                    if pos + 1 == position:
                        slots.append((actor, second))
                if position == len(chosen):
                    pass  # already appended via pos+1 == position above
                schedule = LoopedSchedule(
                    [Firing(a, c) for a, c in slots]
                )
                if not is_valid_schedule(graph, schedule):
                    continue
                candidate = cost_of(schedule)
                if candidate < best_cost:
                    best_cost = candidate
                    best_schedule = schedule
                    best_actor = actor

    return TwoAppearanceResult(
        schedule=best_schedule,
        cost=best_cost,
        sas_cost=sas_cost,
        split_actor=best_actor,
        metric=metric,
    )
