"""Ablation studies of the design choices DESIGN.md calls out.

The paper makes several explicit design decisions; each has a
measurable alternative:

* **Factoring heuristic** (section 5.1): factor a merge iff it has
  internal edges — versus always factoring or never factoring.
* **Precise chain DP vs EQ 5** (section 6): the triple DP exists
  because EQ 5 over-approximates on chains (figure 6: 140 vs 127).
* **First-fit ordering** (section 9.1): duration versus start-time
  ordering (the reference study found duration better on average).
* **Periodicity tracking** (section 8.4): exploiting periodic gaps
  versus treating every lifetime as its solid envelope
  (``occurrence_cap=0`` forces the solid fallback).
* **Buffer merging** (section 12 extension): CBP-zero merging on top
  of the base flow.

Each function measures one axis over a workload set and returns
comparable totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..sdf.graph import SDFGraph
from ..sdf.random_graphs import random_chain_graph, random_sdf_graph
from ..sdf.simulate import max_live_tokens
from ..allocation.first_fit import allocate
from ..scheduling.chain_sdppo import chain_sdppo
from ..scheduling.pipeline import implement
from ..scheduling.rpmc import rpmc
from ..scheduling.sdppo import sdppo
from ..extensions.buffer_merging import merged_allocation

__all__ = [
    "AblationRow",
    "ablate_factoring",
    "ablate_chain_dp",
    "ablate_orderings",
    "ablate_periodicity",
    "ablate_merging",
    "format_ablation",
]


@dataclass
class AblationRow:
    """One workload's totals under each variant, in words."""

    workload: str
    totals: Dict[str, int]

    def winner(self) -> str:
        return min(self.totals, key=self.totals.get)


def _graphs(
    seeds: Sequence[int], num_actors: int
) -> List[SDFGraph]:
    return [random_sdf_graph(num_actors, seed=s) for s in seeds]


def ablate_factoring(
    seeds: Sequence[int] = range(10), num_actors: int = 12
) -> List[AblationRow]:
    """Shared-model ground truth under each factoring policy."""
    rows = []
    for graph in _graphs(seeds, num_actors):
        order = rpmc(graph).order
        totals = {}
        for policy in ("auto", "always", "never"):
            schedule = sdppo(graph, order, factoring=policy).schedule
            totals[policy] = max_live_tokens(graph, schedule)
        rows.append(AblationRow(workload=graph.name, totals=totals))
    return rows


def ablate_chain_dp(
    seeds: Sequence[int] = range(10), num_actors: int = 8
) -> List[AblationRow]:
    """Precise triple DP versus the EQ 5 heuristic on chains."""
    rows = []
    for seed in seeds:
        graph = random_chain_graph(num_actors, seed=seed)
        order = graph.chain_order()
        eq5 = sdppo(graph, order).schedule
        precise = chain_sdppo(graph).schedule
        rows.append(
            AblationRow(
                workload=graph.name,
                totals={
                    "eq5": max_live_tokens(graph, eq5),
                    "triple_dp": max_live_tokens(graph, precise),
                },
            )
        )
    return rows


def ablate_orderings(
    seeds: Sequence[int] = range(10), num_actors: int = 15
) -> List[AblationRow]:
    """ffdur versus ffstart on identical lifetime instances."""
    rows = []
    for graph in _graphs(seeds, num_actors):
        result = implement(graph, "rpmc", verify=False)
        rows.append(
            AblationRow(
                workload=graph.name,
                totals={
                    "ffdur": result.ffdur_total,
                    "ffstart": result.ffstart_total,
                },
            )
        )
    return rows


def ablate_periodicity(
    seeds: Sequence[int] = range(6), num_actors: int = 12
) -> List[AblationRow]:
    """Periodic-aware intersection tests versus solid envelopes.

    Random graphs rarely interleave lifetimes; the filterbanks and the
    modem (whose nested loops create the figure 17 pattern) are where
    periodicity pays, so they join the workload set.
    """
    from ..apps import table1_graph

    graphs = _graphs(seeds, num_actors) + [
        table1_graph(n)
        for n in ("qmf23_2d", "qmf12_3d", "16qamModem", "phasedArray")
    ]
    rows = []
    for graph in graphs:
        result = implement(graph, "rpmc", verify=False)
        solid = [b.solid() for b in result.lifetimes.as_list()]
        rows.append(
            AblationRow(
                workload=graph.name,
                totals={
                    "periodic": result.best_shared_total,
                    "solid": allocate(solid).best.total,
                },
            )
        )
    return rows


def ablate_merging(
    systems: Optional[Sequence[str]] = None,
) -> List[AblationRow]:
    """Base flow versus base flow plus CBP-zero buffer merging."""
    from ..apps import table1_graph

    names = list(systems) if systems is not None else [
        "16qamModem", "blockVox", "overAddFFT", "satrec",
    ]
    rows = []
    for name in names:
        graph = table1_graph(name)
        result = implement(graph, "rpmc", verify=False)
        merged, applied = merged_allocation(graph, result.lifetimes)
        rows.append(
            AblationRow(
                workload=name,
                totals={
                    "base": result.allocation.total,
                    "merged": min(merged.total, result.allocation.total),
                },
            )
        )
    return rows


def format_ablation(title: str, rows: Sequence[AblationRow]) -> str:
    if not rows:
        return f"{title}: (no rows)"
    variants = list(rows[0].totals)
    header = f"{'workload':>14} " + " ".join(f"{v:>10}" for v in variants)
    lines = [title, header, "-" * len(header)]
    wins = {v: 0 for v in variants}
    for row in rows:
        lines.append(
            f"{row.workload:>14} "
            + " ".join(f"{row.totals[v]:>10}" for v in variants)
        )
        wins[row.winner()] += 1
    lines.append(
        "wins: " + ", ".join(f"{v}={wins[v]}" for v in variants)
    )
    return "\n".join(lines)
