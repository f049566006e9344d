"""Seeded workload inputs and the pinned outputs they are checked against.

The program only ever sees what these functions build.  The seed picks
the random graphs' structure and the op order; graph *sizes* are a
fixed spread, so runs with different seeds do the same amount of work
and their figures can be compared.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seed the benchmark runs with when none is given.
DEFAULT_SEED = 1
#: Held back for confirming a claimed gain on inputs the change was not
#: tuned on; do not use it while developing a change.
CONFIRM_SEED = 20261017

#: Table 1 systems with fewer than 100 actors, plus CD-DAT.  The two
#: 188-actor filterbanks are left out: one of their compiles costs as
#: much as about 40 of the others.
SYSTEMS = [
    "nqmf23_4d", "qmf23_2d", "qmf12_2d", "qmf12_3d", "qmf23_3d",
    "qmf235_2d", "qmf235_3d", "satrec", "16qamModem", "4pamxmitrec",
    "blockVox", "overAddFFT", "phasedArray", "cd2dat",
]

#: Systems a cold ``repro compile`` rotates over.
CLI_SYSTEMS = ["satrec", "16qamModem", "4pamxmitrec", "overAddFFT",
               "blockVox"]

#: Actor counts of the random graphs in one compile pass (two graphs of
#: each size, so no single graph's structure sets the tail).
RANDOM_SIZES = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
BROADCAST_SIZES = (12, 20, 28, 36)
#: Actor counts of the never-seen graphs of one serve pass, one a cycle.
MISS_SIZES = (10, 15, 20, 25, 30, 35, 40)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def pinned() -> Dict[str, Dict[str, int]]:
    """Best shared totals (words) per system: ``plain`` and ``vectorized``.

    Computed once from this repository and checked in; satrec's 262
    words is the paper's Table 1 figure.
    """
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        return json.load(fh)


def system_graph(name: str):
    from repro.apps import cd_to_dat, table1_graph

    return cd_to_dat() if name == "cd2dat" else table1_graph(name)


def compile_ops(seed: int) -> List[Tuple[str, object, bool]]:
    """One compile pass: ``(label, graph, vectorize)`` in seeded order.

    Every graph is compiled plain and with ``vectorize=True``.
    """
    from repro.sdf.random_graphs import (
        random_broadcast_sdf_graph,
        random_sdf_graph,
    )

    rng = rng_for("compile", seed)
    graphs = [(name, system_graph(name)) for name in SYSTEMS]
    for n in RANDOM_SIZES:
        for copy in "ab":
            label = f"rand{n}{copy}"
            graphs.append((label, random_sdf_graph(
                n, seed=rng.randrange(2 ** 31), name=label)))
    for n in BROADCAST_SIZES:
        graphs.append((f"bcast{n}", random_broadcast_sdf_graph(
            n, seed=rng.randrange(2 ** 31), name=f"bcast{n}")))
    ops = [(label, graph, vec) for label, graph in graphs
           for vec in (False, True)]
    rng.shuffle(ops)
    return ops


def cli_order(seed: int) -> List[str]:
    """One cold-CLI pass: every CLI system once, in seeded order."""
    order = list(CLI_SYSTEMS)
    rng_for("cli_cold", seed).shuffle(order)
    return order


def execute_order(seed: int) -> List[Tuple[str, str]]:
    """One execute pass: ``(system, engine)`` for both engines, seeded."""
    ops = [(name, engine) for name in SYSTEMS
           for engine in ("scalar", "batched")]
    rng_for("execute", seed).shuffle(ops)
    return ops


def miss_graph(seed: int, index: int):
    """The ``index``-th never-seen graph of the serve workload."""
    from repro.sdf.random_graphs import random_sdf_graph

    n = MISS_SIZES[index % len(MISS_SIZES)]
    graph_seed = rng_for(f"serve-miss-{index}", seed).randrange(2 ** 31)
    return random_sdf_graph(n, seed=graph_seed, name=f"miss{index}")


def serve_plan(seed: int) -> Dict[str, List]:
    """One serve pass of ``len(MISS_SIZES)`` cycles.

    Each cycle is 4 ``/compile`` hits, 1 ``/batch`` of 8 warm
    documents and 1 ``/compile`` miss.  Over a pass the hits cover
    every warm document twice and the batch windows every document
    four times.
    """
    rng = rng_for("serve", seed)
    cycles = len(MISS_SIZES)
    hits = SYSTEMS * 2
    rng.shuffle(hits)
    starts = list(range(0, len(SYSTEMS), 2))
    rng.shuffle(starts)
    batches = [[SYSTEMS[(s + k) % len(SYSTEMS)] for k in range(8)]
               for s in starts[:cycles]]
    return {"hits": [hits[4 * c:4 * c + 4] for c in range(cycles)],
            "batches": batches}
