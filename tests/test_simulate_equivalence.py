"""The block-level replay vs the naive reference implementation.

``repro.sdf.simulate`` answers ``max_tokens`` /
``coarse_live_intervals`` / ``max_live_tokens`` from one engine, the
block-level replay (``BlockScan``).  These tests pin the public
observables and the engine itself against ``repro.check.reference``,
which materializes the full per-firing token state, on the Table 1
systems and on random graphs, so any divergence between the replay and
the obvious semantics fails loudly.
"""

import pytest

from repro.apps import table1_graph
from repro.check.reference import (
    full_trace,
    reference_coarse_intervals,
    reference_max_live_tokens,
    reference_max_tokens,
)
from repro.scheduling.pipeline import implement
from repro.scheduling.vectorize import vectorize_schedule
from repro.sdf.random_graphs import random_sdf_graph
from repro.sdf.simulate import (
    BlockScan,
    coarse_live_intervals,
    max_live_tokens,
    max_tokens,
    validate_schedule,
)

SYSTEMS = [
    "satrec",
    "qmf12_3d",
    "16qamModem",
    "4pamxmitrec",
    "blockVox",
    "nqmf23_4d",
    "qmf23_2d",
]


def _schedules(graph):
    result = implement(graph, "apgan", verify=False)
    return [result.dppo_schedule, result.sdppo_schedule]


def _graphs():
    for name in SYSTEMS:
        yield name, table1_graph(name)
    for seed in (1, 9):
        yield f"random20_{seed}", random_sdf_graph(20, seed=seed)


@pytest.mark.parametrize("name,graph", list(_graphs()))
class TestIncrementalSimulatorEquivalence:
    """The public observables, as callers see them."""

    def test_max_tokens_matches_reference(self, name, graph):
        for schedule in _schedules(graph):
            assert max_tokens(graph, schedule) == reference_max_tokens(
                graph, schedule
            )

    def test_coarse_intervals_match_reference(self, name, graph):
        for schedule in _schedules(graph):
            assert coarse_live_intervals(
                graph, schedule
            ) == reference_coarse_intervals(graph, schedule)

    def test_max_live_tokens_matches_reference(self, name, graph):
        for schedule in _schedules(graph):
            assert max_live_tokens(
                graph, schedule
            ) == reference_max_live_tokens(graph, schedule)


# ---------------------------------------------------------------------------
# The block-level replay, called directly, vs the same references.
#
# The block engine earns its keep on *blocked* schedules (large
# per-leaf firing counts), so each system is checked both on its SDPPO
# schedule and on the unconstrained vectorization of it — the flat SAS
# end of the frontier, where every actor is one block.

def _blocked_schedules(graph):
    result = implement(graph, "rpmc", verify=False)
    vec = vectorize_schedule(graph, result.sdppo_schedule)
    return [result.sdppo_schedule, vec.schedule]


def _batched_graphs():
    for name in SYSTEMS:
        yield name, table1_graph(name)
    for seed in range(12):
        yield f"random15_{seed}", random_sdf_graph(15, seed=400 + seed)


@pytest.mark.parametrize("name,graph", list(_batched_graphs()))
class TestBatchedBackendEquivalence:
    def test_validate_matches_interpreter(self, name, graph):
        # The reference's full trace is the firing-at-a-time
        # interpreter: it must end where the block replay ends.
        for schedule in _blocked_schedules(graph):
            assert validate_schedule(
                graph, schedule
            ) == schedule.firings_per_actor()
            assert BlockScan(graph, schedule).tokens == full_trace(
                graph, schedule
            )[-1]

    def test_max_tokens_matches_reference(self, name, graph):
        for schedule in _blocked_schedules(graph):
            assert BlockScan(graph, schedule).peaks == reference_max_tokens(
                graph, schedule
            )

    def test_coarse_intervals_match_reference(self, name, graph):
        for schedule in _blocked_schedules(graph):
            assert BlockScan(
                graph, schedule
            ).intervals == reference_coarse_intervals(graph, schedule)

    def test_max_live_tokens_matches_reference(self, name, graph):
        for schedule in _blocked_schedules(graph):
            assert BlockScan(
                graph, schedule
            ).live_peak() == reference_max_live_tokens(graph, schedule)
