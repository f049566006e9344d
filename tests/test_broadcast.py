"""Broadcast edges: one producer, k consumers, one shared buffer.

Covers the graph API (group construction and its invariants), JSON
round-tripping, lifetime extraction (the shared buffer is sized by the
*latest* consumer stop time and counted once), the sharing win over the
k-parallel-edges model, and execution equivalence across the VM, the
generated Python module, and the cc-compiled C self-check.
"""

import re

import pytest

from repro.exceptions import GraphStructureError
from repro.sdf.graph import SDFGraph
from repro.sdf.io import from_json, to_json
from repro.sdf.random_graphs import random_broadcast_sdf_graph
from repro.sdf.repetitions import is_consistent, repetitions_vector
from repro.sdf.simulate import (
    buffer_memory_nonshared,
    coarse_live_intervals,
    max_live_tokens,
    max_tokens,
)
from repro.lifetimes.granularity import fine_grained_peak
from repro.scheduling.pipeline import implement
from repro.allocation.verify import verify_allocation
from repro.codegen.vm import SharedMemoryVM
from repro.codegen.c_emitter import emit_c
from repro.check.harness import (
    broadcast_trial_graph,
    delayed_split_chain,
    trial_graph,
)
from repro.check.oracles import broadcast_oracles, build_artifacts

from .conftest import build_and_run_c, requires_cc


def diamond(delay: int = 0) -> SDFGraph:
    """S broadcasts to A and B; both feed T.  q = S:1 A:2 B:1 T:1."""
    g = SDFGraph("bdiamond")
    g.add_actors("SABT")
    g.add_broadcast("S", ["A", "B"], production=2, consumptions=[1, 2],
                    delay=delay)
    g.add_edge("A", "T", 1, 2)
    g.add_edge("B", "T", 1, 1)
    return g


def solo_groups(graph: SDFGraph) -> SDFGraph:
    """``graph`` with every plain non-self-loop edge tagged as a
    one-member broadcast group of its own."""
    tagged = SDFGraph(graph.name)
    for a in graph.actors():
        tagged.add_actor(a.name, a.execution_time)
    for i, e in enumerate(graph.edges()):
        solo = e.broadcast is None and not e.is_self_loop()
        tagged.add_edge(
            e.source, e.sink, e.production, e.consumption,
            delay=e.delay, token_size=e.token_size,
            broadcast=f"solo{i}" if solo else e.broadcast,
        )
    return tagged


def _observables(graph: SDFGraph, vectorize: bool):
    r = implement(graph, vectorize=vectorize)
    s = r.vectorize.schedule if vectorize else r.sdppo_schedule
    return (
        r.dppo_cost, str(r.dppo_schedule), r.sdppo_cost,
        str(r.sdppo_schedule), r.ffdur_total, r.ffstart_total,
        max_tokens(graph, s), coarse_live_intervals(graph, s),
        max_live_tokens(graph, s), buffer_memory_nonshared(graph, s),
        fine_grained_peak(graph, s),
    )


class TestOneMemberGroup:
    """A one-member broadcast group is a plain edge: every layer below
    the graph gives it the same schedules, costs and replay."""

    @pytest.mark.parametrize("vectorize", [False, True])
    @pytest.mark.parametrize(
        "generator", [trial_graph, delayed_split_chain, broadcast_trial_graph]
    )
    def test_matches_plain_edge(self, generator, vectorize):
        for seed in range(40):
            graph = generator(seed)
            tagged = solo_groups(graph)
            assert tagged.broadcast_names() or not graph.edges()
            assert _observables(tagged, vectorize) == _observables(
                graph, vectorize
            ), f"{generator.__name__}({seed})"


class TestGraphAPI:
    def test_group_construction(self):
        g = diamond()
        assert g.has_broadcasts()
        assert g.broadcast_names() == {"bc0"}
        members = g.broadcast_members("bc0")
        assert [m.sink for m in members] == ["A", "B"]
        assert all(m.source == "S" for m in members)
        assert all(m.production == 2 for m in members)
        assert [m.consumption for m in members] == [1, 2]
        assert is_consistent(g)
        assert repetitions_vector(g) == {"S": 1, "A": 2, "B": 1, "T": 1}

    def test_auto_naming_is_fresh(self):
        g = SDFGraph()
        g.add_actors("SABCD")
        g.add_broadcast("S", ["A", "B"], 1, [1, 1])
        g.add_broadcast("S", ["C", "D"], 1, [1, 1])
        assert g.broadcast_names() == {"bc0", "bc1"}

    def test_duplicate_group_name_rejected(self):
        g = diamond()
        with pytest.raises(GraphStructureError):
            g.add_broadcast("A", ["T"], 1, [1], name="bc0")

    def test_members_must_share_production(self):
        g = diamond()
        with pytest.raises(GraphStructureError):
            g.add_edge("S", "T", 3, 1, broadcast="bc0")

    def test_members_must_share_source(self):
        g = diamond()
        with pytest.raises(GraphStructureError):
            g.add_edge("A", "T", 2, 1, broadcast="bc0")

    def test_duplicate_sink_rejected(self):
        g = diamond()
        with pytest.raises(GraphStructureError):
            g.add_edge("S", "A", 2, 1, broadcast="bc0")

    def test_self_loop_member_rejected(self):
        g = diamond()
        with pytest.raises(GraphStructureError):
            g.add_edge("S", "S", 2, 2, broadcast="bc0")

    def test_without_broadcasts_keeps_dynamics(self):
        g = diamond()
        flat = g.without_broadcasts()
        assert not flat.has_broadcasts()
        assert flat.num_edges == g.num_edges
        assert repetitions_vector(flat) == repetitions_vector(g)


class TestIORoundTrip:
    @pytest.mark.parametrize("delay", [0, 2])
    def test_json_preserves_groups(self, delay):
        g = diamond(delay=delay)
        back = from_json(to_json(g))
        assert back.broadcast_names() == {"bc0"}
        assert [
            (m.sink, m.consumption, m.delay)
            for m in back.broadcast_members("bc0")
        ] == [
            (m.sink, m.consumption, m.delay)
            for m in g.broadcast_members("bc0")
        ]

    def test_ordinary_edges_have_no_broadcast_field(self):
        doc = to_json(diamond())
        by_sink = {e["sink"]: e for e in doc["edges"]}
        assert by_sink["A"].get("broadcast") == "bc0"
        assert "broadcast" not in by_sink["T"]


class TestLifetimesAndSharing:
    def test_group_buffer_counted_once(self):
        g = diamond()
        result = implement(g, "apgan")
        lifetimes = result.lifetimes
        members = g.broadcast_members("bc0")
        assert lifetimes.lifetimes[members[0].key] is (
            lifetimes.lifetimes[members[1].key]
        )
        # One buffer per ordinary edge, then the group's shared buffer.
        assert lifetimes.buffers[-1].members == tuple(members)
        assert len(lifetimes.as_list()) == 3

    def test_shared_cost_beats_parallel_model(self):
        g = diamond()
        shared = implement(g, "apgan")
        flat = implement(g.without_broadcasts(), "apgan")
        assert shared.lifetimes.total_size() <= flat.lifetimes.total_size()
        assert shared.allocation.total <= flat.allocation.total
        # The same schedule's unshared token memory also shrinks: the
        # group's buffer holds max(member counts), not their sum.
        assert buffer_memory_nonshared(g, flat.sdppo_schedule) <= (
            buffer_memory_nonshared(g.without_broadcasts(),
                                    flat.sdppo_schedule)
        )
        assert max_live_tokens(g, flat.sdppo_schedule) <= (
            max_live_tokens(g.without_broadcasts(), flat.sdppo_schedule)
        )

    def test_allocation_verifies(self):
        g = diamond()
        result = implement(g, "rpmc")
        verify_allocation(
            result.lifetimes.as_list(), result.allocation
        )

    def test_sharing_win_oracle_clean_on_random_graphs(self):
        for seed in (0, 1, 2, 3):
            g = random_broadcast_sdf_graph(
                6, seed=seed, num_groups=2, max_repetition=5,
                delayed_group_fraction=0.5,
            )
            art = build_artifacts(g, method="rpmc", seed=seed)
            assert broadcast_oracles(art) == []


class TestExecution:
    @pytest.mark.parametrize("delay", [0, 2])
    def test_vm_runs_and_counts_match(self, delay):
        g = diamond(delay=delay)
        result = implement(g, "apgan")
        vm = SharedMemoryVM(g, result.lifetimes, result.allocation)
        vm.run(periods=2)
        q = repetitions_vector(g)
        assert vm.firings_per_actor == {a: 2 * q[a] for a in q}
        assert vm.peak_address <= result.allocation.total

    def test_full_oracle_battery_clean(self):
        from repro.check.oracles import run_oracles

        art = build_artifacts(diamond(), method="apgan")
        assert run_oracles(art) == []

    def test_c_source_has_one_group_buffer(self):
        g = diamond()
        result = implement(g, "apgan")
        code = emit_c(g, result.lifetimes, result.allocation)
        # One shared define for the group, none per member edge.
        assert len(re.findall(r"#define BUF_S__BC0 ", code)) == 1
        assert "BUF_S_A" not in code and "BUF_S_B" not in code

    @requires_cc
    @pytest.mark.parametrize("delay", [0, 2])
    def test_c_self_check_passes(self, delay, tmp_path):
        g = diamond(delay=delay)
        result = implement(g, "apgan")
        code = emit_c(
            g, result.lifetimes, result.allocation,
            instrument=True, periods=2,
        )
        run = build_and_run_c(code, tmp_path, "bdiamond")
        assert run.returncode == 0, run.stderr
        assert "SELFCHECK OK" in run.stdout
