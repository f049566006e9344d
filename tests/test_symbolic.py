"""The loop-compressed symbolic engine vs the naive reference.

The symbolic engine (``repro.sdf.symbolic``) claims bit-identical
results on delayless, self-loop-free graphs under full topological
single appearance schedules, in time independent of the firing count.
These tests pin the closed forms on worked examples, sweep 200+ seeded
random graphs differentially against ``repro.check.reference``, verify
every fallback to the block-level replay, and exercise the firing-time
clock the schedule tree grew for the engine.
"""

import random

import pytest

from repro.check.reference import (
    full_trace,
    reference_coarse_intervals,
    reference_max_live_tokens,
    reference_max_tokens,
)
from repro.exceptions import ScheduleError
from repro.lifetimes.periodic import PeriodicLifetime
from repro.lifetimes.schedule_tree import ScheduleTree
from repro.scheduling.dppo import dppo
from repro.scheduling.sdppo import sdppo
from repro.sdf.graph import SDFGraph
from repro.sdf.random_graphs import random_chain_graph, random_sdf_graph
from repro.sdf.repetitions import repetitions_vector
from repro.sdf.schedule import (
    flat_single_appearance_schedule,
    parse_schedule,
)
from repro.sdf.simulate import BlockScan, max_tokens, validate_schedule
from repro.sdf.symbolic import SymbolicTrace


def two_actor_graph():
    g = SDFGraph()
    g.add_actors("AB")
    g.add_edge("A", "B", production=2, consumption=1)
    return g


class TestClosedForms:
    """Worked examples with hand-derived expected values."""

    def test_single_loop_pair(self):
        g = two_actor_graph()
        s = parse_schedule("(2A(2B))")
        trace = SymbolicTrace.try_build(g, s)
        assert trace is not None
        key = ("A", "B", 0)
        assert trace.max_tokens() == {key: 2}
        assert trace.coarse_live_intervals() == {key: [(0, 3), (3, 6)]}
        assert trace.max_live_tokens() == 2

    def test_nested_sink_loops(self):
        # (2A(2B(2C))): the consumer C of edge A->C sits two loops deep,
        # so the episode stop needs the between-loop last-iteration
        # offsets.  Firing sequence A B C C B C C | ... : the A->C
        # episode runs from firing 0 to C's fourth firing at index 7.
        g = SDFGraph()
        g.add_actors("ABC")
        g.add_edge("A", "B", 2, 1)
        g.add_edge("B", "C", 2, 1)
        g.add_edge("A", "C", 4, 1)
        s = parse_schedule("(2A(2B(2C)))")
        trace = SymbolicTrace.try_build(g, s)
        assert trace is not None
        assert trace.coarse_live_intervals()[("A", "C", 0)] == [(0, 7), (7, 14)]
        assert trace.coarse_live_intervals()[("B", "C", 0)] == [
            (1, 4), (4, 7), (8, 11), (11, 14),
        ]
        assert trace.max_tokens() == {
            ("A", "B", 0): 2, ("B", "C", 0): 2, ("A", "C", 0): 4,
        }
        # A->C's 4-word array is live the whole period; the A->B episode
        # (2 words) and one B->C episode (2 words) stack on top of it.
        assert trace.max_live_tokens() == 8
        assert BlockScan(g, s).live_peak() == 8
        assert reference_max_live_tokens(g, s) == 8

    def test_token_sizes_scale_words_not_peaks(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 2, 1, token_size=5)
        s = parse_schedule("(2A(2B))")
        trace = SymbolicTrace.try_build(g, s)
        assert trace.max_tokens() == {("A", "B", 0): 2}  # tokens
        assert trace.max_live_tokens() == 10  # words

    def test_episode_lifetime_is_periodic(self):
        g = two_actor_graph()
        trace = SymbolicTrace.try_build(g, parse_schedule("(2A(2B))"))
        lt = trace.edge_lifetime(("A", "B", 0))
        assert isinstance(lt, PeriodicLifetime)
        assert (lt.start, lt.duration) == (0, 3)
        assert lt.periods == ((3, 2),)
        assert lt.total_span == 6


class TestSupportGate:
    """Everything outside the closed forms must decline to build."""

    def test_delay_declines(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 2, 1, delay=1)
        assert SymbolicTrace.try_build(g, parse_schedule("(2A(2B))")) is None

    def test_self_loop_declines(self):
        g = two_actor_graph()
        g.add_edge("B", "B", 1, 1, delay=1)
        assert SymbolicTrace.try_build(g, parse_schedule("(2A(2B))")) is None

    def test_non_single_appearance_declines(self):
        g = two_actor_graph()
        s = parse_schedule("A B A B")
        assert not s.is_single_appearance()
        assert SymbolicTrace.try_build(g, s) is None

    def test_partial_schedule_declines(self):
        # (1A)(1B) on A-2/1->B: both actors appear, but firing counts
        # are unbalanced; the naive peak formula would report 2 where
        # the block replay (correctly) rejects the schedule.
        g = two_actor_graph()
        assert SymbolicTrace.try_build(g, parse_schedule("A B")) is None

    def test_non_topological_order_declines(self):
        g = two_actor_graph()
        assert SymbolicTrace.try_build(g, parse_schedule("(4B)(2A)")) is None

    def test_missing_actor_declines(self):
        g = two_actor_graph()
        g.add_actor("C")
        assert SymbolicTrace.try_build(g, parse_schedule("(2A(2B))")) is None


class TestBackendDispatch:
    def test_auto_falls_back_on_delay(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 2, 1, delay=1)
        s = parse_schedule("(2A(2B))")
        assert max_tokens(g, s) == BlockScan(g, s).peaks == \
            reference_max_tokens(g, s)

    def test_auto_falls_back_on_invalid_schedule(self):
        # Non-topological SAS: the symbolic gate declines, and the
        # block replay's underflow error must surface unchanged.
        g = two_actor_graph()
        s = parse_schedule("(4B)(2A)")
        with pytest.raises(ScheduleError, match="tokens"):
            max_tokens(g, s)

    def test_validate_schedule_counts_identical(self):
        g = two_actor_graph()
        s = parse_schedule("(2A(2B))")
        assert SymbolicTrace.try_build(g, s) is not None
        assert validate_schedule(g, s) == s.firings_per_actor() == \
            {"A": 2, "B": 4}

    def test_validate_still_rejects_bad_counts_first(self):
        g = two_actor_graph()
        with pytest.raises(ScheduleError, match="multiple"):
            validate_schedule(g, parse_schedule("(2A)(3B)"))


def _assert_backends_agree(graph, schedule):
    """One differential trial: every observable, bit for bit."""
    trace = SymbolicTrace.try_build(graph, schedule)
    assert trace is not None, f"expected symbolic support for {schedule}"
    # Acceptance claims validity: the naive replay returns every edge
    # to its initial state.
    snapshots = full_trace(graph, schedule)
    assert snapshots[-1] == snapshots[0]
    for label, sym, ref in (
        ("max_tokens", trace.max_tokens(),
         reference_max_tokens(graph, schedule)),
        ("coarse_live_intervals", trace.coarse_live_intervals(),
         reference_coarse_intervals(graph, schedule)),
        ("max_live_tokens", trace.max_live_tokens(),
         reference_max_live_tokens(graph, schedule)),
    ):
        assert sym == ref, (
            f"{label} disagrees on {graph.name}, {schedule}: "
            f"{sym} != {ref}"
        )


class TestDifferentialSweep:
    """≥200 seeded trials: random delayless SAS graphs, three schedule
    shapes each (flat, DPPO, SDPPO), symbolic vs reference."""

    def test_random_graphs(self):
        trials = 0
        for seed in range(70):
            rng = random.Random(seed)
            graph = random_sdf_graph(
                rng.randint(2, 8), seed=seed, max_repetition=6
            )
            q = repetitions_vector(graph)
            order = graph.topological_order()
            schedules = [flat_single_appearance_schedule(order, q)]
            if len(order) >= 2:
                schedules.append(dppo(graph, order, q).schedule)
                schedules.append(sdppo(graph, order, q).schedule)
            for schedule in schedules:
                _assert_backends_agree(graph, schedule)
                trials += 1
        assert trials >= 200

    def test_random_chains(self):
        for seed in range(20):
            graph = random_chain_graph(5, seed=seed)
            q = repetitions_vector(graph)
            order = graph.topological_order()
            _assert_backends_agree(
                graph, sdppo(graph, order, q).schedule
            )

    def test_blocked_schedules(self):
        # Counts that are a uniform multiple of q (blocking factor 3).
        g = two_actor_graph()
        _assert_backends_agree(g, parse_schedule("(6A(2B))"))


class TestHighRateScaling:
    """The whole point: cost independent of the repetitions vector."""

    def test_matches_interpreter_at_moderate_scale(self):
        s = 1000
        g = SDFGraph()
        g.add_actors("ABC")
        g.add_edge("A", "B", s, 1)
        g.add_edge("B", "C", 1, s)
        _assert_backends_agree(g, parse_schedule(f"A({s}B)C"))

    def test_closed_form_at_extreme_scale(self):
        # 2e12 firings per period: a firing-at-a-time replay could never
        # run this; the symbolic answers follow from the closed forms,
        # and the block replay validates it in three blocks.
        s = 10 ** 12
        g = SDFGraph()
        g.add_actors("ABC")
        g.add_edge("A", "B", s, 1)
        g.add_edge("B", "C", 1, s)
        schedule = parse_schedule(f"A({s}B)C")
        trace = SymbolicTrace.try_build(g, schedule)
        assert trace.max_tokens() == max_tokens(g, schedule) == {
            ("A", "B", 0): s, ("B", "C", 0): s,
        }
        assert trace.max_live_tokens() == 2 * s
        assert validate_schedule(g, schedule) == {
            "A": 1, "B": s, "C": 1,
        }


class TestFiringClock:
    """The schedule tree's second clock (fdur/fstart/body_firings)."""

    def test_fdur_counts_firings_not_invocations(self):
        tree = ScheduleTree(parse_schedule("(2A(3B))"))
        assert tree.total_duration() == 4   # schedule-step clock
        assert tree.total_firings() == 8    # 2 * (1 + 3)
        assert tree.leaf("B").fdur == 3
        assert tree.leaf("B").fstart == 1
        assert tree.root.body_firings() == 4

    def test_leaf_body_firings_is_residual(self):
        tree = ScheduleTree(parse_schedule("(4A)(6B)"))
        assert tree.leaf("A").body_firings() == 4
        assert tree.leaf("B").fstart == 4
        assert tree.total_firings() == 10


class TestFromBasis:
    def test_drops_unit_loops_and_sorts(self):
        lt = PeriodicLifetime.from_basis(
            "x", size=1, start=0, duration=2,
            basis=[(9, 2), (1, 1), (3, 3)],
        )
        assert lt.periods == ((3, 3), (9, 2))

    def test_empty_after_unit_drop(self):
        lt = PeriodicLifetime.from_basis(
            "x", size=1, start=5, duration=2, basis=[(7, 1)],
        )
        assert lt.periods == ()
        assert list(lt.intervals()) == [(5, 7)]
