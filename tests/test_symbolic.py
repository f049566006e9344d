"""Hand-derived buffer profiles and high-rate schedules, replayed.

These cases once pinned the loop-compressed symbolic engine; that
engine is gone, and the same expectations now hold the public
observables (``max_tokens``, ``coarse_live_intervals``,
``max_live_tokens``), which the block replay answers for every input.
The worked examples carry values derived by hand, 200+ seeded random
graphs and chains are swept differentially against
``repro.check.reference``, and an ``A(sB)C`` chain at s = 10^12 shows
the replay's cost follows blocks, not firings.
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
from repro.scheduling.dppo import dppo
from repro.scheduling.sdppo import sdppo
from repro.sdf.graph import SDFGraph
from repro.sdf.random_graphs import random_chain_graph, random_sdf_graph
from repro.sdf.repetitions import repetitions_vector
from repro.sdf.schedule import (
    flat_single_appearance_schedule,
    parse_schedule,
)
from repro.sdf.simulate import (
    BlockScan,
    coarse_live_intervals,
    max_live_tokens,
    max_tokens,
    validate_schedule,
)


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
        key = ("A", "B", 0)
        assert max_tokens(g, s) == {key: 2}
        assert coarse_live_intervals(g, s) == {key: [(0, 3), (3, 6)]}
        assert max_live_tokens(g, s) == 2

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
        intervals = coarse_live_intervals(g, s)
        assert intervals[("A", "C", 0)] == [(0, 7), (7, 14)]
        assert intervals[("B", "C", 0)] == [
            (1, 4), (4, 7), (8, 11), (11, 14),
        ]
        assert max_tokens(g, s) == {
            ("A", "B", 0): 2, ("B", "C", 0): 2, ("A", "C", 0): 4,
        }
        # A->C's 4-word array is live the whole period; the A->B episode
        # (2 words) and one B->C episode (2 words) stack on top of it.
        assert max_live_tokens(g, s) == 8
        assert reference_max_live_tokens(g, s) == 8

    def test_token_sizes_scale_words_not_peaks(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 2, 1, token_size=5)
        s = parse_schedule("(2A(2B))")
        assert max_tokens(g, s) == {("A", "B", 0): 2}  # tokens
        assert max_live_tokens(g, s) == 10  # words

    def test_episode_lifetime_is_periodic(self):
        # The replayed episodes are the occurrences of one periodic
        # lifetime on the firing clock: start 0, 3 firings long,
        # repeated every 3 firings by the 2-iteration loop.
        g = two_actor_graph()
        lt = PeriodicLifetime.from_basis(
            "A->B", size=2, start=0, duration=3, basis=[(3, 2)],
            total_span=6,
        )
        episodes = coarse_live_intervals(g, parse_schedule("(2A(2B))"))
        assert episodes[("A", "B", 0)] == list(lt.intervals())


class TestBackendDispatch:
    """Delayed and invalid inputs: the replay answers, or raises the
    error a firing-at-a-time replay would."""

    def test_auto_falls_back_on_delay(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 2, 1, delay=1)
        s = parse_schedule("(2A(2B))")
        assert max_tokens(g, s) == reference_max_tokens(g, s)

    def test_auto_falls_back_on_invalid_schedule(self):
        # Non-topological SAS: the block replay's underflow error.
        g = two_actor_graph()
        s = parse_schedule("(4B)(2A)")
        with pytest.raises(ScheduleError, match="tokens"):
            max_tokens(g, s)

    def test_validate_schedule_counts_identical(self):
        g = two_actor_graph()
        s = parse_schedule("(2A(2B))")
        assert validate_schedule(g, s) == s.firings_per_actor() == \
            {"A": 2, "B": 4}

    def test_validate_still_rejects_bad_counts_first(self):
        g = two_actor_graph()
        with pytest.raises(ScheduleError, match="multiple"):
            validate_schedule(g, parse_schedule("(2A)(3B)"))


def _assert_matches_reference(graph, schedule):
    """One differential trial: every observable, bit for bit."""
    # A valid schedule: the naive replay returns every edge to its
    # initial state, and the block replay accepts it.
    snapshots = full_trace(graph, schedule)
    assert snapshots[-1] == snapshots[0]
    validate_schedule(graph, schedule)
    for label, got, ref in (
        ("max_tokens", max_tokens(graph, schedule),
         reference_max_tokens(graph, schedule)),
        ("coarse_live_intervals", coarse_live_intervals(graph, schedule),
         reference_coarse_intervals(graph, schedule)),
        ("max_live_tokens", max_live_tokens(graph, schedule),
         reference_max_live_tokens(graph, schedule)),
    ):
        assert got == ref, (
            f"{label} disagrees on {graph.name}, {schedule}: "
            f"{got} != {ref}"
        )


class TestDifferentialSweep:
    """≥200 seeded trials: random delayless SAS graphs, three schedule
    shapes each (flat, DPPO, SDPPO), replay vs reference."""

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
                _assert_matches_reference(graph, schedule)
                trials += 1
        assert trials >= 200

    def test_random_chains(self):
        for seed in range(20):
            graph = random_chain_graph(5, seed=seed)
            q = repetitions_vector(graph)
            order = graph.topological_order()
            _assert_matches_reference(
                graph, sdppo(graph, order, q).schedule
            )

    def test_blocked_schedules(self):
        # Counts that are a uniform multiple of q (blocking factor 3).
        g = two_actor_graph()
        _assert_matches_reference(g, parse_schedule("(6A(2B))"))


class TestHighRateScaling:
    """High rates: the replay's cost follows blocks, not firings."""

    def test_matches_interpreter_at_moderate_scale(self):
        s = 1000
        g = SDFGraph()
        g.add_actors("ABC")
        g.add_edge("A", "B", s, 1)
        g.add_edge("B", "C", 1, s)
        _assert_matches_reference(g, parse_schedule(f"A({s}B)C"))

    def test_closed_form_at_extreme_scale(self):
        # 2e12 firings per period: a firing-at-a-time replay could never
        # run this; the block replay answers every observable in three
        # blocks, against values derived by hand.
        s = 10 ** 12
        g = SDFGraph()
        g.add_actors("ABC")
        g.add_edge("A", "B", s, 1)
        g.add_edge("B", "C", 1, s)
        schedule = parse_schedule(f"A({s}B)C")
        assert BlockScan(g, schedule).blocks == 3
        assert max_tokens(g, schedule) == {
            ("A", "B", 0): s, ("B", "C", 0): s,
        }
        assert coarse_live_intervals(g, schedule) == {
            ("A", "B", 0): [(0, s + 1)], ("B", "C", 0): [(1, s + 2)],
        }
        assert max_live_tokens(g, schedule) == 2 * s
        assert validate_schedule(g, schedule) == {
            "A": 1, "B": s, "C": 1,
        }


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
