"""Tests for schedule replay and token simulation."""

import pytest

from repro.exceptions import InconsistentGraphError, ScheduleError
from repro.obs import TraceRecorder
from repro.sdf.graph import SDFGraph
from repro.sdf.schedule import parse_schedule
from repro.sdf.simulate import (
    BlockScan,
    assert_deadlock_free,
    buffer_memory_nonshared,
    coarse_live_intervals,
    has_valid_schedule,
    is_valid_schedule,
    max_live_tokens,
    max_tokens,
    validate_schedule,
)


def figure1_graph():
    g = SDFGraph("fig1")
    g.add_actors("ABC")
    g.add_edge("A", "B", 2, 1, delay=1)
    g.add_edge("B", "C", 1, 3)
    return g


def delayless_fig1():
    g = SDFGraph()
    g.add_actors("ABC")
    g.add_edge("A", "B", 2, 1)
    g.add_edge("B", "C", 1, 3)
    return g


class TestPaperSection4:
    """max_tokens / bufmem values stated in section 4."""

    def test_s1_max_tokens(self):
        g = figure1_graph()
        s1 = parse_schedule("(3A)(6B)(2C)")
        assert max_tokens(g, s1)[("A", "B", 0)] == 7
        assert max_tokens(g, s1)[("B", "C", 0)] == 6

    def test_s2_max_tokens(self):
        g = figure1_graph()
        s2 = parse_schedule("(3A(2B))(2C)")
        assert max_tokens(g, s2)[("A", "B", 0)] == 3

    def test_bufmem_values(self):
        g = figure1_graph()
        assert buffer_memory_nonshared(g, parse_schedule("(3A)(6B)(2C)")) == 13
        assert buffer_memory_nonshared(g, parse_schedule("(3A(2B))(2C)")) == 9

    def test_token_size_scales_bufmem(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 2, 1, token_size=5)
        s = parse_schedule("A(2B)")
        assert buffer_memory_nonshared(g, s) == 10


class TestValidity:
    def test_valid_schedule_accepted(self):
        g = figure1_graph()
        counts = validate_schedule(g, parse_schedule("(3A)(6B)(2C)"))
        assert counts == {"A": 3, "B": 6, "C": 2}

    def test_multiple_periods_accepted(self):
        g = figure1_graph()
        validate_schedule(g, parse_schedule("(6A)(12B)(4C)"))

    def test_wrong_counts_rejected(self):
        g = figure1_graph()
        with pytest.raises(ScheduleError):
            validate_schedule(g, parse_schedule("(3A)(6B)(3C)"))

    def test_non_uniform_periods_rejected(self):
        g = figure1_graph()
        with pytest.raises(ScheduleError):
            validate_schedule(g, parse_schedule("(6A)(6B)(2C)"))

    def test_missing_actor_rejected(self):
        g = figure1_graph()
        with pytest.raises(ScheduleError):
            validate_schedule(g, parse_schedule("(3A)(6B)"))

    def test_unknown_actor_rejected(self):
        g = figure1_graph()
        with pytest.raises(ScheduleError):
            validate_schedule(g, parse_schedule("(3A)(6B)(2C)Z"))

    def test_negative_tokens_rejected(self):
        g = delayless_fig1()
        # C before B ever fires: starved.
        assert not is_valid_schedule(g, parse_schedule("(2C)(3A)(6B)"))

    def test_delay_enables_early_firing(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 1, 1, delay=1)
        # B can fire first using the initial token.
        assert is_valid_schedule(g, parse_schedule("B A"))


class TestBlockScan:
    def test_records_blocks_firings_and_peaks(self):
        g = delayless_fig1()
        scan = BlockScan(g, parse_schedule("(3A)(6B)(2C)"))
        assert (scan.blocks, scan.firings) == (3, 11)
        assert scan.peaks == {("A", "B", 0): 6, ("B", "C", 0): 6}
        assert scan.tokens == {("A", "B", 0): 0, ("B", "C", 0): 0}

    def test_nested_loops_replay_each_leaf_visit(self):
        g = delayless_fig1()
        scan = BlockScan(g, parse_schedule("(3A(2B))(2C)"))
        assert (scan.blocks, scan.firings) == (7, 11)
        assert scan.intervals[("A", "B", 0)] == [(0, 3), (3, 6), (6, 9)]


def _counters(fn, graph, schedule):
    rec = TraceRecorder()
    fn(graph, schedule, recorder=rec)
    return rec.counter_totals()


OBSERVABLES = [max_tokens, coarse_live_intervals, max_live_tokens]


class TestEngineChoice:
    """The input alone picks the engine; the recorder shows which ran."""

    def test_validate_always_replays_blocks(self):
        # Even a schedule the closed forms cover is replayed.
        totals = _counters(
            validate_schedule, delayless_fig1(),
            parse_schedule("(3A(2B))(2C)"),
        )
        assert totals["sim.blocks"] == 7
        assert "sim.symbolic_shortcuts" not in totals
        assert "sim.firings" not in totals

    @pytest.mark.parametrize("fn", OBSERVABLES)
    def test_delayless_topological_sas_takes_the_closed_forms(self, fn):
        totals = _counters(
            fn, delayless_fig1(), parse_schedule("(3A(2B))(2C)")
        )
        assert totals["sim.symbolic_shortcuts"] == 1
        assert "sim.blocks" not in totals
        assert "sim.firings" not in totals

    @pytest.mark.parametrize("fn", OBSERVABLES)
    @pytest.mark.parametrize("case", ["delay", "self_loop", "two_appearance"])
    def test_everything_else_replays_blocks(self, fn, case):
        if case == "delay":
            g, s = figure1_graph(), parse_schedule("(3A(2B))(2C)")
        elif case == "self_loop":
            g = delayless_fig1()
            g.add_edge("B", "B", 1, 1, delay=1)
            s = parse_schedule("(3A(2B))(2C)")
        else:
            g, s = delayless_fig1(), parse_schedule("(3A)(3B)(3B)(2C)")
        totals = _counters(fn, g, s)
        assert totals["sim.blocks"] >= 3
        assert totals["sim.block_firings"] == 11
        assert "sim.symbolic_shortcuts" not in totals
        assert "sim.firings" not in totals


class TestCoarseIntervals:
    def test_chain_each_edge_single_episode_flat(self):
        g = delayless_fig1()
        s = parse_schedule("(3A)(6B)(2C)")
        intervals = coarse_live_intervals(g, s)
        assert len(intervals[("A", "B", 0)]) == 1
        assert len(intervals[("B", "C", 0)]) == 1
        # AB live from after A's first firing (0) until B's last (9).
        assert intervals[("A", "B", 0)] == [(0, 9)]

    def test_nested_schedule_multiple_episodes(self):
        g = delayless_fig1()
        s = parse_schedule("(3A(2B))(2C)")
        intervals = coarse_live_intervals(g, s)
        assert len(intervals[("A", "B", 0)]) == 3  # empties per outer loop

    def test_delayed_edge_live_at_start(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 1, 1, delay=2)
        s = parse_schedule("A B A B")  # wait: needs q multiples
        intervals = coarse_live_intervals(g, s)
        assert intervals[("A", "B", 0)][0][0] == 0

    def test_max_live_tokens_flat_vs_nested(self):
        g = delayless_fig1()
        flat = max_live_tokens(g, parse_schedule("(3A)(6B)(2C)"))
        nested = max_live_tokens(g, parse_schedule("(3A(2B))(2C)"))
        assert nested <= flat


class TestDeadlock:
    def test_acyclic_always_deadlock_free(self):
        assert has_valid_schedule(delayless_fig1())

    def test_cycle_without_delay_deadlocks(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 1, 1)
        g.add_edge("B", "A", 1, 1)
        with pytest.raises(InconsistentGraphError) as exc:
            assert_deadlock_free(g)
        assert exc.value.kind == "deadlock"

    def test_cycle_with_delay_schedulable(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 1, 1)
        g.add_edge("B", "A", 1, 1, delay=1)
        schedule = assert_deadlock_free(g)
        assert is_valid_schedule(g, schedule)

    def test_constructed_schedule_is_valid(self):
        g = figure1_graph()
        schedule = assert_deadlock_free(g)
        validate_schedule(g, schedule)

    def test_insufficient_cycle_delay(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 2, 2)
        g.add_edge("B", "A", 2, 2, delay=1)
        assert not has_valid_schedule(g)
