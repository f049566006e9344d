"""Tests for the binary schedule tree (sections 8.1–8.3)."""

import pytest

from repro.exceptions import ScheduleError
from repro.lifetimes.schedule_tree import ScheduleTree
from repro.sdf.schedule import parse_schedule


class TestPaperTimeModel:
    """Section 8.1: 2(A 3B) takes 4 time steps; A's first invocation at
    0; the last invocation of 3B begins at 3 and ends at 4."""

    def test_two_a_three_b(self):
        tree = ScheduleTree(parse_schedule("2(A(3B))"))
        assert tree.total_duration() == 4
        assert tree.leaf("A").start == 0
        assert tree.leaf("B").start == 1
        # The leaf node's first invocation spans [1, 2); the last (in
        # iteration 2 of the outer loop) begins at 3 and ends at 4 —
        # expressed through the root's duration.
        assert tree.root.dur == 4
        assert tree.root.loop == 2
        assert tree.root.body_duration() == 2

    def test_leaf_duration_is_one(self):
        tree = ScheduleTree(parse_schedule("2(A(3B))"))
        assert tree.leaf("A").dur == 1
        assert tree.leaf("B").dur == 1
        assert tree.leaf("B").residual == 3


class TestConstruction:
    def test_rejects_multiple_appearance(self):
        with pytest.raises(ScheduleError):
            ScheduleTree(parse_schedule("A B A"))

    def test_flat_sas_binarized(self):
        tree = ScheduleTree(parse_schedule("(3A)(6B)(2C)"))
        assert tree.total_duration() == 3  # three leaf slots
        assert tree.leaf("A").start == 0
        assert tree.leaf("B").start == 1
        assert tree.leaf("C").start == 2

    def test_nested_loop_merging(self):
        # (2(3 A B)) == (6 A B) in tree form
        tree = ScheduleTree(parse_schedule("(2(3A B))"))
        assert tree.root.loop == 6
        assert tree.total_duration() == 12

    def test_unknown_actor_lookup(self):
        tree = ScheduleTree(parse_schedule("A B"))
        with pytest.raises(ScheduleError):
            tree.leaf("Z")

    def test_durations_fig13_style(self):
        # (3 (2 A B) C): body of outer = inner loop (dur 4) + C (1) = 5
        tree = ScheduleTree(parse_schedule("(3(2A B)C)"))
        assert tree.root.dur == 15
        assert tree.root.body_duration() == 5
        assert tree.leaf("C").start == 4

    def test_start_stop_computation(self):
        tree = ScheduleTree(parse_schedule("(2(2A B)(3C))"))
        # body: inner (2 A B) dur 4, then 3C dur 1 -> body 5, root 10
        assert tree.root.dur == 10
        assert tree.leaf("A").start == 0
        assert tree.leaf("B").start == 1
        inner = tree.leaf("A").parent
        assert inner.stop == 4  # both iterations of (2 A B)
        assert tree.leaf("C").start == 4


class TestQueries:
    def test_least_parent(self):
        tree = ScheduleTree(parse_schedule("(2(2A B)(3C))"))
        lp_ab = tree.least_parent("A", "B")
        assert lp_ab is tree.leaf("A").parent
        lp_ac = tree.least_parent("A", "C")
        assert lp_ac is tree.root

    def test_invocations_per_iteration(self):
        tree = ScheduleTree(parse_schedule("(2(2(3A) B)(3C))"))
        inner = tree.least_parent("A", "B")
        # Within one iteration of the inner loop's body A fires 3 times.
        assert tree.invocations_per_iteration("A", inner) == 3
        # Within one iteration of the root body: 2 iterations x 3.
        assert tree.invocations_per_iteration("A", tree.root) == 6

    def test_invocations_wrong_node_raises(self):
        tree = ScheduleTree(parse_schedule("(2A B)(3C)"))
        lp = tree.least_parent("A", "B")
        with pytest.raises(ScheduleError):
            tree.invocations_per_iteration("C", lp)

    def test_iter_nodes_covers_tree(self):
        tree = ScheduleTree(parse_schedule("(2(2A B)(3C))"))
        nodes = list(tree.iter_nodes())
        leaves = [n for n in nodes if n.is_leaf()]
        assert {n.actor for n in leaves} == {"A", "B", "C"}

    def test_actors(self):
        tree = ScheduleTree(parse_schedule("(2A B)(3C)"))
        assert set(tree.actors()) == {"A", "B", "C"}


class TestDurationInvariant:
    """dur(root) equals the number of leaf-slot invocations."""

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("A", 1),
            ("(4A)", 1),
            ("A B C", 3),
            ("(2A B)", 4),
            ("(2(3A B)C)", 14),
            ("(24(11(4A)B)C)", 24 * (11 * 2 + 1)),
        ],
    )
    def test_total_duration(self, text, expected):
        assert ScheduleTree(parse_schedule(text)).total_duration() == expected
