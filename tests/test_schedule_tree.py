"""Tests for the binary schedule tree (sections 8.1–8.3)."""

import random

import pytest

from repro.exceptions import ScheduleError
from repro.lifetimes.schedule_tree import ScheduleTree
from repro.sdf.schedule import Firing, Loop, LoopedSchedule, parse_schedule


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


def _flat(n):
    """``(2A0)(3A1)...``: the root chain is n - 1 levels deep."""
    return LoopedSchedule([Firing(f"A{i}", 2 + i % 3) for i in range(n)])


def _nested_chain(n):
    """``(2 A0 (3 A1 (1 A2 (2 ...))))``: n nested loops, one per actor."""
    node = Loop(2, (Firing(f"A{n - 1}", 2),))
    for i in range(n - 2, -1, -1):
        node = Loop(1 + i % 3, (Firing(f"A{i}", 1 + i % 2), node))
    return LoopedSchedule([node])


def _random_nested(seed, n):
    """A random loop nest over ``n`` actors with non-unit loops."""
    rng = random.Random(seed)
    names = iter(f"A{i}" for i in range(n))

    def build(k):
        if k == 1:
            return Firing(next(names), rng.randint(1, 3))
        parts = []
        while k:
            size = rng.randint(1, k)
            parts.append(build(size))
            k -= size
        if len(parts) == 1 and isinstance(parts[0], Firing):
            return parts[0]
        return Loop(rng.randint(1, 4), tuple(parts))

    return LoopedSchedule([build(n)])


def _path(node):
    """``node`` and its ancestors, nearest first."""
    path = []
    while node is not None:
        path.append(node)
        node = node.parent
    return path


def _brute_least_parent(tree, a, b):
    above_a = set(map(id, _path(tree.leaf(a))))
    return next(n for n in _path(tree.leaf(b)) if id(n) in above_a)


def _brute_stop(tree, node, actor):
    """Figure 16, walked: subtract right siblings passed from the left."""
    stop = node.start + node.body_duration()
    current = tree.leaf(actor)
    while current is not node:
        if current.parent.left is current:
            stop -= current.parent.right.dur
        current = current.parent
    return stop


def _brute_invocations(tree, actor, node):
    current = tree.leaf(actor)
    count = current.residual
    while current is not node:
        current = current.parent
        if current is not node:
            count *= current.loop
    return count


def _brute_occurrences(node):
    count = 1
    for n in _path(node):
        count *= n.loop
    return count


class TestLabels:
    """The pre-order labels against brute-force ancestor walks."""

    @pytest.mark.parametrize(
        "schedule",
        [_flat(100), _nested_chain(100), _random_nested(3, 60),
         _random_nested(11, 60)],
        ids=["flat100", "nested_chain100", "random_nest3", "random_nest11"],
    )
    def test_labels_match_walks(self, schedule):
        tree = ScheduleTree(schedule)
        actors = tree.actors()
        assert max(n.depth for n in tree.iter_nodes()) >= 10
        for node in tree.iter_nodes():
            assert node.depth == len(_path(node)) - 1
            assert node.loop_product == _brute_occurrences(node)
            periods = tuple(sorted(
                (n.body_duration(), n.loop) for n in _path(node) if n.loop > 1
            ))
            assert tree.periods(node) == periods
        rng = random.Random(len(actors))
        pairs = [(a, b) for a in actors[::7] for b in actors[::5]]
        pairs += [tuple(rng.sample(actors, 2)) for _ in range(200)]
        for a, b in pairs:
            lp = tree.least_parent(a, b)
            assert lp is _brute_least_parent(tree, a, b)
            for actor in (a, b):
                assert tree.stop_within(lp, actor) == _brute_stop(
                    tree, lp, actor
                )
                assert tree.invocations_per_iteration(
                    actor, lp
                ) == _brute_invocations(tree, actor, lp)
                assert tree.invocations_per_iteration(
                    actor, tree.root
                ) == _brute_invocations(tree, actor, tree.root)

    def test_stop_outside_node_raises(self):
        tree = ScheduleTree(parse_schedule("(2(2A B)(3C))"))
        with pytest.raises(ScheduleError):
            tree.stop_within(tree.least_parent("A", "B"), "C")

    def test_least_parent_of_an_actor_and_itself_is_its_leaf(self):
        tree = ScheduleTree(_nested_chain(10))
        assert tree.least_parent("A7", "A7") is tree.leaf("A7")
