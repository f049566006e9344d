"""Tests for buffer lifetime extraction (section 8) against simulation.

The extraction computes lifetimes analytically on the schedule tree; the
simulator measures them by running the schedule.  Episode counts, sizes,
and (critically) pairwise disjointness must agree — a lifetime pair the
analysis calls disjoint but the execution overlaps would corrupt memory.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.reference import reference_episode_sizes
from repro.exceptions import ScheduleError
from repro.lifetimes.intervals import extract_lifetimes
from repro.lifetimes.schedule_tree import ScheduleTree
from repro.sdf.graph import SDFGraph
from repro.sdf.random_graphs import random_chain_graph, random_sdf_graph
from repro.sdf.repetitions import repetitions_vector, total_tokens_exchanged
from repro.sdf.schedule import parse_schedule
from repro.sdf.simulate import coarse_live_intervals
from repro.scheduling.dppo import dppo
from repro.scheduling.sdppo import sdppo


def fig17_setup():
    """A graph + schedule realizing figure 15/17: 2(2(A B C D) E).

    With an edge (A, B), buffer AB has start 0, dur 2, a = (4, 9),
    loops (2, 2) — live [0,2], [4,6], [9,11], [13,15].
    """
    g = SDFGraph()
    g.add_actors("ABCDE")
    g.add_edge("A", "B", 1, 1)
    schedule = parse_schedule("(2(2A B C D)E)")
    return g, schedule


class TestFigure17:
    def test_ab_lifetime_matches_paper(self):
        g, schedule = fig17_setup()
        lifetimes = extract_lifetimes(g, schedule)
        ab = lifetimes.lifetimes[("A", "B", 0)]
        assert ab.start == 0
        assert ab.duration == 2
        assert ab.periods == ((4, 2), (9, 2))
        assert list(ab.intervals()) == [(0, 2), (4, 6), (9, 11), (13, 15)]


class TestBasicExtraction:
    def test_simple_chain_flat(self):
        g = SDFGraph()
        g.add_actors("ABC")
        g.add_edge("A", "B", 2, 1)
        g.add_edge("B", "C", 1, 3)
        schedule = parse_schedule("(3A)(6B)(2C)")
        ls = extract_lifetimes(g, schedule)
        ab = ls.lifetimes[("A", "B", 0)]
        assert ab.size == 6
        assert ab.start == 0
        assert ab.periods == ()
        bc = ls.lifetimes[("B", "C", 0)]
        assert bc.size == 6
        assert bc.start == 1
        assert bc.duration == 2  # leaf B slot through leaf C slot

    def test_nested_chain_sizes(self):
        g = SDFGraph()
        g.add_actors("ABC")
        g.add_edge("A", "B", 2, 1)
        g.add_edge("B", "C", 1, 3)
        schedule = parse_schedule("(3A(2B))(2C)")
        ls = extract_lifetimes(g, schedule)
        ab = ls.lifetimes[("A", "B", 0)]
        assert ab.size == 2          # per episode: one A firing
        assert ab.num_occurrences == 3
        bc = ls.lifetimes[("B", "C", 0)]
        assert bc.size == 6

    def test_token_size_scales(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 2, 1, token_size=4)
        ls = extract_lifetimes(g, parse_schedule("A(2B)"))
        assert ls.lifetimes[("A", "B", 0)].size == 8

    def test_delayed_edge_whole_period(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 1, 1, delay=2)
        ls = extract_lifetimes(g, parse_schedule("A B"))
        lt = ls.lifetimes[("A", "B", 0)]
        assert lt.start == 0
        assert lt.duration == ls.total_span
        assert lt.size == 1 + 2  # transfer + delay

    def test_missing_actor_rejected(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 1, 1)
        with pytest.raises(ScheduleError):
            extract_lifetimes(g, parse_schedule("A"))

    def test_non_topological_schedule_rejected(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 1, 1)
        with pytest.raises(ScheduleError):
            extract_lifetimes(g, parse_schedule("B A"))

    def test_total_size(self):
        g = SDFGraph()
        g.add_actors("ABC")
        g.add_edge("A", "B", 1, 1)
        g.add_edge("B", "C", 1, 1)
        ls = extract_lifetimes(g, parse_schedule("A B C"))
        assert ls.total_size() == 2


def _episode_ground_truth(graph, schedule):
    """(episode count, episode size) per delay-free edge, by simulation."""
    sizes = {e.key: [] for e in graph.edges() if not e.delay}
    for key, _, _, words in reference_episode_sizes(graph, schedule):
        if key in sizes:
            sizes[key].append(words)
    return {
        key: (len(words), max(words) if words else 0)
        for key, words in sizes.items()
    }


class TestAgainstSimulation:
    """Analytical lifetimes must match measured coarse episodes."""

    @pytest.mark.parametrize("seed", range(10))
    def test_chain_episode_counts_and_sizes(self, seed):
        g = random_chain_graph(6, seed=seed)
        schedule = dppo(g, g.chain_order()).schedule
        ls = extract_lifetimes(g, schedule)
        truth = _episode_ground_truth(g, schedule)
        for key, (count, size) in truth.items():
            lt = ls.lifetimes[key]
            assert lt.num_occurrences == count, f"{key}: episode count"
            assert lt.size == size, f"{key}: episode size"

    @pytest.mark.parametrize("seed", range(10))
    def test_dag_episode_counts_and_sizes(self, seed):
        g = random_sdf_graph(9, seed=seed)
        schedule = sdppo(g, g.topological_order()).schedule
        ls = extract_lifetimes(g, schedule)
        truth = _episode_ground_truth(g, schedule)
        for key, (count, size) in truth.items():
            lt = ls.lifetimes[key]
            assert lt.num_occurrences == count, f"{key}: episode count"
            assert lt.size == size, f"{key}: episode size"

    @pytest.mark.parametrize("seed", range(8))
    def test_claimed_disjointness_is_safe(self, seed):
        """If the periodic model says two buffers never overlap, their
        simulated firing-time episodes must not overlap either."""
        g = random_sdf_graph(8, seed=1000 + seed)
        schedule = sdppo(g, g.topological_order()).schedule
        ls = extract_lifetimes(g, schedule)
        sim = coarse_live_intervals(g, schedule)
        tree = ls.tree

        # Map schedule steps to firing indices: replay the tree.
        firing_of_step = []
        def walk(node):
            if node.is_leaf():
                firing_of_step.append((node.actor, node.residual))
                return
            for _ in range(node.loop):
                walk(node.left)
                walk(node.right)
        walk(tree.root)
        # step s covers firings [cum[s], cum[s+1])
        cum = [0]
        for _, count in firing_of_step:
            cum.append(cum[-1] + count)

        edges = [e for e in g.edges() if e.delay == 0]
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                a, b = edges[i], edges[j]
                la, lb = ls.lifetimes[a.key], ls.lifetimes[b.key]
                if la.overlaps(lb):
                    continue
                # Claimed disjoint: simulated firing intervals must be too.
                for sa, ta in sim[a.key]:
                    for sb, tb in sim[b.key]:
                        assert ta <= sb or tb <= sa, (
                            f"{la.name} and {lb.name} claimed disjoint but "
                            f"simulate as overlapping ({sa},{ta}) ({sb},{tb})"
                        )
