"""Tests for the shared DP machinery (repro.scheduling.common)."""

import pytest

from repro.exceptions import GraphStructureError, ScheduleError
from repro.sdf.graph import SDFGraph
from repro.sdf.random_graphs import random_sdf_graph
from repro.sdf.repetitions import repetitions_vector, total_tokens_exchanged
from repro.scheduling.common import ChainContext, build_schedule_from_splits


def diamond():
    g = SDFGraph()
    g.add_actors("ABCD")
    g.add_edge("A", "B", 2, 1)
    g.add_edge("A", "C", 4, 2)
    g.add_edge("B", "D", 1, 2)
    g.add_edge("C", "D", 1, 2)
    return g


class TestConstruction:
    def test_wrong_actor_set(self):
        with pytest.raises(GraphStructureError):
            ChainContext(diamond(), ["A", "B", "C"])

    def test_non_topological_rejected(self):
        with pytest.raises(GraphStructureError):
            ChainContext(diamond(), ["B", "A", "C", "D"])

    def test_trusted_skips_check(self):
        # trusted=True lets callers that already validated skip the cost.
        ctx = ChainContext(diamond(), ["A", "B", "C", "D"], trusted=True)
        assert ctx.n == 4

    def test_window_gcd(self):
        g = diamond()
        ctx = ChainContext(g, ["A", "B", "C", "D"])
        q = repetitions_vector(g)
        assert ctx.window_gcd(0, 3) == 1
        from math import gcd
        assert ctx.window_gcd(1, 2) == gcd(q["B"], q["C"])


class TestCrossingCosts:
    def brute_crossing(self, graph, order, i, j, k):
        """Reference: direct sum over crossing edges."""
        q = repetitions_vector(graph)
        from math import gcd as _gcd
        g = 0
        for x in range(i, j + 1):
            g = _gcd(g, q[order[x]])
        position = {a: p for p, a in enumerate(order)}
        total = 0
        for e in graph.edges():
            ps, pt = position[e.source], position[e.sink]
            if i <= ps <= k < pt <= j:
                total += (
                    total_tokens_exchanged(e, q) * e.token_size // g
                    + e.delay * e.token_size
                )
        return total

    @pytest.mark.parametrize("seed", range(6))
    def test_incremental_matches_direct(self, seed):
        g = random_sdf_graph(9, seed=seed)
        order = g.topological_order()
        ctx = ChainContext(g, order)
        for i in range(ctx.n):
            for j in range(i + 1, ctx.n):
                costs = ctx.crossing_costs_for_window(i, j)
                for k in range(i, j):
                    assert costs[k - i] == ctx.crossing_cost(i, j, k)
                    assert costs[k - i] == self.brute_crossing(
                        g, order, i, j, k
                    )


class TestScheduleReconstruction:
    def test_missing_split_rejected(self):
        g = diamond()
        ctx = ChainContext(g, ["A", "B", "C", "D"])
        with pytest.raises(ScheduleError):
            build_schedule_from_splits(ctx, {}, {})

    def test_unfactored_split_keeps_child_factors(self):
        g = SDFGraph()
        g.add_actors(["u", "v", "x", "y"])
        g.add_edge("u", "v", 1, 2)   # q(u)=2 q(v)=1 ... no wait
        g.add_edge("x", "y", 1, 2)
        # q: u=2, v=1, x=2, y=1 (two disconnected pairs)
        ctx = ChainContext(g, ["u", "v", "x", "y"])
        schedule = build_schedule_from_splits(
            ctx,
            {(0, 3): 1, (0, 1): 0, (2, 3): 2},
            {(0, 3): False, (0, 1): True, (2, 3): True},
        )
        from repro.sdf.simulate import validate_schedule
        validate_schedule(g, schedule)
        # The unfactored top split must not wrap a common loop: each
        # pair keeps its own gcd-1 structure.
        assert schedule.firings_per_actor() == {"u": 2, "v": 1, "x": 2, "y": 1}
