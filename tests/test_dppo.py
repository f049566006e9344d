"""Tests for DPPO (non-shared dynamic programming post optimization)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.sdf.graph import SDFGraph
from repro.sdf.random_graphs import random_chain_graph, random_sdf_graph
from repro.sdf.repetitions import repetitions_vector
from repro.sdf.simulate import buffer_memory_nonshared, validate_schedule
from repro.scheduling.common import ChainContext, build_schedule_from_splits
from repro.scheduling.dppo import dppo
from repro.exceptions import GraphStructureError


def all_parenthesizations(i, j):
    """All binary split trees over window (i, j), as nested dicts."""
    if i == j:
        yield None
        return
    for k in range(i, j):
        for left in all_parenthesizations(i, k):
            for right in all_parenthesizations(k + 1, j):
                yield (k, left, right)


def tree_to_split_table(tree, i, j, split, factored):
    if tree is None:
        return
    k, left, right = tree
    split[(i, j)] = k
    factored[(i, j)] = True
    tree_to_split_table(left, i, k, split, factored)
    tree_to_split_table(right, k + 1, j, split, factored)


def brute_force_best(graph, order):
    """Minimum bufmem over all R-schedule parenthesizations, by simulation."""
    context = ChainContext(graph, order)
    n = context.n
    best = None
    for tree in all_parenthesizations(0, n - 1):
        split, factored = {}, {}
        tree_to_split_table(tree, 0, n - 1, split, factored)
        schedule = build_schedule_from_splits(context, split, factored)
        cost = buffer_memory_nonshared(graph, schedule)
        if best is None or cost < best:
            best = cost
    return best


class TestKnownValues:
    def test_three_actor_chain(self):
        g = SDFGraph()
        g.add_actors("ABC")
        g.add_edge("A", "B", 10, 2)
        g.add_edge("B", "C", 2, 3)
        result = dppo(g, ["A", "B", "C"])
        assert result.cost == 36
        assert str(result.schedule) == "(3A)(5(3B)(2C))"

    def test_figure1_graph(self):
        g = SDFGraph()
        g.add_actors("ABC")
        g.add_edge("A", "B", 2, 1, delay=1)
        g.add_edge("B", "C", 1, 3)
        result = dppo(g, ["A", "B", "C"])
        # With the delay the order-optimal cost is bounded by S2's 9.
        assert result.cost <= 9
        validate_schedule(g, result.schedule)

    def test_two_actors(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 4, 6)
        result = dppo(g, ["A", "B"])
        # (3A)(2B) factored by gcd 1; TNSE 12 / gcd(3,2)=1 -> 12
        assert result.cost == 12
        assert str(result.schedule) == "(3A)(2B)"

    def test_single_actor(self):
        g = SDFGraph()
        g.add_actor("A")
        result = dppo(g, ["A"])
        assert result.cost == 0
        assert str(result.schedule) == "A"


class TestScheduleValidity:
    @pytest.mark.parametrize("seed", range(6))
    def test_chain_schedules_valid(self, seed):
        g = random_chain_graph(7, seed=seed)
        result = dppo(g, g.chain_order())
        validate_schedule(g, result.schedule)
        assert result.schedule.is_single_appearance()

    @pytest.mark.parametrize("seed", range(6))
    def test_dag_schedules_valid(self, seed):
        g = random_sdf_graph(12, seed=seed)
        order = g.topological_order()
        result = dppo(g, order)
        validate_schedule(g, result.schedule)
        assert result.schedule.lexical_order() == order

    def test_non_topological_order_rejected(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 1, 1)
        with pytest.raises(GraphStructureError):
            dppo(g, ["B", "A"])


class TestCostCorrectness:
    """DPPO's reported cost must equal its schedule's simulated bufmem,
    and be minimal over all parenthesizations."""

    @pytest.mark.parametrize("seed", range(8))
    def test_cost_matches_simulation(self, seed):
        g = random_chain_graph(6, seed=seed)
        result = dppo(g, g.chain_order())
        assert result.cost == buffer_memory_nonshared(g, result.schedule)

    @pytest.mark.parametrize("seed", range(8))
    def test_order_optimality_small_chains(self, seed):
        g = random_chain_graph(5, seed=seed)
        order = g.chain_order()
        result = dppo(g, order)
        assert result.cost == brute_force_best(g, order)

    @pytest.mark.parametrize("seed", range(4))
    def test_order_optimality_small_dags(self, seed):
        g = random_sdf_graph(5, seed=seed)
        order = g.topological_order()
        result = dppo(g, order)
        assert result.cost == brute_force_best(g, order)

    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=25, deadline=None)
    def test_cost_matches_simulation_dags(self, seed):
        g = random_sdf_graph(8, seed=seed)
        order = g.topological_order()
        result = dppo(g, order)
        assert result.cost == buffer_memory_nonshared(g, result.schedule)


class TestDelays:
    def test_delay_cost_included(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 2, 3, delay=4)
        result = dppo(g, ["A", "B"])
        assert result.cost == buffer_memory_nonshared(g, result.schedule)

    @pytest.mark.parametrize("seed", range(5))
    def test_delayed_chain_cost_matches(self, seed):
        import random as _random
        rng = _random.Random(seed)
        g = SDFGraph()
        names = [f"x{i}" for i in range(5)]
        for n in names:
            g.add_actor(n)
        for u, v in zip(names, names[1:]):
            g.add_edge(u, v, rng.randint(1, 4), rng.randint(1, 4),
                       delay=rng.randint(0, 3))
        result = dppo(g, names)
        assert result.cost == buffer_memory_nonshared(g, result.schedule)
