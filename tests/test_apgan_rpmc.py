"""Tests for the APGAN and RPMC topological-sort heuristics."""

import random

import pytest

from repro.exceptions import GraphStructureError
from repro.sdf.graph import SDFGraph
from repro.sdf.random_graphs import random_sdf_graph
from repro.sdf.repetitions import repetitions_vector
from repro.sdf.simulate import validate_schedule
from repro.sdf.topsort import is_topological_order
from repro.scheduling.apgan import apgan
from repro.scheduling.dppo import dppo
from repro.scheduling.rpmc import _Cutter, rpmc


def cd_dat_like():
    g = SDFGraph()
    g.add_actors("ABCDEF")
    g.add_edge("A", "B", 1, 1)
    g.add_edge("B", "C", 2, 3)
    g.add_edge("C", "D", 2, 7)
    g.add_edge("D", "E", 8, 7)
    g.add_edge("E", "F", 5, 1)
    return g


class TestAPGAN:
    def test_schedule_is_valid_sas(self):
        g = cd_dat_like()
        result = apgan(g)
        validate_schedule(g, result.schedule)
        assert result.schedule.is_single_appearance()

    def test_order_is_topological(self):
        for seed in range(8):
            g = random_sdf_graph(15, seed=seed)
            result = apgan(g)
            assert is_topological_order(g, result.order)

    def test_clusters_largest_gcd_first(self):
        """A pair with a large repetition gcd ends up innermost."""
        g = SDFGraph()
        g.add_actors("ABC")
        g.add_edge("A", "B", 1, 10)   # q = (10, 1, ...) gcd(A,B) = 1
        g.add_edge("B", "C", 10, 1)   # q(C) = 10, gcd(B,C) = 1
        g2 = SDFGraph()
        g2.add_actors("XYZ")
        g2.add_edge("X", "Y", 1, 1)   # gcd(X,Y) = q
        g2.add_edge("Y", "Z", 5, 1)
        result = apgan(g2)
        # X and Y share repetition count, so they cluster first: the
        # schedule nests X and Y together inside the common loop.
        text = str(result.schedule)
        assert "X Y" in text or "(X Y)" in text or "X Y" in text.replace("(", " ").replace(")", " ")

    def test_rejects_cyclic(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 1, 1)
        g.add_edge("B", "A", 1, 1, delay=2)
        with pytest.raises(GraphStructureError):
            apgan(g)

    def test_rejects_empty(self):
        with pytest.raises(GraphStructureError):
            apgan(SDFGraph())

    def test_single_actor(self):
        g = SDFGraph()
        g.add_actor("A")
        result = apgan(g)
        assert result.order == ["A"]

    def test_disconnected_graph(self):
        g = SDFGraph()
        g.add_actors("ABCD")
        g.add_edge("A", "B", 2, 1)
        g.add_edge("C", "D", 1, 3)
        # Two components: APGAN merges within components but cannot
        # cluster across (no adjacency) — should raise the stall error.
        with pytest.raises(GraphStructureError):
            apgan(g)

    def test_apgan_near_bmlb_on_regular_graphs(self):
        """For gcd-friendly graphs APGAN provably hits the BMLB [3]."""
        from repro.sdf.bounds import bmlb
        g = SDFGraph()
        g.add_actors("ABCD")
        g.add_edge("A", "B", 4, 1)
        g.add_edge("B", "C", 2, 1)
        g.add_edge("C", "D", 2, 1)
        result = apgan(g)
        cost = dppo(g, result.order).cost
        assert cost == bmlb(g)


class TestRPMC:
    def test_order_is_topological(self):
        for seed in range(8):
            g = random_sdf_graph(15, seed=seed)
            result = rpmc(g, seed=seed)
            assert is_topological_order(g, result.order)

    def test_deterministic_for_seed(self):
        g = random_sdf_graph(20, seed=3)
        assert rpmc(g, seed=1).order == rpmc(g, seed=1).order

    def test_single_actor(self):
        g = SDFGraph()
        g.add_actor("A")
        assert rpmc(g).order == ["A"]

    def test_two_actors(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 2, 1)
        assert rpmc(g).order == ["A", "B"]

    def test_rejects_cyclic(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 1, 1)
        g.add_edge("B", "A", 1, 1, delay=2)
        with pytest.raises(GraphStructureError):
            rpmc(g)

    def test_prefers_small_cuts(self):
        """RPMC's top split should avoid cutting the heavy edge."""
        g = SDFGraph()
        g.add_actors("ABCD")
        g.add_edge("A", "B", 100, 100)  # heavy
        g.add_edge("B", "C", 1, 1)      # light
        g.add_edge("C", "D", 100, 100)  # heavy
        order = rpmc(g).order
        # Any topological order is ABCD here; check DPPO cost through
        # the RPMC order is sane.
        assert order == ["A", "B", "C", "D"]

    def test_pinned_cuts_moves_and_order(self, monkeypatch):
        """Counters and order of one seeded graph, pinned.

        At this seed the recursion takes one greedy boundary move and
        some cuts leave a side disconnected, so the per-component
        recursion runs too.
        """
        import importlib

        from repro.obs.recorder import TraceRecorder

        rpmc_module = importlib.import_module("repro.scheduling.rpmc")

        sides = []
        real = rpmc_module._Cutter._components

        def components(cutter, acts):
            sides.append(list(acts))
            return real(cutter, acts)

        monkeypatch.setattr(rpmc_module._Cutter, "_components", components)
        g = random_sdf_graph(20, seed=0)
        rec = TraceRecorder()
        order = rpmc(g, seed=0, recorder=rec).order
        assert rec.counter_totals() == {"rpmc.cuts": 6, "rpmc.moves": 1}
        assert order == [
            "n0", "n18", "n6", "n15", "n1", "n13", "n12", "n17", "n7",
            "n9", "n2", "n10", "n19", "n11", "n5", "n3", "n16", "n4",
            "n8", "n14",
        ]
        names = g.actor_names()
        disconnected = [
            side for side in sides
            if not g.subgraph([names[i] for i in side]).is_connected()
        ]
        assert disconnected

    def test_pinned_boundary_move_tie(self):
        """Two boundary moves tie on cost here; the first actor wins."""
        from repro.obs.recorder import TraceRecorder

        g = random_sdf_graph(8, seed=8, extra_edge_fraction=0.0)
        rec = TraceRecorder()
        order = rpmc(g, seed=7, recorder=rec).order
        assert rec.counter_totals() == {"rpmc.cuts": 3, "rpmc.moves": 1}
        assert order == ["n5", "n0", "n3", "n1", "n6", "n4", "n2", "n7"]

    def test_dag_schedules_through_dppo(self):
        for seed in range(6):
            g = random_sdf_graph(12, seed=100 + seed)
            order = rpmc(g, seed=seed).order
            result = dppo(g, order)
            validate_schedule(g, result.schedule)


class TestRPMCDraws:
    """The Kahn passes' inline draw is ``randrange``, draw for draw."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 20261017])
    def test_inline_draw_matches_randrange(self, seed):
        for n in range(1, 71):
            rng, ref = random.Random(seed), random.Random(seed)
            # On an antichain every pop draws over all ready positions,
            # so the order spells out randrange(n), ..., randrange(1).
            order = _Cutter._kahn([[] for _ in range(n)], [0] * n,
                                  rng.getrandbits)
            ready, expected = list(range(n)), []
            while ready:
                i = ref.randrange(len(ready))
                ready[i], ready[-1] = ready[-1], ready[i]
                expected.append(ready.pop())
            assert order == expected
            assert rng.getstate() == ref.getstate()


class TestHeuristicQuality:
    """Sanity: the heuristics should not be wildly worse than the
    deterministic topological order baseline."""

    @pytest.mark.parametrize("seed", range(5))
    def test_rpmc_not_much_worse_than_natural(self, seed):
        g = random_sdf_graph(15, seed=seed)
        natural = dppo(g, g.topological_order()).cost
        heuristic = dppo(g, rpmc(g, seed=seed).order).cost
        assert heuristic <= 3 * natural

    @pytest.mark.parametrize("seed", range(5))
    def test_apgan_not_much_worse_than_natural(self, seed):
        g = random_sdf_graph(15, seed=seed)
        natural = dppo(g, g.topological_order()).cost
        heuristic = dppo(g, apgan(g).order).cost
        assert heuristic <= 3 * natural
