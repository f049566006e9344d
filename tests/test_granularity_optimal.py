"""Tests for the granularity sweep (figure 3) and the exact DSA oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.reference import reference_peak_token_words
from repro.scheduling.pipeline import implement
from repro.sdf.graph import SDFGraph
from repro.sdf.schedule import parse_schedule
from repro.sdf.random_graphs import random_broadcast_sdf_graph, random_chain_graph
from repro.lifetimes.granularity import fine_grained_peak, granularity_levels
from repro.lifetimes.periodic import PeriodicLifetime
from repro.allocation.clique import mcw_pessimistic
from repro.allocation.first_fit import ffdur, ffstart
from repro.allocation.optimal import optimal_allocation
from repro.allocation.verify import verify_allocation
from repro.scheduling.dppo import dppo


class TestGranularity:
    def paper_fragment(self):
        """Section 5's example: 7(5A 2(2B 3C)), C producing 1/firing."""
        g = SDFGraph()
        g.add_actors("ABCD")
        g.add_edge("A", "B", 4, 5)     # 5A then 2(2B...): 20 tokens
        g.add_edge("B", "C", 3, 2)     # 2B then 3C per inner loop
        g.add_edge("C", "D", 1, 42)    # C -> D, 1 token per firing
        schedule = parse_schedule("(7(5A)(2(2B)(3C)))(1D)")
        return g, schedule

    def test_monotone_non_increasing(self):
        g, s = self.paper_fragment()
        levels = granularity_levels(g, s)
        values = [v for _, v in levels]
        assert values == sorted(values, reverse=True)

    def test_coarser_at_least_fine(self):
        g, s = self.paper_fragment()
        fine = fine_grained_peak(g, s)
        for _, v in granularity_levels(g, s):
            assert v >= fine

    def test_depths_cover_nesting(self):
        g, s = self.paper_fragment()
        levels = granularity_levels(g, s)
        assert levels[0][0] == 0
        assert len(levels) >= 3  # schedule has two loop levels

    @pytest.mark.parametrize("seed", range(4))
    def test_random_chain_monotone(self, seed):
        g = random_chain_graph(5, seed=seed)
        s = dppo(g, g.chain_order()).schedule
        levels = granularity_levels(g, s)
        values = [v for _, v in levels]
        assert values == sorted(values, reverse=True)
        assert values[-1] >= fine_grained_peak(g, s)

    @pytest.mark.parametrize("seed", range(30))
    def test_broadcast_group_charged_once(self, seed):
        # A broadcast group is one shared buffer: the fine peak charges
        # it at its largest member count (the reference's accounting),
        # not once per member, and every depth stays above it.
        g = random_broadcast_sdf_graph(6, seed=seed)
        s = implement(g, "rpmc", verify=False).sdppo_schedule
        fine = fine_grained_peak(g, s)
        assert fine == reference_peak_token_words(g, s)
        values = [v for _, v in granularity_levels(g, s)]
        assert values == sorted(values, reverse=True)
        assert values[-1] >= fine

    def test_single_firing_schedule(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 1, 1)
        levels = granularity_levels(g, parse_schedule("A B"))
        assert levels[0][1] == 1


def solid(name, size, start, duration):
    return PeriodicLifetime(name=name, size=size, start=start, duration=duration)


class TestOptimalDSA:
    def test_beats_or_matches_first_fit(self):
        buffers = [
            solid("a", 4, 0, 6), solid("b", 3, 2, 6),
            solid("c", 2, 5, 6), solid("d", 4, 9, 4),
        ]
        opt = optimal_allocation(buffers)
        verify_allocation(buffers, opt)
        assert opt.total <= ffdur(buffers).total
        assert opt.total <= ffstart(buffers).total

    def test_at_least_mcw(self):
        buffers = [solid("a", 3, 0, 5), solid("b", 4, 2, 5), solid("c", 2, 3, 5)]
        opt = optimal_allocation(buffers)
        assert opt.total == mcw_pessimistic(buffers) == 9

    def test_finds_interleaving_optimum(self):
        """First-fit-by-duration can be suboptimal; the exact solver
        must find the interleaved packing."""
        buffers = [
            solid("long", 2, 0, 10),
            solid("left", 3, 0, 4),
            solid("right", 3, 6, 4),
            solid("mid", 2, 4, 2),
        ]
        opt = optimal_allocation(buffers)
        verify_allocation(buffers, opt)
        assert opt.total == 5  # long + max(left/right/mid layers)

    def test_zero_size_buffers(self):
        buffers = [solid("a", 2, 0, 3), solid("z", 0, 0, 9)]
        opt = optimal_allocation(buffers)
        assert opt.total == 2
        assert "z" in opt.offsets

    def test_empty_instance(self):
        opt = optimal_allocation([])
        assert opt.total == 0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_instances_bracketed(self, seed):
        import random as _random
        rng = _random.Random(seed)
        buffers = [
            solid(
                f"b{i}", rng.randint(1, 4), rng.randint(0, 8),
                rng.randint(1, 6),
            )
            for i in range(rng.randint(2, 7))
        ]
        opt = optimal_allocation(buffers)
        verify_allocation(buffers, opt)
        mcw = mcw_pessimistic(buffers)  # exact for solid instances
        ff = min(ffdur(buffers).total, ffstart(buffers).total)
        assert mcw <= opt.total <= ff
        # Known bound: chromatic number <= 1.25 * MCW is conjectured
        # tight; on small instances we should stay well within 2x.
        assert opt.total <= 2 * mcw
