"""Tests for the WIG, first-fit allocation, and clique bounds (section 9)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import AllocationError
from repro.lifetimes.periodic import DEFAULT_OCCURRENCE_CAP, PeriodicLifetime
from repro.allocation.clique import (
    clique_weight_at,
    mcw_exact_occurrences,
    mcw_optimistic,
    mcw_pessimistic,
)
from repro.allocation.first_fit import Allocation, ffdur, ffstart, first_fit
from repro.allocation.intersection_graph import build_intersection_graph
from repro.allocation.verify import find_conflicts, verify_allocation


def solid(name, size, start, duration):
    return PeriodicLifetime(name=name, size=size, start=start, duration=duration)


class TestIntersectionGraph:
    def test_overlapping_pair_adjacent(self):
        buffers = [solid("a", 1, 0, 5), solid("b", 1, 3, 5)]
        wig = build_intersection_graph(buffers)
        assert wig.are_adjacent(0, 1)
        assert wig.num_edges() == 1

    def test_disjoint_pair_not_adjacent(self):
        buffers = [solid("a", 1, 0, 3), solid("b", 1, 3, 3)]
        wig = build_intersection_graph(buffers)
        assert not wig.are_adjacent(0, 1)

    def test_periodic_interleaving_not_adjacent(self):
        a = PeriodicLifetime("a", 1, 0, 2, periods=((4, 3),))
        b = PeriodicLifetime("b", 1, 2, 2, periods=((4, 3),))
        wig = build_intersection_graph([a, b])
        assert not wig.are_adjacent(0, 1)

    def test_degree(self):
        buffers = [solid("a", 1, 0, 10), solid("b", 1, 1, 2), solid("c", 1, 5, 2)]
        wig = build_intersection_graph(buffers)
        assert wig.degree(0) == 2
        assert wig.degree(1) == 1


def random_lifetime(rng, name):
    """A solid or nested-periodic lifetime; starts collide often."""
    periods = []
    a = rng.randint(1, 6)
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        loop = rng.randint(2, 4)
        periods.append((a, loop))
        a = a * (loop - 1) + rng.randint(0, 4)
    duration = rng.randint(1, periods[0][0] if periods else 30)
    return PeriodicLifetime(
        name, rng.randint(0, 4), rng.randrange(20), duration,
        periods=tuple(periods),
    )


def all_pairs_wig(buffers, occurrence_cap=DEFAULT_OCCURRENCE_CAP):
    """Every pair through ``overlaps``, inserted in start order."""
    order = sorted(range(len(buffers)), key=lambda i: buffers[i].start)
    neighbors = [set() for _ in buffers]
    for a_pos, i in enumerate(order):
        for j in order[a_pos + 1:]:
            if buffers[i].overlaps(buffers[j], occurrence_cap=occurrence_cap):
                neighbors[i].add(j)
                neighbors[j].add(i)
    return neighbors


class TestIntersectionGraphSweep:
    """The sweep's shortcuts against brute-force ``overlaps``."""

    @pytest.mark.parametrize("cap", [DEFAULT_OCCURRENCE_CAP, 4, 1])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_all_pairs_overlaps(self, seed, cap):
        rng = random.Random(seed)
        buffers = [
            random_lifetime(rng, f"b{i}") for i in range(rng.randint(2, 40))
        ]
        wig = build_intersection_graph(buffers, occurrence_cap=cap)
        reference = all_pairs_wig(buffers, occurrence_cap=cap)
        assert wig.neighbors == reference
        # Same insertion order too: set iteration order, which
        # fault injection's edge shuffle reads, follows it.
        assert [list(n) for n in wig.neighbors] == [
            list(n) for n in reference
        ]

    def test_equal_starts_are_adjacent(self):
        buffers = [
            PeriodicLifetime("p", 1, 3, 1, periods=((4, 2),)),
            solid("s", 1, 3, 1),
            PeriodicLifetime("q", 1, 3, 2, periods=((2, 3),)),
        ]
        wig = build_intersection_graph(buffers)
        assert wig.num_edges() == 3

    def test_touching_half_open_ends_are_not_adjacent(self):
        periodic = PeriodicLifetime("p", 1, 0, 2, periods=((4, 3),))
        assert periodic.last_stop == 10
        for first in (solid("s", 1, 0, 10), periodic):
            wig = build_intersection_graph([first, solid("t", 1, 10, 3)])
            assert not wig.are_adjacent(0, 1)
            assert wig.neighbors == all_pairs_wig(wig.buffers)

    def test_cap_one_compares_solid_envelopes(self):
        # Interleaved occurrences never meet; with cap 1 both lifetimes
        # are too dense to enumerate and their envelopes overlap.
        a = PeriodicLifetime("a", 1, 0, 2, periods=((4, 3),))
        b = PeriodicLifetime("b", 1, 2, 2, periods=((4, 3),))
        assert not build_intersection_graph([a, b]).are_adjacent(0, 1)
        wig = build_intersection_graph([a, b], occurrence_cap=1)
        assert wig.are_adjacent(0, 1)
        assert wig.neighbors == all_pairs_wig([a, b], occurrence_cap=1)


class TestFirstFit:
    def test_disjoint_buffers_share_offset(self):
        buffers = [solid("a", 4, 0, 3), solid("b", 4, 3, 3)]
        alloc = first_fit(buffers)
        assert alloc.offsets["a"] == 0
        assert alloc.offsets["b"] == 0
        assert alloc.total == 4

    def test_overlapping_buffers_stack(self):
        buffers = [solid("a", 4, 0, 5), solid("b", 3, 2, 5)]
        alloc = first_fit(buffers)
        assert alloc.total == 7
        verify_allocation(buffers, alloc)

    def test_gap_filling(self):
        # a at [0,4), c at [8, 11) leave a gap [4, 8); b (size 4) fits it.
        buffers = [
            solid("a", 4, 0, 10),
            solid("c", 3, 0, 10),
            solid("b", 4, 0, 10),
        ]
        alloc = first_fit(buffers, order=[0, 1, 2])
        assert alloc.offsets == {"a": 0, "c": 4, "b": 7}
        assert alloc.total == 11

    def test_first_fit_takes_lowest_feasible(self):
        # big spans [0,8); small1 dies before small2 is born, so small2
        # reuses small1's slot above big.
        buffers = [
            solid("big", 8, 0, 10),
            solid("small1", 2, 0, 4),
            solid("small2", 2, 6, 4),
        ]
        alloc = first_fit(buffers, order=[0, 1, 2])
        assert alloc.offsets["small1"] == 8
        assert alloc.offsets["small2"] == 8
        assert alloc.total == 10

    def test_zero_size_buffer(self):
        buffers = [solid("a", 4, 0, 5)]
        zero = PeriodicLifetime("z", 0, 0, 5)
        alloc = first_fit(buffers + [zero])
        assert alloc.total == 4

    def test_duplicate_names_rejected(self):
        buffers = [solid("a", 1, 0, 2), solid("a", 1, 0, 2)]
        with pytest.raises(AllocationError):
            first_fit(buffers)

    def test_bad_order_rejected(self):
        buffers = [solid("a", 1, 0, 2)]
        with pytest.raises(AllocationError):
            first_fit(buffers, order=[0, 0])

    def test_empty_instance(self):
        alloc = first_fit([])
        assert alloc.total == 0

    def test_offset_lookup_missing(self):
        alloc = first_fit([solid("a", 1, 0, 2)])
        with pytest.raises(AllocationError):
            alloc.offset_of("zzz")


class TestOrderings:
    def test_ffdur_places_long_lived_first(self):
        buffers = [solid("short", 2, 0, 1), solid("long", 2, 0, 10)]
        alloc = ffdur(buffers)
        assert alloc.order[0] == "long"

    def test_ffstart_places_early_first(self):
        buffers = [solid("late", 2, 5, 10), solid("early", 2, 0, 10)]
        alloc = ffstart(buffers)
        assert alloc.order[0] == "early"

    def test_shared_graph_reuse(self):
        buffers = [solid("a", 2, 0, 5), solid("b", 2, 3, 5)]
        wig = build_intersection_graph(buffers)
        a1 = ffdur(buffers, graph=wig)
        a2 = ffstart(buffers, graph=wig)
        verify_allocation(buffers, a1)
        verify_allocation(buffers, a2)


class TestVerify:
    def test_detects_conflict(self):
        buffers = [solid("a", 4, 0, 5), solid("b", 4, 2, 5)]
        bad = Allocation(
            offsets={"a": 0, "b": 2}, total=6, order=["a", "b"],
            graph=build_intersection_graph(buffers),
        )
        assert find_conflicts(buffers, bad.offsets) == [("a", "b")]
        with pytest.raises(AllocationError):
            verify_allocation(buffers, bad)

    def test_rejects_total_too_small(self):
        buffers = [solid("a", 4, 0, 5)]
        bad = Allocation(
            offsets={"a": 2}, total=4, order=["a"],
            graph=build_intersection_graph(buffers),
        )
        with pytest.raises(AllocationError):
            verify_allocation(buffers, bad)

    def test_missing_offset(self):
        buffers = [solid("a", 4, 0, 5)]
        with pytest.raises(AllocationError):
            find_conflicts(buffers, {})


class TestVerifyAdversarial:
    """Hand-built infeasible allocations the verifier must refuse.

    Each case targets a specific blind spot: a plausible-looking
    ``Allocation`` that an allocator bug could emit and that a naive
    checker (trusting totals, skipping degenerate buffers) would wave
    through.
    """

    def test_understated_total_with_valid_offsets(self):
        # Offsets themselves are conflict-free; only the reported total
        # lies.  Consumers size the memory segment from `total`, so this
        # must fail even though no pair overlaps.
        buffers = [solid("a", 4, 0, 5), solid("b", 4, 5, 5)]
        bad = Allocation(
            offsets={"a": 0, "b": 4}, total=7, order=["a", "b"],
            graph=build_intersection_graph(buffers),
        )
        with pytest.raises(AllocationError, match="extends past"):
            verify_allocation(buffers, bad)

    def test_negative_offset_rejected(self):
        # A negative offset can make `offset + size <= total` hold while
        # addressing memory before the segment base.
        buffers = [solid("a", 4, 0, 5)]
        bad = Allocation(
            offsets={"a": -2}, total=4, order=["a"],
            graph=build_intersection_graph(buffers),
        )
        with pytest.raises(AllocationError, match="negative offset"):
            verify_allocation(buffers, bad)

    def test_missing_offset_second_of_pair(self):
        # 'b' appears only as the second element of the (a, b) pair; the
        # pair scan reads its offset before b's own outer iteration, so
        # the lookup must surface as AllocationError, never KeyError.
        buffers = [solid("a", 4, 0, 5), solid("b", 4, 2, 5)]
        with pytest.raises(AllocationError):
            find_conflicts(buffers, {"a": 0})

    def test_missing_offset_zero_size_buffer(self):
        # Zero-size buffers can never conflict, but an absent offset is
        # still a malformed allocation — it must not be skipped silently.
        buffers = [solid("a", 4, 0, 5), solid("z", 0, 0, 5)]
        with pytest.raises(AllocationError):
            find_conflicts(buffers, {"a": 0})

    def test_zero_size_buffers_share_address(self):
        # Two zero-size buffers at the same live address range occupy no
        # words; this is feasible and must produce no conflicts.
        buffers = [
            solid("a", 4, 0, 5),
            solid("y", 0, 0, 5),
            solid("z", 0, 0, 5),
        ]
        alloc = Allocation(
            offsets={"a": 0, "y": 2, "z": 2}, total=4, order=["a", "y", "z"],
            graph=build_intersection_graph(buffers),
        )
        assert find_conflicts(buffers, alloc.offsets) == []
        verify_allocation(buffers, alloc)


class TestCliqueBounds:
    def test_clique_weight_at(self):
        buffers = [solid("a", 3, 0, 5), solid("b", 4, 2, 5), solid("c", 5, 10, 2)]
        assert clique_weight_at(buffers, 3) == 7
        assert clique_weight_at(buffers, 11) == 5

    def test_mco_solid_equals_exact(self):
        buffers = [solid("a", 3, 0, 5), solid("b", 4, 2, 5), solid("c", 5, 4, 5)]
        assert mcw_optimistic(buffers) == 12
        assert mcw_pessimistic(buffers) == 12

    def test_figure20_style_gap(self):
        """The true MCW can occur at a non-earliest occurrence start, so
        mco can be below the exact value while mcp is above it."""
        a = PeriodicLifetime("a", 2, 0, 2, periods=((6, 2),))  # [0,2),[6,8)
        b = solid("b", 3, 5, 4)                                # [5,9)
        c = solid("c", 4, 6, 1)                                # [6,7)
        buffers = [a, b, c]
        exact = mcw_exact_occurrences(buffers)
        assert exact == 9  # at t=6: a + b + c
        assert mcw_optimistic(buffers) <= exact <= mcw_pessimistic(buffers)

    def test_mcw_bracket_property(self):
        buffers = [
            PeriodicLifetime("a", 2, 0, 2, periods=((5, 3),)),
            PeriodicLifetime("b", 3, 1, 3, periods=((5, 3),)),
            solid("c", 1, 0, 15),
        ]
        exact = mcw_exact_occurrences(buffers)
        assert mcw_optimistic(buffers) <= exact
        assert exact <= mcw_pessimistic(buffers)

    def test_exact_occurrence_limit(self):
        b = PeriodicLifetime(
            "x", 1, 0, 1, periods=((2, 3), (7, 3), (22, 3), (67, 3), (202, 3)),
        )
        with pytest.raises(ValueError):
            mcw_exact_occurrences([b], occurrence_limit=10)

    def test_empty_instances(self):
        assert mcw_optimistic([]) == 0
        assert mcw_pessimistic([]) == 0


@st.composite
def solid_instances(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    buffers = []
    for i in range(n):
        buffers.append(
            solid(
                f"b{i}",
                draw(st.integers(min_value=0, max_value=8)),
                draw(st.integers(min_value=0, max_value=20)),
                draw(st.integers(min_value=1, max_value=10)),
            )
        )
    return buffers


class TestAllocationProperties:
    @given(solid_instances())
    @settings(max_examples=80, deadline=None)
    def test_first_fit_always_feasible(self, buffers):
        for alloc in (ffdur(buffers), ffstart(buffers)):
            verify_allocation(buffers, alloc)

    @given(solid_instances())
    @settings(max_examples=80, deadline=None)
    def test_allocation_at_least_mcw(self, buffers):
        """The allocation total can never beat the max clique weight."""
        mcw = mcw_pessimistic(buffers)  # exact for solid instances
        assert ffdur(buffers).total >= mcw
        assert ffstart(buffers).total >= mcw

    @given(solid_instances())
    @settings(max_examples=40, deadline=None)
    def test_allocation_at_most_sum(self, buffers):
        total = sum(b.size for b in buffers)
        assert ffdur(buffers).total <= total
