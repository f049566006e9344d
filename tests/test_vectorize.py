"""Tests for memory-constrained vectorization and blocked execution.

Covers the loop-fission pass (``repro.scheduling.vectorize``) — the
safety rule, the budget loop's edge cases (zero budget, unconstrained
fixed point, backward-edge declines, non-SAS fallbacks), block
accounting — the block-level replay's error contract (byte-identical
to a firing-at-a-time replay's), the block-at-a-time
``BatchedVM`` against the scalar VM, and the vectorized pipeline path
(``implement(..., vectorize=True)``).
"""

from dataclasses import replace

import pytest

from repro.allocation.first_fit import Allocation, allocate, first_fit
from repro.apps import cd_to_dat, satellite_receiver
from repro.check.reference import full_trace
from repro.codegen.batched_vm import BatchedVM
from repro.codegen.vm import SharedMemoryVM, run_shared_memory_check
from repro.exceptions import CodegenError, ScheduleError
from repro.lifetimes.intervals import extract_lifetimes
from repro.obs.recorder import TraceRecorder
from repro.scheduling.pipeline import implement
from repro.scheduling.vectorize import (
    dispatch_blocks,
    fission_candidates,
    fission_safe,
    vectorize_schedule,
)
from repro.sdf.graph import SDFGraph
from repro.sdf.random_graphs import (
    random_broadcast_sdf_graph,
    random_sdf_graph,
)
from repro.sdf.repetitions import repetitions_vector
from repro.sdf.schedule import Loop, parse_schedule
from repro.sdf.simulate import max_tokens, validate_schedule


def chain_graph():
    """q = A:3, B:6, C:2 — the module docstring's running example."""
    g = SDFGraph("chain")
    g.add_actors("ABC")
    g.add_edge("A", "B", 2, 1)
    g.add_edge("B", "C", 1, 3)
    return g


def feedback_graph():
    """Two-actor loop living on 2 initial tokens; q = A:1, B:2."""
    g = SDFGraph("fb")
    g.add_actors("AB")
    g.add_edge("A", "B", 2, 1)
    g.add_edge("B", "A", 1, 2, delay=2)
    return g


def first_loop(text):
    node = parse_schedule(text).body[0]
    assert isinstance(node, Loop)
    return node


class TestFissionSafety:
    def test_forward_edges_are_safe(self):
        g = chain_graph()
        assert fission_safe(g, first_loop("(3A(2B))"))
        assert fission_safe(g, first_loop("(2(3A)(6B)(2C))"))

    def test_backward_edge_declines(self):
        # B->A is lexically backward inside (2 A B): hoisting A's two
        # iterations ahead of B would drain the delay dry.
        g = feedback_graph()
        assert not fission_safe(g, first_loop("(2A(2B))"))

    def test_duplicate_actor_declines(self):
        g = chain_graph()
        assert not fission_safe(g, first_loop("(2A B A)"))

    def test_edge_crossing_loop_boundary_is_ignored(self):
        # Only edges with BOTH endpoints inside the body constrain the
        # fission; C is outside (3A(2B)) so A->B is the one that counts.
        g = chain_graph()
        loop = first_loop("(3A(2B))")
        assert fission_safe(g, loop)


class TestDispatchBlocks:
    def test_nested_schedule(self):
        blocks, firings, factors = dispatch_blocks(
            parse_schedule("(3A(2B))(2C)")
        )
        # "(2B)" and "(2C)" are single counted firings, not loops: the
        # parser folds them, so one visit dispatches a 2-firing block.
        assert (blocks, firings) == (7, 11)
        assert factors == {"A": 1, "B": 2, "C": 2}

    def test_flat_sas(self):
        blocks, firings, factors = dispatch_blocks(
            parse_schedule("(3A)(6B)(2C)")
        )
        assert (blocks, firings) == (3, 11)
        assert factors == {"A": 3, "B": 6, "C": 2}


class TestFissionCandidates:
    def test_docstring_example(self):
        g = chain_graph()
        texts = {
            str(c)
            for c in fission_candidates(g, parse_schedule("(3A(2B))(2C)"))
        }
        # Fissioning the outer loop hoists A and B; the inner (2B) and
        # the unit-count (2C) wrapper offer nothing further on their own.
        assert "(3A)(6B)(2C)" in texts

    def test_backward_edge_has_no_candidates(self):
        g = feedback_graph()
        assert list(fission_candidates(g, parse_schedule("(2A(2B))"))) == []


class TestVectorizePass:
    def test_unconstrained_reaches_flat_sas(self):
        g = chain_graph()
        vec = vectorize_schedule(g, parse_schedule("(3A(2B))(2C)"))
        assert str(vec.schedule) == "(3A)(6B)(2C)"
        assert vec.block_factors == repetitions_vector(g)
        assert (vec.blocks, vec.firings) == (3, 11)
        assert vec.steps >= 1
        assert vec.amortization > vec.baseline_amortization

    def test_zero_budget_is_identity(self):
        g = chain_graph()
        base = parse_schedule("(3A(2B))(2C)")
        vec = vectorize_schedule(g, base, memory_budget=0)
        assert str(vec.schedule) == str(base)
        assert vec.steps == 0
        assert vec.cost == vec.baseline_cost

    def test_backward_edge_declines_cleanly(self):
        g = feedback_graph()
        base = parse_schedule("(2A(2B))")
        vec = vectorize_schedule(g, base)
        assert str(vec.schedule) == str(base)
        assert vec.steps == 0
        assert vec.cost == vec.baseline_cost is not None

    def test_non_sas_schedule_falls_back_with_cost_none(self):
        g = chain_graph()
        base = parse_schedule("(3A(2B))(2C)(1A)")  # A appears twice
        vec = vectorize_schedule(g, base)
        assert vec.cost is None and vec.baseline_cost is None
        assert str(vec.schedule) == str(base.normalized())
        assert vec.steps == 0

    def test_delayed_forward_edge_still_blocks(self):
        g = SDFGraph("dly")
        g.add_actors("ABC")
        g.add_edge("A", "B", 2, 1, delay=1)
        g.add_edge("B", "C", 1, 3)
        result = implement(g, "natural", verify=False)
        vec = vectorize_schedule(g, result.sdppo_schedule)
        validate_schedule(g, vec.schedule)
        assert vec.blocks <= vec.baseline_blocks

    def test_cddat_budget_sweep_is_monotone(self):
        g = cd_to_dat()
        result = implement(g, "rpmc", verify=False)
        base_total = result.allocation.total
        q = repetitions_vector(g)
        prev_blocks = None
        for budget in (0, base_total, 2 * base_total, None):
            vec = vectorize_schedule(g, result.sdppo_schedule, q,
                                     memory_budget=budget)
            assert validate_schedule(g, vec.schedule) == q
            if budget is not None:
                assert vec.cost <= max(budget, vec.baseline_cost)
            if prev_blocks is not None:
                # A larger budget can never force more blocks.
                assert vec.blocks <= prev_blocks
            prev_blocks = vec.blocks
        assert vec.blocks == len(q)  # unconstrained = flat SAS

    def test_claimed_cost_matches_independent_recost(self):
        g = cd_to_dat()
        result = implement(g, "rpmc", verify=False)
        q = repetitions_vector(g)
        budget = result.allocation.total * 3 // 2
        vec = vectorize_schedule(g, result.sdppo_schedule, q,
                                 memory_budget=budget)
        assert vec.steps > 0
        buffers = extract_lifetimes(g, vec.schedule, q).as_list()
        assert allocate(buffers).best.total == vec.cost

    @pytest.mark.parametrize("budget", [-1, -5])
    def test_negative_budget_is_rejected(self, budget):
        g = chain_graph()
        with pytest.raises(ValueError, match=f"got {budget}$"):
            vectorize_schedule(g, parse_schedule("(3A(2B))(2C)"),
                               memory_budget=budget)
        with pytest.raises(ValueError, match="memory_budget must be >= 0"):
            implement(g, "natural", vectorize=True, memory_budget=budget)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_respect_budget(self, seed):
        g = random_sdf_graph(12, seed=700 + seed)
        result = implement(g, "apgan", verify=False)
        q = repetitions_vector(g)
        budget = result.allocation.total * 3 // 2
        vec = vectorize_schedule(g, result.sdppo_schedule, q,
                                 memory_budget=budget)
        assert validate_schedule(g, vec.schedule) == q
        if vec.steps:
            assert vec.cost <= budget

    @pytest.mark.parametrize("seed", range(3))
    def test_broadcast_graphs_block_validly(self, seed):
        g = random_broadcast_sdf_graph(10, seed=40 + seed)
        result = implement(g, "apgan", verify=False)
        q = repetitions_vector(g)
        vec = vectorize_schedule(g, result.sdppo_schedule, q)
        assert validate_schedule(g, vec.schedule) == q
        assert vec.blocks <= vec.baseline_blocks


def _floor_systems():
    return [
        ("cddat", cd_to_dat),
        ("satrec", satellite_receiver),
        ("random40", lambda: random_sdf_graph(40, seed=5, max_repetition=12)),
    ]


@pytest.mark.parametrize(
    "factory", [f for _, f in _floor_systems()],
    ids=[name for name, _ in _floor_systems()],
)
class TestVectorizeFloor:
    """The blocking pass's acceptance floor over a budget sweep.

    Budgets 0, the baseline pool total, 1.5x and 2x: a budget 0 applies
    no fission and no costed blocking ever exceeds
    ``max(budget, baseline_cost)``.  Unconstrained, every system
    amortizes at least ``MIN_AMORTIZATION`` firings per dispatch block
    (cddat ~102, satrec ~205, random40 6.0).
    """

    MIN_AMORTIZATION = 3.0

    def test_budget_sweep_respects_budgets(self, factory):
        graph = factory()
        q = repetitions_vector(graph)
        base = implement(graph, "rpmc", verify=False)
        total = base.allocation.total
        for budget in (0, total, (3 * total) // 2, 2 * total):
            vec = vectorize_schedule(
                graph, base.sdppo_schedule, q, memory_budget=budget
            )
            assert vec.cost is not None
            assert vec.cost <= max(budget, vec.baseline_cost), budget
            if budget == 0:
                assert vec.steps == 0

    def test_unconstrained_amortization_floor(self, factory):
        graph = factory()
        q = repetitions_vector(graph)
        base = implement(graph, "rpmc", verify=False)
        vec = vectorize_schedule(graph, base.sdppo_schedule, q)
        assert vec.cost is not None
        assert vec.amortization >= self.MIN_AMORTIZATION


class TestBatchedErrorParity:
    """The block replay raises what the naive reference replay raises."""

    def test_underflow_error_is_byte_identical(self):
        g = chain_graph()
        bad = parse_schedule("(6B)(3A)(2C)")  # B fires before any A
        with pytest.raises(ScheduleError) as interp:
            full_trace(g, bad)
        with pytest.raises(ScheduleError) as batched:
            validate_schedule(g, bad)
        assert str(interp.value) == str(batched.value)

    def test_mid_block_underflow_error_is_byte_identical(self):
        # (4B) is fed by only one A firing: the block fails part-way
        # through, at the same firing index the reference reports.
        g = chain_graph()
        bad = parse_schedule("(1A)(4B)")
        with pytest.raises(ScheduleError) as interp:
            full_trace(g, bad)
        with pytest.raises(ScheduleError) as batched:
            max_tokens(g, bad)
        assert str(interp.value) == str(batched.value)


class TestBatchedVM:
    def _implemented(self, graph, method="rpmc"):
        return implement(graph, method, verify=False, vectorize=True)

    def test_matches_scalar_vm_on_cddat(self):
        g = cd_to_dat()
        result = self._implemented(g)
        scalar = SharedMemoryVM(g, result.lifetimes, result.allocation)
        batched = BatchedVM(g, result.lifetimes, result.allocation)
        scalar.run(periods=2)
        batched.run(periods=2)
        assert batched.firings == scalar.firings
        assert batched.firings_per_actor == scalar.firings_per_actor
        assert batched.peak_address == scalar.peak_address
        assert batched.peak_address <= result.allocation.total

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_execute(self, seed):
        g = random_sdf_graph(10, seed=900 + seed)
        result = implement(g, "apgan", verify=False, vectorize=True)
        fires = run_shared_memory_check(
            g, result.lifetimes, result.allocation,
            periods=2, vm_class=BatchedVM,
        )
        assert fires == 2 * sum(repetitions_vector(g).values())

    @pytest.mark.parametrize("seed", range(2))
    def test_broadcast_graphs_execute(self, seed):
        g = random_broadcast_sdf_graph(10, seed=60 + seed)
        result = implement(g, "apgan", verify=False, vectorize=True)
        fires = run_shared_memory_check(
            g, result.lifetimes, result.allocation,
            periods=2, vm_class=BatchedVM,
        )
        assert fires == 2 * sum(repetitions_vector(g).values())

    def test_delayed_graph_executes(self):
        g = SDFGraph("dly")
        g.add_actors("ABC")
        g.add_edge("A", "B", 2, 1, delay=1)
        g.add_edge("B", "C", 1, 3)
        result = implement(g, "natural", verify=False, vectorize=True)
        run_shared_memory_check(
            g, result.lifetimes, result.allocation,
            periods=3, vm_class=BatchedVM,
        )


class _WrapCountingVM(BatchedVM):
    """BatchedVM that counts block runs split at a circular wrap."""

    def __init__(self, *args):
        super().__init__(*args)
        self.wraps = 0

    def _runs(self, state, start_slot, m):
        runs = super()._runs(state, start_slot, m)
        self.wraps += len(runs) - 1
        return runs


def _artifacts(graph, text):
    """Lifetimes and a first-fit allocation for schedule ``text``."""
    lifetimes = extract_lifetimes(
        graph, parse_schedule(text), repetitions_vector(graph)
    )
    return lifetimes, first_fit(lifetimes.as_list())


def _outcomes(graph, lifetimes, allocation, periods=2):
    """Per VM (scalar, batched): its counters, or its error message."""
    outcomes = []
    for vm_class in (SharedMemoryVM, _WrapCountingVM):
        vm = vm_class(graph, lifetimes, allocation)
        try:
            vm.run(periods=periods)
        except CodegenError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append(
                (vm.firings, vm.firings_per_actor, vm.peak_address)
            )
    return outcomes, vm


def _sized_chain(token_size, broadcast=False):
    """``chain_graph`` with every edge carrying ``token_size`` words.

    With ``broadcast``, A's stream to B is a broadcast group that C
    also reads (two tokens to B, three to C, per firing pair).
    """
    g = SDFGraph("chain")
    g.add_actors("ABC")
    if broadcast:
        g.add_broadcast("A", ["B", "C"], 2, [1, 3], token_size=token_size)
    else:
        g.add_edge("A", "B", 2, 1, token_size=token_size)
    g.add_edge("B", "C", 1, 3, token_size=token_size)
    return g


@pytest.mark.parametrize("token_size", [1, 3])
class TestBatchedVMAgainstScalar:
    """Block transfers reproduce the scalar VM's counters and errors."""

    def test_token_sizes(self, token_size):
        g = _sized_chain(token_size)
        (scalar, batched), _ = _outcomes(g, *_artifacts(g, "(3A)(6B)(2C)"))
        assert batched == scalar
        assert scalar[0] == 2 * 11

    def test_delayed_block_wraps_circular_buffer(self, token_size):
        g = SDFGraph("wrap")
        g.add_actors("AB")
        g.add_edge("A", "B", 2, 1, delay=1, token_size=token_size)
        (scalar, batched), vm = _outcomes(
            g, *_artifacts(g, "A(2B)"), periods=3
        )
        assert batched == scalar
        assert vm.wraps > 0

    def test_forged_overlay_raises_scalar_corruption(self, token_size):
        _check_forged_overlay(token_size, broadcast=False)

    def test_forged_broadcast_member_raises_scalar_corruption(
        self, token_size
    ):
        _check_forged_overlay(token_size, broadcast=True)

    def test_shrunk_buffer_raises_scalar_overrun(self, token_size):
        _check_shrunk_buffer(token_size, broadcast=False)

    def test_shrunk_broadcast_buffer_raises_scalar_overrun(self, token_size):
        _check_shrunk_buffer(token_size, broadcast=True)


def _check_forged_overlay(token_size, broadcast):
    # B's output buffer forged into the buffer C reads from A, which is
    # still live until C runs: both VMs must fail at C's first firing
    # (the sixth) on the same word.
    g = SDFGraph("fork")
    g.add_actors("ABC")
    if broadcast:
        _, ac = g.add_broadcast(
            "A", ["B", "C"], 4, [1, 2], token_size=token_size
        )
        bc = g.add_edge("B", "C", 1, 2, token_size=token_size)
        reader = f"broadcast bc0 member {ac}"
    else:
        g.add_edge("A", "B", 4, 1, token_size=token_size)
        bc = g.add_edge("B", "C", 1, 2, token_size=token_size)
        ac = g.add_edge("A", "C", 4, 2, token_size=token_size)
        reader = f"{ac}"
    lifetimes, allocation = _artifacts(g, "A(4B)(2C)")
    offsets = dict(allocation.offsets)
    ac_name = lifetimes.lifetimes[ac.key].name
    bc_name = lifetimes.lifetimes[bc.key].name
    if broadcast:
        # B reads the stream too, so only B's last token may land on
        # it: on the stream's first token, which B read first.
        offsets[ac_name] = offsets[bc_name] + 3 * token_size
        address = offsets[ac_name]
    else:
        offsets[bc_name] = offsets[ac_name] + 1
        address = offsets[ac_name] + 1
    sizes = {b.name: b.size for b in lifetimes.as_list()}
    forged = Allocation(
        offsets=offsets,
        total=max(offsets[n] + sizes[n] for n in offsets),
        order=allocation.order,
        graph=allocation.graph,
    )
    (scalar, batched), _ = _outcomes(g, lifetimes, forged)
    assert scalar.startswith(f"token corruption on {reader}:")
    assert f"at address {address} (firing 6)" in scalar
    assert batched == scalar


def _check_shrunk_buffer(token_size, broadcast):
    # A's buffer shrunk from 6 token slots to 4 (plus a stray word): the
    # fifth token overruns it, the first write of A's third firing.  A
    # group's buffer is written once, for both readers.
    g = _sized_chain(token_size, broadcast)
    lifetimes, _ = _artifacts(g, "(3A)(6B)(2C)")
    key = ("A", "B", 0)
    lt = lifetimes.lifetimes[key]
    size = lt.size - token_size - 1
    shrunk = replace(
        lifetimes,
        lifetimes={**lifetimes.lifetimes, key: replace(lt, size=size)},
    )
    allocation = first_fit(shrunk.as_list())
    (scalar, batched), _ = _outcomes(g, shrunk, allocation)
    assert "overruns its array" in scalar
    assert scalar.endswith("(firing 3)")
    assert batched == scalar


class TestVectorizedPipeline:
    def test_implement_carries_vectorize_result(self):
        g = cd_to_dat()
        result = implement(g, "rpmc", verify=False,
                           vectorize=True, memory_budget=None)
        vec = result.vectorize
        assert vec is not None
        assert vec.memory_budget is None
        # The downstream artifacts describe the BLOCKED schedule: its
        # honest re-cost is exactly the allocation the pipeline packed.
        assert result.allocation.total == vec.cost
        # The unblocked DP outputs survive untouched.
        assert str(result.sdppo_schedule) == str(vec.baseline_schedule)

    def test_plain_implement_has_no_vectorize_field(self):
        g = chain_graph()
        result = implement(g, "natural", verify=False)
        assert result.vectorize is None

    def test_budgeted_implement_respects_budget(self):
        g = cd_to_dat()
        plain = implement(g, "rpmc", verify=False)
        budget = plain.allocation.total * 3 // 2
        result = implement(g, "rpmc", verify=False,
                           vectorize=True, memory_budget=budget)
        assert result.vectorize.steps > 0
        assert result.allocation.total <= budget


def _count_allocation_work(monkeypatch):
    """Count the lifetime extractions and WIG builds a compile makes."""
    import importlib

    # ``repro.allocation.first_fit`` is also the function's name, so
    # the module is fetched by path.
    first_fit_module = importlib.import_module("repro.allocation.first_fit")
    pipeline_module = importlib.import_module("repro.scheduling.pipeline")
    vectorize_module = importlib.import_module("repro.scheduling.vectorize")

    calls = {"extract_lifetimes": 0, "build_intersection_graph": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in (pipeline_module, vectorize_module):
        monkeypatch.setattr(
            module, "extract_lifetimes",
            counting("extract_lifetimes", extract_lifetimes),
        )
    monkeypatch.setattr(
        first_fit_module, "build_intersection_graph",
        counting("build_intersection_graph",
                 first_fit_module.build_intersection_graph),
    )
    return calls


class TestSingleAllocation:
    """A vectorized compile allocates each schedule it keeps once."""

    def test_unconstrained_satrec_allocates_once(self, monkeypatch):
        calls = _count_allocation_work(monkeypatch)
        result = implement(satellite_receiver(), vectorize=True)
        assert result.vectorize.steps > 0
        # Lifetimes of the unblocked baseline (the SA check) and of the
        # blocked schedule; only the blocked schedule is allocated.
        assert calls == {"extract_lifetimes": 2,
                         "build_intersection_graph": 1}

    def test_no_safe_fission_allocates_once(self, monkeypatch):
        # q = A:1, B:2: the schedule A(2B) has no loop to fission.
        g = SDFGraph("flat")
        g.add_actors("AB")
        g.add_edge("A", "B", 2, 1)
        calls = _count_allocation_work(monkeypatch)
        result = implement(g, "natural", vectorize=True)
        assert result.vectorize.steps == 0
        assert calls == {"extract_lifetimes": 1,
                         "build_intersection_graph": 1}

    @pytest.mark.parametrize("factory", [satellite_receiver, cd_to_dat])
    def test_reused_allocation_matches_a_fresh_one(self, factory):
        g = factory()
        result = implement(g, vectorize=True)
        buffers = extract_lifetimes(
            g, result.vectorize.schedule, repetitions_vector(g)
        ).as_list()
        fresh = allocate(buffers)
        assert result.allocation.offsets == fresh.best.offsets
        assert result.ffdur_total == fresh.ffdur.total
        assert result.ffstart_total == fresh.ffstart.total
        recorder = TraceRecorder()
        implement(g, vectorize=True, recorder=recorder)
        probes = recorder.counter_totals()["first_fit.probes"]
        assert probes == fresh.ffdur.probes + fresh.ffstart.probes > 0


class TestVectorizeCosting:
    """Which schedules a pass allocates, counted at ``allocate``."""

    @staticmethod
    def _count_allocate(monkeypatch):
        import importlib

        vectorize_module = importlib.import_module(
            "repro.scheduling.vectorize"
        )
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return allocate(*args, **kwargs)

        monkeypatch.setattr(vectorize_module, "allocate", counting)
        return calls

    @pytest.mark.parametrize("factory", [satellite_receiver, cd_to_dat])
    def test_unconstrained_allocates_the_blocked_schedule_once(
        self, factory, monkeypatch
    ):
        g = factory()
        q = repetitions_vector(g)
        result = implement(g, "rpmc", verify=False)
        calls = self._count_allocate(monkeypatch)
        vec = vectorize_schedule(g, result.sdppo_schedule, q)
        assert vec.steps > 0
        assert len(calls) == 1
        assert calls[0] == vec.lifetimes.as_list()
        assert vec.baseline_cost is None
        assert vec.cost == vec.allocation.best.total

    @pytest.mark.parametrize("factory, calls_at_budget", [
        (satellite_receiver, (5, 5, 11, 11)),
        (cd_to_dat, (5, 8, 10, 11)),
    ])
    def test_budgeted_allocations_unchanged(
        self, factory, calls_at_budget, monkeypatch
    ):
        # Baseline plus every candidate of every greedy step: budgets 0,
        # 1x, 1.5x and 2x the baseline pool total.
        g = factory()
        q = repetitions_vector(g)
        result = implement(g, "rpmc", verify=False)
        total = result.allocation.total
        calls = self._count_allocate(monkeypatch)
        for budget, expected in zip(
            (0, total, 3 * total // 2, 2 * total), calls_at_budget
        ):
            calls.clear()
            vec = vectorize_schedule(g, result.sdppo_schedule, q,
                                     memory_budget=budget)
            assert len(calls) == expected, budget
            assert vec.baseline_cost == total

    def test_no_safe_fission_costs_the_baseline(self, monkeypatch):
        g = feedback_graph()
        calls = self._count_allocate(monkeypatch)
        vec = vectorize_schedule(g, parse_schedule("(2A(2B))"))
        assert vec.steps == 0
        assert len(calls) == 1
        assert vec.cost == vec.baseline_cost is not None
