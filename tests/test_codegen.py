"""Tests for C emission and the shared-memory execution checker."""

import pytest

from repro.exceptions import CodegenError
from repro.sdf.graph import SDFGraph
from repro.sdf.random_graphs import random_sdf_graph
from repro.lifetimes.intervals import extract_lifetimes
from repro.allocation.first_fit import Allocation, ffdur
from repro.allocation.intersection_graph import build_intersection_graph
from repro.codegen.c_emitter import emit_c
from repro.codegen.batched_vm import BatchedVM
from repro.codegen.vm import SharedMemoryVM, run_shared_memory_check
from repro.check.oracles import (
    _execution_checks,
    _module_preloads,
    _sequence_actors,
)
from repro.codegen.py_emitter import compile_python
from repro.scheduling.pipeline import implement
from repro.sdf.repetitions import repetitions_vector
from repro.apps import cd_to_dat, table1_graph

from .conftest import build_and_run_c, requires_cc


def implemented(name_or_graph):
    g = (
        table1_graph(name_or_graph)
        if isinstance(name_or_graph, str)
        else name_or_graph
    )
    result = implement(g, "rpmc")
    return g, result


class TestEmitC:
    def test_contains_pool_and_buffers(self):
        g, result = implemented("16qamModem")
        code = emit_c(g, result.lifetimes, result.allocation)
        assert f"static token_t memory[{result.allocation.total}];" in code
        assert "#define BUF_BITS_MAPPER" in code
        assert "void run_one_period(void)" in code
        assert "int main(void)" in code

    def test_every_actor_fired(self):
        g, result = implemented("4pamxmitrec")
        code = emit_c(g, result.lifetimes, result.allocation)
        for actor in g.actor_names():
            assert f"fire_{actor}(" in code

    def test_loop_structure_present(self):
        g, result = implemented("satrec")
        code = emit_c(g, result.lifetimes, result.allocation)
        assert "for (int i" in code

    def test_delay_handling(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 1, 1, delay=2)
        result = implement(g, "natural")
        code = emit_c(g, result.lifetimes, result.allocation)
        assert "init_delays" in code
        assert "%" in code  # circular cursor arithmetic

    def test_missing_allocation_raises(self):
        g, result = implemented("4pamxmitrec")
        bad = Allocation(offsets={}, total=0, order=[], graph=result.allocation.graph)
        with pytest.raises(CodegenError):
            emit_c(g, result.lifetimes, bad)

    def test_balanced_braces(self):
        g, result = implemented("blockVox")
        code = emit_c(g, result.lifetimes, result.allocation)
        assert code.count("{") == code.count("}")


class TestSharedMemoryVM:
    def test_runs_clean_on_correct_allocation(self):
        g, result = implemented("overAddFFT")
        fires = run_shared_memory_check(g, result.lifetimes, result.allocation)
        assert fires > 0

    def test_detects_corrupted_allocation(self):
        """Colocating overlapping buffers must be caught as corruption.

        The coarse lifetime model is conservative, so not every
        coarse-overlapping pair conflicts at access granularity (an
        actor's reads complete before its writes within one firing) —
        but in a loop-interleaved schedule most pairs must.  Try every
        overlapping pair and require that most are detected.
        """
        g, result = implemented("qmf23_2d")
        buffers = result.lifetimes.as_list()
        wig = build_intersection_graph(buffers)
        detected = 0
        tried = 0
        for i in range(len(buffers)):
            for j in wig.neighbors[i]:
                if j < i or not buffers[i].size or not buffers[j].size:
                    continue
                tried += 1
                offsets = dict(result.allocation.offsets)
                offsets[buffers[j].name] = offsets[buffers[i].name]
                bad = Allocation(
                    offsets=offsets,
                    total=max(offsets[b.name] + b.size for b in buffers),
                    order=result.allocation.order,
                    graph=wig,
                )
                vm = SharedMemoryVM(g, result.lifetimes, bad)
                try:
                    vm.run(periods=1)
                except CodegenError:
                    detected += 1
        assert tried > 0
        assert detected >= tried // 2, (
            f"only {detected} of {tried} colocated pairs detected"
        )

    def test_multiple_periods(self):
        g, result = implemented("16qamModem")
        run_shared_memory_check(g, result.lifetimes, result.allocation, periods=3)

    def test_delayed_graph_execution(self):
        g = SDFGraph()
        g.add_actors("ABC")
        g.add_edge("A", "B", 2, 1, delay=1)
        g.add_edge("B", "C", 1, 3)
        result = implement(g, "natural")
        run_shared_memory_check(g, result.lifetimes, result.allocation, periods=3)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_execute(self, seed):
        g = random_sdf_graph(10, seed=200 + seed)
        result = implement(g, "apgan")
        run_shared_memory_check(g, result.lifetimes, result.allocation, periods=2)

    def test_token_sizes_respected(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 2, 1, token_size=3)
        result = implement(g, "natural")
        assert result.allocation.total >= 6
        run_shared_memory_check(g, result.lifetimes, result.allocation)

    @pytest.mark.parametrize("vm_class", [SharedMemoryVM, BatchedVM])
    def test_missing_buffer_is_a_codegen_error(self, vm_class):
        g, result = implemented("4pamxmitrec")
        bad = Allocation(
            offsets={}, total=0, order=[], graph=result.allocation.graph
        )
        with pytest.raises(CodegenError, match="allocation missing buffer"):
            vm_class(g, result.lifetimes, bad)


class TestBufferPastThePool:
    """A buffer placed past ``allocation.total`` is an overrun the VMs
    report through ``peak_address``, not a crash."""

    def _short_pool(self):
        g = cd_to_dat()
        result = implement(g)
        alloc = result.allocation
        short = Allocation(
            offsets=dict(alloc.offsets),
            total=alloc.total - 1,
            order=alloc.order,
            graph=alloc.graph,
        )
        return g, result.lifetimes, short

    @pytest.mark.parametrize("vm_class", [SharedMemoryVM, BatchedVM])
    def test_vm_reports_peak_past_total(self, vm_class):
        g, lifetimes, short = self._short_pool()
        vm = vm_class(g, lifetimes, short)
        vm.run(periods=2)
        assert vm.peak_address == short.total + 1

    def test_execution_checks_report_the_overrun(self):
        g, lifetimes, short = self._short_pool()
        bad = _execution_checks(g, repetitions_vector(g), lifetimes, short)
        assert bad == [
            f"exec: VM wrote up to address {short.total + 1}, past the "
            f"allocation total {short.total}"
        ]

    def test_generated_module_runs_to_completion(self):
        g, lifetimes, short = self._short_pool()
        module = compile_python(g, lifetimes, short)
        assert module["POOL_SIZE"] == short.total + 1
        actors, state = _sequence_actors(g)
        module["run"](actors, periods=2, preloads=_module_preloads(g))
        q = repetitions_vector(g)
        assert state["fired"] == {a: 2 * q[a] for a in q}

    def test_emitted_c_covers_every_buffer(self):
        g, lifetimes, short = self._short_pool()
        assert short.total == 256
        assert "static token_t memory[257];" in emit_c(g, lifetimes, short)


@requires_cc
class TestGeneratedCSelfCheck:
    """The emitted C, compiled with cc, proves the allocation on metal."""

    @pytest.mark.parametrize(
        "name", ["qmf23_2d", "satrec", "blockVox", "overAddFFT", "phasedArray"]
    )
    def test_practical_system_self_checks(self, name, tmp_path):
        g, result = implemented(name)
        code = emit_c(
            g, result.lifetimes, result.allocation, instrument=True, periods=3
        )
        run = build_and_run_c(code, tmp_path, name)
        assert run.returncode == 0, run.stderr
        assert "SELFCHECK OK" in run.stdout

    def test_delayed_edges_self_check(self, tmp_path):
        g = SDFGraph()
        g.add_actors("ABC")
        g.add_edge("A", "B", 2, 1, delay=1)
        g.add_edge("B", "C", 1, 3, delay=2)
        result = implement(g, "natural")
        code = emit_c(
            g, result.lifetimes, result.allocation, instrument=True, periods=4
        )
        run = build_and_run_c(code, tmp_path, "delayed")
        assert run.returncode == 0, run.stderr
        assert "SELFCHECK OK" in run.stdout

    def test_corrupted_allocation_fails_in_c(self, tmp_path):
        """The compiled self-check catches an unsafe overlay, like the VM."""
        g, result = implemented("qmf23_2d")
        buffers = result.lifetimes.as_list()
        wig = build_intersection_graph(buffers)
        failed = 0
        tried = 0
        for i in range(len(buffers)):
            for j in sorted(wig.neighbors[i]):
                if j < i or not buffers[i].size or not buffers[j].size:
                    continue
                tried += 1
                offsets = dict(result.allocation.offsets)
                offsets[buffers[j].name] = offsets[buffers[i].name]
                bad = Allocation(
                    offsets=offsets,
                    total=max(offsets[b.name] + b.size for b in buffers),
                    order=result.allocation.order,
                    graph=wig,
                )
                code = emit_c(
                    g, result.lifetimes, bad, instrument=True, periods=1
                )
                run = build_and_run_c(code, tmp_path, f"bad{i}_{j}")
                if run.returncode != 0 and "SELFCHECK FAIL" in run.stderr:
                    failed += 1
                if tried >= 6:
                    break
            if tried >= 6:
                break
        assert tried > 0
        assert failed >= tried // 2
