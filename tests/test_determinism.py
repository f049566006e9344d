"""Determinism guarantees: identical inputs produce identical results.

Every number in EXPERIMENTS.md relies on the flow being a pure function
of (graph, seed); these tests pin that property so a future change that
introduces hidden iteration-order or randomness dependence fails loudly.
"""

import pytest

from repro.sdf.random_graphs import random_sdf_graph
from repro.scheduling.pipeline import implement, implement_best
from repro.scheduling.session import CompilationSession
from repro.baselines.random_search import random_search
from repro.experiments.random_graphs import run_random_graph_experiment
from repro.experiments.runner import effective_jobs, parallel_map
from repro.apps import table1_graph


class TestFlowDeterminism:
    @pytest.mark.parametrize("method", ["rpmc", "apgan", "natural"])
    def test_implement_reproducible(self, method):
        g1 = table1_graph("16qamModem")
        g2 = table1_graph("16qamModem")
        r1 = implement(g1, method, seed=3)
        r2 = implement(g2, method, seed=3)
        assert r1.order == r2.order
        assert str(r1.sdppo_schedule) == str(r2.sdppo_schedule)
        assert r1.allocation.offsets == r2.allocation.offsets
        assert (r1.dppo_cost, r1.mco, r1.mcp) == (r2.dppo_cost, r2.mco, r2.mcp)

    def test_best_result_reproducible(self):
        a = implement_best(table1_graph("satrec"))
        b = implement_best(table1_graph("satrec"))
        assert a.best_shared == b.best_shared
        assert a.best_nonshared == b.best_nonshared
        assert a.rpmc.order == b.rpmc.order

    def test_random_graph_flow_reproducible(self):
        for seed in (0, 17):
            g1 = random_sdf_graph(20, seed=seed)
            g2 = random_sdf_graph(20, seed=seed)
            r1 = implement(g1, "rpmc", seed=seed, verify=False)
            r2 = implement(g2, "rpmc", seed=seed, verify=False)
            assert r1.allocation.offsets == r2.allocation.offsets

    def test_random_search_reproducible(self):
        g = table1_graph("4pamxmitrec")
        s1 = random_search(g, trials=8, seed=5)
        s2 = random_search(g, trials=8, seed=5)
        assert s1.best_by_trial == s2.best_by_trial
        assert s1.best_order == s2.best_order

    def test_different_seeds_can_differ(self):
        g = table1_graph("4pamxmitrec")
        s1 = random_search(g, trials=8, seed=5)
        s2 = random_search(g, trials=8, seed=6)
        # The orders explored differ (totals may coincide on tiny graphs).
        assert s1.best_order == s1.best_order
        assert isinstance(s2.best_total, int)

    def test_session_reuse_matches_fresh(self):
        g = table1_graph("satrec")
        session = CompilationSession(g)
        fresh = implement_best(g)
        reused = implement_best(g, session=session)
        again = implement_best(g, session=session)
        assert fresh.best_shared == reused.best_shared == again.best_shared
        assert fresh.rpmc.order == reused.rpmc.order == again.rpmc.order
        assert fresh.rpmc.allocation.offsets == reused.rpmc.allocation.offsets
        assert fresh.apgan.bmlb == reused.apgan.bmlb


class TestParallelSerialIdentity:
    """The process-pool paths must be bit-identical to the serial ones."""

    def test_random_search_parallel_matches_serial(self):
        g = table1_graph("satrec")
        serial = random_search(g, trials=24, seed=11, jobs=1)
        parallel = random_search(g, trials=24, seed=11, jobs=2)
        assert serial == parallel

    def test_fig27_parallel_matches_serial(self):
        serial = run_random_graph_experiment(
            sizes=(20,), graphs_per_size=4, seed=2, jobs=1
        )
        parallel = run_random_graph_experiment(
            sizes=(20,), graphs_per_size=4, seed=2, jobs=2
        )
        assert serial == parallel

    def test_parallel_map_preserves_order(self):
        tasks = list(range(23))
        assert parallel_map(_negate, tasks, jobs=3) == [-t for t in tasks]
        assert parallel_map(_negate, tasks, jobs=1) == [-t for t in tasks]

    def test_effective_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert effective_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert effective_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert effective_jobs() >= 1
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ValueError):
            effective_jobs()
        # An explicit argument wins over the environment.
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert effective_jobs(2) == 2

    def test_effective_jobs_rejects_negative(self, monkeypatch):
        # Negative counts are configuration errors, not "serial please";
        # both the argument and environment forms must refuse them.
        with pytest.raises(ValueError):
            effective_jobs(-1)
        with pytest.raises(ValueError):
            effective_jobs(-17)
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ValueError):
            effective_jobs()


def _negate(x):
    return -x


class TestVectorizedDPEquivalence:
    """The native DP kernel must match the scalar Python DP bit for bit."""

    def _cases(self):
        for name in ("satrec", "qmf12_3d", "16qamModem"):
            yield name, table1_graph(name)
        for size in (12, 30, 50):
            for seed in (0, 7):
                yield f"rand{size}_{seed}", random_sdf_graph(size, seed=seed)

    def test_native_matches_pure_python(self):
        from repro.native import get_kernels
        from repro.scheduling.common import ChainContext
        from repro.scheduling.dppo import dppo
        from repro.scheduling.sdppo import sdppo
        from repro.sdf.repetitions import repetitions_vector

        if get_kernels() is None:
            pytest.skip("native kernel unavailable (no cc, or REPRO_NATIVE=0)")
        for name, graph in self._cases():
            q = repetitions_vector(graph)
            order = graph.topological_order()
            fast = ChainContext(graph, order, q, trusted=True)
            slow = ChainContext(graph, order, q, trusted=True)
            assert fast.use_native, name
            d_fast = dppo(graph, order, q, context=fast, backend="native")
            d_slow = dppo(graph, order, q, context=slow, backend="python")
            assert d_fast.cost == d_slow.cost, name
            assert d_fast.b == d_slow.b, name
            assert d_fast.split == d_slow.split, name
            assert str(d_fast.schedule) == str(d_slow.schedule), name
            for factoring in ("auto", "always", "never"):
                s_fast = sdppo(
                    graph, order, q, factoring=factoring, context=fast,
                    backend="native",
                )
                s_slow = sdppo(
                    graph, order, q, factoring=factoring, context=slow,
                    backend="python",
                )
                assert s_fast.cost == s_slow.cost, (name, factoring)
                assert s_fast.b == s_slow.b, (name, factoring)
                assert s_fast.split == s_slow.split, (name, factoring)
                assert s_fast.factored == s_slow.factored, (name, factoring)
                assert str(s_fast.schedule) == str(s_slow.schedule), (
                    name,
                    factoring,
                )
