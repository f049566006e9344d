"""The native kernel layer: bit-identity, dispatch, fallback, caching.

The contract under test is strict: with a compiler present, every
``backend="native"`` result is byte-for-byte identical to the Python
paths — DP tables, split/factoring decisions, schedules, allocations,
full ``implement`` outputs.  Without one (or with ``REPRO_NATIVE=0``),
every entry point silently takes the Python path, observable only as a
single ``native.fallback`` counter.  Kernel binaries are
content-addressed in the artifact cache, digest-verified on read, and
rebuilt (never served) when corrupt.
"""

import os
import random
import shutil

import pytest

from repro import native, obs
from repro.apps import cd_to_dat, satellite_receiver
from repro.check.fault_injection import MUTATION_CLASSES, inject_native_kernel
from repro.check.harness import run_check
from repro.check.oracles import build_artifacts, native_oracles
from repro.cli import main
from repro.native import build_kernel, get_kernels, kernel_fault, resolve_backend
from repro.scheduling import common
from repro.scheduling.dppo import dppo
from repro.scheduling.pipeline import implement
from repro.scheduling.sdppo import sdppo
from repro.sdf.random_graphs import random_sdf_graph
from repro.artifacts import ArtifactCache, cache_key
from repro.serve.service import CompileOptions, CompileService
from repro.sdf.io import to_json

requires_cc = pytest.mark.skipif(
    shutil.which("cc") is None or not native.native_enabled(),
    reason="native kernels unavailable (no cc, or REPRO_NATIVE=0)",
)


@pytest.fixture(autouse=True)
def _reset_native_loader():
    """Tests below poison the memoized loader (bad $REPRO_CC, disabled
    env); forget it afterwards so later tests re-probe cleanly."""
    yield
    native.reset()


def _implement_signature(result):
    return (
        result.order,
        result.dppo_cost,
        str(result.dppo_schedule),
        result.sdppo_cost,
        str(result.sdppo_schedule),
        result.allocation.offsets,
        result.allocation.total,
        result.bmlb,
    )


# -- bit-identity with a compiler present -------------------------------

@requires_cc
class TestBitIdentity:
    def test_dp_tables_and_schedules(self):
        kernels = get_kernels()
        assert kernels is not None
        for seed in range(12):
            graph = random_sdf_graph(2 + seed, seed=seed)
            order = graph.topological_order()
            for factoring in ("auto", "always", "never"):
                ctx_p = common.ChainContext(graph, order)
                ctx_n = common.ChainContext(graph, order)
                rp = sdppo(
                    graph, order, context=ctx_p,
                    factoring=factoring, backend="python",
                )
                rn = sdppo(
                    graph, order, context=ctx_n,
                    factoring=factoring, backend="native",
                )
                assert rp.cost == rn.cost
                assert rp.b == rn.b
                assert rp.factored == rn.factored
                assert str(rp.schedule) == str(rn.schedule)
            ctx_p = common.ChainContext(graph, order)
            ctx_n = common.ChainContext(graph, order)
            dp = dppo(graph, order, context=ctx_p, backend="python")
            dn = dppo(graph, order, context=ctx_n, backend="native")
            assert (dp.cost, dp.b, str(dp.schedule)) == (
                dn.cost, dn.b, str(dn.schedule)
            )

    def test_raw_dp_over_context_triple(self):
        # The kernel's raw (b, split, factored) triple is the scalar
        # DP's, cell for cell, for both combiners.
        kernels = get_kernels()
        assert kernels is not None
        for seed in (0, 3, 7):
            graph = random_sdf_graph(4 + seed, seed=seed + 50)
            order = graph.topological_order()
            ctx = common.ChainContext(graph, order)
            dp = dppo(graph, order, context=ctx, backend="python")
            bn, sn, fn = kernels.dp_over_context(ctx, shared=False)
            assert (bn, sn, fn) == (dp.b, dp.split, {})
            sp = sdppo(graph, order, context=ctx, backend="python")
            bn, sn, fn = kernels.dp_over_context(ctx, shared=True)
            assert (bn, sn, fn) == (sp.b, sp.split, sp.factored)

    def test_implement_end_to_end(self):
        for graph in (cd_to_dat(), satellite_receiver(),
                      random_sdf_graph(20, seed=9)):
            for method in ("rpmc", "apgan"):
                rp = implement(graph, method, seed=1, backend="python")
                rn = implement(graph, method, seed=1, backend="native")
                assert _implement_signature(rp) == _implement_signature(rn)

    def test_native_counters_and_auto_dispatch(self):
        # At the crossover, "auto" loads the kernel whatever this
        # process has loaded before (the autouse fixture forgets it).
        rec = obs.TraceRecorder()
        graph = random_sdf_graph(native.CROSSOVER_ACTORS, seed=2)
        implement(graph, "apgan", backend="auto", recorder=rec)
        totals = rec.counter_totals()
        assert totals.get("native.dp", 0) >= 1
        # First-fit has one (Python) implementation; no native arm.
        assert "native.first_fit" not in totals
        assert "native.fallback" not in totals

    def test_auto_below_the_crossover_uses_a_loaded_kernel(self):
        assert get_kernels() is not None
        assert native.kernel_pays(1)
        rec = obs.TraceRecorder()
        implement(random_sdf_graph(12, seed=2), "apgan", backend="auto",
                  recorder=rec)
        totals = rec.counter_totals()
        assert totals.get("native.dp", 0) >= 1
        assert "native.fallback" not in totals

    def test_backend_none_defaults_to_session(self):
        from repro.scheduling.session import CompilationSession
        graph = cd_to_dat()
        session = CompilationSession(graph, backend="python")
        rec = obs.TraceRecorder()
        implement(graph, "apgan", session=session, recorder=rec)
        assert "native.dp" not in rec.counter_totals()


# -- fallback without a usable compiler ---------------------------------

class TestFallback:
    def test_env_disable_is_silent_and_bit_identical(self, monkeypatch):
        graph = cd_to_dat()
        reference = implement(graph, "apgan", backend="python")
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        assert get_kernels() is None
        rec = obs.TraceRecorder()
        result = implement(graph, "apgan", backend="native", recorder=rec)
        assert _implement_signature(result) == _implement_signature(reference)
        totals = rec.counter_totals()
        assert totals["native.fallback"] == 1
        assert "native.dp" not in totals

    def test_missing_compiler_memoized_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "no-such-compiler-on-any-path")
        native.reset()
        assert get_kernels() is None
        rec = obs.TraceRecorder()
        eff, kernels = resolve_backend("auto", recorder=rec)
        assert (eff, kernels) == ("python", None)
        assert rec.counter_totals()["native.fallback"] == 1

    def test_python_backend_never_probes(self, monkeypatch):
        # A backend="python" request must not even look for a compiler.
        monkeypatch.setenv("REPRO_CC", "no-such-compiler-on-any-path")
        native.reset()
        rec = obs.TraceRecorder()
        eff, kernels = resolve_backend("python", recorder=rec)
        assert (eff, kernels) == ("python", None)
        assert "native.fallback" not in rec.counter_totals()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("fortran")

    def test_native_oracles_vacuous_without_kernels(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        art = build_artifacts(cd_to_dat(), "apgan", backend="native")
        assert native_oracles(art) == []


# -- kernel artifact caching --------------------------------------------

@requires_cc
class TestKernelCache:
    def test_build_then_cache_hit(self, tmp_path):
        rec = obs.TraceRecorder()
        first = build_kernel(cache_root=str(tmp_path), recorder=rec)
        second = build_kernel(cache_root=str(tmp_path), recorder=rec)
        assert first == second
        assert os.path.exists(first)
        totals = rec.counter_totals()
        assert totals["native.kernel_builds"] == 1
        assert totals["native.kernel_cache_hits"] == 1

    def test_corrupt_binary_rebuilt_not_served(self, tmp_path):
        path = build_kernel(cache_root=str(tmp_path))
        with open(path, "wb") as handle:
            handle.write(b"not a shared object")
        rec = obs.TraceRecorder()
        rebuilt = build_kernel(cache_root=str(tmp_path), recorder=rec)
        assert rec.counter_totals()["native.kernel_builds"] == 1
        with open(rebuilt, "rb") as handle:
            assert handle.read() != b"not a shared object"

    def test_cache_stats_separates_kinds(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        build_kernel(cache_root=str(tmp_path))
        service = CompileService(cache=cache)
        report, status = service.compile_document(to_json(cd_to_dat()))
        assert status == "miss"
        stats = cache.stats()
        assert stats["kinds"]["reports"]["entries"] == 1
        assert stats["kinds"]["kernels"]["entries"] == 1
        assert stats["kinds"]["kernels"]["bytes"] > 0
        # Top-level figures keep their pre-kernel meaning: reports only.
        assert stats["entries"] == stats["kinds"]["reports"]["entries"]


# -- CompileOptions / cache-key neutrality ------------------------------

class TestCompileOptionsBackend:
    def test_round_trip_and_validation(self):
        options = CompileOptions.from_dict({"backend": "native"})
        assert options.backend == "native"
        assert CompileOptions.from_dict(options.as_dict()).backend == "native"
        with pytest.raises(ValueError):
            CompileOptions.from_dict({"backend": "fortran"})

    def test_backend_excluded_from_cache_key(self):
        document = to_json(cd_to_dat())
        keys = {
            cache_key(document, CompileOptions(backend=b).key_dict())
            for b in ("auto", "python", "native")
        }
        assert len(keys) == 1
        assert "backend" not in CompileOptions().key_dict()
        assert CompileOptions().as_dict()["backend"] == "auto"


# -- CLI ----------------------------------------------------------------

class TestCli:
    def test_compile_backend_python(self, capsys):
        assert main(["compile", "cddat", "--backend", "python"]) == 0
        assert "shared" in capsys.readouterr().out.lower()

    @requires_cc
    def test_compile_backend_native(self, capsys):
        python_out = None
        for backend in ("python", "native"):
            assert main(["compile", "cddat", "--backend", backend]) == 0
            out = capsys.readouterr().out
            if python_out is None:
                python_out = out
            else:
                assert out == python_out

    @requires_cc
    def test_cache_stats_prints_kinds(self, tmp_path, capsys):
        build_kernel(cache_root=str(tmp_path))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kernels:" in out
        assert "reports:" in out


# -- differential harness integration -----------------------------------

class TestHarnessIntegration:
    def test_mutation_registry_has_native_class(self):
        assert len(MUTATION_CLASSES) == 12
        assert "native_kernel" in MUTATION_CLASSES

    def test_injection_caught(self):
        art = build_artifacts(random_sdf_graph(8, seed=6), "apgan")
        outcome = inject_native_kernel(art, random.Random(0))
        assert outcome is not None
        assert outcome.caught

    @requires_cc
    def test_kernel_fault_changes_results(self):
        graph = random_sdf_graph(8, seed=6)
        reference = implement(graph, "apgan", verify=False, backend="native")
        with kernel_fault("dp_cell"):
            skewed = implement(graph, "apgan", verify=False, backend="native")
        assert (
            skewed.dppo_cost != reference.dppo_cost
            or skewed.sdppo_cost != reference.sdppo_cost
        )
        with pytest.raises(ValueError):
            with kernel_fault("segfault"):
                pass

    def test_run_check_native_backend(self):
        report = run_check(trials=4, seed=11, backend="native")
        assert report.ok, report.format()
