"""The native kernel layer: bit-identity, dispatch, fallback, caching.

The contract under test is strict: with a compiler present, every
kernel result is byte-for-byte identical to the Python paths — DP
tables, split/factoring decisions, schedules, allocations, full
``implement`` outputs.  ``implement`` takes no switch between the two:
tests reach the Python DP under ``REPRO_NATIVE=0`` and the kernel once
``get_kernels()`` has loaded it.  Without a compiler (or with
``REPRO_NATIVE=0``), every entry point silently takes the Python path,
observable only as a single ``native.fallback`` counter.  Kernel binaries are
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


def _python_dp(monkeypatch, run):
    """``run()`` with the native layer disabled: the Python DP."""
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_NATIVE", "0")
        return run()


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

    def test_implement_end_to_end(self, monkeypatch):
        assert get_kernels() is not None
        for graph in (cd_to_dat(), satellite_receiver(),
                      random_sdf_graph(20, seed=9)):
            for method in ("rpmc", "apgan"):
                rec = obs.TraceRecorder()
                rp = _python_dp(
                    monkeypatch, lambda: implement(graph, method, seed=1)
                )
                rn = implement(graph, method, seed=1, recorder=rec)
                assert rec.counter_totals().get("native.dp", 0) >= 1
                assert _implement_signature(rp) == _implement_signature(rn)

    def test_native_counters_and_auto_dispatch(self):
        # At the crossover, "auto" loads the kernel whatever this
        # process has loaded before (the autouse fixture forgets it).
        rec = obs.TraceRecorder()
        graph = random_sdf_graph(native.CROSSOVER_ACTORS, seed=2)
        implement(graph, "apgan", recorder=rec)
        totals = rec.counter_totals()
        assert totals.get("native.dp", 0) >= 1
        # First-fit has one (Python) implementation; no native arm.
        assert "native.first_fit" not in totals
        assert "native.fallback" not in totals

    def test_auto_below_the_crossover_uses_a_loaded_kernel(self):
        assert get_kernels() is not None
        assert native.kernel_pays(1)
        rec = obs.TraceRecorder()
        implement(random_sdf_graph(12, seed=2), "apgan", recorder=rec)
        totals = rec.counter_totals()
        assert totals.get("native.dp", 0) >= 1
        assert "native.fallback" not in totals


# -- fallback without a usable compiler ---------------------------------

class TestFallback:
    def test_env_disable_is_silent_and_bit_identical(self, monkeypatch):
        # At the crossover the compile asks for the kernel; disabled,
        # it falls back to the Python DP, counted once.
        graph = random_sdf_graph(native.CROSSOVER_ACTORS, seed=2)
        reference = implement(graph, "apgan")
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        assert get_kernels() is None
        rec = obs.TraceRecorder()
        result = implement(graph, "apgan", recorder=rec)
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
        art = build_artifacts(cd_to_dat(), "apgan")
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
        # The kernel is not a compile option.
        for backend in ("auto", "python", "native"):
            with pytest.raises(ValueError) as err:
                CompileOptions.from_dict({"backend": backend})
            assert str(err.value) == "unknown compile options: ['backend']"

    def test_backend_excluded_from_cache_key(self):
        # Pinned: the default options key the same entry as before the
        # option left, so existing on-disk cache entries stay valid.
        assert "backend" not in CompileOptions().key_dict()
        key = cache_key(
            to_json(cd_to_dat()), CompileOptions().key_dict(),
            version="1.0.0",
        )
        assert key == (
            "f10921c1737e7e062cd734dd2a4679622e741510569bf4a6ff50928ef6f6bf87"
        )


# -- CLI ----------------------------------------------------------------

class TestCli:
    def test_compile_backend_python(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert main(["compile", "cddat"]) == 0
        assert "shared" in capsys.readouterr().out.lower()

    @requires_cc
    def test_compile_backend_native(self, monkeypatch, capsys):
        assert _python_dp(
            monkeypatch, lambda: main(["compile", "cddat"])
        ) == 0
        python_out = capsys.readouterr().out
        assert get_kernels() is not None
        assert main(["compile", "cddat"]) == 0
        assert capsys.readouterr().out == python_out

    @pytest.mark.parametrize("command", ["compile", "check"])
    def test_backend_flag_rejected(self, command, capsys):
        argv = [command, "cddat"] if command == "compile" else [command]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--backend", "native"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_check_loads_the_kernel_first(self, monkeypatch, capsys):
        # Like the sweeps, ``repro check`` loads the kernel before its
        # first trial, so every trial compiles on it where one builds.
        from repro.check import CheckReport

        native.reset()
        loaded_at_start = []

        def run_check(**kwargs):
            loaded_at_start.append(native.kernels.loaded())
            return CheckReport(trials=0, seed=0)

        monkeypatch.setattr("repro.check.run_check", run_check)
        assert main(["check", "--trials", "1"]) == 0
        assert loaded_at_start == [get_kernels() is not None]

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
        assert get_kernels() is not None
        reference = implement(graph, "apgan", verify=False)
        with kernel_fault("dp_cell"):
            skewed = implement(graph, "apgan", verify=False)
        assert (
            skewed.dppo_cost != reference.dppo_cost
            or skewed.sdppo_cost != reference.sdppo_cost
        )
        with pytest.raises(ValueError):
            with kernel_fault("segfault"):
                pass

    def test_run_check_native_backend(self):
        get_kernels()
        report = run_check(trials=4, seed=11)
        assert report.ok, report.format()
