"""A cold ``repro compile`` imports only the code it executes.

numpy (about 100 ms to import), the HTTP service and code generation
stay out of a plain compile: numpy loads on first use by the
vectorized DP or :class:`~repro.codegen.batched_vm.BatchedVM`, the
native kernels reach the artifact cache through the leaf
:mod:`repro.artifacts`, and the CLI imports codegen only under
``--check``/``--emit-c``.  Package ``__init__`` files re-export
lazily, so sibling modules the compile never runs stay unloaded too.
Each check runs in a fresh interpreter, since the test process itself
has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Modules a plain compile must not load.
SERVICE_MODULES = (
    "repro.serve.server",
    "repro.serve.farm",
    "repro.serve.client",
    "repro.serve.service",
)

#: Modules whose code a plain compile never runs; each loaded only
#: through an eager package re-export before those became lazy.
NEVER_LOADED = (
    "repro.sdf.simulate",
    "repro.sdf.random_graphs",
    "repro.sdf.io",
    "repro.sdf.transformations",
    "repro.scheduling.vectorize",
    "repro.scheduling.cyclic",
    "repro.scheduling.exhaustive",
    "repro.allocation.optimal",
    "repro.lifetimes.granularity",
    "repro.obs.export",
    "repro.artifacts.report",
    "repro.apps.filterbanks",
    "repro.apps.homogeneous",
    "repro.experiments",
)

#: The experiment harnesses ``repro.experiments`` used to load eagerly.
HARNESS_MODULES = (
    "repro.experiments.table1",
    "repro.experiments.fig25",
    "repro.experiments.random_graphs",
    "repro.experiments.homogeneous_exp",
    "repro.experiments.satrec_comparison",
    "repro.experiments.cddat_io",
    "repro.experiments.optimality_gap",
    "repro.experiments.ablations",
    "repro.baselines",
    "repro.extensions",
)


def _run(code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _modules_after_compile(*argv: str):
    return set(_run(
        "import json, sys\n"
        "import repro.cli\n"
        f"code = repro.cli.main({['compile', *argv]!r})\n"
        "assert code == 0, code\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    ))


class TestColdCompile:
    def test_plain_compile_skips_numpy_service_and_codegen(self):
        loaded = _modules_after_compile("satrec")
        assert "numpy" not in loaded
        for name in SERVICE_MODULES:
            assert name not in loaded
        assert "repro.serve" not in loaded
        assert "repro.codegen" not in loaded

    @pytest.mark.parametrize("system", ["satrec", "16qamModem"])
    def test_plain_compile_skips_unexecuted_modules(self, system):
        loaded = _modules_after_compile(system)
        assert sorted(set(NEVER_LOADED) & loaded) == []

    def test_profile_and_jobs_load_only_the_runner(self):
        loaded = _modules_after_compile(
            "satrec", "--profile", "--jobs", "1"
        )
        assert "repro.experiments.runner" in loaded
        assert sorted(set(HARNESS_MODULES) & loaded) == []

    def test_check_still_loads_codegen(self):
        loaded = _modules_after_compile("satrec", "--check")
        assert "repro.codegen" in loaded
        for name in SERVICE_MODULES:
            assert name not in loaded


class TestNativeResolveStage:
    def test_first_implement_attributes_kernel_load(self):
        code = (
            "import json, sys\n"
            "from repro import obs\n"
            "from repro.apps import cd_to_dat\n"
            "from repro.scheduling.pipeline import implement\n"
            "rec = obs.TraceRecorder()\n"
            "implement(cd_to_dat(), recorder=rec)\n"
            "root, = [s for s in rec.roots if s.name == 'implement']\n"
            "covered = sum(c.duration for c in root.children)\n"
            "print(json.dumps({\n"
            "    'children': [c.name for c in root.children],\n"
            "    'coverage': covered / root.duration,\n"
            "    'serve': 'repro.serve' in sys.modules,\n"
            "}))\n"
        )
        runs = [_run(code) for _ in range(3)]
        for run in runs:
            assert "native.resolve" in run["children"]
            assert run["serve"] is False
        # Best of three absorbs scheduler jitter on a loaded box.
        assert max(run["coverage"] for run in runs) >= 0.95


class TestBatchedVMNumpy:
    def test_constructed_vm_holds_ndarray_memory(self):
        np = pytest.importorskip("numpy")
        from repro.apps import cd_to_dat
        from repro.codegen.batched_vm import BatchedVM
        from repro.scheduling.pipeline import implement

        graph = cd_to_dat()
        result = implement(graph, vectorize=True)
        vm = BatchedVM(graph, result.lifetimes, result.allocation)
        assert isinstance(vm.mem_edge, np.ndarray)
        assert isinstance(vm.mem_seq, np.ndarray)
        vm.run(1)
