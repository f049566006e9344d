"""A cold ``repro compile`` imports only the code it executes.

The HTTP service and code generation stay out of a plain compile, and
no compile loads numpy (about 100 ms to import): the package has no
numpy path left, :class:`~repro.codegen.batched_vm.BatchedVM`
included.  The native kernel reaches the artifact cache through the leaf
:mod:`repro.artifacts`, and the CLI imports codegen only under
``--check``/``--emit-c``.  Package ``__init__`` files re-export
lazily, so sibling modules the compile never runs stay unloaded too.
Below :data:`repro.native.CROSSOVER_ACTORS` actors a compile does not
load the native kernel, so neither ``ctypes`` nor the kernel build path
(``subprocess``, ``tempfile``, ``hashlib``, the artifact cache) loads.
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


#: Modules only loading the native kernel imports.
KERNEL_MODULES = (
    "ctypes",
    "subprocess",
    "tempfile",
    "hashlib",
    "repro.artifacts",
    "repro.native.build",
    "repro.native.kernels",
)


def _modules_added_by_compile(*argv: str):
    """Modules a compile loads beyond those the interpreter started with.

    Site hooks may import some standard modules at start-up; the check
    is on what the compile itself adds.
    """
    return set(_run(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import repro.cli\n"
        f"code = repro.cli.main({['compile', *argv]!r})\n"
        "assert code == 0, code\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
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

    @pytest.mark.parametrize("system", ["satrec", "16qamModem"])
    def test_small_compile_loads_no_kernel(self, system):
        added = _modules_added_by_compile(system)
        assert sorted(set(KERNEL_MODULES) & added) == []
        assert "repro.native" in added

    def test_profile_loads_the_recorder_and_no_harness(self):
        loaded = _modules_after_compile("satrec", "--profile")
        assert "repro.obs.recorder" in loaded
        assert sorted(set(HARNESS_MODULES) & loaded) == []
        assert "repro.experiments.runner" not in loaded

    def test_check_still_loads_codegen(self):
        loaded = _modules_after_compile("satrec", "--check")
        assert "repro.codegen" in loaded
        for name in SERVICE_MODULES:
            assert name not in loaded


class TestNativeResolveStage:
    def test_first_implement_attributes_kernel_load(self):
        # A graph at the crossover: the first compile loads the kernel.
        code = (
            "import json, sys\n"
            "from repro import obs\n"
            "from repro.native import CROSSOVER_ACTORS\n"
            "from repro.scheduling.pipeline import implement\n"
            "from repro.sdf.random_graphs import random_sdf_graph\n"
            "graph = random_sdf_graph(CROSSOVER_ACTORS, seed=1)\n"
            "rec = obs.TraceRecorder()\n"
            "implement(graph, recorder=rec)\n"
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

    def test_small_graph_skips_the_resolve(self):
        run = _run(
            "import json, sys\n"
            "from repro import obs\n"
            "from repro.apps import cd_to_dat\n"
            "from repro.scheduling.pipeline import implement\n"
            "rec = obs.TraceRecorder()\n"
            "implement(cd_to_dat(), recorder=rec)\n"
            "root, = [s for s in rec.roots if s.name == 'implement']\n"
            "print(json.dumps({\n"
            "    'children': [c.name for c in root.children],\n"
            "    'counters': rec.counter_totals(),\n"
            "    'kernels': 'repro.native.kernels' in sys.modules,\n"
            "}))\n"
        )
        assert "native.resolve" not in run["children"]
        # A skipped load is not a fallback.
        assert "native.fallback" not in run["counters"]
        assert "native.dp" not in run["counters"]
        assert run["kernels"] is False

    @pytest.mark.parametrize("argv", [
        ["table1", "--systems", "satrec"],
        ["fig25", "--systems", "satrec"],
        ["fig27", "--sizes", "10", "--count", "1"],
    ])
    def test_sweep_commands_load_the_kernel_first(self, argv):
        # Sweeps compile many graphs below the crossover; together
        # they repay the load.
        run = _run(
            "import contextlib, io, json, sys\n"
            "import repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = repro.cli.main({argv!r})\n"
            "print(json.dumps({'code': code,"
            " 'kernels': 'repro.native.kernels' in sys.modules}))\n"
        )
        assert run == {"code": 0, "kernels": True}

    def test_cli_profile_of_a_system_has_no_resolve_row(self):
        run = _run(
            "import contextlib, io, json\n"
            "import repro.cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = repro.cli.main(['compile', 'satrec', '--profile'])\n"
            "print(json.dumps({'code': code, 'out': out.getvalue()}))\n"
        )
        assert run["code"] == 0
        assert "topsort:" in run["out"]
        assert "native.resolve" not in run["out"]


class TestBatchedVMWithoutNumpy:
    def test_vectorized_check_loads_no_numpy(self):
        run = _run(
            "import contextlib, io, json, runpy, sys\n"
            "sys.argv = ['repro', 'compile', 'cddat', '--vectorize',"
            " '--check']\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    try:\n"
            "        runpy.run_module('repro', run_name='__main__')\n"
            "    except SystemExit as exit:\n"
            "        code = exit.code\n"
            "print(json.dumps({'code': code, 'out': out.getvalue(),"
            " 'modules': sorted(sys.modules)}))\n"
        )
        assert run["code"] == 0
        assert "execution check: OK" in run["out"]
        assert "batched VM" in run["out"]
        assert "numpy" not in run["modules"]
