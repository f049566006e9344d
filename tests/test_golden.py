"""Golden output ledger: byte identity of the pinned outputs.

The files under ``tests/golden/`` are regenerated only by
``python scripts/golden.py --write``; these tests render the same
outputs with the current code and require them byte for byte:

* ``repro compile`` stdout and ``canonical()`` report digests for the
  Table 1 systems and CD-DAT (plain ``--check`` on the scalar VM,
  ``--vectorize --check`` on the batched VM, ``--method apgan``), run
  with the native kernel loaded first: the C kernel where one builds,
  the Python DP where none does (no compiler, ``REPRO_NATIVE=0``).  On
  a host with a kernel the ``REPRO_NATIVE=0`` leg costs more than this
  whole file, so it runs in ``python scripts/golden.py`` (and
  ``make check``) instead, with the fresh-interpreter leg;
* the ``repro check --inject`` transcript, with and without the native
  kernel;
* the emitted C (plain and instrumented) and Python sources;
* RPMC orders and the plain/vectorized buffer lifetimes of seeded
  random graphs;
* DPPO and SDPPO (every factoring policy) on seeded graphs, most of
  them with delayed edges, through the Python DP and, where one loads,
  the native kernel;
* both shared-memory VMs' outcomes (counters or exact error text) on
  clean, forged-overlay and shrunk-buffer programs of seeded graphs;
* the schedule replay's observables (``max_tokens``, coarse live
  intervals, the live-array peak, non-shared buffer memory) under the
  SDPPO or cyclic, vectorized and flat schedules of seeded graphs, and
  the exact errors of each schedule with one leaf dropped.
"""

import importlib.util
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load():
    spec = importlib.util.spec_from_file_location(
        "golden", os.path.join(REPO, "scripts", "golden.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = _load()


def test_compile_ledger():
    assert GOLDEN.compile_leg("kernel loaded") == GOLDEN.read("compile.txt")


def test_check_inject_with_kernel():
    from repro.native import get_kernels

    if get_kernels() is None:
        pytest.skip("no native kernel (no C compiler or REPRO_NATIVE=0)")
    assert GOLDEN.check_transcript(native=True) == GOLDEN.read(
        "check_inject.native.txt"
    )


def test_check_inject_without_kernel():
    assert GOLDEN.check_transcript(native=False) == GOLDEN.read(
        "check_inject.python.txt"
    )


def test_orders_lifetimes():
    assert GOLDEN.orders_lifetimes() == GOLDEN.read("orders_lifetimes.txt")


@pytest.mark.parametrize("backend", GOLDEN.CHAIN_DP_BACKENDS)
def test_chain_dp(backend):
    if backend == "native":
        from repro.native import get_kernels

        if get_kernels() is None:
            pytest.skip("no native kernel (no C compiler or REPRO_NATIVE=0)")
    assert GOLDEN.chain_dp(backend) == GOLDEN.read("chain_dp.txt")


def test_replay():
    assert GOLDEN.replay() == GOLDEN.read("replay.txt")


def test_vm_outcomes():
    assert GOLDEN.vm_outcomes() == GOLDEN.read("vm_outcomes.txt")


@pytest.fixture(scope="module")
def emitted():
    return GOLDEN.emitted_sources()


@pytest.mark.parametrize(
    "relative",
    [
        f"emit/{stem}{suffix}"
        for stem in GOLDEN.EMIT_SYSTEMS
        for suffix in (".c", ".instrumented.c", ".py")
    ],
)
def test_emitted_source(emitted, relative):
    assert emitted[relative] == GOLDEN.read(relative)
