"""Golden output ledger: byte identity of the pinned outputs.

The files under ``tests/golden/`` are regenerated only by
``python scripts/golden.py --write``; these tests render the same
outputs with the current code and require them byte for byte:

* ``repro compile`` stdout and ``canonical()`` report digests for the
  Table 1 systems and CD-DAT (plain ``--check`` on the scalar VM,
  ``--vectorize --check`` on the batched VM, ``--method apgan``), run
  with ``--backend native``: the C kernel where one builds, the Python
  DP where none does (no compiler, ``REPRO_NATIVE=0``).  On a host
  with a kernel the explicit ``--backend python`` leg costs more than
  this whole file, so it runs in ``python scripts/golden.py`` (and
  ``make check``) instead;
* the ``repro check --inject`` transcript, with and without the native
  kernel;
* the emitted C (plain and instrumented) and Python sources;
* RPMC orders and the plain/vectorized buffer lifetimes of seeded
  random graphs.
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
    assert GOLDEN.compile_ledger("native") == GOLDEN.read("compile.txt")


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
