"""Shared test fixtures and helpers.

``repro.cli`` deliberately exports ``--jobs`` to ``REPRO_JOBS`` for the
rest of the process (so nested ``parallel_map`` calls see it).  Inside
the test suite that export must not leak across tests —
``monkeypatch.delenv(..., raising=False)`` on an *unset* variable
records nothing to undo, so a CLI test that passes ``--jobs 2`` would
silently flip every later test (notably the serve ``/batch`` tests,
whose hit/miss statuses depend on serial fan-out) into parallel mode.

``requires_cc`` and :func:`build_and_run_c` are the one way tests build
and run emitted C: ``cc -O2 -Wall -Werror``, then the binary.
"""

import os
import shutil
import subprocess

import pytest

#: Skip marker for tests that compile emitted C with the system ``cc``.
requires_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no system C compiler (cc)"
)


def build_and_run_c(code, tmp_path, name):
    """Compile C source ``code`` under ``tmp_path`` and run the binary.

    The build must succeed (its stderr is the assertion message); the
    finished run is returned for the caller to check.
    """
    source = tmp_path / f"{name}.c"
    source.write_text(code)
    exe = tmp_path / name
    build = subprocess.run(
        ["cc", "-O2", "-Wall", "-Werror", "-o", str(exe), str(source)],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stderr
    return subprocess.run(
        [str(exe)], capture_output=True, text=True, timeout=60
    )


@pytest.fixture(autouse=True)
def _isolate_repro_jobs():
    before = os.environ.get("REPRO_JOBS")
    yield
    if before is None:
        os.environ.pop("REPRO_JOBS", None)
    else:
        os.environ["REPRO_JOBS"] = before
