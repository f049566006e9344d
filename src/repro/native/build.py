"""Build and cache the native kernel shared object.

The kernel binary is a pure function of ``(C source, compiler
identity, cflags, ABI version)``, so it is content-addressed in the
leaf :class:`~repro.artifacts.cache.ArtifactCache` that also stores
compilation reports — under the cache root's ``kernels/`` area,
digest-verified on every load, with corrupt binaries evicted and
rebuilt.  A farm's worker processes (and every CI run with a warm
cache) therefore share one ``cc`` invocation.  Loading a kernel never
imports :mod:`repro.serve`.

Everything here degrades silently: no compiler on ``PATH``,
``REPRO_NATIVE=0``, a failed compile, or an unloadable binary all mean
"no native kernels" — the dispatch layer then takes the pure-Python
path with bit-identical results (counted as ``native.fallback`` by the
pipeline).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import tempfile
from typing import Optional

from ..artifacts import ArtifactCache
from .source import KERNEL_ABI_VERSION, KERNEL_SOURCE

__all__ = [
    "CFLAGS",
    "build_kernel",
    "compiler_identity",
    "find_compiler",
    "kernel_key",
    "native_enabled",
]

CFLAGS = ("-O2", "-fPIC", "-shared")

#: Values of ``$REPRO_NATIVE`` that disable the native path.
_DISABLED = ("0", "false", "no", "off")


def native_enabled() -> bool:
    """Whether ``$REPRO_NATIVE`` permits the native path (default yes).

    Checked at every dispatch, not at import, so tests (and operators)
    can flip the switch without reloading the package.
    """
    return os.environ.get("REPRO_NATIVE", "").strip().lower() not in _DISABLED


def find_compiler() -> Optional[str]:
    """Absolute path of the C compiler, or ``None``.

    ``$REPRO_CC`` overrides the default ``cc`` (useful for pinning a
    specific toolchain fleet-wide); resolution goes through ``PATH``
    either way.
    """
    return shutil.which(os.environ.get("REPRO_CC", "").strip() or "cc")


def compiler_identity(cc: str) -> str:
    """A digest identifying the toolchain: path plus ``--version`` banner.

    Part of the kernel cache key, so upgrading the compiler (or
    pointing ``$REPRO_CC`` elsewhere) rebuilds rather than reusing a
    binary from a different toolchain.
    """
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, timeout=30
        )
        banner = proc.stdout + proc.stderr
    except (OSError, subprocess.TimeoutExpired):
        banner = b""
    h = hashlib.sha256()
    h.update(cc.encode("utf-8", "surrogateescape"))
    h.update(b"\0")
    h.update(banner)
    return h.hexdigest()


def kernel_key(cc: str) -> str:
    """Content address of the kernel binary for compiler ``cc``."""
    payload = {
        "abi": KERNEL_ABI_VERSION,
        "cflags": list(CFLAGS),
        "compiler": compiler_identity(cc),
        "source": KERNEL_SOURCE,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_kernel(cache_root: Optional[str] = None, recorder=None) -> str:
    """Return the path of the compiled kernel ``.so``, building if needed.

    Checks the artifact cache's kernel area first (digest-verified; a
    corrupt binary is evicted and rebuilt), then compiles into a
    temporary directory and installs the result atomically.  Raises
    ``RuntimeError`` when no compiler is available or the compile
    fails — callers treat that as "fall back to Python".
    """
    cc = find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler (cc) found on PATH")
    cache = ArtifactCache(cache_root)
    key = kernel_key(cc)
    path = cache.get_kernel(key)
    if path is not None:
        if recorder is not None:
            recorder.count("native.kernel_cache_hits")
        return path
    with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
        src = os.path.join(tmp, "repro_kernels.c")
        out = os.path.join(tmp, "repro_kernels.so")
        with open(src, "w", encoding="utf-8") as handle:
            handle.write(KERNEL_SOURCE)
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", out, src],
            capture_output=True, timeout=300,
        )
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace")[:500]
            raise RuntimeError(f"kernel compile failed: {stderr}")
        with open(out, "rb") as handle:
            data = handle.read()
    if recorder is not None:
        recorder.count("native.kernel_builds")
    return cache.put_kernel(key, data)
