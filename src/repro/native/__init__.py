"""cc-compiled native kernel for the scheduler's hot core.

The chain DP (:func:`repro.scheduling.common.chain_dp`, the one
episodic/persistent recurrence behind DPPO's EQ 2 and SDPPO's EQ 5) is
the compile path's inner loop.  This package compiles it once with the
system C compiler into a small shared object, content-addressed in the
artifact cache (keyed by kernel source + compiler identity + cflags +
ABI), and loads it via ctypes.  No option selects it: the graph does.

Loading costs a cold process about 30 ms (``ctypes``, the artifact
cache, a ``cc --version`` probe and the ``dlopen``), more than the
scalar DP costs below about 60 actors.  So
:func:`~repro.scheduling.pipeline.implement` asks :func:`kernel_pays`:
the kernel is loaded for a graph of at least :data:`CROSSOVER_ACTORS`
actors, and used for any graph once this process has loaded it;
otherwise the scalar DP runs and nothing here beyond this
``__init__`` is imported.  Processes that compile many graphs load it
up front with :func:`get_kernels`: each serving shard
(:class:`~repro.serve.farm.ShardCore`) and the ``repro`` commands
``check``, ``table1``, ``fig25``, ``fig27`` and ``report``.  The
kernel-level ``dppo``/``sdppo(..., backend=...)`` keyword, resolved by
:func:`resolve_backend`, reaches either DP directly; the differential
harness and the benchmark's traced replay use it.

The contract is *bit-identity*: the native kernel produces exactly the
bytes the scalar Python DP produces (same first-minimum tie-breaks,
same exact integer arithmetic, same factoring decisions), pinned by
the differential harness across the acyclic, broadcast, and cyclic
trial families and by a dedicated ``native_kernel`` fault-injection
class.  When no compiler is available (or ``$REPRO_NATIVE=0``) every
entry point silently takes the Python path — zero behavior change,
counted as ``native.fallback`` via :mod:`repro.obs`.  A load that
:func:`kernel_pays` skips is not a fallback and is not counted.
"""

import sys

from .._lazy import attach

#: Actor count from which a compile loads the kernel into a process
#: that has not loaded it yet.  Below it the scalar DP costs
#: less than a cold load (``docs/architecture.md``, "Native kernels",
#: has the measurements).
CROSSOVER_ACTORS = 60


def kernel_pays(actors: int) -> bool:
    """Whether a compile of a graph of ``actors`` should use the kernel.

    True for a graph of at least :data:`CROSSOVER_ACTORS` actors, or
    when this process has already loaded the kernel.  Never imports
    the kernel bindings (nor ``ctypes``) itself.
    """
    if actors >= CROSSOVER_ACTORS:
        return True
    kernels = sys.modules.get(__name__ + ".kernels")
    return kernels is not None and kernels.loaded()


__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "BACKENDS": ".kernels",
    "CFLAGS": ".build",
    "KERNEL_ABI_VERSION": ".source",
    "KERNEL_SOURCE": ".source",
    "NativeKernels": ".kernels",
    "build_kernel": ".build",
    "compiler_identity": ".build",
    "find_compiler": ".build",
    "get_kernels": ".kernels",
    "kernel_fault": ".kernels",
    "kernel_key": ".build",
    "native_enabled": ".build",
    "reset": ".kernels",
    "resolve_backend": ".kernels",
}, extra=("CROSSOVER_ACTORS", "kernel_pays"))
