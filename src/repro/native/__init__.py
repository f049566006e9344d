"""cc-compiled native kernel for the scheduler's hot core.

The chain DP (DPPO's EQ 2 and SDPPO's EQ 5, including the
episodic/persistent split for delayed graphs) is the compile path's
inner loop.  This package compiles it once with the system C compiler
into a small shared object, content-addressed in the artifact cache
(keyed by kernel source + compiler identity + cflags + ABI), loads it
via ctypes, and dispatches to it behind ``backend="auto"|"python"|"native"`` at the
``implement``/``CompilationSession`` level.

The contract is *bit-identity*: the native kernel produces exactly the
bytes the scalar Python DP produces (same first-minimum tie-breaks,
same exact integer arithmetic, same factoring decisions), pinned by
the differential harness across the acyclic, broadcast, and cyclic
trial families and by a dedicated ``native_kernel`` fault-injection
class.  When no compiler is available (or ``$REPRO_NATIVE=0``) every
entry point silently takes the Python path — zero behavior change,
counted as ``native.fallback`` via :mod:`repro.obs`.
"""

from .._lazy import attach

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
})
