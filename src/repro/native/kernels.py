"""ctypes bindings over the compiled kernel shared object.

:class:`NativeKernels` wraps the loaded library with a Python-shaped
entry point mirroring the pure path it replaces:
:meth:`NativeKernels.dp_over_context` returns the ``(b, split,
factored)`` triple the scalar DP :func:`repro.scheduling.common.chain_dp`
builds.

Loading is memoized per process (one ``dlopen`` however many
``implement`` calls run) behind :func:`get_kernels`; a failed build is
memoized too, so a compiler-less host pays the discovery cost once.
``$REPRO_NATIVE`` is consulted on *every* call, so flipping it
mid-process (tests, operators) takes effect immediately.

The module also hosts the ``native_kernel`` fault-injection hook
(:func:`kernel_fault`): while armed, each kernel invocation perturbs
one DP cost cell the way a real miscompiled kernel would, so the
differential harness can prove it notices.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

from .build import build_kernel, native_enabled
from .source import KERNEL_ABI_VERSION

__all__ = [
    "BACKENDS",
    "NativeKernels",
    "get_kernels",
    "kernel_fault",
    "loaded",
    "reset",
    "resolve_backend",
]

#: The values :func:`resolve_backend` accepts (the kernel-level
#: ``dppo``/``sdppo`` keyword).
BACKENDS = ("auto", "python", "native")

_FACTORING_CODES = {"auto": 0, "always": 1, "never": 2}

#: Armed fault kind for the ``native_kernel`` mutation class, or None.
_FAULT: Dict[str, Optional[str]] = {"kind": None}


@contextmanager
def kernel_fault(kind: str):
    """Arm the native fault hook for the enclosed block.

    ``kind`` is ``"dp_cell"``: each DP invocation's final cost cell is
    bumped by one word.  Only the fault-injection self-test uses this.
    """
    if kind != "dp_cell":
        raise ValueError(f"unknown native fault kind {kind!r}")
    previous = _FAULT["kind"]
    _FAULT["kind"] = kind
    try:
        yield
    finally:
        _FAULT["kind"] = previous


def _fault_armed(kind: str) -> bool:
    return _FAULT["kind"] == kind


def _as_int_list(arr) -> List[int]:
    """A ctypes int64 array as a plain list, via one bulk buffer copy."""
    import array

    buf = array.array("q")
    buf.frombytes(bytes(arr))
    return buf.tolist()


@lru_cache(maxsize=8)
def _window_keys(n: int) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Upper-triangle ``(i, j)`` keys and their flat row-major indices.

    Cached per chain length so repeated DP calls (DPPO then SDPPO, or
    many graphs of one size) skip rebuilding ~n^2/2 tuples each time.
    """
    keys = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    return keys, [i * n + j for (i, j) in keys]


_TRUTH = (False, True)


class NativeKernels:
    """A loaded kernel library plus its typed entry points."""

    def __init__(self, lib: ctypes.CDLL, path: str) -> None:
        self._lib = lib
        #: Where the binary lives in the artifact cache (diagnostics).
        self.path = path
        i64p = ctypes.POINTER(ctypes.c_int64)
        u8p = ctypes.POINTER(ctypes.c_uint8)
        lib.repro_abi_version.restype = ctypes.c_int64
        lib.repro_abi_version.argtypes = ()
        lib.repro_dp.restype = ctypes.c_int
        lib.repro_dp.argtypes = (
            ctypes.c_int64,
            i64p, i64p, i64p, i64p,
            ctypes.c_int32, ctypes.c_int32,
            i64p, i64p, u8p, i64p, i64p,
        )

    # -- chain DP -------------------------------------------------------
    def _context_state(self, context) -> tuple:
        """Flattened int64 ctypes copies of the context's prefix/gcd grids.

        Cached on the context so the DPPO and SDPPO runs over one order
        flatten the tables once.
        """
        state = context._native_state
        if state is None:
            import array
            from itertools import chain

            n = context.n
            m = n + 1

            def flatten(grid, size):
                buf = array.array("q", chain.from_iterable(grid))
                return (ctypes.c_int64 * size).from_buffer_copy(buf)

            state = (
                flatten(context._tw_prefix, m * m),
                flatten(context._dw_prefix, m * m),
                flatten(context._ptw_prefix, m * m),
                flatten(context._g, n * n),
            )
            context._native_state = state
        return state

    def dp_over_context(
        self,
        context,
        shared: bool,
        factoring: str = "auto",
    ) -> Tuple[
        List[List[int]], Dict[Tuple[int, int], int], Dict[Tuple[int, int], bool]
    ]:
        """The chain DP in C: ``(b rows, split, factored)``.

        It mirrors :func:`~repro.scheduling.common.chain_dp`.  The
        caller must have checked ``context.use_native`` (the int64
        overflow guard); results are bit-identical to the scalar DP.
        """
        n = context.n
        pt, pd, pp, g = self._context_state(context)
        cells = n * n
        b = (ctypes.c_int64 * cells)()
        split_arr = (ctypes.c_int64 * cells)()
        factored_arr = (ctypes.c_uint8 * cells)()
        ep = (ctypes.c_int64 * cells)()
        pers = (ctypes.c_int64 * cells)()
        rc = self._lib.repro_dp(
            n, pt, pd, pp, g,
            1 if shared else 0, _FACTORING_CODES[factoring],
            b, split_arr, factored_arr, ep, pers,
        )
        if rc != 0:
            raise RuntimeError(f"repro_dp returned {rc}")
        # Bulk buffer-protocol conversions; per-element __getitem__ on
        # the ctypes arrays is what used to dominate the wrapper.
        flat = _as_int_list(b)
        if n >= 2 and _fault_armed("dp_cell"):
            # The injected bug: the full-window cost comes back off by
            # one word, as a miscompiled combiner would produce.
            flat[n - 1] += 1
        rows = [flat[i * n:(i + 1) * n] for i in range(n)]
        splits = _as_int_list(split_arr)
        keys, idx = _window_keys(n)
        split: Dict[Tuple[int, int], int] = dict(
            zip(keys, map(splits.__getitem__, idx))
        )
        factored: Dict[Tuple[int, int], bool] = {}
        if shared:
            facts = bytes(factored_arr)
            factored = dict(
                zip(keys, map(_TRUTH.__getitem__, map(facts.__getitem__, idx)))
            )
        return rows, split, factored


# -- process-wide loader ------------------------------------------------
_LOCK = threading.Lock()
#: None = never tried, False = tried and failed, NativeKernels = loaded.
_KERNELS: Union[None, bool, NativeKernels] = None


def _load(recorder=None) -> NativeKernels:
    path = build_kernel(recorder=recorder)
    lib = ctypes.CDLL(path)
    kernels = NativeKernels(lib, path)
    abi = lib.repro_abi_version()
    if abi != KERNEL_ABI_VERSION:
        raise RuntimeError(
            f"kernel ABI {abi} != expected {KERNEL_ABI_VERSION}"
        )
    return kernels


def get_kernels(recorder=None) -> Optional[NativeKernels]:
    """The process's kernel bindings, or ``None`` when unavailable.

    Build/load happens at most once per process (including the failed
    case); the ``$REPRO_NATIVE`` gate is re-read every call.
    """
    global _KERNELS
    if not native_enabled():
        return None
    if _KERNELS is None:
        with _LOCK:
            if _KERNELS is None:
                try:
                    _KERNELS = _load(recorder=recorder)
                except Exception:
                    _KERNELS = False
    return _KERNELS if isinstance(_KERNELS, NativeKernels) else None


def loaded() -> bool:
    """Whether this process holds a loaded kernel (no build or load)."""
    return isinstance(_KERNELS, NativeKernels)


def reset() -> None:
    """Forget the memoized load (tests that manipulate cc/env use this)."""
    global _KERNELS
    with _LOCK:
        _KERNELS = None


def resolve_backend(
    backend: Optional[str], recorder=None
) -> Tuple[str, Optional[NativeKernels]]:
    """Map a requested backend to ``(effective, kernels)``.

    ``"python"`` never touches the native layer.  ``"auto"`` and
    ``"native"`` both try the kernels and *silently* fall back to
    ``"python"`` when they are unavailable (no compiler, disabled via
    ``$REPRO_NATIVE``, failed build) — results are bit-identical by
    contract, so the only trace is one ``native.fallback`` count on the
    recorder.  Unknown names raise ``ValueError``.
    """
    if backend is None:
        backend = "auto"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {list(BACKENDS)}"
        )
    if backend == "python":
        return "python", None
    kernels = get_kernels(recorder=recorder)
    if kernels is None:
        if recorder is not None:
            recorder.count("native.fallback")
        return "python", None
    return "native", kernels
