"""Code generation: inline C emission and shared-memory execution checks."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "emit_c": ".c_emitter",
    "emit_python": ".py_emitter",
    "compile_python": ".py_emitter",
    "SharedMemoryVM": ".vm",
    "BatchedVM": ".batched_vm",
    "run_shared_memory_check": ".vm",
})
