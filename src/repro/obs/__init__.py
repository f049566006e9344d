"""Structured observability: spans, counters, and trace export.

The compiler's stages answer *what* they computed; this package answers
*where the time and work went*.  It is the package's only stage timer;
a recorder holds:

* hierarchical **spans** — nested stage timings recorded against an
  injected monotonic clock (:class:`TraceRecorder`), so the check
  harness can substitute a deterministic counter clock and stay
  reproducible;
* **counters** — cheap additive tallies (DP candidate cells, window
  cache hits/misses, heuristic moves, first-fit placement probes,
  replayed firing blocks, VM firings, allocated words) attached to the
  span that was open when they were counted.

A single :class:`Recorder` protocol is threaded through the pipeline
(``implement(recorder=...)``), the allocator, the simulators, the VM
and the experiment runner.  The default everywhere is ``recorder=None``
— the code then takes exactly the uninstrumented path — and
:class:`NullRecorder` is the explicit disabled instance: :func:`active`
collapses it back to ``None`` at the hot entry points, so disabled
tracing shares the bare fast path (``tests/test_obs.py`` passes a
``NullRecorder`` whose methods raise to ``implement``,
``implement_best`` and ``random_search`` to prove it is never called).

Parallel runs are merge-safe: each worker records into its own
:class:`TraceRecorder`, ships the serialized span tree back with its
result, and the parent grafts the trees in task order — so a serial and
a ``REPRO_JOBS>1`` run produce identical counter totals and identical
tree shapes, differing only in timing fields.

Export via :mod:`repro.obs.export`: JSON-lines (one span or counter per
line) and the Chrome ``chrome://tracing`` / Perfetto ``traceEvents``
format, surfaced as ``repro compile --trace`` and ``repro check
--trace``; and the text stage table of ``repro compile --profile``
(:func:`format_profile`), rendered from the same recorder as the trace.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "Recorder": ".recorder",
    "Span": ".recorder",
    "NullRecorder": ".recorder",
    "NULL_RECORDER": ".recorder",
    "TraceRecorder": ".recorder",
    "active": ".recorder",
    "activate": ".runtime",
    "current": ".runtime",
    "chrome_trace_events": ".export",
    "write_chrome_trace": ".export",
    "write_jsonl": ".export",
    "write_trace": ".export",
    "format_profile": ".export",
})
