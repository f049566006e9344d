"""Parallel experiment runner: deterministic fan-out over worker processes.

The paper's evaluation is embarrassingly parallel — 400 random graphs
in the figure 27 sweep, hundreds of independent trials per random
search — but every statistic must stay a pure function of (inputs,
seed).  This module provides the one primitive both drivers use:

* :func:`parallel_map` — an order-preserving ``map`` over a
  ``ProcessPoolExecutor``, with deterministic chunking and a serial
  fallback.  Tasks carry their own seeds (the caller derives them
  before fanning out), results come back in task order, and all
  aggregation happens in the parent — so the parallel and serial paths
  produce bit-identical statistics.

Stage timing lives in :mod:`repro.obs`: pass ``recorder=`` and each
task's span tree rides back with its result.

Parallelism is controlled by the ``REPRO_JOBS`` environment variable
(or an explicit ``jobs=`` argument): unset or ``1`` runs serially in
the calling process, ``N`` uses N worker processes, and ``0`` uses all
available cores.  When a pool cannot be created at all (restricted
environments without fork/spawn), the runner degrades to the serial
path instead of failing.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["effective_jobs", "parallel_map"]


def effective_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker count: explicit argument, then ``REPRO_JOBS``.

    ``0`` (either form) means "all cores"; anything unset means serial.
    Negative counts are rejected the same way non-integer values are —
    silently clamping them to 1 would mask a configuration error.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    if jobs < 0:
        raise ValueError(f"job count must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def parallel_map(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: Optional[int] = None,
    chunksize: Optional[int] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
    recorder: Optional[Any] = None,
    task_label: str = "task",
) -> List[Any]:
    """Map ``fn`` over ``tasks``, preserving order, optionally in parallel.

    ``fn`` and the tasks must be picklable (module-level function, plain
    data).  ``initializer`` runs once per worker (and once in-process on
    the serial path) — use it to build per-worker state such as a
    compilation session instead of shipping it with every task.

    When an *enabled* ``recorder`` is given, each task runs under a
    fresh per-task :class:`repro.obs.TraceRecorder` (activated so task
    bodies can fetch it via ``repro.obs.current()``) and its serialized
    span tree rides back with the result; the parent grafts the trees
    into ``recorder`` in task order.  The serial path uses the same
    wrapper, so serial and parallel runs record identical tree shapes
    and counter totals, differing only in timing fields.

    The serial path runs when ``effective_jobs`` resolves to 1, when
    there are fewer than two tasks, or when the process pool cannot be
    created; exceptions raised by ``fn`` itself always propagate.
    """
    tasks = list(tasks)
    traced = recorder is not None and getattr(recorder, "enabled", False)
    call = partial(_traced_call, fn, task_label) if traced else fn
    n_jobs = effective_jobs(jobs)
    if n_jobs <= 1 or len(tasks) <= 1:
        return _collect(recorder, traced, _serial_map(call, tasks, initializer, initargs))
    try:
        from concurrent.futures import ProcessPoolExecutor
        executor = ProcessPoolExecutor(
            max_workers=min(n_jobs, len(tasks)),
            initializer=initializer,
            initargs=initargs,
        )
    except (ImportError, NotImplementedError, OSError, PermissionError):
        return _collect(recorder, traced, _serial_map(call, tasks, initializer, initargs))
    try:
        with executor:
            if chunksize is None:
                chunksize = max(1, len(tasks) // (4 * n_jobs))
            results = list(executor.map(call, tasks, chunksize=chunksize))
    except _pool_failures():
        # The pool died (fork refused, worker killed) without a result;
        # the work itself is side-effect free, so redo it serially.
        results = _serial_map(call, tasks, initializer, initargs)
    return _collect(recorder, traced, results)


def _serial_map(fn, tasks, initializer, initargs) -> List[Any]:
    if initializer is not None:
        initializer(*initargs)
    return [fn(task) for task in tasks]


def _traced_call(fn: Callable[[Any], Any], label: str, task: Any) -> Tuple[Any, Dict[str, Any]]:
    """Run one task under a fresh, ambient TraceRecorder (picklable)."""
    from repro import obs

    rec = obs.TraceRecorder()
    with obs.activate(rec):
        with rec.span(label, fn=getattr(fn, "__name__", repr(fn))):
            result = fn(task)
    return result, rec.serialize()


def _collect(recorder, traced: bool, results: List[Any]) -> List[Any]:
    """Merge per-task recordings (task order) and strip them off."""
    if not traced:
        return results
    plain = []
    for result, serialized in results:
        recorder.merge_serialized(serialized)
        plain.append(result)
    return plain


def _pool_failures() -> Tuple[type, ...]:
    from concurrent.futures.process import BrokenProcessPool

    return (BrokenProcessPool, OSError, PermissionError)
