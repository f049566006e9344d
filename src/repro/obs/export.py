"""Trace export: JSON-lines, Chrome ``traceEvents``, and text tables.

Chrome format: the ``{"traceEvents": [...]}`` object form with complete
("ph": "X") events, loadable in ``chrome://tracing`` and Perfetto.
Span clock readings are interpreted as seconds and exported as
microsecond timestamps; a deterministic integer clock simply yields a
trace on an abstract microsecond axis, which both viewers accept.

JSON-lines format: one object per line — ``{"type": "span", ...}`` in
depth-first order with an explicit ``depth``, then one
``{"type": "counter", "name": ..., "total": ...}`` per aggregate
counter — greppable and streamable without loading the whole trace.

Text tables: :func:`format_profile` is the ``repro compile --profile``
stage table, :func:`format_stats` the per-span-name aggregate; both end
with the same counter-totals block.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .recorder import TraceRecorder

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
    "format_profile",
    "format_stats",
]


def _us(seconds: float) -> float:
    return round(seconds * 1_000_000, 3)


def chrome_trace_events(recorder: TraceRecorder) -> List[Dict[str, Any]]:
    """Complete-span events for every recorded span, depth-first."""
    events: List[Dict[str, Any]] = []
    for _depth, span in recorder.iter_spans():
        end = span.end if span.end is not None else span.start
        args: Dict[str, Any] = dict(span.attrs)
        args.update(span.counters)
        if span.error is not None:
            args["error"] = span.error
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": _us(span.start),
                "dur": _us(end - span.start),
                "args": args,
            }
        )
    return events


def write_chrome_trace(recorder: TraceRecorder, path: str) -> None:
    """Write the ``chrome://tracing`` object form, counters included."""
    payload = {
        "traceEvents": chrome_trace_events(recorder),
        "displayTimeUnit": "ms",
        "otherData": {"counters": recorder.counter_totals()},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def write_jsonl(recorder: TraceRecorder, path: str) -> None:
    with open(path, "w") as fh:
        for depth, span in recorder.iter_spans():
            end = span.end if span.end is not None else span.start
            row: Dict[str, Any] = {
                "type": "span",
                "name": span.name,
                "depth": depth,
                "start": span.start,
                "dur": end - span.start,
            }
            if span.attrs:
                row["attrs"] = span.attrs
            if span.counters:
                row["counters"] = span.counters
            if span.error is not None:
                row["error"] = span.error
            fh.write(json.dumps(row) + "\n")
        for name, total in sorted(recorder.counter_totals().items()):
            fh.write(
                json.dumps({"type": "counter", "name": name, "total": total})
                + "\n"
            )


def write_trace(recorder: TraceRecorder, path: str, fmt: str = "auto") -> str:
    """Write ``path`` in ``fmt`` (``chrome``/``jsonl``/``auto``).

    ``auto`` picks by extension: ``.jsonl`` means JSON-lines, anything
    else the Chrome object form.  Returns the format used.
    """
    if fmt == "auto":
        fmt = "jsonl" if path.endswith(".jsonl") else "chrome"
    if fmt == "chrome":
        write_chrome_trace(recorder, path)
    elif fmt == "jsonl":
        write_jsonl(recorder, path)
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    return fmt


def _counter_lines(recorder: TraceRecorder) -> List[str]:
    """The counter-totals block (preceded by a blank line), if any."""
    totals = recorder.counter_totals()
    if not totals:
        return []
    lines = ["", f"{'counter':>32} {'total':>12}"]
    for name in sorted(totals):
        lines.append(f"{name:>32} {totals[name]:>12}")
    return lines


def format_profile(recorder: TraceRecorder) -> str:
    """The per-stage wall-time table of ``repro compile --profile``.

    One row per child span of the first ``implement`` root, in the
    order the stages ran: ``  <name>: <wall>s  (k=v, ...)`` with the
    span's attrs, plus ``error=...`` on a stage that raised.  A
    ``total`` row sums the stage rows; the counter totals follow.
    """
    root = next((s for s in recorder.roots if s.name == "implement"), None)
    stages = root.children if root is not None else []
    width = max([10] + [len(span.name) for span in stages])
    lines = ["profile:"]
    for span in stages:
        meta = dict(span.attrs)
        if span.error is not None:
            meta["error"] = span.error
        pairs = ", ".join(f"{k}={v}" for k, v in meta.items())
        extra = f"  ({pairs})" if meta else ""
        lines.append(f"  {span.name:>{width}}: {span.duration:8.4f}s{extra}")
    total = sum(span.duration for span in stages)
    lines.append(f"  {'total':>{width}}: {total:8.4f}s")
    return "\n".join(lines + _counter_lines(recorder))


def format_stats(recorder: TraceRecorder) -> str:
    """Aggregate table: per span name (calls, total wall), then counters.

    Span durations only aggregate cleanly under a real clock; under a
    deterministic stub the wall column is still shown (it is whatever
    the stub measures) but the counter table is the part that is exact
    by construction.
    """
    by_name: Dict[str, List[float]] = {}
    order: List[str] = []
    for _depth, span in recorder.iter_spans():
        if span.name not in by_name:
            by_name[span.name] = [0, 0.0]
            order.append(span.name)
        agg = by_name[span.name]
        agg[0] += 1
        agg[1] += span.duration
    lines = [f"{'span':>24} {'calls':>7} {'wall_s':>10}"]
    for name in order:
        calls, wall = by_name[name]
        lines.append(f"{name:>24} {int(calls):>7} {wall:>10.4f}")
    return "\n".join(lines + _counter_lines(recorder))
