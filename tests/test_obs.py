"""The observability layer: recorders, exports, and zero-perturbation.

Three families of guarantees:

* **Recorder mechanics** — spans nest, close on exception, counters
  attach to the open span, worker trees merge in task order, and the
  injected clock makes recordings deterministic.
* **Equivalence** — tracing must never change what the compiler
  computes: results are bit-identical with no recorder, a
  ``NullRecorder``, and a full ``TraceRecorder``; and a parallel run
  merges to the same counter totals as a serial one.
* **Exception paths** — a stage that raises still leaves its partial
  profile row and a well-formed trace whose failing span carries the
  error (the ``--profile``-loses-rows regression).
"""

import json

import pytest

from repro import obs
from repro.apps import table1_graph
from repro.exceptions import SDFError
from repro.baselines.random_search import random_search
from repro.experiments.runner import parallel_map
from repro.experiments.table1 import run_table1
from repro.scheduling.pipeline import implement, implement_best
from repro.sdf.random_graphs import random_sdf_graph


def counting_clock():
    """Deterministic injected clock: 0, 1, 2, ..."""
    ticks = iter(range(10 ** 9))
    return lambda: next(ticks)


class TestRecorder:
    def test_spans_nest_and_close(self):
        rec = obs.TraceRecorder(clock=counting_clock())
        with rec.span("outer", graph="g") as outer:
            with rec.span("inner") as inner:
                assert rec.open_spans == ["outer", "inner"]
        assert rec.open_spans == []
        assert rec.roots == [outer]
        assert outer.children == [inner]
        assert outer.attrs == {"graph": "g"}
        assert (outer.start, inner.start, inner.end, outer.end) == (0, 1, 2, 3)

    def test_counters_attach_to_open_span(self):
        rec = obs.TraceRecorder(clock=counting_clock())
        rec.count("loose", 5)
        with rec.span("a") as a:
            rec.count("work", 2)
            rec.count("work")
        assert a.counters == {"work": 3}
        assert rec.counters == {"loose": 5}
        assert rec.counter_totals() == {"loose": 5, "work": 3}

    def test_span_records_error_and_still_closes(self):
        rec = obs.TraceRecorder(clock=counting_clock())
        with pytest.raises(ValueError):
            with rec.span("failing"):
                raise ValueError("boom")
        assert rec.open_spans == []
        (span,) = rec.roots
        assert span.error == "ValueError('boom')"
        assert span.end is not None

    def test_out_of_order_close_raises(self):
        rec = obs.TraceRecorder(clock=counting_clock())
        outer = rec.span("outer")
        inner = rec.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError):
            outer.__exit__(None, None, None)

    def test_merge_serialized_grafts_under_open_span(self):
        worker = obs.TraceRecorder(clock=counting_clock())
        with worker.span("task"):
            worker.count("work", 7)
        parent = obs.TraceRecorder(clock=counting_clock())
        with parent.span("fanout") as fanout:
            parent.merge_serialized(worker.serialize())
        assert [c.name for c in fanout.children] == ["task"]
        assert parent.counter_totals() == {"work": 7}

    def test_serialize_roundtrip(self):
        rec = obs.TraceRecorder(clock=counting_clock())
        with rec.span("a", k="v"):
            rec.count("n", 3)
            with rec.span("b"):
                pass
        data = rec.serialize()
        restored = obs.Span.deserialize(data["roots"][0])
        assert restored.serialize() == data["roots"][0]

    def test_null_recorder_discards_everything(self):
        rec = obs.NULL_RECORDER
        assert rec.enabled is False
        with rec.span("anything", x=1) as span:
            assert span is None
        rec.count("whatever", 10)
        rec.merge_serialized({"roots": [], "counters": {"x": 1}})

    def test_ambient_activation(self):
        rec = obs.TraceRecorder(clock=counting_clock())
        assert obs.current() is obs.NULL_RECORDER
        with obs.activate(rec):
            assert obs.current() is rec
        assert obs.current() is obs.NULL_RECORDER


class TestExports:
    def _recorded(self):
        rec = obs.TraceRecorder(clock=counting_clock())
        with rec.span("compile", graph="g"):
            rec.count("dp.cells", 10)
            with rec.span("dppo"):
                pass
        return rec

    def test_chrome_trace_loads_and_carries_counters(self, tmp_path):
        rec = self._recorded()
        path = tmp_path / "trace.json"
        assert obs.write_trace(rec, str(path)) == "chrome"
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert [e["name"] for e in events] == ["compile", "dppo"]
        assert all(e["ph"] == "X" for e in events)
        assert events[0]["args"]["dp.cells"] == 10
        assert payload["otherData"]["counters"] == {"dp.cells": 10}

    def test_jsonl_format(self, tmp_path):
        rec = self._recorded()
        path = tmp_path / "trace.jsonl"
        assert obs.write_trace(rec, str(path)) == "jsonl"
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        spans = [r for r in rows if r["type"] == "span"]
        counters = [r for r in rows if r["type"] == "counter"]
        assert [(s["name"], s["depth"]) for s in spans] == [
            ("compile", 0), ("dppo", 1)
        ]
        assert counters == [
            {"type": "counter", "name": "dp.cells", "total": 10}
        ]


def _result_fingerprint(result):
    return (
        result.order,
        result.dppo_cost,
        str(result.dppo_schedule),
        result.sdppo_cost,
        str(result.sdppo_schedule),
        result.mco,
        result.mcp,
        result.ffdur_total,
        result.ffstart_total,
        dict(result.allocation.offsets),
        result.allocation.total,
        result.bmlb,
    )


class TestTracingDoesNotPerturb:
    @pytest.mark.parametrize("system", ["qmf23_2d", "satrec"])
    def test_pipeline_bit_identical_across_recorders(self, system):
        graph = table1_graph(system)
        bare = implement_best(graph)
        null = implement_best(graph, recorder=obs.NullRecorder())
        traced_rec = obs.TraceRecorder(clock=counting_clock())
        traced = implement_best(graph, recorder=traced_rec)
        for r in (null, traced):
            assert _result_fingerprint(r.rpmc) == _result_fingerprint(bare.rpmc)
            assert _result_fingerprint(r.apgan) == _result_fingerprint(
                bare.apgan
            )
        # ... and the traced run actually recorded the work.
        totals = traced_rec.counter_totals()
        assert totals["dp.cells"] > 0
        assert totals["alloc.words"] > 0
        assert traced_rec.open_spans == []

    def test_serial_and_parallel_table1_merge_identically(self):
        systems = ["qmf23_2d", "qmf12_2d", "satrec"]
        rec_serial = obs.TraceRecorder(clock=counting_clock())
        rows_serial = run_table1(systems, jobs=1, recorder=rec_serial)
        rec_fanned = obs.TraceRecorder(clock=counting_clock())
        rows_fanned = run_table1(systems, jobs=2, recorder=rec_fanned)
        assert rows_serial == rows_fanned
        assert rec_serial.counter_totals() == rec_fanned.counter_totals()
        names_serial = [s.name for _, s in rec_serial.iter_spans()]
        names_fanned = [s.name for _, s in rec_fanned.iter_spans()]
        assert names_serial == names_fanned
        assert names_serial.count("table1.system") == len(systems)


class TestParallelMapTracing:
    def test_traced_serial_path_strips_recordings(self):
        rec = obs.TraceRecorder(clock=counting_clock())
        out = parallel_map(abs, [-1, -2, -3], jobs=1, recorder=rec)
        assert out == [1, 2, 3]
        assert [s.name for s in rec.roots] == ["task"] * 3

    def test_null_recorder_skips_wrapping(self):
        out = parallel_map(abs, [-1, -2], jobs=1, recorder=obs.NullRecorder())
        assert out == [1, 2]


class _TrippedRecorder(obs.NullRecorder):
    """Disabled by contract, so any call into it is a bug."""

    def span(self, name, **attrs):
        raise AssertionError(f"disabled recorder opened span {name!r}")

    def count(self, name, value=1):
        raise AssertionError(f"disabled recorder counted {name!r}")


class TestDisabledRecorderIsNeverCalled:
    """A disabled recorder costs nothing: entry points drop it unused.

    ``obs.active`` collapses any ``enabled=False`` recorder to ``None``
    at the hot entry points, so the disabled path is the bare path.  A
    recorder whose every hook raises proves no hook runs, and the
    results must be bit-identical to the bare run.
    """

    def test_implement(self):
        graph = table1_graph("satrec")
        bare = implement(graph, vectorize=True)
        tripped = implement(graph, vectorize=True, recorder=_TrippedRecorder())
        assert _result_fingerprint(tripped) == _result_fingerprint(bare)
        assert str(tripped.vectorize.schedule) == str(bare.vectorize.schedule)

    def test_implement_best(self):
        graph = table1_graph("qmf23_2d")
        bare = implement_best(graph)
        tripped = implement_best(graph, recorder=_TrippedRecorder())
        for method in ("rpmc", "apgan"):
            assert _result_fingerprint(
                getattr(tripped, method)
            ) == _result_fingerprint(getattr(bare, method))

    def test_random_search(self):
        graph = table1_graph("satrec")
        bare = random_search(graph, trials=20, seed=3)
        tripped = random_search(
            graph, trials=20, seed=3, recorder=_TrippedRecorder()
        )
        assert tripped == bare


class TestExceptionPaths:
    def _crash(self, recorder):
        graph = random_sdf_graph(4, seed=3)
        order = list(reversed(implement(graph, "apgan").order))
        implement(
            graph, order=order, trusted_order=True, use_chain_dp=False,
            recorder=recorder,
        )

    def test_partial_rows_and_trace_survive_stage_crash(self):
        rec = obs.TraceRecorder(clock=counting_clock())
        with pytest.raises(SDFError):
            self._crash(rec)
        # The raising stage still closed its span, error attached.
        (root,) = rec.roots
        assert root.name == "implement" and root.error
        failed = [s for s in root.children if s.error]
        assert len(failed) == 1
        # The span stack unwound.
        assert rec.open_spans == []
        # ... and the profile rendered from it shows the partial rows.
        rows = obs.format_profile(rec).splitlines()
        assert rows[0] == "profile:"
        (error_row,) = [r for r in rows if "error=" in r]
        assert error_row.strip().startswith(f"{failed[0].name}:")

    def test_profile_rows_are_the_implement_children(self):
        rec = obs.TraceRecorder(clock=counting_clock())
        implement(random_sdf_graph(6, seed=2), recorder=rec)
        (root,) = rec.roots
        lines = obs.format_profile(rec).splitlines()
        names = [c.name for c in root.children]
        width = max([10] + [len(n) for n in names])
        # One unit per clock tick: every duration is a whole number.
        for child, line in zip(root.children, lines[1:]):
            assert line.startswith(f"  {child.name:>{width}}: ")
            assert f"{child.duration:8.4f}s" in line
        topsort = lines[1 + names.index("topsort")]
        assert topsort.endswith("s  (method=rpmc)")
        assert lines[1 + len(names)].startswith(f"  {'total':>{width}}: ")
        # The counter-totals block follows the rows: a header, then one
        # row per counter total, sorted by name.
        assert lines[2 + len(names)] == ""
        totals = rec.counter_totals()
        header, *counters = lines[3 + len(names):]
        assert header == f"{'counter':>32} {'total':>12}"
        assert counters == [
            f"{name:>32} {totals[name]:>12}" for name in sorted(totals)
        ]
        assert any("dp.cells" in line for line in counters)

    def test_profile_without_implement_span_is_empty(self):
        rec = obs.TraceRecorder(clock=counting_clock())
        assert obs.format_profile(rec) == (
            "profile:\n       total:   0.0000s"
        )
