"""``compile``: in-process ``implement()`` calls, each with a fresh session.

A pass compiles every corpus graph (:func:`corpus.compile_ops`) plain
and with ``vectorize=True``, in seeded order.  Every call verifies its
allocation (``verify=True``); the systems' best shared totals must
equal the pinned values, and every other graph must give the same
result on every pass.

The traced run replays each op through the public functions
``implement()`` calls, inside spans recorded here, then makes one
counting pass through ``implement(recorder=...)`` whose results the
replay must reproduce.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from common import (
    LOOP,
    Context,
    Meter,
    Result,
    class_latency,
    layer_times,
    mean_ms,
    median_setup,
    probe_setup,
    self_usage,
    timed_passes,
    write_spans,
)
from corpus import compile_ops, pinned

#: Span names of the replay, reported as ``<name>_ms``.
STAGES = (
    "scheduling.session", "native.resolve", "scheduling.topsort",
    "scheduling.dppo", "scheduling.sdppo", "scheduling.vectorize",
    "lifetimes.extract", "allocation.wig", "allocation.first_fit",
    "allocation.verify", "allocation.clique", "scheduling.bmlb",
)

#: ``recorder=`` counters reported per pass.
COUNTERS = (
    "dp.cells", "chain.window_hits", "chain.window_misses", "rpmc.cuts",
    "first_fit.probes", "vectorize.fissions", "vectorize.blocks",
    "alloc.words", "native.dp", "native.first_fit", "native.fallback",
)


def signature(result) -> Tuple[int, int, int, int]:
    return (result.sdppo_cost, result.ffdur_total, result.ffstart_total,
            result.allocation.total)


def replay(graph, vectorize: bool, rec, op: str) -> Tuple[int, int, int, int]:
    """``implement(graph, vectorize=...)`` stage by stage, under spans.

    Mirrors :func:`repro.scheduling.pipeline.implement` with its
    defaults (rpmc, seed 0, chain DP, verify); returns the same
    :func:`signature`.
    """
    from repro.allocation.clique import mcw_optimistic, mcw_pessimistic
    from repro.allocation.first_fit import ffdur, ffstart
    from repro.allocation.intersection_graph import build_intersection_graph
    from repro.allocation.verify import verify_allocation
    from repro.lifetimes.intervals import extract_lifetimes
    from repro.lifetimes.periodic import DEFAULT_OCCURRENCE_CAP as cap
    from repro.native import resolve_backend
    from repro.scheduling.dppo import dppo
    from repro.scheduling.rpmc import rpmc
    from repro.scheduling.sdppo import sdppo
    from repro.scheduling.session import CompilationSession
    from repro.scheduling.vectorize import vectorize_schedule

    span = rec.span
    with span("compile.op", op=op):
        with span("scheduling.session"):
            session = CompilationSession(graph)
        q = session.q
        with span("native.resolve"):
            backend, _ = resolve_backend(session.backend)
        with span("scheduling.topsort"):
            order = rpmc(graph, q=q, seed=0).order
        with span("scheduling.dppo"):
            context = session.context_for(order, trusted=True)
            dppo(graph, order, q, context=context, backend=backend)
        with span("scheduling.sdppo"):
            if session.chain_order is not None:
                chain = session.chain_sdppo_result()
                cost, schedule = chain.cost, chain.schedule
            else:
                result = sdppo(graph, order, q, context=context,
                               backend=backend)
                cost, schedule = result.cost, result.schedule
        if vectorize:
            with span("scheduling.vectorize"):
                schedule = vectorize_schedule(
                    graph, schedule, q, occurrence_cap=cap, backend=backend,
                ).schedule
        with span("lifetimes.extract"):
            buffers = extract_lifetimes(graph, schedule, q).as_list()
        with span("allocation.wig"):
            wig = build_intersection_graph(buffers, occurrence_cap=cap)
        with span("allocation.first_fit"):
            dur = ffdur(buffers, graph=wig, occurrence_cap=cap,
                        backend=backend)
            start = ffstart(buffers, graph=wig, occurrence_cap=cap,
                            backend=backend)
        best = dur if dur.total <= start.total else start
        with span("allocation.verify"):
            verify_allocation(buffers, best, occurrence_cap=cap)
        with span("allocation.clique"):
            mcw_optimistic(buffers)
            mcw_pessimistic(buffers)
        with span("scheduling.bmlb"):
            session.bmlb()
    return cost, dur.total, start.total, best.total


class Checker:
    """Checks op signatures: pinned for systems, repeatable otherwise."""

    def __init__(self, res: Result) -> None:
        self.res = res
        self.pins = pinned()
        self.seen: Dict[Tuple[str, bool], Tuple[int, int, int, int]] = {}

    def __call__(self, label: str, vectorize: bool, sig) -> None:
        self.res.attempted += 1
        if isinstance(sig, BaseException):
            self.res.fail(f"compile {label} vectorize={vectorize}: {sig!r}")
            return
        table = self.pins["vectorized" if vectorize else "plain"]
        expected = table.get(label)
        if expected is not None and sig[3] != expected:
            self.res.fail(f"compile {label} vectorize={vectorize}: "
                          f"{sig[3]} words, pinned {expected}")
            return
        first = self.seen.setdefault((label, vectorize), sig)
        if first != sig:
            self.res.fail(f"compile {label} vectorize={vectorize}: "
                          f"{sig} differs from {first}")


def _implement_passes(ctx: Context, ops, seconds: float, check: Checker):
    from repro.scheduling.pipeline import implement

    meter = Meter(LOOP)
    results: List = []

    def one_pass(_index: int) -> None:
        for label, graph, vec in ops:
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                sig = signature(implement(graph, vectorize=vec))
            except Exception as exc:  # counted as a failed op
                sig = exc
            meter.add(time.perf_counter() - t0, time.process_time() - c0)
            results.append((label, vec, sig))

    def after(_index: int) -> None:
        for item in results:
            check(*item)
        results.clear()

    passes = timed_passes(seconds, meter, one_pass, check=after)
    return meter, passes


def run(ctx: Context) -> Result:
    from repro.apps import cd_to_dat
    from repro.scheduling.pipeline import implement

    res = Result()
    check = Checker(res)
    if not ctx.trace:
        setup, setups = median_setup(ctx, lambda: probe_setup(ctx, "compile"))
    ops = compile_ops(ctx.seed)
    implement(cd_to_dat())  # kernels loaded before the first timed op
    if ctx.trace:
        return _run_traced(ctx, ops, check, res)
    meter, passes = _implement_passes(ctx, ops, ctx.seconds, check)
    _, rss = self_usage()
    res.lines.append(f"  passes {passes} of {len(ops)} ops")
    res.lines.append(meter.speed_line())
    lat = class_latency(res, "", meter.scaled(), "implement()")
    res.put("setup_s", setup, "s")
    res.put("p50_ms", lat["p50_ms"], "ms")
    res.put("p90_ms", lat["p90_ms"], "ms")
    res.put("ops_per_s", meter.ops_per_s, "1/s")
    res.put("cpu_ms_per_op", 1e3 * meter.cpu_s / meter.ops, "ms")
    res.put("peak_rss_mb", rss, "MB")
    res.record["setup_samples_s"] = setups
    return res


def _run_traced(ctx: Context, ops, check: Checker, res: Result) -> Result:
    from repro import obs
    from repro.scheduling.pipeline import implement

    half = ctx.seconds / 2.0
    plain, plain_passes = _implement_passes(ctx, ops, half, check)

    rec = obs.TraceRecorder()
    traced = Meter(LOOP)
    replayed: List = []
    first: List = []

    def one_pass(index: int) -> None:
        for i, (label, graph, vec) in enumerate(ops):
            t0 = time.perf_counter()
            try:
                sig = replay(graph, vec, rec, f"{index}.{i}")
            except Exception as exc:  # counted as a failed op
                sig = exc
            traced.add(time.perf_counter() - t0)
            replayed.append(sig)

    def after(index: int) -> None:
        for (label, _graph, vec), sig in zip(ops, replayed):
            check(label, vec, sig)
        if index == 0:
            first.extend(replayed)
        replayed.clear()

    passes = timed_passes(half, traced, one_pass, check=after)

    counting = obs.TraceRecorder()
    for (label, graph, vec), sig in zip(ops, first):
        res.attempted += 1
        direct = signature(implement(graph, vectorize=vec,
                                     recorder=counting))
        if direct != sig:
            res.fail(f"replay of {label} vectorize={vec}: {sig} != "
                     f"implement() {direct}")
    totals = counting.counter_totals()
    for name in COUNTERS:
        res.put(name, totals.get(name, 0), "count")

    spans = layer_times(rec.roots)
    scale = traced.median_factor
    stage_s = 0.0
    for name in STAGES:
        values = spans.get(name, [])
        stage_s += sum(values)
        res.put(name + "_ms", scale * mean_ms(values), "ms")
    implement_s_per_pass = sum(plain.scaled()) / plain_passes
    res.put("compile.stage_coverage",
            scale * stage_s / passes / implement_s_per_pass, "ratio")
    res.put("obs.overhead_ratio", traced.ops_per_s / plain.ops_per_s,
            "ratio")
    res.record["spans"] = write_spans(
        rec, ctx.path(f"spans-compile-{ctx.seed}.jsonl"))
    res.lines.append(f"  untraced passes {plain_passes}, traced passes "
                     f"{passes} of {len(ops)} ops")
    return res
