"""``execute``: build one VM for a compiled program and run 2 periods.

Programs are compiled before timing: every corpus system as a plain
schedule on ``SharedMemoryVM`` and as a blocked (``vectorize=True``)
schedule on ``BatchedVM`` -- the engines ``repro compile --check`` and
``--vectorize --check`` use.  An op must raise no ``CodegenError`` and
fire exactly ``periods * sum(q)`` times, a count taken from the
repetitions vector, not from the VM.
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
from corpus import SYSTEMS, execute_order, system_graph

PERIODS = 2


class Program:
    def __init__(self, graph, result, vm_class) -> None:
        from repro.sdf.repetitions import repetitions_vector

        self.graph = graph
        self.lifetimes = result.lifetimes
        self.allocation = result.allocation
        self.vm_class = vm_class
        q = repetitions_vector(graph)
        self.firings = PERIODS * sum(q.values())
        #: Tokens the program's edges carry in PERIODS periods.
        self.tokens = PERIODS * sum(q[e.source] * e.production
                                    for e in graph.edge_list())

    def new_vm(self):
        return self.vm_class(self.graph, self.lifetimes, self.allocation)


def build_programs() -> Dict[Tuple[str, str], Program]:
    from repro.codegen.batched_vm import BatchedVM
    from repro.codegen.vm import SharedMemoryVM
    from repro.scheduling.pipeline import implement

    programs = {}
    for name in SYSTEMS:
        graph = system_graph(name)
        programs[(name, "scalar")] = Program(graph, implement(graph),
                                             SharedMemoryVM)
        programs[(name, "batched")] = Program(
            graph, implement(graph, vectorize=True), BatchedVM)
    return programs


def run(ctx: Context) -> Result:
    res = Result()
    if not ctx.trace:
        setup, setups = median_setup(ctx, lambda: probe_setup(ctx, "execute"))
    programs = build_programs()
    ops = [(key, programs[key]) for key in execute_order(ctx.seed)]
    for _key, program in ops:  # warm-up: every engine path once
        program.new_vm().run(periods=PERIODS)
    if ctx.trace:
        return _run_traced(ctx, ops, res)
    meter, passes = _vm_passes(ctx, ops, ctx.seconds, res)
    _, rss = self_usage()
    res.lines.append(f"  passes {passes} of {len(ops)} ops")
    res.lines.append(meter.speed_line())
    lat = class_latency(res, "", meter.scaled(), "VM init + 2 periods")
    res.put("setup_s", setup, "s")
    res.put("p50_ms", lat["p50_ms"], "ms")
    res.put("p90_ms", lat["p90_ms"], "ms")
    res.put("ops_per_s", meter.ops_per_s, "1/s")
    res.put("cpu_ms_per_op", 1e3 * meter.cpu_s / meter.ops, "ms")
    res.put("peak_rss_mb", rss, "MB")
    res.record["setup_samples_s"] = setups
    return res


def _check(res: Result, key, program: Program, outcome) -> None:
    res.attempted += 1
    if isinstance(outcome, BaseException):
        res.fail(f"execute {key}: {outcome!r}")
    elif outcome != program.firings:
        res.fail(f"execute {key}: {outcome} firings, expected "
                 f"{program.firings}")


def _vm_passes(ctx: Context, ops, seconds: float, res: Result):
    from repro.exceptions import CodegenError

    meter = Meter(LOOP)
    outcomes: List = []

    def one_pass(_index: int) -> None:
        for _key, program in ops:
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                vm = program.new_vm()
                vm.run(periods=PERIODS)
                outcome = vm.firings
            except CodegenError as exc:
                outcome = exc
            meter.add(time.perf_counter() - t0, time.process_time() - c0)
            outcomes.append(outcome)

    def after(_index: int) -> None:
        for (key, program), outcome in zip(ops, outcomes):
            _check(res, key, program, outcome)
        outcomes.clear()

    passes = timed_passes(seconds, meter, one_pass, check=after)
    return meter, passes


def _run_traced(ctx: Context, ops, res: Result) -> Result:
    from repro import obs
    from repro.exceptions import CodegenError

    half = ctx.seconds / 2.0
    plain, _ = _vm_passes(ctx, ops, half, res)

    rec = obs.TraceRecorder()
    traced = Meter(LOOP)
    outcomes: List = []

    def one_pass(index: int) -> None:
        for i, ((_name, engine), program) in enumerate(ops):
            t0 = time.perf_counter()
            with rec.span("execute.op", op=f"{index}.{i}"):
                try:
                    with rec.span(f"codegen.{engine}_init"):
                        vm = program.new_vm()
                    with rec.span(f"codegen.{engine}_run"):
                        vm.run(periods=PERIODS)
                    outcomes.append(vm.firings)
                except CodegenError as exc:
                    outcomes.append(exc)
            traced.add(time.perf_counter() - t0)

    def after(_index: int) -> None:
        for (key, program), outcome in zip(ops, outcomes):
            _check(res, key, program, outcome)
        outcomes.clear()

    passes = timed_passes(half, traced, one_pass, check=after)

    counting = obs.TraceRecorder()
    for _key, program in ops:
        program.new_vm().run(periods=PERIODS, recorder=counting)
    totals = counting.counter_totals()
    firings = totals.get("vm.firings", 0)
    transfers = totals.get("vm.transfers", 0)
    tokens = {engine: sum(p.tokens for (_n, e), p in ops if e == engine)
              for engine in ("scalar", "batched")}
    spans = layer_times(rec.roots)
    scale = traced.median_factor
    for engine in ("scalar", "batched"):
        for phase in ("init", "run"):
            name = f"codegen.{engine}_{phase}"
            res.put(name + "_ms", scale * mean_ms(spans.get(name, [])), "ms")
        run_s = sum(spans.get(f"codegen.{engine}_run", []))
        res.put(f"codegen.{engine}_ns_per_token",
                1e9 * scale * run_s / (passes * tokens[engine]), "ns")
    res.put("vm.firings", firings, "count")
    res.put("vm.transfers", transfers, "count")
    res.put("vm.tokens", sum(tokens.values()), "count")
    batched_firings = sum(p.firings for (_n, e), p in ops if e == "batched")
    res.put("codegen.firings_per_transfer", batched_firings / transfers,
            "ratio")
    res.put("obs.overhead_ratio", traced.ops_per_s / plain.ops_per_s,
            "ratio")
    res.record["spans"] = write_spans(
        rec, ctx.path(f"spans-execute-{ctx.seed}.jsonl"))
    res.lines.append(f"  traced passes {passes} of {len(ops)} ops")
    return res
