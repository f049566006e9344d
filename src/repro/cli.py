"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compile``
    Run the full flow on a benchmark system or a JSON graph file and
    report the schedule, memory figures, and (optionally) generated C.
    ``--profile`` prints the per-stage wall-time table and the work
    counters (DP cells, window-cache hits, first-fit probes, VM
    firings under ``--check``...); ``--trace out.json`` writes the same
    recording as a ``chrome://tracing``-loadable file.
``table1`` / ``fig25`` / ``fig26`` / ``fig27`` / ``satrec`` / ``cddat``
    Regenerate an evaluation table/figure on stdout.
``check``
    Differential cross-layer checking harness: random graphs through
    the full pipeline, every layer pair cross-checked, failures shrunk
    to minimal counterexamples (``--inject`` adds the mutation-kill
    self-test).
``serve`` / ``submit`` / ``cache``
    The compilation service: a long-running JSON-over-HTTP compile
    server with a content-addressed artifact cache (``serve``), a
    batch client that submits graphs and prints/saves
    ``CompilationReport``s (``submit``), and cache maintenance
    (``cache {stats,gc,clear}``).
``systems``
    List the built-in benchmark systems.
``dot``
    Emit a Graphviz rendering of a system or graph file.

Examples
--------
.. code-block:: bash

    python -m repro compile satrec --method apgan
    python -m repro compile cddat --trace cddat_trace.json
    python -m repro compile satrec --check --profile
    python -m repro compile mygraph.json --emit-c out.c
    python -m repro table1 --systems qmf23_2d satrec
    python -m repro fig27 --sizes 20 50 --count 10 --jobs 4
    python -m repro check --trials 25 --seed 0 --inject
    python -m repro serve --port 8177 --workers 4
    python -m repro submit cddat satrec --url http://127.0.0.1:8177
    python -m repro cache stats
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .apps import TABLE1_SYSTEMS, table1_graph
from .exceptions import GraphStructureError, SDFError
from .sdf.graph import SDFGraph

__all__ = ["main"]


def _apply_jobs(args: argparse.Namespace) -> Optional[int]:
    """Resolve the ``--jobs`` flag with flag > ``REPRO_JOBS`` precedence.

    Validates the value eagerly (so ``--jobs -2`` fails with a clean
    error before any work) and exports it to ``REPRO_JOBS`` for the
    rest of the process, so every nested ``parallel_map`` — including
    ones the subcommand does not thread ``jobs`` into explicitly —
    sees the same setting.
    """
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        return None
    from .experiments.runner import effective_jobs

    try:
        effective_jobs(jobs)
    except ValueError as exc:
        raise SystemExit(f"--jobs: {exc}")
    os.environ["REPRO_JOBS"] = str(jobs)
    return jobs


def _extra_systems():
    """Named graphs usable by compile/dot but outside Table 1.

    CD-DAT is the paper's running example (figures 1–2 and section
    11.1.3) yet not a Table 1 benchmark row, so it lives here rather
    than in ``TABLE1_SYSTEMS`` (which drives the Table 1 experiments).
    """
    from .apps.ptolemy_demos import cd_to_dat

    return {"cddat": cd_to_dat}


def _resolve_graph(spec: str) -> SDFGraph:
    if spec in TABLE1_SYSTEMS:
        return table1_graph(spec)
    extra = _extra_systems()
    if spec in extra:
        return extra[spec]()
    if spec.endswith(".json"):
        from .sdf.io import load_graph

        try:
            return load_graph(spec)
        except OSError as exc:
            raise SystemExit(
                f"cannot read graph file {spec!r}: "
                f"{exc.strerror or exc}"
            ) from None
        except (ValueError, GraphStructureError) as exc:
            raise SystemExit(
                f"invalid graph file {spec!r}: {exc}"
            ) from None
    raise SystemExit(
        f"unknown system {spec!r}; use a name from 'systems', "
        f"{sorted(extra)}, or a .json graph file"
    )


def _cmd_systems(_: argparse.Namespace) -> int:
    for name in TABLE1_SYSTEMS:
        graph = table1_graph(name)
        print(f"{name:>12}  {graph.num_actors:>4} actors "
              f"{graph.num_edges:>4} edges")
    return 0


def _flush_observability(args: argparse.Namespace, recorder) -> None:
    """Print/write whatever the run recorded — also on failure paths.

    Called both after a clean compile and from the except paths, so a
    stage that raises still leaves its partial profile rows and a trace
    whose failing span carries the error.
    """
    if recorder is None:
        return
    from . import obs

    if args.profile:
        print(obs.format_profile(recorder))
    if args.trace:
        fmt = obs.write_trace(recorder, args.trace, fmt=args.trace_format)
        print(f"trace ({fmt}) written to {args.trace}")


def _cmd_compile(args: argparse.Namespace) -> int:
    from .scheduling.pipeline import implement

    if args.memory_budget is not None and not args.vectorize:
        raise SystemExit("--memory-budget requires --vectorize")
    budget = args.memory_budget
    if budget is not None and budget < 0:
        raise SystemExit(f"--memory-budget must be >= 0, got {budget}")
    graph = _resolve_graph(args.graph)
    recorder = None
    if args.profile or args.trace:
        # One recorder behind both surfaces: the printed profile is
        # the trace's ``implement`` children.
        from .obs.recorder import TraceRecorder

        recorder = TraceRecorder()
    try:
        result = implement(
            graph, args.method, seed=args.seed,
            recorder=recorder, backend=args.backend,
            vectorize=args.vectorize, memory_budget=args.memory_budget,
        )
    except SDFError as exc:
        # A graph the pipeline rejects (cyclic, inconsistent rates) is
        # a user error: one line, not a traceback.
        _flush_observability(args, recorder)
        raise SystemExit(f"cannot compile {args.graph!r}: {exc}") from None
    except Exception:
        _flush_observability(args, recorder)
        raise
    print(f"graph:      {graph.name} ({graph.num_actors} actors)")
    print(f"order:      {' '.join(result.order)}")
    print(f"schedule:   {result.sdppo_schedule}")
    print(f"non-shared: {result.dppo_cost} words")
    print(f"shared:     {result.allocation.total} words "
          f"(mco {result.mco}, mcp {result.mcp})")
    if result.vectorize is not None:
        v = result.vectorize
        budget = (
            "unconstrained" if v.memory_budget is None
            else f"{v.memory_budget} words"
        )
        print(f"vectorized: {v.schedule} (budget {budget})")
        print(f"blocks:     {v.blocks} per period "
              f"({v.firings} firings, amortization {v.amortization:.1f}x, "
              f"baseline {v.baseline_blocks} blocks)")
    # Code generation loads only under the flags that use it.
    if args.check:
        from .codegen import BatchedVM, run_shared_memory_check

        vm_class = BatchedVM if result.vectorize is not None else None
        firings = run_shared_memory_check(
            graph, result.lifetimes, result.allocation, periods=2,
            recorder=recorder, vm_class=vm_class,
        )
        kind = "batched" if vm_class is not None else "scalar"
        print(f"execution check: OK ({firings} firings, {kind} VM)")
    if args.emit_c:
        from .codegen import emit_c

        code = emit_c(graph, result.lifetimes, result.allocation)
        with open(args.emit_c, "w") as handle:
            handle.write(code)
        print(f"C written to {args.emit_c}")
    _flush_observability(args, recorder)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .experiments.table1 import format_table1, run_table1

    jobs = _apply_jobs(args)
    systems = args.systems or [
        n for n in TABLE1_SYSTEMS if not n.endswith("5d")
    ]
    print(format_table1(run_table1(systems, seed=args.seed, jobs=jobs)))
    return 0


def _cmd_fig25(args: argparse.Namespace) -> int:
    from .experiments.fig25 import format_fig25, run_fig25

    systems = args.systems or [
        n for n in TABLE1_SYSTEMS if not n.endswith("5d")
    ]
    print(format_fig25(run_fig25(systems, seed=args.seed)))
    return 0


def _cmd_fig26(args: argparse.Namespace) -> int:
    from .experiments.homogeneous_exp import (
        format_fig26,
        run_homogeneous_experiment,
    )

    points = tuple(
        (m, n)
        for m, n in (p.split("x") for p in args.points)
    ) if args.points else ((2, 3), (3, 4), (4, 6), (6, 8))
    points = tuple((int(m), int(n)) for m, n in points)
    print(format_fig26(run_homogeneous_experiment(points=points)))
    return 0


def _cmd_fig27(args: argparse.Namespace) -> int:
    from .experiments.random_graphs import (
        format_fig27,
        run_random_graph_experiment,
    )

    jobs = _apply_jobs(args)
    print(
        format_fig27(
            run_random_graph_experiment(
                sizes=tuple(args.sizes),
                graphs_per_size=args.count,
                seed=args.seed,
                jobs=jobs,
            )
        )
    )
    return 0


def _cmd_satrec(_: argparse.Namespace) -> int:
    from .experiments.satrec_comparison import (
        format_satrec,
        run_satrec_comparison,
    )

    print(format_satrec(run_satrec_comparison()))
    return 0


def _cmd_cddat(_: argparse.Namespace) -> int:
    from .experiments.cddat_io import run_cddat_io

    r = run_cddat_io()
    print(f"CD-DAT input buffering over a {r.period_samples}-sample period:")
    print(f"  flat SAS:   {r.flat_backlog} samples")
    print(f"  nested SAS: {r.nested_backlog} samples")
    print(f"  nested schedule: {r.nested_schedule}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import run_check

    recorder = None
    if args.trace:
        from . import obs

        recorder = obs.TraceRecorder()
    report = run_check(
        trials=args.trials,
        seed=args.seed,
        inject=args.inject,
        shrink=not args.no_shrink,
        recorder=recorder,
        families=tuple(
            f.strip() for f in args.families.split(",") if f.strip()
        ),
        backend=args.backend,
    )
    for line in report.summary_lines():
        print(line)
    if recorder is not None:
        from .obs import write_trace

        fmt = write_trace(recorder, args.trace, fmt=args.trace_format)
        print(f"trace ({fmt}) written to {args.trace}")
    if report.ok:
        print("check: OK")
        return 0
    print("check: FAILED", file=sys.stderr)
    return 1


def _cmd_dot(args: argparse.Namespace) -> int:
    from .sdf.io import to_dot

    sys.stdout.write(to_dot(_resolve_graph(args.graph)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import generate_report

    text = generate_report(seed=args.seed)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived compile server until SIGTERM/SIGINT drain."""
    import signal
    import threading

    from .serve import ArtifactCache, CompileServer, CompileService

    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    server = CompileServer(
        CompileService(cache=cache),
        host=args.host,
        port=args.port,
        workers=args.threads,
        processes=args.workers,
        queue_limit=args.queue_limit,
        request_timeout=args.timeout,
        trace_path=args.trace,
        trace_format=args.trace_format,
        quiet=args.quiet,
    )
    drainers: List[threading.Thread] = []

    def _on_signal(signum, frame):
        thread = threading.Thread(target=server.drain)
        thread.start()
        drainers.append(thread)

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    pool = (
        f"farm {server.farm.size}"
        if server.farm is not None
        else f"threads {server.workers}"
    )
    print(
        f"serving on {server.url} "
        f"(cache: {'disabled' if cache is None else cache.root}, "
        f"{pool}, queue limit {server.queue_limit})",
        flush=True,
    )
    server.serve_forever()
    for thread in drainers:
        thread.join()
    server.drain()  # no-op if a signal already drained
    if args.trace:
        print(f"trace written to {args.trace}")
    print("drained cleanly", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit graphs to a running server; print/save the reports."""
    import json as _json

    from .sdf.io import to_json
    from .serve.client import (
        BatchItemError,
        ServeClientError,
        compile_batch_remote,
        compile_remote,
    )

    if args.memory_budget is not None and not args.vectorize:
        raise SystemExit("--memory-budget requires --vectorize")
    documents = [to_json(_resolve_graph(spec)) for spec in args.graphs]
    options = {"method": args.method, "seed": args.seed}
    if args.vectorize:
        # Only sent when requested: a plain submit keeps the exact
        # pre-vectorization request shape (and cache key).
        options["vectorize"] = True
        options["memory_budget"] = args.memory_budget
    try:
        if len(documents) == 1:
            results = [
                compile_remote(
                    documents[0], url=args.url, options=options,
                    use_cache=not args.no_cache, timeout=args.timeout,
                    retries=args.retries,
                )
            ]
        else:
            results = compile_batch_remote(
                documents, url=args.url, options=options,
                use_cache=not args.no_cache,
                timeout=args.timeout, retries=args.retries,
            )
    except ServeClientError as exc:
        raise SystemExit(f"submit failed: {exc}") from None
    failures = 0
    for spec, (report, status) in zip(args.graphs, results):
        if isinstance(report, BatchItemError):
            failures += 1
            print(f"{spec}: error {report.code}: {report.message}")
            print()
            continue
        for line in report.summary_lines():
            print(line)
        print(f"cache:      {status} "
              f"({1000 * report.wall_s:.1f} ms server-side)")
        print()
    if args.output:
        payload = [
            r.to_json() if not isinstance(r, BatchItemError)
            else {"status": "error", "code": r.code, "error": r.message}
            for r, _ in results
        ]
        with open(args.output, "w") as handle:
            _json.dump(
                payload[0] if len(payload) == 1 else payload,
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
        print(f"reports written to {args.output}")
    if failures:
        print(f"{failures} of {len(results)} graphs failed")
        return 1
    return 0


def _cmd_resize(args: argparse.Namespace) -> int:
    """Live-resize a running server's compile farm."""
    from .serve.client import ServeClientError, resize_remote

    try:
        info = resize_remote(
            args.workers, url=args.url, timeout=args.timeout
        )
    except ServeClientError as exc:
        raise SystemExit(f"resize failed: {exc}") from None
    print(
        f"farm resized {info.get('previous')} -> {info.get('size')} "
        f"(+{info.get('added', 0)}/-{info.get('removed', 0)} workers, "
        f"{info.get('alive')}/{info.get('size')} alive)"
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or maintain the on-disk artifact cache."""
    from .serve import ArtifactCache

    cache = ArtifactCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"cache root: {stats['root']}")
        print(f"entries:    {stats['entries']}")
        print(f"bytes:      {stats['bytes']}")
        for kind in sorted(stats["kinds"]):
            k = stats["kinds"][kind]
            print(
                f"{kind + ':':<12}{k['entries']} "
                f"entr{'y' if k['entries'] == 1 else 'ies'}, "
                f"{k['bytes']} bytes"
            )
        return 0
    if args.cache_command == "gc":
        max_age_s = (
            args.max_age_days * 86400.0
            if args.max_age_days is not None else None
        )
        removed = cache.gc(
            max_entries=args.max_entries, max_age_s=max_age_s
        )
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
        return 0
    removed = cache.clear()
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Shared-memory SDF compiler "
            "(Murthy & Bhattacharyya, DATE 2000 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("systems", help="list built-in benchmark systems")
    p.set_defaults(func=_cmd_systems)

    p = sub.add_parser("compile", help="run the full flow on a graph")
    p.add_argument("graph", help="system name or .json graph file")
    p.add_argument(
        "--method", default="rpmc", choices=["rpmc", "apgan", "natural"]
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--backend", default="auto", choices=["auto", "python", "native"],
        help="kernel backend for the chain DP (auto: "
             "the cc-compiled native kernel when a compiler is available, "
             "silently falling back to python; results are "
             "bit-identical either way)",
    )
    p.add_argument(
        "--vectorize", action="store_true",
        help="block consecutive firings into counted firing blocks "
             "(loop fission on the SDPPO schedule), re-costing every "
             "candidate through lifetime extraction and first-fit; "
             "the blocked schedule drives allocation and --check",
    )
    p.add_argument(
        "--memory-budget", type=int, default=None, metavar="WORDS",
        help="word budget for --vectorize: only blockings whose "
             "re-costed shared pool stays within WORDS are applied "
             "(default: unconstrained)",
    )
    p.add_argument("--emit-c", metavar="FILE", help="write C output")
    p.add_argument(
        "--check", action="store_true",
        help="execute the schedule against the allocation (batched "
             "VM when --vectorize is active, scalar VM otherwise)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="print per-stage wall time (session, native.resolve, "
             "topsort, dppo, sdppo, vectorize, lifetimes, wig, "
             "first_fit, clique, bmlb, verify) and the work counter "
             "totals",
    )
    p.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record hierarchical spans and work counters; write the "
             "trace to FILE (Chrome traceEvents by default, loadable "
             "in chrome://tracing or Perfetto; .jsonl gets JSON-lines)",
    )
    p.add_argument(
        "--trace-format", default="auto",
        choices=["auto", "chrome", "jsonl"],
        help="trace file format (auto: by FILE extension)",
    )
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("table1", help="regenerate Table 1")
    p.add_argument("--systems", nargs="*", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (overrides REPRO_JOBS; 0 = all cores)",
    )
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("fig25", help="regenerate figure 25")
    p.add_argument("--systems", nargs="*", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fig25)

    p = sub.add_parser("fig26", help="regenerate figure 26")
    p.add_argument(
        "--points", nargs="*", default=None, metavar="MxN",
        help="e.g. 3x4 6x8",
    )
    p.set_defaults(func=_cmd_fig26)

    p = sub.add_parser("fig27", help="regenerate figure 27")
    p.add_argument("--sizes", nargs="*", type=int, default=[20, 50])
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (overrides REPRO_JOBS; 0 = all cores)",
    )
    p.set_defaults(func=_cmd_fig27)

    p = sub.add_parser("satrec", help="satellite receiver comparison")
    p.set_defaults(func=_cmd_satrec)

    p = sub.add_parser("cddat", help="CD-DAT input buffering comparison")
    p.set_defaults(func=_cmd_cddat)

    p = sub.add_parser(
        "check",
        help="differential cross-layer checking harness",
        description=(
            "Generate random consistent SDF graphs, run the full "
            "compilation pipeline on each, and cross-check every layer "
            "pair (block replay and symbolic forms vs the reference "
            "trace, scalar vs batched VM vs generated Python, native vs "
            "Python DP, predicted vs realized costs, first-fit vs "
            "verifier vs optimal, serial vs parallel runner).  Failing "
            "graphs are shrunk to minimal counterexamples.  With "
            "--inject, also runs the mutation-kill self-test: seeded "
            "faults are planted in intermediate artifacts and each must "
            "be caught downstream."
        ),
    )
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--inject", action="store_true",
        help="also run the fault-injection self-test",
    )
    p.add_argument(
        "--no-shrink", action="store_true",
        help="report failing graphs without minimizing them",
    )
    p.add_argument(
        "--families", default="acyclic,broadcast,cyclic",
        help=(
            "comma-separated trial families to cycle through "
            "(acyclic, broadcast, cyclic)"
        ),
    )
    p.add_argument(
        "--backend", default="auto", choices=["auto", "python", "native"],
        help="kernel backend for the chain DP the trial pipelines "
             "compile with; when the native kernel is available the "
             "oracle.native group cross-checks both backends regardless",
    )
    p.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record per-trial spans and oracle counters to FILE",
    )
    p.add_argument(
        "--trace-format", default="auto",
        choices=["auto", "chrome", "jsonl"],
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dot", help="emit Graphviz DOT for a graph")
    p.add_argument("graph", help="system name or .json graph file")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser(
        "serve",
        help="run the JSON-over-HTTP compilation service",
        description=(
            "Long-running compile server: POST /compile and /batch "
            "accept to_json graph documents, results are served from "
            "a content-addressed artifact cache when possible "
            "(bit-identical to a cold compile).  Bounded queue with "
            "429 backpressure, per-request timeouts, graceful drain "
            "on SIGTERM/SIGINT."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8177,
        help="bind port (0 picks a free port, printed on startup)",
    )
    p.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="compile-farm worker processes serving /compile and "
             "/batch, sharded by graph digest (0 = no farm, compile "
             "in-process on --threads threads)",
    )
    p.add_argument(
        "--threads", type=int, default=2, metavar="N",
        help="in-process compile threads (used when --workers is 0)",
    )
    p.add_argument(
        "--queue-limit", type=int, default=8, metavar="N",
        help="max queued+running requests before 429 responses",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request compile timeout (504 when exceeded)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact cache directory "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact cache (every request recompiles)",
    )
    p.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record per-request spans; write the merged trace to "
             "FILE on drain",
    )
    p.add_argument(
        "--trace-format", default="auto",
        choices=["auto", "chrome", "jsonl"],
    )
    p.add_argument(
        "--quiet", action="store_true",
        help="suppress per-request access logging",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit graphs to a running compile server",
        description=(
            "Resolve each GRAPH (system name or .json file), submit "
            "to a repro serve instance, and print the returned "
            "CompilationReports with their cache status."
        ),
    )
    p.add_argument(
        "graphs", nargs="+", metavar="GRAPH",
        help="system names or .json graph files",
    )
    p.add_argument(
        "--url", default="http://127.0.0.1:8177",
        help="server base URL",
    )
    p.add_argument(
        "--method", default="rpmc", choices=["rpmc", "apgan", "natural"]
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--no-cache", action="store_true",
        help="ask the server to bypass its artifact cache",
    )
    p.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="client-side request timeout",
    )
    p.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry 429/503 responses up to N times, honoring the "
             "server's Retry-After header with capped jittered "
             "backoff (0 = fail immediately, the old behavior)",
    )
    p.add_argument(
        "--output", "-o", metavar="FILE", default=None,
        help="also save the report(s) as JSON",
    )
    p.add_argument(
        "--vectorize", action="store_true",
        help="ask the server to block consecutive firings after "
             "scheduling (vectorized execution)",
    )
    p.add_argument(
        "--memory-budget", type=int, default=None, metavar="WORDS",
        help="cap the shared pool of the vectorized schedule at WORDS "
             "(requires --vectorize)",
    )
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "resize",
        help="live-resize a running server's compile farm",
        description=(
            "POST /resize to a repro serve instance started with "
            "--workers N: grow or shrink the compile farm without a "
            "restart.  Added workers spawn supervised; removed "
            "workers drain their in-flight request and ship their "
            "counters home before shutdown.  Rendezvous hashing "
            "moves only ~1/N of the key space."
        ),
    )
    p.add_argument(
        "workers", type=int, metavar="N",
        help="new farm size (worker processes)",
    )
    p.add_argument(
        "--url", default="http://127.0.0.1:8177",
        help="server base URL",
    )
    p.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="client-side request timeout",
    )
    p.set_defaults(func=_cmd_resize)

    p = sub.add_parser(
        "cache",
        help="inspect or maintain the artifact cache",
        description=(
            "Operate on the content-addressed compilation cache used "
            "by repro serve: show entry counts and sizes, expire old "
            "entries, or wipe it."
        ),
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    c = cache_sub.add_parser("stats", help="entry count and total bytes")
    c.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )
    c.set_defaults(func=_cmd_cache)
    c = cache_sub.add_parser("gc", help="expire cache entries")
    c.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )
    c.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="keep only the N most recently written entries",
    )
    c.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="remove entries older than DAYS days",
    )
    c.set_defaults(func=_cmd_cache)
    c = cache_sub.add_parser("clear", help="remove every cache entry")
    c.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )
    c.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "report", help="regenerate the full evaluation as Markdown"
    )
    p.add_argument("--output", "-o", metavar="FILE", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
