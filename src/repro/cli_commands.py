"""Handlers of every ``repro`` subcommand except ``compile``.

:func:`repro.cli.main` imports this module only when it dispatches to
one of them, so a cold ``repro compile`` compiles just its own handler
and the parser.  Each ``cmd_<name>`` handles the subcommand ``<name>``
and returns the process exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .apps import TABLE1_SYSTEMS, table1_graph
from .cli import _check_memory_budget, _resolve_graph


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


def cmd_systems(_: argparse.Namespace) -> int:
    for name in TABLE1_SYSTEMS:
        graph = table1_graph(name)
        print(f"{name:>12}  {graph.num_actors:>4} actors "
              f"{graph.num_edges:>4} edges")
    return 0


def _load_kernel() -> None:
    """Load the native kernel before a command that compiles many graphs.

    A single compile loads it only from ``native.CROSSOVER_ACTORS``
    actors up; the Table 1 and figure 25/27 sweeps and the ``check``
    trials compile dozens of smaller graphs, which together repay the
    load.
    """
    from .native import get_kernels

    get_kernels()


def cmd_table1(args: argparse.Namespace) -> int:
    from .experiments.table1 import format_table1, run_table1

    jobs = _apply_jobs(args)
    _load_kernel()
    systems = args.systems or [
        n for n in TABLE1_SYSTEMS if not n.endswith("5d")
    ]
    print(format_table1(run_table1(systems, seed=args.seed, jobs=jobs)))
    return 0


def cmd_fig25(args: argparse.Namespace) -> int:
    from .experiments.fig25 import format_fig25, run_fig25

    _load_kernel()
    systems = args.systems or [
        n for n in TABLE1_SYSTEMS if not n.endswith("5d")
    ]
    print(format_fig25(run_fig25(systems, seed=args.seed)))
    return 0


def cmd_fig26(args: argparse.Namespace) -> int:
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


def cmd_fig27(args: argparse.Namespace) -> int:
    from .experiments.random_graphs import (
        format_fig27,
        run_random_graph_experiment,
    )

    jobs = _apply_jobs(args)
    _load_kernel()
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


def cmd_satrec(_: argparse.Namespace) -> int:
    from .experiments.satrec_comparison import (
        format_satrec,
        run_satrec_comparison,
    )

    print(format_satrec(run_satrec_comparison()))
    return 0


def cmd_cddat(_: argparse.Namespace) -> int:
    from .experiments.cddat_io import run_cddat_io

    r = run_cddat_io()
    print(f"CD-DAT input buffering over a {r.period_samples}-sample period:")
    print(f"  flat SAS:   {r.flat_backlog} samples")
    print(f"  nested SAS: {r.nested_backlog} samples")
    print(f"  nested schedule: {r.nested_schedule}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .check import run_check

    _load_kernel()
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


def cmd_dot(args: argparse.Namespace) -> int:
    from .sdf.io import to_dot

    sys.stdout.write(to_dot(_resolve_graph(args.graph)))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import generate_report

    _load_kernel()
    text = generate_report(seed=args.seed)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
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


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit graphs to a running server; print/save the reports."""
    import json as _json

    from .sdf.io import to_json
    from .serve.client import (
        BatchItemError,
        ServeClientError,
        compile_batch_remote,
        compile_remote,
    )

    _check_memory_budget(args)
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


def cmd_resize(args: argparse.Namespace) -> int:
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


def cmd_cache(args: argparse.Namespace) -> int:
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
