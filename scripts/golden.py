#!/usr/bin/env python
"""Golden output ledger: the outputs a refactor must leave byte-identical.

Renders three families of output and compares them with the files under
``tests/golden/`` (``tests/test_golden.py`` runs the same comparison as
part of the test suite):

* ``compile.txt`` — ``repro compile`` stdout plus the SHA-256 of the
  run's ``CompilationReport.canonical()``, for the 15 Table 1 systems
  and CD-DAT, each run plain with ``--check`` (scalar VM), with
  ``--vectorize --check`` (batched VM) and with ``--method apgan``.  The
  same file must come out under ``--backend python`` and
  ``--backend native``.
* ``check_inject.native.txt`` / ``check_inject.python.txt`` — the
  transcript of ``repro check --trials 25 --inject --families
  acyclic,broadcast,cyclic``, with the native kernel and with
  ``REPRO_NATIVE=0``.
* ``emit/`` — ``emit_c`` (plain and ``instrument=True``) and
  ``emit_python`` sources for satrec, CD-DAT and the two broadcast
  graphs stored in ``graphs/`` (one of them has a delayed group).
* ``orders_lifetimes.txt`` — RPMC orders for seeds 0, 1 and 7 on
  seeded random graphs (10–100 actors) and random broadcast graphs
  (12–36 actors), and for each graph every buffer lifetime
  ``(name, size, start, duration, periods)`` with ``mco``/``mcp``
  under the plain and the vectorized schedule.

Usage::

    python scripts/golden.py            # compare; exit 1 naming each
                                        # file that differs
    python scripts/golden.py --write    # regenerate tests/golden/

``--write`` is the only mode that writes files.  A change that alters a
golden file must say which file and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from typing import Dict, Iterator, List, Tuple

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
GOLDEN = os.path.join(REPO, "tests", "golden")
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.apps import TABLE1_SYSTEMS  # noqa: E402

SYSTEMS: Tuple[str, ...] = tuple(TABLE1_SYSTEMS) + ("cddat",)
MODES: Tuple[Tuple[str, ...], ...] = (
    ("--check",),
    ("--vectorize", "--check"),
    ("--method", "apgan"),
)
CHECK_ARGV: Tuple[str, ...] = (
    "check", "--trials", "25", "--inject",
    "--families", "acyclic,broadcast,cyclic",
)
#: Stored broadcast graphs: file stem -> generator arguments.  The
#: generator only matters under ``--write``; the comparison reads the
#: stored JSON, so the emitted sources do not depend on it.
BROADCAST_GRAPHS: Dict[str, Dict[str, object]] = {
    "broadcast_plain": dict(
        num_actors=6, seed=0, num_groups=2, delayed_group_fraction=0.0,
        max_repetition=5,
    ),
    "broadcast_delayed": dict(
        num_actors=7, seed=0, num_groups=2, delayed_group_fraction=0.5,
        max_repetition=5, token_size_choices=(1, 2),
    ),
}
EMIT_SYSTEMS: Tuple[str, ...] = ("satrec", "cddat") + tuple(BROADCAST_GRAPHS)
#: RPMC seeds pinned by ``orders_lifetimes.txt``; lifetimes use the first.
ORDER_SEEDS: Tuple[int, ...] = (0, 1, 7)
#: ``(generator, num_actors)`` of the ledger's seeded inputs; each graph
#: is generated with ``seed=num_actors``.
ORDER_GRAPHS: Tuple[Tuple[str, int], ...] = (
    ("random_sdf_graph", 10), ("random_sdf_graph", 55),
    ("random_sdf_graph", 100), ("random_broadcast_sdf_graph", 12),
    ("random_broadcast_sdf_graph", 24), ("random_broadcast_sdf_graph", 36),
)


def _graph_path(stem: str) -> str:
    return os.path.join(GOLDEN, "graphs", f"{stem}.json")


@contextlib.contextmanager
def _environ(name: str, value: str) -> Iterator[None]:
    before = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if before is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = before


def _cli(argv: List[str]) -> str:
    """Run ``repro`` in-process; returns its stdout."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def compile_ledger(backend: str) -> str:
    """Every pinned ``repro compile`` run: stdout and report digest."""
    from repro.artifacts.report import CompilationReport
    from repro.scheduling import pipeline

    results = []
    real = pipeline.implement

    def capture(*args, **kwargs):
        result = real(*args, **kwargs)
        results.append(result)
        return result

    chunks: List[str] = []
    pipeline.implement = capture
    try:
        for system in SYSTEMS:
            for mode in MODES:
                del results[:]
                stdout = _cli(
                    ["compile", system, *mode, "--backend", backend]
                )
                (result,) = results
                report = CompilationReport.from_result(result, system)
                digest = hashlib.sha256(
                    report.canonical().encode("utf-8")
                ).hexdigest()
                chunks.append(
                    f"== repro compile {system} {' '.join(mode)}\n"
                    f"{stdout}canonical sha256 {digest}\n"
                )
    finally:
        pipeline.implement = real
    return "".join(chunks)


def check_transcript(native: bool) -> str:
    """The ``repro check --inject`` transcript, with or without kernel."""
    if native:
        return _cli([*CHECK_ARGV, "--backend", "native"])
    with _environ("REPRO_NATIVE", "0"):
        return _cli(list(CHECK_ARGV))


def _emit_graph(stem: str):
    if stem in BROADCAST_GRAPHS:
        from repro.sdf.io import load_graph

        return load_graph(_graph_path(stem))
    from repro.cli import _resolve_graph

    return _resolve_graph(stem)


def emitted_sources() -> Dict[str, str]:
    """``emit/<system>{.c,.instrumented.c,.py}`` -> generated source."""
    from repro.codegen import emit_c, emit_python
    from repro.scheduling.pipeline import implement

    sources: Dict[str, str] = {}
    for stem in EMIT_SYSTEMS:
        graph = _emit_graph(stem)
        result = implement(graph)
        args = (graph, result.lifetimes, result.allocation)
        sources[f"emit/{stem}.c"] = emit_c(*args)
        sources[f"emit/{stem}.instrumented.c"] = emit_c(*args, instrument=True)
        sources[f"emit/{stem}.py"] = emit_python(*args)
    return sources


def orders_lifetimes() -> str:
    """RPMC orders and the lifetimes of their plain/vectorized schedules."""
    from repro.scheduling.pipeline import implement
    from repro.scheduling.rpmc import rpmc
    from repro.sdf import random_graphs

    lines: List[str] = []
    for generator, n in ORDER_GRAPHS:
        graph = getattr(random_graphs, generator)(n, seed=n)
        lines.append(f"== {generator}({n}, seed={n})")
        for seed in ORDER_SEEDS:
            order = rpmc(graph, seed=seed).order
            lines.append(f"rpmc seed {seed}: {' '.join(order)}")
        for vectorize in (False, True):
            result = implement(
                graph, seed=ORDER_SEEDS[0], vectorize=vectorize, verify=False
            )
            lines.append(
                f"-- {'vectorized' if vectorize else 'plain'}: "
                f"mco {result.mco} mcp {result.mcp}"
            )
            for lt in result.lifetimes.as_list():
                periods = "".join(f"({a},{loop})" for a, loop in lt.periods)
                lines.append(
                    f"{lt.name} {lt.size} {lt.start} {lt.duration} "
                    f"{periods or '-'}"
                )
    return "\n".join(lines) + "\n"


def render(backend: str = "native") -> Dict[str, str]:
    """Every golden file (relative path -> content), graphs excluded."""
    files = {
        "compile.txt": compile_ledger(backend),
        "check_inject.native.txt": check_transcript(native=True),
        "check_inject.python.txt": check_transcript(native=False),
        "orders_lifetimes.txt": orders_lifetimes(),
    }
    files.update(emitted_sources())
    return files


def read(relative: str) -> str:
    with open(os.path.join(GOLDEN, relative), encoding="utf-8") as handle:
        return handle.read()


def _write(relative: str, text: str) -> None:
    path = os.path.join(GOLDEN, relative)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_graphs() -> None:
    from repro.sdf.io import save_graph
    from repro.sdf.random_graphs import random_broadcast_sdf_graph

    os.makedirs(os.path.join(GOLDEN, "graphs"), exist_ok=True)
    for stem, kwargs in BROADCAST_GRAPHS.items():
        graph = random_broadcast_sdf_graph(name=stem, **kwargs)
        save_graph(graph, _graph_path(stem))


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate tests/golden/ instead of comparing",
    )
    args = parser.parse_args(argv)
    if args.write:
        _write_graphs()
        for relative, text in render().items():
            _write(relative, text)
        print(f"golden files written to {os.path.relpath(GOLDEN, REPO)}")
        return 0
    differing = [
        relative for relative, text in render().items()
        if not os.path.exists(os.path.join(GOLDEN, relative))
        or read(relative) != text
    ]
    if compile_ledger("python") != read("compile.txt"):
        differing.append("compile.txt (--backend python)")
    for relative in differing:
        print(f"differs: {relative}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
