#!/usr/bin/env python
"""Golden output ledger: the outputs a refactor must leave byte-identical.

Renders three families of output and compares them with the files under
``tests/golden/`` (``tests/test_golden.py`` runs the same comparison as
part of the test suite):

* ``compile.txt`` — ``repro compile`` stdout plus the SHA-256 of the
  run's ``CompilationReport.canonical()``, for the 15 Table 1 systems
  and CD-DAT, each run plain with ``--check`` (scalar VM), with
  ``--vectorize --check`` (batched VM) and with ``--method apgan``.  The
  same file must come out of three legs (:data:`COMPILE_LEGS`): with
  the native kernel loaded first, under ``REPRO_NATIVE=0``, and in a
  fresh interpreter, where the systems before the first one of
  ``repro.native.CROSSOVER_ACTORS`` actors run the scalar DP and the
  rest the kernel that system loads.
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
* ``chain_dp.txt`` — the chain DP at ``graph.topological_order()`` for
  seeds 0–11 of four generators (the check harness's delayed split
  chains, acyclic and broadcast trial graphs, and delayless random
  graphs of 10–65 actors): the DPPO cost and schedule, and the SDPPO
  cost, schedule and per-window ``factored`` flags under each
  factoring policy.  Rendered with the Python DP and with the native
  kernel (:data:`CHAIN_DP_BACKENDS`); both must match the one file.
* ``vm_outcomes.txt`` — the outcome of both shared-memory VMs
  (``SharedMemoryVM`` and ``BatchedVM``, two periods) on CD-DAT, four
  Table 1 systems and seeds 0–39 of the check harness's acyclic,
  broadcast and delayed-chain trial graphs, each compiled plain and
  vectorized, and run on the clean allocation, on up to
  :data:`VM_OVERLAYS` forged overlays (a WIG neighbour moved onto a
  buffer at a seeded word offset) and on up to :data:`VM_SHRINKS`
  shrunk linear buffers: the firing count, a digest of the per-actor
  counts and the peak address, or the exact ``CodegenError`` text.
* ``replay.txt`` — the schedule replay (:mod:`repro.sdf.simulate`) on
  CD-DAT, satrec and seeds 0–11 of the check harness's acyclic,
  broadcast, delayed-chain and cyclic trial graphs (the cyclic ones
  scheduled by ``schedule_cyclic``), each under its SDPPO (or cyclic)
  schedule, that schedule vectorized and the flat
  ``assert_deadlock_free`` schedule: ``max_tokens``, a digest of
  ``coarse_live_intervals``, ``max_live_tokens`` and
  ``buffer_memory_nonshared``; then, with one seeded leaf dropped, the
  exact ``validate_schedule`` error text and the block replay's own
  outcome (its underflow text, or a digest of the final tokens).

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
import subprocess
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
#: Seeds of each ``chain_dp.txt`` generator.
CHAIN_DP_SEEDS = range(12)
#: The ``chain_dp.txt`` legs: the ``dppo``/``sdppo`` ``backend`` keyword.
CHAIN_DP_BACKENDS: Tuple[str, ...] = ("python", "native")
#: Named systems of ``vm_outcomes.txt``; the trial graphs follow.
VM_SYSTEMS: Tuple[str, ...] = (
    "cddat", "satrec", "qmf23_2d", "16qamModem", "blockVox",
)
#: Seeds of each ``vm_outcomes.txt`` trial-graph generator.
VM_SEEDS = range(40)
#: Forged overlays and shrunk linear buffers per ``vm_outcomes.txt``
#: compile, at most.
VM_OVERLAYS = 3
VM_SHRINKS = 2
#: Seeds of each ``replay.txt`` trial-graph generator.
REPLAY_SEEDS = range(12)
#: The ``compile.txt`` legs, by the label a ``differs:`` line names.
COMPILE_LEGS: Tuple[str, ...] = (
    "kernel loaded", "REPRO_NATIVE=0", "fresh interpreter",
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


def compile_ledger() -> str:
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
                stdout = _cli(["compile", system, *mode])
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


def fresh_compile_ledger() -> str:
    """:func:`compile_ledger` in a new interpreter; "" if it fails.

    A fresh process has not loaded the native kernel, so each compile
    loads it only where :func:`repro.native.kernel_pays` says so.
    """
    code = (
        "import runpy, sys\n"
        f"ledger = runpy.run_path({os.path.abspath(__file__)!r})"
        "['compile_ledger']\n"
        "sys.stdout.write(ledger())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return ""
    return proc.stdout


def compile_leg(leg: str) -> str:
    """``compile.txt`` as rendered by one of :data:`COMPILE_LEGS`."""
    if leg == "kernel loaded":
        from repro.native import get_kernels

        get_kernels()
        return compile_ledger()
    if leg == "REPRO_NATIVE=0":
        with _environ("REPRO_NATIVE", "0"):
            return compile_ledger()
    if leg == "fresh interpreter":
        return fresh_compile_ledger()
    raise ValueError(f"unknown compile leg {leg!r}")


def check_transcript(native: bool) -> str:
    """The ``repro check --inject`` transcript, with or without kernel.

    ``repro check`` loads the kernel itself where one builds.
    """
    if native:
        return _cli(list(CHECK_ARGV))
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


def _chain_dp_graphs() -> Iterator[Tuple[str, object]]:
    from repro.check.harness import (
        broadcast_trial_graph,
        delayed_split_chain,
        trial_graph,
    )
    from repro.sdf.random_graphs import random_sdf_graph

    for generator in (delayed_split_chain, trial_graph, broadcast_trial_graph):
        for seed in CHAIN_DP_SEEDS:
            yield f"{generator.__name__}({seed})", generator(seed)
    for seed in CHAIN_DP_SEEDS:
        n = 10 + 5 * seed
        yield f"random_sdf_graph({n}, seed={seed})", random_sdf_graph(
            n, seed=seed
        )


def chain_dp(backend: str) -> str:
    """DPPO and SDPPO (every factoring policy) on seeded graphs."""
    from repro.scheduling.dppo import dppo
    from repro.scheduling.sdppo import sdppo

    lines: List[str] = []
    for label, graph in _chain_dp_graphs():
        order = graph.topological_order()
        lines.append(f"== {label}: {' '.join(order)}")
        result = dppo(graph, order, backend=backend)
        lines.append(f"dppo {result.cost} {result.schedule}")
        for factoring in ("auto", "always", "never"):
            result = sdppo(graph, order, factoring=factoring, backend=backend)
            flags = "".join(
                "1" if result.factored[key] else "0"
                for key in sorted(result.factored)
            )
            lines.append(
                f"sdppo {factoring} {result.cost} {result.schedule} "
                f"factored {flags or '-'}"
            )
    return "\n".join(lines) + "\n"


def _vm_graphs() -> Iterator[Tuple[str, object]]:
    from repro.check.harness import (
        broadcast_trial_graph,
        delayed_split_chain,
        trial_graph,
    )

    for stem in VM_SYSTEMS:
        yield stem, _emit_graph(stem)
    for generator in (trial_graph, broadcast_trial_graph, delayed_split_chain):
        for seed in VM_SEEDS:
            yield f"{generator.__name__}({seed})", generator(seed)


def _vm_outcome(vm_class, graph, lifetimes, allocation) -> str:
    """One VM's two-period run: its counters or its error text."""
    from repro.exceptions import CodegenError

    try:
        vm = vm_class(graph, lifetimes, allocation)
        vm.run(periods=2)
    except CodegenError as exc:
        return f"error {exc}"
    counts = hashlib.sha256(
        repr(sorted(vm.firings_per_actor.items())).encode("utf-8")
    ).hexdigest()[:16]
    return f"firings {vm.firings} counts {counts} peak {vm.peak_address}"


def _forged_overlays(result, rng) -> Iterator[Tuple[str, object]]:
    """Allocations with one WIG neighbour moved onto a buffer.

    The moved buffer lands at a seeded word offset inside its
    neighbour, and ``total`` grows to cover it, so every buffer stays
    inside the pool.
    """
    from repro.allocation.first_fit import Allocation

    alloc = result.allocation
    wig = alloc.graph
    sizes = {b.name: b.size for b in result.lifetimes.as_list()}
    pairs = [
        (wig.buffers[i], wig.buffers[j])
        for i in range(len(wig.buffers))
        for j in sorted(wig.neighbors[i])
        if wig.buffers[i].size > 0 and wig.buffers[j].size > 0
    ]
    for host, moved in rng.sample(pairs, min(VM_OVERLAYS, len(pairs))):
        offsets = dict(alloc.offsets)
        offsets[moved.name] = offsets[host.name] + rng.randrange(host.size)
        total = max([alloc.total] + [
            offsets[name] + size for name, size in sizes.items()
        ])
        yield (
            f"overlay {moved.name} at {host.name}+"
            f"{offsets[moved.name] - offsets[host.name]}",
            Allocation(offsets=offsets, total=total, order=alloc.order,
                       graph=wig),
        )


def _shrunk_buffers(result, rng) -> Iterator[Tuple[str, object]]:
    """Lifetime sets with one linear buffer one word short."""
    import dataclasses

    lifetimes = result.lifetimes
    linear = [
        b for b in lifetimes.buffers
        if b.members[0].delay == 0
        and lifetimes.lifetimes[b.members[0].key].size > 1
    ]
    for b in rng.sample(linear, min(VM_SHRINKS, len(linear))):
        lt = lifetimes.lifetimes[b.members[0].key]
        short = dataclasses.replace(lt, size=lt.size - 1)
        table = dict(lifetimes.lifetimes)
        for m in b.members:
            table[m.key] = short
        yield (
            f"shrink {lt.name} to {short.size}",
            dataclasses.replace(lifetimes, lifetimes=table),
        )


def vm_outcomes() -> str:
    """Both VMs on clean, overlaid and shrunk programs of seeded graphs."""
    import random

    from repro.codegen.batched_vm import BatchedVM
    from repro.codegen.vm import SharedMemoryVM
    from repro.scheduling.pipeline import implement

    engines = (("scalar", SharedMemoryVM), ("batched", BatchedVM))
    lines: List[str] = []
    for label, graph in _vm_graphs():
        for vectorize in (False, True):
            result = implement(graph, vectorize=vectorize)
            rng = random.Random(f"{label} {vectorize}")
            runs = [("clean", result.lifetimes, result.allocation)]
            runs += [
                (name, result.lifetimes, alloc)
                for name, alloc in _forged_overlays(result, rng)
            ]
            runs += [
                (name, lifetimes, result.allocation)
                for name, lifetimes in _shrunk_buffers(result, rng)
            ]
            lines.append(
                f"== {label} {'vectorized' if vectorize else 'plain'}"
            )
            for name, lifetimes, alloc in runs:
                lines.append(f"-- {name}")
                for engine, vm_class in engines:
                    outcome = _vm_outcome(vm_class, graph, lifetimes, alloc)
                    lines.append(f"{engine} {outcome}")
    return "\n".join(lines) + "\n"


def _replay_graphs() -> Iterator[Tuple[str, object, object]]:
    """``(label, graph, schedule)`` per graph: its SDPPO schedule, or
    ``schedule_cyclic``'s for the cyclic family."""
    from repro.check.harness import (
        broadcast_trial_graph,
        cyclic_trial_graph,
        delayed_split_chain,
        trial_graph,
    )
    from repro.scheduling.cyclic import schedule_cyclic
    from repro.scheduling.pipeline import implement

    named = [(stem, _emit_graph(stem)) for stem in ("cddat", "satrec")]
    for generator in (trial_graph, broadcast_trial_graph, delayed_split_chain):
        named += [(f"{generator.__name__}({s})", generator(s))
                  for s in REPLAY_SEEDS]
    for label, graph in named:
        yield label, graph, implement(graph, verify=False).sdppo_schedule
    for seed in REPLAY_SEEDS:
        graph = cyclic_trial_graph(seed)
        yield (f"cyclic_trial_graph({seed})", graph,
               schedule_cyclic(graph).schedule)


def _drop_leaf(schedule, index: int):
    """``schedule`` without its ``index``-th ``Firing`` leaf (pre-order);
    loops left empty go too."""
    from repro.sdf.schedule import Firing, Loop, LoopedSchedule

    seen = [0]

    def walk(node):
        if isinstance(node, Firing):
            seen[0] += 1
            return None if seen[0] - 1 == index else node
        body = tuple(c for c in map(walk, node.body) if c is not None)
        return Loop(node.count, body) if body else None

    return LoopedSchedule([n for n in map(walk, schedule.body) if n])


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def replay() -> str:
    """Replay observables of seeded schedules, and the errors of each
    schedule with one leaf dropped."""
    import random

    from repro.exceptions import SDFError
    from repro.scheduling.vectorize import vectorize_schedule
    from repro.sdf.simulate import (
        BlockScan,
        assert_deadlock_free,
        buffer_memory_nonshared,
        coarse_live_intervals,
        max_live_tokens,
        max_tokens,
        validate_schedule,
    )

    lines: List[str] = []
    for label, graph, schedule in _replay_graphs():
        lines.append(f"== {label}")
        schedules = (
            ("schedule", schedule),
            ("vectorized", vectorize_schedule(graph, schedule).schedule),
            ("flat", assert_deadlock_free(graph)),
        )
        rng = random.Random(label)
        for name, s in schedules:
            peaks = " ".join(
                f"{k[0]}>{k[1]}.{k[2]}={v}"
                for k, v in sorted(max_tokens(graph, s).items())
            )
            intervals = sorted(coarse_live_intervals(graph, s).items())
            lines.append(
                f"-- {name} ({s.num_firings()} firings): "
                f"max_live_tokens {max_live_tokens(graph, s)} "
                f"buffer_memory_nonshared {buffer_memory_nonshared(graph, s)} "
                f"intervals {_digest(intervals)}"
            )
            lines.append(f"max_tokens {peaks}")
            index = rng.randrange(sum(s.appearances().values()))
            dropped = _drop_leaf(s, index)
            try:
                validate_schedule(graph, dropped)
                outcome = "valid"
            except SDFError as exc:
                outcome = f"error {exc}"
            lines.append(f"drop leaf {index}: validate {outcome}")
            try:
                tokens = BlockScan(graph, dropped).tokens
                outcome = f"tokens {_digest(sorted(tokens.items()))}"
            except SDFError as exc:
                outcome = f"error {exc}"
            lines.append(f"drop leaf {index}: replay {outcome}")
    return "\n".join(lines) + "\n"


def render() -> Dict[str, str]:
    """Every golden file but ``compile.txt``, ``chain_dp.txt`` and the
    graphs, by path."""
    files = {
        "check_inject.native.txt": check_transcript(native=True),
        "check_inject.python.txt": check_transcript(native=False),
        "orders_lifetimes.txt": orders_lifetimes(),
        "replay.txt": replay(),
        "vm_outcomes.txt": vm_outcomes(),
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
        _write("compile.txt", compile_leg(COMPILE_LEGS[0]))
        _write("chain_dp.txt", chain_dp(CHAIN_DP_BACKENDS[0]))
        for relative, text in render().items():
            _write(relative, text)
        print(f"golden files written to {os.path.relpath(GOLDEN, REPO)}")
        return 0
    differing = [
        f"compile.txt ({leg})" for leg in COMPILE_LEGS
        if compile_leg(leg) != read("compile.txt")
    ]
    differing += [
        f"chain_dp.txt ({backend})" for backend in CHAIN_DP_BACKENDS
        if chain_dp(backend) != read("chain_dp.txt")
    ]
    differing += [
        relative for relative, text in render().items()
        if not os.path.exists(os.path.join(GOLDEN, relative))
        or read(relative) != text
    ]
    for relative in differing:
        print(f"differs: {relative}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
