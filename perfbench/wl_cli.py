"""``cli_cold``: one fresh ``python -m repro compile <system>`` per op.

This is what a CLI user waits for: interpreter start, imports, the
pipeline and the output.  An op passes when the child exits 0 and its
printed ``shared:`` total equals the pinned value.  CPU time and peak
RSS are each child's own, from its ``wait4`` rusage (the per-child form
of ``RUSAGE_CHILDREN``).

The traced run adds ``-X importtime`` and ``--profile`` to each child
and splits the op into interpreter start, imports, pipeline stages and
the rest.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, List, Optional, Tuple

from common import (
    ChildRun,
    Context,
    Meter,
    Result,
    class_latency,
    median_setup,
    probe_setup,
    run_child,
    spawn_reference,
    timed_passes,
)
from corpus import cli_order, pinned

_SHARED = re.compile(r"^shared:\s+(\d+) words", re.M)
_STAGE = re.compile(r"^\s+([a-z_]+):\s+([0-9.]+)s", re.M)
_IMPORT = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$", re.M)


def _argv(ctx: Context, system: str, traced: bool) -> List[str]:
    if traced:
        return [ctx.python, "-X", "importtime", "-m", "repro", "compile",
                system, "--profile"]
    return [ctx.python, "-m", "repro", "compile", system]


class Ops:
    """The closed loop over cold children, with per-op checks.

    Every child is scaled by the interpreter-start reference timed just
    before and just after it (:func:`common.spawn_reference`).
    """

    def __init__(self, ctx: Context, res: Result, traced: bool) -> None:
        self.ctx, self.res, self.traced = ctx, res, traced
        self.order = cli_order(ctx.seed)
        self.pins = pinned()["plain"]
        self.runs: List[Tuple[str, ChildRun]] = []
        self.meter: Optional[Meter] = None  # None while warming up

    def one_pass(self, _index: int) -> None:
        for system in self.order:
            child = run_child(_argv(self.ctx, system, self.traced),
                              self.ctx.env, self.ctx.root)
            if self.meter is not None:
                self.meter.add(child.wall_s, child.cpu_s)
            self.runs.append((system, child))

    def check(self, system: str, child: ChildRun) -> None:
        self.res.attempted += 1
        found = _SHARED.search(child.stdout)
        if child.returncode != 0 or found is None:
            self.res.fail(f"cli {system}: exit {child.returncode}: "
                          f"{child.stderr.strip()[-200:]}")
        elif int(found.group(1)) != self.pins[system]:
            self.res.fail(f"cli {system}: shared {found.group(1)} words, "
                          f"pinned {self.pins[system]}")

    def measure(self, seconds: float):
        """Whole passes for ``seconds`` of child time; checked runs."""
        first = len(self.runs)
        self.meter = Meter(spawn_reference(self.ctx), every_s=0.0)
        timed_passes(seconds, self.meter, self.one_pass)
        runs = self.runs[first:]
        for system, child in runs:
            self.check(system, child)
        return self.meter, runs


def run(ctx: Context) -> Result:
    res = Result()
    if not ctx.trace:
        setup, setups = median_setup(
            ctx, lambda: probe_setup(ctx, "cli_cold"))
    ops = Ops(ctx, res, traced=False)
    ops.one_pass(-1)  # warm the page cache and bytecode caches (unchecked)
    ops.runs.clear()
    if ctx.trace:
        return _run_traced(ctx, ops, res)
    meter, runs = ops.measure(ctx.seconds)
    res.lines.append(meter.speed_line())
    lat = class_latency(res, "", meter.scaled(), "cold repro compile")
    res.put("setup_s", setup, "s")
    res.put("p50_ms", lat["p50_ms"], "ms")
    res.put("p90_ms", lat["p90_ms"], "ms")
    res.put("ops_per_s", meter.ops_per_s, "1/s")
    res.put("cpu_ms_per_op", 1e3 * meter.cpu_s / meter.ops, "ms")
    res.put("peak_rss_mb", max(c.maxrss_mb for _s, c in runs), "MB")
    res.record["setup_samples_s"] = setups
    return res


def _imports(stderr: str) -> Dict[str, float]:
    """First cumulative time (ms) of each module in ``-X importtime``.

    Also returns ``(top)``: the summed cumulative time of the
    outermost imports, i.e. all import time of the process.
    """
    out: Dict[str, float] = {"(top)": 0.0}
    for match in _IMPORT.finditer(stderr):
        cumulative_ms = int(match.group(1)) / 1e3
        name = match.group(3)
        out.setdefault(name, cumulative_ms)
        if not match.group(2):  # not nested in another import
            out["(top)"] += cumulative_ms
    return out


def _run_traced(ctx: Context, ops: Ops, res: Result) -> Result:
    half = ctx.seconds / 2.0
    plain, _ = ops.measure(half)
    ops.traced = True
    traced, traced_runs = ops.measure(half)

    bare = [run_child([ctx.python, "-c", "pass"], ctx.env, ctx.root)
            for _ in range(5)]
    startup_ms = statistics.median(1e3 * c.wall_s for c in bare)
    bare = [run_child([ctx.python, "-X", "importtime", "-c", "pass"],
                      ctx.env, ctx.root) for _ in range(5)]
    startup_imports = statistics.median(
        _imports(c.stderr)["(top)"] for c in bare)
    rows = []
    for _system, child in traced_runs:
        imports = _imports(child.stderr)
        stages = sum(float(s) for name, s in _STAGE.findall(child.stdout)
                     if name != "total")
        rows.append({
            "repro_cli": imports.get("repro", 0.0)
            + imports.get("repro.cli", 0.0),
            "numpy": imports.get("numpy", 0.0),
            "repro_serve": imports.get("repro.serve", 0.0),
            "imports": imports["(top)"] - startup_imports,
            "stages": 1e3 * stages,
        })

    def med(field: str) -> float:
        return statistics.median(r[field] for r in rows)

    # The split is taken inside the traced children themselves, so every
    # term carries the same -X importtime overhead.
    wall_ms = statistics.median(1e3 * c.wall_s for _s, c in traced_runs)
    res.put("interp.startup_ms", startup_ms, "ms")
    res.put("import.repro_cli_ms", med("repro_cli"), "ms")
    res.put("import.numpy_ms", med("numpy"), "ms")
    res.put("import.repro_serve_ms", med("repro_serve"), "ms")
    res.put("cli.stages_ms", med("stages"), "ms")
    res.put("cli.untracked_ms",
            wall_ms - startup_ms - med("imports") - med("stages"), "ms")
    res.put("obs.overhead_ratio", traced.ops_per_s / plain.ops_per_s,
            "ratio")
    res.lines.append(f"  untraced children {plain.ops}, traced children "
                     f"{traced.ops}; median traced op {wall_ms:.1f} ms")
    return res
