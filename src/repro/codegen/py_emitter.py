"""Executable Python code generation from a scheduled, allocated graph.

The C emitter (:mod:`repro.codegen.c_emitter`) produces source the test
environment cannot compile; this emitter produces the same program as
Python so the repository can *run its own output*: the generated module
defines ``run(actors, periods)`` where ``actors`` maps actor names to
Python callables ``f(inputs: list[list[int]]) -> list[list[int]]``
(token lists per input/output edge, in graph edge order).  All buffers
live in one shared ``memory`` list at their first-fit offsets, with the
same cursor discipline as the C code.

Tests execute generated modules with functional actors (e.g. real FIR
arithmetic) and compare against a reference interpreter — closing the
loop from paper algorithm to runnable program.
"""

from __future__ import annotations

from typing import Dict, List

from ..sdf.graph import Edge, SDFGraph
from ..allocation.first_fit import Allocation
from ..lifetimes.intervals import LifetimeSet
from ..lifetimes.schedule_tree import ScheduleTreeNode
from .layout import lower

__all__ = ["buffer_id", "emit_python", "compile_python"]


def buffer_id(first: Edge):
    """The generated module's id of the buffer whose first member is
    ``first``: a plain edge's key, a broadcast group's
    ``('bcast', name)``."""
    return first.key if first.broadcast is None else ("bcast", first.broadcast)


def emit_python(
    graph: SDFGraph,
    lifetimes: LifetimeSet,
    allocation: Allocation,
) -> str:
    """Render the shared-memory implementation as a Python module."""
    layout = lower(graph, lifetimes, allocation)
    lines: List[str] = []
    lines.append('"""Generated shared-memory SDF implementation."""')
    lines.append("")
    lines.append(f"POOL_SIZE = {layout.extent}")
    lines.append("")
    # Physical buffers: each is written once per production and read
    # through a per-member cursor.
    lines.append("BUFFERS = {")
    for p in layout.buffers:
        lines.append(
            f"    {buffer_id(p.first)!r}: dict(base={p.base}, "
            f"size={p.size}, circular={p.circular}),"
        )
    lines.append("}")
    lines.append("")
    lines.append("# Read port -> physical buffer (broadcast members share one).")
    lines.append("READERS = {")
    for e in graph.edges():
        first = layout.placement[e.key].first
        lines.append(f"    {e.key!r}: {buffer_id(first)!r},")
    lines.append("}")
    lines.append("")
    lines.append("""
class _Cursors:
    def __init__(self):
        self.wr = {key: 0 for key in BUFFERS}
        self.rd = {key: 0 for key in READERS}

    def reset(self, key):
        self.wr[key] = 0
        for rk, bid in READERS.items():
            if bid == key:
                self.rd[rk] = 0


def _write(memory, cursors, key, values):
    info = BUFFERS[key]
    for value in values:
        if cursors.wr[key] >= info["size"]:
            if not info["circular"]:
                raise IndexError(f"buffer overrun on {key}")
            cursors.wr[key] = 0
        memory[info["base"] + cursors.wr[key]] = value
        cursors.wr[key] += 1


def _read(memory, cursors, key, count):
    info = BUFFERS[READERS[key]]
    out = []
    for _ in range(count):
        if cursors.rd[key] >= info["size"]:
            if not info["circular"]:
                raise IndexError(f"buffer underrun on {key}")
            cursors.rd[key] = 0
        out.append(memory[info["base"] + cursors.rd[key]])
        cursors.rd[key] += 1
    return out
""")

    # Per-actor firing functions.  Output *ports*: one per buffer the
    # actor writes (a broadcast group's token list is written once into
    # the shared buffer; its first member stands for it).
    for actor in graph.actor_names():
        out_ports = [
            (buffer_id(p.first), p.first) for p in layout.writes[actor]
        ]
        lines.append(f"def _fire_{actor}(memory, cursors, actors):")
        lines.append("    inputs = []")
        for e in layout.reads[actor]:
            lines.append(
                f"    inputs.append(_read(memory, cursors, {e.key!r}, "
                f"{e.consumption * e.token_size}))"
            )
        lines.append(f"    outputs = actors[{actor!r}](inputs)")
        expected = len(out_ports)
        lines.append(
            f"    if len(outputs) != {expected}:"
        )
        lines.append(
            f"        raise ValueError('actor {actor} must return "
            f"{expected} output token lists')"
        )
        for position, (bid, e) in enumerate(out_ports):
            lines.append(
                f"    if len(outputs[{position}]) != "
                f"{e.production * e.token_size}:"
            )
            lines.append(
                f"        raise ValueError('actor {actor} output "
                f"{position} must have {e.production * e.token_size} words')"
            )
            lines.append(
                f"    _write(memory, cursors, {bid!r}, outputs[{position}])"
            )
        lines.append("")

    # Loop nest from the schedule tree.
    body: List[str] = []

    def emit(node: ScheduleTreeNode, indent: int) -> None:
        pad = "    " * indent
        if node.is_leaf():
            if node.residual > 1:
                body.append(f"{pad}for _ in range({node.residual}):")
                body.append(
                    f"{pad}    _fire_{node.actor}(memory, cursors, actors)"
                )
            else:
                body.append(
                    f"{pad}_fire_{node.actor}(memory, cursors, actors)"
                )
            return
        if node.loop > 1:
            body.append(f"{pad}for _ in range({node.loop}):")
            inner = indent + 1
        else:
            inner = indent
        inner_pad = "    " * inner
        for p in layout.resets(node):
            body.append(f"{inner_pad}cursors.reset({buffer_id(p.first)!r})")
        emit(node.left, inner)
        emit(node.right, inner)

    lines.append("def run_period(memory, cursors, actors):")
    emit(lifetimes.tree.root, 1)
    lines.extend(body)
    lines.append("")
    lines.append("""
def run(actors, periods=1, memory=None, preloads=None):
    \"\"\"Execute `periods` schedule periods; returns the memory pool.

    `preloads` maps buffer ids (edge keys; ('bcast', name) for a
    broadcast group, preloaded once) to the initial (delay) token word
    lists written before the first period.
    \"\"\"
    if memory is None:
        memory = [0] * POOL_SIZE
    cursors = _Cursors()
    for key, values in (preloads or {}).items():
        _write(memory, cursors, key, values)
    for _ in range(periods):
        run_period(memory, cursors, actors)
    return memory
""")
    return "\n".join(lines) + "\n"


def compile_python(
    graph: SDFGraph,
    lifetimes: LifetimeSet,
    allocation: Allocation,
):
    """Exec the generated module and return its namespace dict."""
    source = emit_python(graph, lifetimes, allocation)
    namespace: Dict[str, object] = {}
    exec(compile(source, "<generated sdf module>", "exec"), namespace)
    namespace["__source__"] = source
    return namespace
