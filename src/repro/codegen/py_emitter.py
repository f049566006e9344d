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

from ..exceptions import CodegenError
from ..sdf.graph import SDFGraph
from ..allocation.first_fit import Allocation
from ..lifetimes.intervals import LifetimeSet
from ..lifetimes.schedule_tree import ScheduleTreeNode

__all__ = ["emit_python", "compile_python"]


def emit_python(
    graph: SDFGraph,
    lifetimes: LifetimeSet,
    allocation: Allocation,
) -> str:
    """Render the shared-memory implementation as a Python module."""
    lines: List[str] = []
    lines.append('"""Generated shared-memory SDF implementation."""')
    lines.append("")
    lines.append(f"POOL_SIZE = {max(allocation.total, 1)}")
    lines.append("")
    # Physical buffers (LifetimeSet.buffers): a plain edge's id is its
    # key, a broadcast group's ('bcast', name); each is written once per
    # production and read through a per-member cursor.
    buffer_id = {}
    lines.append("BUFFERS = {")
    for b in lifetimes.buffers:
        first = b.members[0]
        bid = first.key if first.broadcast is None else ("bcast", first.broadcast)
        for m in b.members:
            buffer_id[m.key] = bid
        lt = lifetimes.lifetimes[first.key]
        try:
            base = allocation.offsets[lt.name]
        except KeyError:
            raise CodegenError(f"allocation missing buffer {lt.name!r}") from None
        lines.append(
            f"    {bid!r}: dict(base={base}, "
            f"size={lt.size}, circular={first.delay > 0}),"
        )
    lines.append("}")
    lines.append("")
    lines.append("# Read port -> physical buffer (broadcast members share one).")
    lines.append("READERS = {")
    for e in graph.edges():
        lines.append(f"    {e.key!r}: {buffer_id[e.key]!r},")
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
    firsts = {b.members[0].key for b in lifetimes.buffers}
    for actor in graph.actor_names():
        in_edges = graph.in_edges(actor)
        out_ports = [
            (buffer_id[e.key], e)
            for e in graph.out_edges(actor) if e.key in firsts
        ]
        lines.append(f"def _fire_{actor}(memory, cursors, actors):")
        lines.append("    inputs = []")
        for e in in_edges:
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
    reset_keys: Dict[int, List] = {}
    for b in lifetimes.buffers:
        if b.reset is not None:
            reset_keys.setdefault(id(b.reset), []).append(
                buffer_id[b.members[0].key]
            )

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
        for key in reset_keys.get(id(node), ()):
            body.append(f"{inner_pad}cursors.reset({key!r})")
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
