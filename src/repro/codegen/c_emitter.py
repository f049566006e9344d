"""Inline C code generation from a scheduled, allocated SDF graph.

The paper's framework is the back end of a block-diagram compiler: after
scheduling and storage allocation it emits *threaded* inline code — the
nested loop structure of the SAS with each actor's code block invoked in
place, all buffers carved out of one statically allocated shared memory
pool at the offsets first-fit chose.

:func:`emit_c` renders that output as self-contained C:

* one ``static token_t memory[...]`` pool, sized by the layout's
  ``extent`` (``allocation.total`` unless a buffer lies past it);
* a ``#define`` per physical buffer (:attr:`LifetimeSet.buffers`) for
  its base offset;
* one write cursor per buffer and one read cursor per reader edge (a
  broadcast group's members each read the one written stream), reset
  at the top of each iteration of the buffer's least parent, which is
  where each live episode begins;
* the loop nest mirroring the schedule tree, with a
  ``fire_<actor>(in..., out...)`` macro invocation per leaf;
* actor macro stubs the user replaces with real code blocks.

Buffers with initial tokens use circular cursors (they may stay
occupied across the period boundary).
"""

from __future__ import annotations

from typing import List, Optional

from ..sdf.graph import Edge, SDFGraph
from ..allocation.first_fit import Allocation
from ..lifetimes.intervals import LifetimeSet
from ..lifetimes.schedule_tree import ScheduleTreeNode
from .layout import lower

__all__ = ["emit_c"]


def _buffer_macro(edge: Edge) -> str:
    if edge.broadcast is not None:
        return f"BUF_{edge.source}__{edge.broadcast}".upper()
    name = f"BUF_{edge.source}_{edge.sink}"
    if edge.index:
        name += f"_{edge.index}"
    return name.upper()


def _cursor(edge: Edge, which: str) -> str:
    """A per-reader variable (``rd``, ``consumed``) of ``edge``."""
    suffix = f"_{edge.index}" if edge.index else ""
    return f"{which}_{edge.source}_{edge.sink}{suffix}"


def _write_cursor(first: Edge, which: str) -> str:
    """A write-side variable (``wr``, ``produced``) of the buffer whose
    first member is ``first``: a broadcast group has one, named after
    the group."""
    if first.broadcast is not None:
        return f"{which}_bc_{first.broadcast}"
    return _cursor(first, which)


def emit_c(
    graph: SDFGraph,
    lifetimes: LifetimeSet,
    allocation: Allocation,
    system_name: Optional[str] = None,
    instrument: bool = False,
    periods: int = 2,
) -> str:
    """Render the shared-memory implementation of a scheduled graph.

    ``lifetimes`` must have been extracted from the schedule being
    emitted (its schedule tree drives the loop structure), and
    ``allocation`` must cover every buffer in it.

    With ``instrument=True`` the actor stubs become self-checking
    firing functions: every produced token carries a unique
    ``(edge, sequence)`` value, every consumption verifies it, and
    ``main`` runs ``periods`` schedule periods and prints
    ``SELFCHECK OK`` — so the generated program, compiled with any C
    compiler, proves the allocation safe on real hardware (the C-level
    counterpart of :mod:`repro.codegen.vm`).
    """
    layout = lower(graph, lifetimes, allocation)
    name = system_name or graph.name
    lines: List[str] = []
    lines.append(f"/* Generated shared-memory implementation of {name!r}.")
    lines.append(" * Schedule: " + str(lifetimes.tree.schedule))
    lines.append(" * Pool size: %d words." % allocation.total)
    lines.append(" */")
    lines.append("")
    lines.append("#include <stddef.h>")
    if instrument:
        lines.append("#include <stdio.h>")
        lines.append("#include <stdlib.h>")
        lines.append("")
        lines.append("typedef long token_t;")
        lines.append("")
        lines.append("#define TOKEN(e, s) ((token_t)(e) * 1000003L + (s))")
        lines.append("static long fired = 0;")
    else:
        lines.append("")
        lines.append("typedef int token_t;")
    lines.append("")
    lines.append(f"static token_t memory[{layout.extent}];")
    lines.append("")

    # One array per physical buffer, named by its first member's
    # lifetime.
    for p in layout.buffers:
        lines.append(
            f"#define {_buffer_macro(p.first)} (memory + {p.base})"
            f"  /* {p.size} words, lifetime {p.lifetime} */"
        )
    lines.append("")

    # Each buffer owns one write cursor; each member reader keeps its
    # own read cursor over the buffer's array.
    for p in layout.buffers:
        lines.append(f"static size_t {_write_cursor(p.first, 'wr')} = 0;")
        for e in p.readers:
            lines.append(f"static size_t {_cursor(e, 'rd')} = 0;")
    if instrument:
        # Token identities: one id per physical buffer, its ``eid``
        # (members share it — every reader verifies the one write
        # stream).
        for p in layout.buffers:
            lines.append(
                f"static long {_write_cursor(p.first, 'produced')} = 0;"
            )
            for e in p.readers:
                lines.append(f"static long {_cursor(e, 'consumed')} = 0;")
    lines.append("")

    if instrument:
        # Self-checking firing functions: verify each consumed word,
        # stamp each produced word.  They own the cursor advancement
        # (word-wise, wrapping on circular buffers), so the loop nest
        # only calls fire_<actor>().
        for actor in graph.actor_names():
            lines.append(f"static void fire_{actor}(void)")
            lines.append("{")
            lines.append("    fired++;")
            for e in layout.reads[actor]:
                placed = layout.placement[e.key]
                words = e.consumption * e.token_size
                rd = _cursor(e, "rd")
                lines.append(f"    for (int w = 0; w < {words}; ++w) {{")
                if e.delay > 0:
                    lines.append(
                        f"        if ({rd} >= {placed.size}) {rd} = 0;"
                    )
                lines.append(
                    f"        if ({_buffer_macro(e)}[{rd}] != "
                    f"TOKEN({placed.eid}, "
                    f"{_cursor(e, 'consumed')}++)) {{"
                )
                lines.append(
                    f'            fprintf(stderr, "SELFCHECK FAIL: '
                    f'{actor} reading {e.source}->{e.sink} word %d '
                    f'(firing %ld)\\n", w, fired);'
                )
                lines.append("            exit(1);")
                lines.append("        }")
                lines.append(f"        {rd}++;")
                lines.append("    }")
            for placed in layout.writes[actor]:
                e = placed.first
                words = e.production * e.token_size
                wr = _write_cursor(e, "wr")
                lines.append(f"    for (int w = 0; w < {words}; ++w) {{")
                if e.delay > 0:
                    lines.append(
                        f"        if ({wr} >= {placed.size}) {wr} = 0;"
                    )
                lines.append(
                    f"        {_buffer_macro(e)}[{wr}++] = "
                    f"TOKEN({placed.eid}, "
                    f"{_write_cursor(e, 'produced')}++);"
                )
                lines.append("    }")
            lines.append("}")
            lines.append("")
    else:
        # Actor firing macros: stubs listing the I/O the code block
        # gets — one input per in-edge, one output per *port* (a
        # broadcast group is a single port however many sinks it has).
        for actor in graph.actor_names():
            arity = len(layout.reads[actor]) + len(layout.writes[actor])
            params = ", ".join(f"p{i}" for i in range(arity)) or "void"
            lines.append(
                f"#define fire_{actor}({params}) /* actor code block */"
            )
    lines.append("")

    body: List[str] = []

    def emit_node(node: ScheduleTreeNode, indent: int) -> None:
        pad = "    " * indent
        if node.is_leaf():
            actor = node.actor
            body.append(
                f"{pad}for (int r = 0; r < {node.residual}; ++r) {{"
                if node.residual > 1
                else f"{pad}{{"
            )
            inner = pad + "    "
            if instrument:
                body.append(f"{inner}fire_{actor}();")
            else:
                # One output per *port*: a buffer's first member stands
                # for its write side, however many sinks read it.
                ports = [p.first for p in layout.writes[actor]]
                args: List[str] = []
                for e in layout.reads[actor]:
                    args.append(f"{_buffer_macro(e)} + {_cursor(e, 'rd')}")
                for e in ports:
                    args.append(
                        f"{_buffer_macro(e)} + {_write_cursor(e, 'wr')}"
                    )
                body.append(f"{inner}fire_{actor}({', '.join(args)});")
                for e in layout.reads[actor]:
                    step = e.consumption * e.token_size
                    if e.delay > 0:
                        size = layout.placement[e.key].size
                        body.append(
                            f"{inner}{_cursor(e, 'rd')} = "
                            f"({_cursor(e, 'rd')} + {step}) % {size};"
                        )
                    else:
                        body.append(f"{inner}{_cursor(e, 'rd')} += {step};")
                for placed in layout.writes[actor]:
                    e = placed.first
                    step = e.production * e.token_size
                    wr = _write_cursor(e, "wr")
                    if e.delay > 0:
                        body.append(
                            f"{inner}{wr} = ({wr} + {step}) % {placed.size};"
                        )
                    else:
                        body.append(f"{inner}{wr} += {step};")
            body.append(f"{pad}}}")
            return
        loop_var = f"i{indent}"
        if node.loop > 1:
            body.append(
                f"{pad}for (int {loop_var} = 0; {loop_var} < {node.loop}; "
                f"++{loop_var}) {{"
            )
            inner_indent = indent + 1
        else:
            body.append(f"{pad}{{")
            inner_indent = indent + 1
        inner_pad = "    " * inner_indent
        # Cursor resets at each buffer's least parent, where each live
        # episode begins.  Delayed buffers have circular cursors and
        # never reset.
        for p in layout.resets(node):
            body.append(f"{inner_pad}{_write_cursor(p.first, 'wr')} = 0;")
            for e in p.readers:
                body.append(f"{inner_pad}{_cursor(e, 'rd')} = 0;")
        emit_node(node.left, inner_indent)
        emit_node(node.right, inner_indent)
        body.append(f"{pad}}}")

    lines.append("void run_one_period(void)")
    lines.append("{")
    root = lifetimes.tree.root
    # Delayed buffers start with their initial tokens already written;
    # each is preloaded once, in edge order of its first member.
    delayed = [
        layout.placement[e.key] for e in graph.edges()
        if e.delay > 0 and layout.placement[e.key].first.key == e.key
    ]
    if delayed:
        lines.append("    /* initial tokens (delays) are assumed to be")
        lines.append("     * preloaded by init_delays() below. */")
    emit_node(root, 1)
    lines.extend(body)
    lines.append("}")
    lines.append("")
    lines.append("void init_delays(void)")
    lines.append("{")
    for placed in delayed:
        e = placed.first
        step = e.delay * e.token_size
        size = placed.size
        wr = _write_cursor(e, "wr")
        if instrument:
            lines.append(f"    for (int w = 0; w < {step}; ++w) {{")
            lines.append(
                f"        {_buffer_macro(e)}[w % {size}] = "
                f"TOKEN({placed.eid}, w);"
            )
            lines.append("    }")
            lines.append(f"    {_write_cursor(e, 'produced')} = {step};")
        lines.append(f"    {wr} = {step} % {size};")
    lines.append("}")
    lines.append("")
    lines.append("int main(void)")
    lines.append("{")
    lines.append("    init_delays();")
    if instrument:
        lines.append(f"    for (int p = 0; p < {periods}; ++p) {{")
        lines.append("        run_one_period();")
        lines.append("    }")
        lines.append('    printf("SELFCHECK OK %ld firings\\n", fired);')
    else:
        lines.append("    for (;;) {")
        lines.append("        run_one_period();")
        lines.append("    }")
    lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"
