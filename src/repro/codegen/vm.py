"""Shared-memory execution of a scheduled, allocated SDF graph.

The strongest check an allocation can pass is *functional*: run the
schedule with every buffer living at its assigned offset in one shared
memory array, write a unique value for every produced token, and verify
that every consumer reads back exactly the value its producer wrote.
Any unsafe overlay — two time-overlapping buffers sharing addresses —
corrupts a token and is caught at the consuming firing.

:class:`SharedMemoryVM` performs exactly the memory discipline of the
generated C code (:mod:`repro.codegen.c_emitter`) over the physical
buffers of :attr:`LifetimeSet.buffers`.  Each buffer has one write
cursor and one read cursor per reader edge (one for a plain edge, one
per member of a broadcast group, which all read the one written
stream).  Linear cursors reset at each iteration of the buffer's least
parent; a delayed buffer's cursors are circular.  Each actor's read and
write ports are resolved once, at construction; a firing reads every
in-edge in ``in_edges`` order and then writes each buffer it feeds
once, token by token, so a corruption is reported at the exact firing
and word that exposes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exceptions import CodegenError
from ..sdf.graph import Edge, SDFGraph
from ..allocation.first_fit import Allocation
from ..lifetimes.intervals import LifetimeSet
from ..lifetimes.schedule_tree import ScheduleTreeNode

__all__ = ["SharedMemoryVM", "run_shared_memory_check"]

Key = Tuple[str, str, int]
_Token = Tuple[Key, int]  # (buffer key, sequence number)


def reader_label(edge: Edge, noun: str = "") -> str:
    """How a :class:`CodegenError` names reader edge ``edge``.

    A plain edge is ``"<noun> <edge>"`` (just the edge when ``noun`` is
    empty); a broadcast member is ``"broadcast <group> member <edge>"``.
    """
    if edge.broadcast is not None:
        return f"broadcast {edge.broadcast} member {edge}"
    return f"{noun} {edge}" if noun else str(edge)


@dataclass
class _BufferState:
    """One physical buffer: its write side and its readers.

    ``edge`` is the buffer's first member: it names the buffer in
    write errors, and its ``key`` identifies every token written.
    """

    edge: Edge
    key: Key
    base: int
    size_words: int
    circular: bool
    readers: List["_ReadPort"] = field(default_factory=list)
    write_cursor: int = 0
    produced: int = 0

    def reset_cursors(self) -> None:
        self.write_cursor = 0
        for reader in self.readers:
            reader.cursor = 0


@dataclass
class _ReadPort:
    """One reader edge's cursor and sequence counter over its buffer."""

    edge: Edge
    buffer: _BufferState
    cursor: int = 0
    consumed: int = 0


class SharedMemoryVM:
    """Execute a SAS against a first-fit allocation with token checking.

    Parameters
    ----------
    graph, lifetimes, allocation:
        The outputs of the scheduling pipeline; ``lifetimes`` carries
        the schedule tree that defines the loop structure to execute.

    Raises
    ------
    CodegenError
        On any token mismatch (memory corruption through an unsafe
        overlay) or cursor overrun.
    """

    def __init__(
        self,
        graph: SDFGraph,
        lifetimes: LifetimeSet,
        allocation: Allocation,
    ) -> None:
        self.graph = graph
        self.lifetimes = lifetimes
        self.allocation = allocation
        self.memory: List[Optional[_Token]] = [None] * max(allocation.total, 1)
        self._buffers: List[_BufferState] = []
        self._reset_at: Dict[int, List[_BufferState]] = {}
        readers: Dict[Key, _ReadPort] = {}
        writers: Dict[Key, _BufferState] = {}
        for b in lifetimes.buffers:
            first = b.members[0]
            lt = lifetimes.lifetimes[first.key]
            state = _BufferState(
                edge=first,
                key=first.key,
                base=allocation.offset_of(lt.name),
                size_words=lt.size,
                circular=first.delay > 0,
            )
            for m in b.members:
                readers[m.key] = _ReadPort(edge=m, buffer=state)
                state.readers.append(readers[m.key])
            writers[first.key] = state
            self._buffers.append(state)
            if b.reset is not None:
                self._reset_at.setdefault(id(b.reset), []).append(state)
        #: Per actor: its read ports in ``in_edges`` order, and each
        #: buffer it writes, once (a group's first member stands for it).
        self._ports: Dict[str, Tuple[List[_ReadPort], List[_BufferState]]] = {
            a: (
                [readers[e.key] for e in graph.in_edges(a)],
                [writers[e.key] for e in graph.out_edges(a) if e.key in writers],
            )
            for a in graph.actor_names()
        }
        self.firings = 0
        #: Per-actor firing counts, for differential comparison against
        #: the schedule's flattened firing sequence.
        self.firings_per_actor: Dict[str, int] = {
            a: 0 for a in graph.actor_names()
        }
        #: One past the highest memory word ever written — must never
        #: exceed ``allocation.total`` (checked by the harness).
        self.peak_address = 0

    # ------------------------------------------------------------------
    def preload_delays(self) -> None:
        """Write the initial tokens of delayed buffers into memory.

        A delayed broadcast group preloads *once* — its members share
        the delay tokens in the one physical buffer.
        """
        for state in self._buffers:
            for _ in range(state.edge.delay):
                self._write_token(state)

    def run_period(self) -> None:
        """Execute one complete schedule period."""
        self._run_node(self.lifetimes.tree.root)

    def run(self, periods: int = 1, recorder=None) -> None:
        """Preload delays and run ``periods`` schedule periods.

        With a ``recorder``, the VM's total firing count is flushed to
        the ``vm.firings`` counter after the balance check.
        """
        self.preload_delays()
        for _ in range(periods):
            self.run_period()
        self._check_balance()
        if recorder is not None:
            recorder.count("vm.firings", self.firings)

    # ------------------------------------------------------------------
    def _run_node(self, node: ScheduleTreeNode) -> None:
        if node.is_leaf():
            for _ in range(node.residual):
                self._fire(node.actor)
            return
        for _ in range(node.loop):
            for state in self._reset_at.get(id(node), ()):
                state.reset_cursors()
            self._run_node(node.left)
            self._run_node(node.right)

    def _fire(self, actor: str) -> None:
        self.firings += 1
        self.firings_per_actor[actor] += 1
        reads, writes = self._ports[actor]
        for port in reads:
            for _ in range(port.edge.consumption):
                self._read_token(port)
        for state in writes:
            for _ in range(state.edge.production):
                self._write_token(state)

    def _write_token(self, state: _BufferState) -> None:
        words = state.edge.token_size
        if state.write_cursor + words > state.size_words:
            if state.circular:
                state.write_cursor = 0
            else:
                raise CodegenError(
                    f"buffer {state.edge} overruns its array: write cursor "
                    f"{state.write_cursor} + {words} > {state.size_words} "
                    f"(firing {self.firings})"
                )
        token: _Token = (state.key, state.produced)
        for w in range(words):
            self.memory[state.base + state.write_cursor + w] = token
        state.write_cursor += words
        state.produced += 1
        top = state.base + state.write_cursor
        if top > self.peak_address:
            self.peak_address = top

    def _read_token(self, port: _ReadPort) -> None:
        state = port.buffer
        words = port.edge.token_size
        if port.cursor + words > state.size_words:
            if state.circular:
                port.cursor = 0
            else:
                raise CodegenError(
                    f"{reader_label(port.edge, 'buffer')} read cursor "
                    f"overruns: {port.cursor} + {words} > "
                    f"{state.size_words} (firing {self.firings})"
                )
        expected: _Token = (state.key, port.consumed)
        for w in range(words):
            actual = self.memory[state.base + port.cursor + w]
            if actual != expected:
                raise CodegenError(
                    f"token corruption on {reader_label(port.edge)}: "
                    f"expected token #{port.consumed}, found "
                    f"{actual!r} at address "
                    f"{state.base + port.cursor + w} "
                    f"(firing {self.firings}) — unsafe buffer overlay"
                )
        port.cursor += words
        port.consumed += 1

    def _check_balance(self) -> None:
        for state in self._buffers:
            for port in state.readers:
                e = port.edge
                outstanding = state.produced - port.consumed
                if outstanding != e.delay:
                    raise CodegenError(
                        f"{reader_label(e, 'edge')} ends with {outstanding} "
                        f"tokens in flight, expected {e.delay}"
                    )


def run_shared_memory_check(
    graph: SDFGraph,
    lifetimes: LifetimeSet,
    allocation: Allocation,
    periods: int = 2,
    recorder=None,
    vm_class=None,
) -> int:
    """Run the VM for ``periods`` periods; returns total firings.

    Running at least two periods exercises the period boundary (delayed
    edges wrapping their circular cursors, episode-cursor resets).
    ``vm_class`` selects the engine: the scalar :class:`SharedMemoryVM`
    (default) or :class:`repro.codegen.batched_vm.BatchedVM`, which
    runs each firing block as one array transfer under the same memory
    discipline.
    """
    vm = (vm_class or SharedMemoryVM)(graph, lifetimes, allocation)
    vm.run(periods=periods, recorder=recorder)
    return vm.firings
