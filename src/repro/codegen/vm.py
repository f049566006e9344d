"""Shared-memory execution of a scheduled, allocated SDF graph.

The strongest check an allocation can pass is *functional*: run the
schedule with every buffer living at its assigned offset in one shared
memory array, write a unique value for every produced token, and verify
that every consumer reads back exactly the value its producer wrote.
Any unsafe overlay — two time-overlapping buffers sharing addresses —
corrupts a token and is caught at the consuming firing.

:class:`SharedMemoryVM` performs exactly the memory discipline of the
generated C code (:mod:`repro.codegen.c_emitter`) over the buffers
placed by :func:`repro.codegen.layout.lower`.  Each buffer counts the
tokens written to it, and each reader edge (one for a plain edge, one
per member of a broadcast group, which all read the one written stream)
the tokens it has read: a whole-run count (``produced``, ``consumed``)
and a count since the last reset (``wr_k``, ``rd_k``).  A delayed
buffer is circular, its slot the whole-run count modulo
``size // token_size``; a linear buffer's slot is the count since its
least parent last began an iteration.  Every word of a token holds the
int code ``seq * buffers + eid`` (``eid`` the buffer's position), so a
code names the one token that may occupy a word.  Memory spans the
layout's ``extent``, which covers ``allocation.total`` and every
buffer, so a buffer placed past the pool shows up as a
``peak_address`` beyond ``allocation.total``.

This VM fires each leaf token by token: a firing reads every in-edge
in ``in_edges`` order, then writes each buffer it feeds, so a
corruption is reported at the exact firing and word that exposes it.
:class:`repro.codegen.batched_vm.BatchedVM` shares everything else and
fires a leaf as one transfer per contiguous run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..exceptions import CodegenError
from ..sdf.graph import Edge, SDFGraph
from ..allocation.first_fit import Allocation
from ..lifetimes.intervals import LifetimeSet
from ..lifetimes.schedule_tree import ScheduleTreeNode
from .layout import Key, lower

__all__ = ["SharedMemoryVM", "run_shared_memory_check"]

#: ``memory`` value of a never-written word.
_UNWRITTEN = -1


def reader_label(edge: Edge, noun: str = "") -> str:
    """How a :class:`CodegenError` names reader edge ``edge``.

    A plain edge is ``"<noun> <edge>"`` (just the edge when ``noun`` is
    empty); a broadcast member is ``"broadcast <group> member <edge>"``.
    """
    if edge.broadcast is not None:
        return f"broadcast {edge.broadcast} member {edge}"
    return f"{noun} {edge}" if noun else str(edge)


@dataclass(eq=False)
class _Buffer:
    """One physical buffer's write side, counters and readers.

    ``edge`` is the buffer's first member: it names the buffer in
    write errors.  ``slots`` is how many whole tokens fit in it; a
    circular buffer has at least one, so a forged one shorter than a
    token wraps in place.
    """

    edge: Edge
    eid: int
    base: int
    size: int
    circular: bool
    token_size: int
    slots: int
    readers: List["_Reader"]
    produced: int = 0
    wr_k: int = 0


@dataclass(eq=False)
class _Reader:
    """One reader edge's counters over its buffer."""

    edge: Edge
    buffer: _Buffer
    consumed: int = 0
    rd_k: int = 0


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
        overlay), cursor overrun, unbalanced edge, or buffer missing
        from ``allocation``.
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
        layout = lower(graph, lifetimes, allocation)
        self._buffers: List[_Buffer] = []
        readers: Dict[Key, _Reader] = {}
        for p in layout.buffers:
            ts = p.first.token_size
            slots = p.size // ts
            state = _Buffer(
                p.first, p.eid, p.base, p.size, p.circular, ts,
                max(slots, 1) if p.circular else slots, [],
            )
            for m in p.readers:
                reader = readers[m.key] = _Reader(m, state)
                state.readers.append(reader)
            self._buffers.append(state)
        states = self._buffers
        self._reset_at: Dict[int, List[_Buffer]] = {
            node: [states[p.eid] for p in placed]
            for node, placed in layout.reset_at.items()
        }
        #: Per actor: its read ports in ``in_edges`` order, and each
        #: buffer it writes, once.
        self._ports: Dict[str, Tuple[List[_Reader], List[_Buffer]]] = {
            a: (
                [readers[e.key] for e in edges],
                [states[p.eid] for p in layout.writes[a]],
            )
            for a, edges in layout.reads.items()
        }
        #: Token code stride: ``seq * stride + eid``.
        self._stride = max(len(self._buffers), 1)
        self.memory: List[int] = [_UNWRITTEN] * layout.extent
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
            self._fire_leaf(node.actor, node.residual)
            return
        for _ in range(node.loop):
            for state in self._reset_at.get(id(node), ()):
                state.wr_k = 0
                for reader in state.readers:
                    reader.rd_k = 0
            self._run_node(node.left)
            self._run_node(node.right)

    def _fire_leaf(self, actor: str, n: int) -> None:
        """Fire ``actor`` ``n`` times, token by token."""
        reads, writes = self._ports[actor]
        for _ in range(n):
            self.firings += 1
            for port in reads:
                for _ in range(port.edge.consumption):
                    self._read_token(port)
            for state in writes:
                for _ in range(state.edge.production):
                    self._write_token(state)
        self.firings_per_actor[actor] += n

    def _write_token(self, state: _Buffer) -> None:
        if state.circular:
            slot = state.produced % state.slots
        elif state.wr_k < state.slots:
            slot = state.wr_k
        else:
            raise self._overrun(state, None, self.firings)
        ts = state.token_size
        address = state.base + slot * ts
        code = state.produced * self._stride + state.eid
        if ts == 1:
            self.memory[address] = code
        else:
            self.memory[address:address + ts] = [code] * ts
        state.produced += 1
        state.wr_k += 1
        if address + ts > self.peak_address:
            self.peak_address = address + ts

    def _read_token(self, port: _Reader) -> None:
        state = port.buffer
        if state.circular:
            slot = port.consumed % state.slots
        elif port.rd_k < state.slots:
            slot = port.rd_k
        else:
            raise self._overrun(state, port.edge, self.firings)
        address = state.base + slot * state.token_size
        code = port.consumed * self._stride + state.eid
        memory = self.memory
        for a in range(address, address + state.token_size):
            if memory[a] != code:
                raise self._corrupt(port.edge, port.consumed, a, self.firings)
        port.consumed += 1
        port.rd_k += 1

    # ------------------------------------------------------------------
    def _overrun(
        self, state: _Buffer, reader: Optional[Edge], firing: int
    ) -> CodegenError:
        """A linear buffer's write side (or ``reader``) ran off its end."""
        ts = state.token_size
        tail = f"{state.slots * ts} + {ts} > {state.size} (firing {firing})"
        if reader is None:
            return CodegenError(
                f"buffer {state.edge} overruns its array: write cursor {tail}"
            )
        return CodegenError(
            f"{reader_label(reader, 'buffer')} read cursor overruns: {tail}"
        )

    def _corrupt(
        self, reader: Edge, seq: int, address: int, firing: int
    ) -> CodegenError:
        """``reader`` expected its token ``seq`` at ``address``."""
        code = self.memory[address]
        found = None
        if code != _UNWRITTEN:
            seq_found, eid = divmod(code, self._stride)
            found = (self._buffers[eid].edge.key, seq_found)
        return CodegenError(
            f"token corruption on {reader_label(reader)}: expected token "
            f"#{seq}, found {found!r} at address {address} (firing {firing}) "
            f"— unsafe buffer overlay"
        )

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
