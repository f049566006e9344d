"""Vectorized shared-memory execution: one slice op per firing block.

:class:`BatchedVM` runs the same memory discipline as
:class:`repro.codegen.vm.SharedMemoryVM` over the same physical buffers
(:attr:`LifetimeSet.buffers`: one write side per buffer, one reader per
member edge, linear cursors reset at the buffer's least parent, circular
cursors for delayed buffers, each actor's ports resolved once) but
executes each schedule-tree leaf (a counted firing block) as one batched
transfer instead of ``residual`` scalar firings.  Token identity lives
in one plain list (``memory``) over the shared address space, each word
holding the integer code ``seq * buffers + eid`` of the token written
there, so consecutive tokens of one buffer carry an arithmetic
progression of codes.  A block covers at most a few contiguous runs of
words — one for a linear buffer, a new one at each wrap of a circular
buffer — so its writes are one slice assignment per run and its reads
one slice comparison per run, with a per-word scan only on a mismatch
to locate the first bad token.  Slot positions come from the closed
form of the scalar VM's wrap rule (a cursor that only ever advances by
``token_size`` from zero wraps exactly every
``size_words // token_size`` tokens).

The observable contract is the scalar VM's: the same ``firings`` and
``firings_per_actor`` counters, the same ``peak_address`` (a maximum
over the same set of writes, hence order-independent), and
:class:`~repro.exceptions.CodegenError` with the scalar VM's message at
the same failing firing for cursor overruns, token corruption, and
balance violations.  Blocks of an actor with a self-loop fall back to
per-firing execution — their reads depend on writes from earlier
firings of the same block, so the block-wide read-then-write
reordering would be unsound for them.

One deliberate asymmetry: within a block all reads precede all writes
(that is what makes the block one transfer), so an *unsafe* allocation
whose corruption window opens mid-block — a write of firing ``i``
clobbering a cell firing ``i+1`` reads — can go unnoticed here while
the scalar VM catches it.  On allocations that verify cleanly the two
VMs are observationally identical; the check harness therefore keeps
the scalar VM as the corruption oracle and uses this one to check the
vectorized execution path itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exceptions import CodegenError
from ..sdf.graph import Edge, SDFGraph
from ..allocation.first_fit import Allocation
from ..lifetimes.intervals import LifetimeSet
from ..lifetimes.schedule_tree import ScheduleTreeNode
from .vm import reader_label

__all__ = ["BatchedVM"]

Key = Tuple[str, str, int]

#: ``memory`` value for never-written words (the scalar VM's None).
_UNWRITTEN = -1


@dataclass
class _BufState:
    """One physical buffer's write side, cursors and readers.

    ``produced`` (and each reader's ``consumed``) is a whole-run token
    counter (it drives circular slots and the balance check);
    ``wr_k`` (and each reader's ``rd_k``) counts tokens since the last
    least-parent reset (it drives linear slots and is the only thing a
    reset clears — exactly the scalar VM's ``reset_cursors``).
    """

    edge: Edge
    eid: int
    base: int
    size_words: int
    circular: bool
    readers: List["_ReadPort"] = field(default_factory=list)
    produced: int = 0
    wr_k: int = 0

    @property
    def slots(self) -> int:
        return self.size_words // self.edge.token_size

    def reset_cursors(self) -> None:
        self.wr_k = 0
        for reader in self.readers:
            reader.rd_k = 0


@dataclass
class _ReadPort:
    """One reader edge's counters over its buffer."""

    edge: Edge
    buffer: _BufState
    rd_k: int = 0
    consumed: int = 0


class BatchedVM:
    """Execute a SAS against a first-fit allocation, one op per block.

    Same constructor and ``run``/``preload_delays``/``peak_address``
    contract as :class:`repro.codegen.vm.SharedMemoryVM`; accepted by
    ``run_shared_memory_check(vm_class=BatchedVM)``.
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
        self._buffers: List[_BufState] = []
        self._reset_at: Dict[int, List[_BufState]] = {}
        #: Token code -> buffer key: ``eid`` is the buffer's position.
        self._eid_key: List[Key] = []
        readers: Dict[Key, _ReadPort] = {}
        writers: Dict[Key, _BufState] = {}
        for b in lifetimes.buffers:
            first = b.members[0]
            lt = lifetimes.lifetimes[first.key]
            state = _BufState(
                edge=first,
                eid=len(self._eid_key),
                base=allocation.offset_of(lt.name),
                size_words=lt.size,
                circular=first.delay > 0,
            )
            self._eid_key.append(first.key)
            for m in b.members:
                readers[m.key] = _ReadPort(edge=m, buffer=state)
                state.readers.append(readers[m.key])
            writers[first.key] = state
            self._buffers.append(state)
            if b.reset is not None:
                self._reset_at.setdefault(id(b.reset), []).append(state)
        #: Per actor: its read ports in ``in_edges`` order, and each
        #: buffer it writes, once (a group's first member stands for it).
        self._ports: Dict[str, Tuple[List[_ReadPort], List[_BufState]]] = {
            a: (
                [readers[e.key] for e in graph.in_edges(a)],
                [writers[e.key] for e in graph.out_edges(a) if e.key in writers],
            )
            for a in graph.actor_names()
        }

        #: Token code stride: ``seq * stride + eid`` is unique per
        #: (buffer, sequence number) and decodes with one divmod.
        self._stride = len(self._eid_key)
        #: Token code per shared-memory word.  It spans every buffer's
        #: extent, so a buffer placed past ``allocation.total`` shows
        #: up as ``peak_address`` beyond the pool (the harness's check).
        extent = max(
            [allocation.total, 1]
            + [st.base + st.size_words for st in self._buffers]
        )
        self.memory: List[int] = [_UNWRITTEN] * extent

        # Actors whose blocks must run firing-at-a-time: a self-loop
        # makes reads within the block depend on the block's own
        # writes, so reads cannot all precede writes.
        self._scalar_actors = {
            e.source for e in graph.edges() if e.is_self_loop()
        }

        self.firings = 0
        self.firings_per_actor: Dict[str, int] = {
            a: 0 for a in graph.actor_names()
        }
        #: One past the highest memory word ever written — must never
        #: exceed ``allocation.total`` (checked by the harness).
        self.peak_address = 0
        #: Batched transfers issued (block-level reads + writes), for
        #: amortization accounting in the benchmarks.
        self.transfers = 0

    # ------------------------------------------------------------------
    def preload_delays(self) -> None:
        """Write the initial tokens of delayed buffers, one op each."""
        for state in self._buffers:
            if state.edge.delay > 0:
                self._write_block(state, state.edge.delay, 0, 1)

    def run_period(self) -> None:
        self._run_node(self.lifetimes.tree.root)

    def run(self, periods: int = 1, recorder=None) -> None:
        """Preload delays and run ``periods`` schedule periods."""
        self.preload_delays()
        for _ in range(periods):
            self.run_period()
        self._check_balance()
        if recorder is not None:
            recorder.count("vm.firings", self.firings)
            recorder.count("vm.transfers", self.transfers)

    # ------------------------------------------------------------------
    def _run_node(self, node: ScheduleTreeNode) -> None:
        if node.is_leaf():
            self._fire_block(node.actor, node.residual)
            return
        for _ in range(node.loop):
            for state in self._reset_at.get(id(node), ()):
                state.reset_cursors()
            self._run_node(node.left)
            self._run_node(node.right)

    def _fire_block(self, actor: str, n: int) -> None:
        base = self.firings
        self.firings += n
        self.firings_per_actor[actor] += n
        if actor in self._scalar_actors:
            for i in range(n):
                self._transfer_firings(actor, 1, base + i)
        else:
            self._transfer_firings(actor, n, base)

    def _transfer_firings(self, actor: str, n: int, base_firings: int) -> None:
        """Reads then writes for ``n`` firings, one op per port."""
        reads, writes = self._ports[actor]
        for port in reads:
            rate = port.edge.consumption
            self._read_block(port, n * rate, base_firings, rate)
        for state in writes:
            rate = state.edge.production
            self._write_block(state, n * rate, base_firings, rate)

    # ------------------------------------------------------------------
    def _slot_start(
        self,
        state: _BufState,
        m: int,
        k_reset: int,
        counter: int,
        base_firings: int,
        rate: int,
        reader: Optional[Edge] = None,
    ) -> int:
        """Overrun check; returns the first token's slot index.

        ``k_reset`` is the tokens-since-reset count (linear cursor) and
        ``counter`` the whole-run token counter (circular cursor) of
        the write side, or of ``reader``'s port; the failing firing and
        cursor value of a linear overrun are recovered in closed form
        so the raise matches the scalar VM's.
        """
        slots = state.slots
        if state.circular:
            return counter % slots if slots else 0
        if k_reset + m > slots:
            fail_tok = slots - k_reset  # 0-based index of the failing token
            firing = base_firings + fail_tok // rate + 1
            ts = state.edge.token_size
            tail = (
                f"{slots * ts} + {ts} > {state.size_words} (firing {firing})"
            )
            if reader is None:
                raise CodegenError(
                    f"buffer {state.edge} overruns its array: write cursor "
                    f"{tail}"
                )
            raise CodegenError(
                f"{reader_label(reader, 'buffer')} read cursor overruns: "
                f"{tail}"
            )
        return k_reset

    def _runs(
        self, state: _BufState, start_slot: int, m: int
    ) -> List[Tuple[int, int, int]]:
        """``(first token, first word, tokens)`` per contiguous run.

        A linear block is one run; a circular block starts a new run
        at each wrap of its buffer.
        """
        ts = state.edge.token_size
        if not state.circular:
            return [(0, state.base + start_slot * ts, m)]
        slots = state.slots or 1
        runs = []
        j, slot = 0, start_slot
        while j < m:
            k = min(m - j, slots - slot)
            runs.append((j, state.base + slot * ts, k))
            j += k
            slot = 0
        return runs

    def _codes(self, first: int, k: int, ts: int) -> List[int]:
        """Word codes of ``k`` consecutive tokens from code ``first``."""
        step = self._stride
        codes = range(first, first + k * step, step)
        if ts == 1:
            return list(codes)
        return [c for c in codes for _ in range(ts)]

    def _bump_peak(self, state: _BufState, start_slot: int, m: int) -> None:
        # The highest write top over the block: linear runs end at the
        # last slot; circular runs that wrap reach the final slot.
        slots = state.slots
        if state.circular and start_slot + m > slots:
            high = slots
        else:
            high = start_slot + m
        top = state.base + high * state.edge.token_size
        if top > self.peak_address:
            self.peak_address = top

    def _write_block(
        self, state: _BufState, m: int, base_firings: int, rate: int
    ) -> None:
        start = self._slot_start(
            state, m, state.wr_k, state.produced, base_firings, rate
        )
        ts = state.edge.token_size
        first = state.produced * self._stride + state.eid
        memory = self.memory
        for j, word, k in self._runs(state, start, m):
            memory[word:word + k * ts] = self._codes(
                first + j * self._stride, k, ts
            )
        self._bump_peak(state, start, m)
        state.produced += m
        if not state.circular:
            state.wr_k += m
        self.transfers += 1

    def _found_token(self, address: int) -> Optional[Tuple[Key, int]]:
        """Reconstruct the scalar VM's token value at one address."""
        code = self.memory[address]
        if code == _UNWRITTEN:
            return None
        seq, eid = divmod(code, self._stride)
        return (self._eid_key[eid], seq)

    def _read_block(
        self, port: _ReadPort, m: int, base_firings: int, rate: int
    ) -> None:
        """Read ``m`` tokens and verify identity, locating any mismatch."""
        state = port.buffer
        start = self._slot_start(
            state, m, port.rd_k, port.consumed, base_firings, rate, port.edge
        )
        ts = state.edge.token_size
        step = self._stride
        first = port.consumed * step + state.eid
        memory = self.memory
        for j, word, k in self._runs(state, start, m):
            end = word + k * ts
            codes = self._codes(first + j * step, k, ts)
            if memory[word:end] == codes:
                continue
            pos = next(
                p for p, c in enumerate(codes) if memory[word + p] != c
            )
            tok = j + pos // ts
            address = word + pos
            firing = base_firings + tok // rate + 1
            raise CodegenError(
                f"token corruption on {reader_label(port.edge)}: expected "
                f"token #{port.consumed + tok}, found "
                f"{self._found_token(address)!r} at address {address} "
                f"(firing {firing}) — unsafe buffer overlay"
            )
        self.transfers += 1
        port.consumed += m
        if not state.circular:
            port.rd_k += m

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
