"""Vectorized shared-memory execution: one slice op per firing block.

:class:`BatchedVM` is :class:`repro.codegen.vm.SharedMemoryVM` with
one change: it executes each schedule-tree leaf (a counted firing
block) as one batched transfer per port instead of ``residual`` scalar
firings.  Buffers, counters, token codes, memory, the driver, the
balance check and every error text are the scalar VM's.  Consecutive
tokens of one buffer carry an arithmetic progression of codes, and a
block covers at most a few contiguous runs of words — one for a linear
buffer, a new one at each wrap of a circular buffer — so its writes
are one slice assignment per run and its reads one slice comparison
per run, with a per-word scan only on a mismatch to locate the first
bad token.  The failing firing of an overrun or a corruption is
recovered in closed form, so the raise matches the scalar VM's.
Delayed buffers preload in one write each, and ``transfers`` counts
the block-level reads and writes.

Blocks of an actor with a self-loop run firing-at-a-time: their reads
depend on writes from earlier firings of the same block, so the
block-wide read-then-write reordering would be unsound for them.

One deliberate asymmetry: within a block all reads precede all writes
(that is what makes the block one transfer), so an *unsafe* allocation
whose corruption window opens mid-block — a write of firing ``i``
clobbering a cell firing ``i+1`` reads — can go unnoticed here while
the scalar VM catches it.  On allocations that verify cleanly the two
VMs are observationally identical (the same ``firings``,
``firings_per_actor`` and ``peak_address``); the check harness
therefore keeps the scalar VM as the corruption oracle and uses this
one to check the vectorized execution path itself.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sdf.graph import Edge
from .vm import SharedMemoryVM, _Buffer, _Reader

__all__ = ["BatchedVM"]


class BatchedVM(SharedMemoryVM):
    """Execute a SAS against a first-fit allocation, one op per block.

    Same constructor and ``run``/``preload_delays``/``peak_address``
    contract as :class:`repro.codegen.vm.SharedMemoryVM`; accepted by
    ``run_shared_memory_check(vm_class=BatchedVM)``.
    """

    def __init__(self, graph, lifetimes, allocation) -> None:
        super().__init__(graph, lifetimes, allocation)
        # Actors whose blocks must run firing-at-a-time: a self-loop
        # makes reads within the block depend on the block's own
        # writes, so reads cannot all precede writes.
        self._scalar_actors = {
            e.source for e in graph.edges() if e.is_self_loop()
        }
        #: Batched transfers issued (block-level reads + writes), for
        #: amortization accounting in the benchmarks.
        self.transfers = 0

    def preload_delays(self) -> None:
        """Write the initial tokens of delayed buffers, one op each."""
        for state in self._buffers:
            if state.edge.delay > 0:
                self._write_block(state, state.edge.delay, 0, 1)

    def run(self, periods: int = 1, recorder=None) -> None:
        """The scalar VM's run, then ``transfers`` to ``vm.transfers``."""
        super().run(periods, recorder)
        if recorder is not None:
            recorder.count("vm.transfers", self.transfers)

    # ------------------------------------------------------------------
    def _fire_leaf(self, actor: str, n: int) -> None:
        """Fire ``actor`` ``n`` times: reads, then writes, one op per port."""
        base = self.firings
        self.firings += n
        self.firings_per_actor[actor] += n
        if actor in self._scalar_actors:
            blocks = [(base + i, 1) for i in range(n)]
        else:
            blocks = [(base, n)]
        reads, writes = self._ports[actor]
        for base_firings, k in blocks:
            for port in reads:
                rate = port.edge.consumption
                self._read_block(port, k * rate, base_firings, rate)
            for state in writes:
                rate = state.edge.production
                self._write_block(state, k * rate, base_firings, rate)

    def _slot_start(
        self,
        state: _Buffer,
        m: int,
        k: int,
        count: int,
        base_firings: int,
        rate: int,
        reader: Optional[Edge] = None,
    ) -> int:
        """The slot of the first of ``m`` tokens, or a linear overrun.

        ``k`` and ``count`` are the write side's, or ``reader``'s, token
        counts since the last reset and in all; an overrun is raised at
        the firing whose token runs off the buffer, as the scalar VM
        raises it.
        """
        if state.circular:
            return count % state.slots
        if k + m > state.slots:
            fail_tok = state.slots - k  # 0-based failing token
            raise self._overrun(
                state, reader, base_firings + fail_tok // rate + 1
            )
        return k

    def _runs(
        self, state: _Buffer, start_slot: int, m: int
    ) -> List[Tuple[int, int, int]]:
        """``(first token, first word, tokens)`` per contiguous run.

        A linear block is one run; a circular block starts a new run
        at each wrap of its buffer.
        """
        ts = state.token_size
        if not state.circular:
            return [(0, state.base + start_slot * ts, m)]
        runs = []
        j, slot = 0, start_slot
        while j < m:
            k = min(m - j, state.slots - slot)
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

    def _write_block(
        self, state: _Buffer, m: int, base_firings: int, rate: int
    ) -> None:
        ts = state.token_size
        first = state.produced * self._stride + state.eid
        memory = self.memory
        start = self._slot_start(
            state, m, state.wr_k, state.produced, base_firings, rate
        )
        for j, word, k in self._runs(state, start, m):
            memory[word:word + k * ts] = self._codes(
                first + j * self._stride, k, ts
            )
            if word + k * ts > self.peak_address:
                self.peak_address = word + k * ts
        state.produced += m
        state.wr_k += m
        self.transfers += 1

    def _read_block(
        self, port: _Reader, m: int, base_firings: int, rate: int
    ) -> None:
        """Read ``m`` tokens and verify identity, locating any mismatch."""
        state = port.buffer
        ts = state.token_size
        step = self._stride
        first = port.consumed * step + state.eid
        memory = self.memory
        start = self._slot_start(
            state, m, port.rd_k, port.consumed, base_firings, rate, port.edge
        )
        for j, word, k in self._runs(state, start, m):
            codes = self._codes(first + j * step, k, ts)
            if memory[word:word + k * ts] == codes:
                continue
            pos = next(
                p for p, c in enumerate(codes) if memory[word + p] != c
            )
            tok = j + pos // ts
            raise self._corrupt(
                port.edge, port.consumed + tok, word + pos,
                base_firings + tok // rate + 1,
            )
        self.transfers += 1
        port.consumed += m
        port.rd_k += m
