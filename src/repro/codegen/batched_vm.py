"""Vectorized shared-memory execution: one array op per firing block.

:class:`BatchedVM` runs the same memory discipline as
:class:`repro.codegen.vm.SharedMemoryVM` — linear per-episode cursors
reset at the buffer's least-parent loop, circular cursors for delayed
edges, one physical write per broadcast group — but executes each
schedule-tree leaf (a counted firing block) as one batched transfer
instead of ``residual`` scalar firings.  Token identity lives in two
parallel int64 arrays (``mem_edge``/``mem_seq``) over the shared
address space, so a whole block's writes are one fancy-indexed store
and a whole block's reads are one gather-and-compare; slot positions
come from the closed form of the scalar VM's wrap rule (a cursor that
only ever advances by ``token_size`` from zero wraps exactly every
``size_words // token_size`` tokens).

The observable contract is the scalar VM's: the same ``firings`` and
``firings_per_actor`` counters, the same ``peak_address`` (a maximum
over the same set of writes, hence order-independent), and
:class:`~repro.exceptions.CodegenError` with the scalar VM's message at
the same failing firing for cursor overruns, token corruption, and
balance violations.  Blocks of an actor with a self-loop (or feeding a
broadcast group it also consumes from) fall back to per-firing
execution — their reads depend on writes from earlier firings of the
same block, so the block-wide read-then-write reordering would be
unsound for them.

One deliberate asymmetry: within a block all reads precede all writes
(that is what makes the block one transfer), so an *unsafe* allocation
whose corruption window opens mid-block — a write of firing ``i``
clobbering a cell firing ``i+1`` reads — can go unnoticed here while
the scalar VM catches it.  On allocations that verify cleanly the two
VMs are observationally identical; the check harness therefore keeps
the scalar VM as the corruption oracle and uses this one to check the
vectorized execution path itself.

numpy is imported by the first constructor call, not with the module,
so code that only imports :mod:`repro.codegen` (or never executes)
does not pay for it.  When numpy is unavailable the transfers degrade
to per-token Python loops with identical semantics (the repo-wide
optional-acceleration convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exceptions import CodegenError
from ..sdf.graph import Edge, SDFGraph
from ..allocation.first_fit import Allocation
from ..lifetimes.intervals import LifetimeSet, least_parent_of
from ..lifetimes.schedule_tree import ScheduleTreeNode

__all__ = ["BatchedVM"]

Key = Tuple[str, str, int]

#: ``mem_edge`` value for never-written words (the scalar VM's None).
_UNWRITTEN = -1


@dataclass
class _BufState:
    """One physical buffer's cursors and counters.

    ``produced``/``consumed`` are whole-run token counters (they drive
    circular slots and the balance check); ``wr_k``/``rd_k`` count
    tokens since the last least-parent reset (they drive linear slots
    and are the only thing a reset clears — exactly the scalar VM's
    ``reset_cursors``).
    """

    edge: Edge
    eid: int
    base: int
    size_words: int
    circular: bool
    produced: int = 0
    consumed: int = 0
    wr_k: int = 0
    rd_k: int = 0

    @property
    def slots(self) -> int:
        return self.size_words // self.edge.token_size

    def reset_cursors(self) -> None:
        self.wr_k = 0
        self.rd_k = 0


@dataclass
class _BReader:
    """One member sink's cursor over a broadcast group's buffer."""

    edge: Edge
    rd_k: int = 0
    consumed: int = 0


@dataclass
class _BGroup:
    name: str
    write: _BufState
    readers: Dict[Key, _BReader] = field(default_factory=dict)

    def reset_cursors(self) -> None:
        self.write.reset_cursors()
        for r in self.readers.values():
            r.rd_k = 0


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
        total = max(allocation.total, 1)
        try:  # optional acceleration; the VM has a pure-Python path
            import numpy as np
        except ImportError:  # pragma: no cover
            np = None
        #: numpy, bound once per VM; ``None`` selects the list path.
        self._np = np
        if np is not None:
            self.mem_edge = np.full(total, _UNWRITTEN, dtype=np.int64)
            self.mem_seq = np.zeros(total, dtype=np.int64)
        else:  # pragma: no cover - exercised only without numpy
            self.mem_edge = [_UNWRITTEN] * total
            self.mem_seq = [0] * total
        self._edges: Dict[Key, _BufState] = {}
        self._groups: Dict[str, _BGroup] = {}
        self._reset_at: Dict[int, List] = {}
        self._eid_key: List[Key] = []

        def new_eid(key: Key) -> int:
            self._eid_key.append(key)
            return len(self._eid_key) - 1

        for e in graph.edge_list():
            if e.broadcast is not None:
                continue
            lt = lifetimes.lifetimes[e.key]
            state = _BufState(
                edge=e,
                eid=new_eid(e.key),
                base=allocation.offset_of(lt.name),
                size_words=lt.size,
                circular=e.delay > 0,
            )
            self._edges[e.key] = state
            if not state.circular:
                lp = lifetimes.tree.least_parent(e.source, e.sink)
                self._reset_at.setdefault(id(lp), []).append(state)
        for name, members in graph.broadcast_groups().items():
            first = members[0]
            lt = lifetimes.lifetimes[first.key]
            group = _BGroup(
                name=name,
                write=_BufState(
                    edge=first,
                    eid=new_eid(first.key),
                    base=allocation.offset_of(lt.name),
                    size_words=lt.size,
                    circular=first.delay > 0,
                ),
                readers={m.key: _BReader(edge=m) for m in members},
            )
            self._groups[name] = group
            if not group.write.circular:
                lp = least_parent_of(
                    lifetimes.tree,
                    [first.source] + [m.sink for m in members],
                )
                self._reset_at.setdefault(id(lp), []).append(group)

        # Actors whose blocks must run firing-at-a-time: a self-loop
        # (or a broadcast group the actor both feeds and consumes)
        # makes reads within the block depend on the block's own
        # writes, so reads cannot all precede writes.
        self._scalar_actors = set()
        for e in graph.edges():
            if e.is_self_loop():
                self._scalar_actors.add(e.source)
        for name, members in graph.broadcast_groups().items():
            src = members[0].source
            if any(m.sink == src for m in members):
                self._scalar_actors.add(src)

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
        """Write the initial tokens of delayed edges, one op per edge."""
        for state in self._edges.values():
            if state.edge.delay > 0:
                self._write_block(state, state.edge.delay, 0, 1)
        for group in self._groups.values():
            if group.write.edge.delay > 0:
                self._write_block(group.write, group.write.edge.delay, 0, 1)

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
        """Reads then writes for ``n`` firings, one op per edge."""
        for e in self.graph.in_edges(actor):
            m = n * e.consumption
            if e.broadcast is None:
                self._read_block(
                    self._edges[e.key], m, base_firings, e.consumption
                )
            else:
                group = self._groups[e.broadcast]
                self._read_group_block(
                    group, group.readers[e.key], m, base_firings,
                    e.consumption,
                )
        written = set()
        for e in self.graph.out_edges(actor):
            m = n * e.production
            if e.broadcast is None:
                self._write_block(
                    self._edges[e.key], m, base_firings, e.production
                )
            elif e.broadcast not in written:
                # One physical write per group, regardless of fan-out.
                written.add(e.broadcast)
                self._write_block(
                    self._groups[e.broadcast].write, m, base_firings,
                    e.production,
                )

    # ------------------------------------------------------------------
    def _slot_start(
        self,
        state: _BufState,
        m: int,
        k_reset: int,
        counter: int,
        writing: bool,
        base_firings: int,
        rate: int,
    ) -> int:
        """Overrun check; returns the first token's slot index.

        ``k_reset`` is the tokens-since-reset count (linear cursor) and
        ``counter`` the whole-run token counter (circular cursor); the
        failing firing and cursor value of a linear overrun are
        recovered in closed form so the raise matches the scalar VM's.
        """
        e = state.edge
        slots = state.slots
        if state.circular:
            return counter % slots if slots else 0
        if k_reset + m > slots:
            fail_tok = slots - k_reset  # 0-based index of the failing token
            firing = base_firings + fail_tok // rate + 1
            cursor = slots * e.token_size
            if writing:
                raise CodegenError(
                    f"buffer {e} overruns its array: write cursor "
                    f"{cursor} + {e.token_size} > {state.size_words} "
                    f"(firing {firing})"
                )
            raise CodegenError(
                f"buffer {e} read cursor overruns: "
                f"{cursor} + {e.token_size} > {state.size_words} "
                f"(firing {firing})"
            )
        return k_reset

    def _indices(self, state: _BufState, start_slot: int, m: int):
        """Word indices of ``m`` consecutive token slots (maybe wrapped)."""
        ts = state.edge.token_size
        np = self._np
        if np is not None:
            sl = start_slot + np.arange(m, dtype=np.int64)
            if state.circular:
                sl %= state.slots
            return (
                state.base + sl[:, None] * ts
                + np.arange(ts, dtype=np.int64)[None, :]
            ).ravel()
        sl = [start_slot + j for j in range(m)]  # pragma: no cover
        if state.circular:  # pragma: no cover
            sl = [s % state.slots for s in sl]
        return [  # pragma: no cover
            state.base + s * ts + w for s in sl for w in range(ts)
        ]

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
            state, m, state.wr_k, state.produced, True, base_firings, rate
        )
        idx = self._indices(state, start, m)
        ts = state.edge.token_size
        np = self._np
        if np is not None:
            seqs = state.produced + np.arange(m, dtype=np.int64)
            self.mem_edge[idx] = state.eid
            self.mem_seq[idx] = np.repeat(seqs, ts)
        else:  # pragma: no cover - exercised only without numpy
            for j, i in enumerate(idx):
                self.mem_edge[i] = state.eid
                self.mem_seq[i] = state.produced + j // ts
        self._bump_peak(state, start, m)
        state.produced += m
        if not state.circular:
            state.wr_k += m
        self.transfers += 1

    def _found_token(self, address: int) -> Optional[Tuple[Key, int]]:
        """Reconstruct the scalar VM's token value at one address."""
        eid = int(self.mem_edge[address])
        if eid == _UNWRITTEN:
            return None
        return (self._eid_key[eid], int(self.mem_seq[address]))

    def _gather_compare(
        self,
        state: _BufState,
        start: int,
        m: int,
        expect_eid: int,
        first_seq: int,
        describe: str,
        base_firings: int,
        rate: int,
    ) -> None:
        """Read ``m`` tokens and verify identity, locating any mismatch."""
        idx = self._indices(state, start, m)
        ts = state.edge.token_size
        np = self._np
        if np is not None:
            seqs = np.repeat(first_seq + np.arange(m, dtype=np.int64), ts)
            bad = (self.mem_edge[idx] != expect_eid) | (
                self.mem_seq[idx] != seqs
            )
            pos = int(np.argmax(bad)) if bool(bad.any()) else -1
        else:  # pragma: no cover - exercised only without numpy
            pos = -1
            for j, i in enumerate(idx):
                if (
                    self.mem_edge[i] != expect_eid
                    or self.mem_seq[i] != first_seq + j // ts
                ):
                    pos = j
                    break
        if pos >= 0:
            tok = pos // ts
            address = int(idx[pos])
            firing = base_firings + tok // rate + 1
            raise CodegenError(
                f"token corruption on {describe}: expected token "
                f"#{first_seq + tok}, found "
                f"{self._found_token(address)!r} at address {address} "
                f"(firing {firing}) — unsafe buffer overlay"
            )
        self.transfers += 1

    def _read_block(
        self, state: _BufState, m: int, base_firings: int, rate: int
    ) -> None:
        start = self._slot_start(
            state, m, state.rd_k, state.consumed, False, base_firings, rate
        )
        self._gather_compare(
            state, start, m, state.eid, state.consumed,
            f"{state.edge}", base_firings, rate,
        )
        state.consumed += m
        if not state.circular:
            state.rd_k += m

    def _read_group_block(
        self,
        group: _BGroup,
        reader: _BReader,
        m: int,
        base_firings: int,
        rate: int,
    ) -> None:
        write = group.write
        e = reader.edge
        slots = write.slots
        if write.circular:
            start = reader.consumed % slots if slots else 0
        else:
            if reader.rd_k + m > slots:
                fail_tok = slots - reader.rd_k
                firing = base_firings + fail_tok // rate + 1
                cursor = slots * e.token_size
                raise CodegenError(
                    f"broadcast {group.name} member {e} read cursor "
                    f"overruns: {cursor} + {e.token_size} > "
                    f"{write.size_words} (firing {firing})"
                )
            start = reader.rd_k
        self._gather_compare(
            write, start, m, write.eid, reader.consumed,
            f"broadcast {group.name} member {e}", base_firings, rate,
        )
        reader.consumed += m
        if not write.circular:
            reader.rd_k += m

    def _check_balance(self) -> None:
        for state in self._edges.values():
            e = state.edge
            outstanding = state.produced - state.consumed
            if outstanding != e.delay:
                raise CodegenError(
                    f"edge {e} ends with {outstanding} tokens in flight, "
                    f"expected {e.delay}"
                )
        for group in self._groups.values():
            for reader in group.readers.values():
                outstanding = group.write.produced - reader.consumed
                if outstanding != reader.edge.delay:
                    raise CodegenError(
                        f"broadcast {group.name} member {reader.edge} ends "
                        f"with {outstanding} tokens in flight, expected "
                        f"{reader.edge.delay}"
                    )
