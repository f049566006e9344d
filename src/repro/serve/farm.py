"""Compile shards: a supervised multi-process farm, or one local shard.

The server dispatches every item to a *shard* through one interface
(``compile_many``, ``shard_for``): a ``/compile`` is a group of one.
What a shard does with an item — probe the cache tiers by key, ask for
the document only when they miss, compile — is :class:`ShardCore`.
:class:`WorkerFarm` runs one core per worker *process* behind a pipe;
:class:`LocalShard` runs one core in-process on a thread pool, for a
server without a farm.
The farm scales the service across processes while keeping every
cache-locality property the session design bought:

* **Sharding** — each request is routed by :func:`rendezvous_shard`
  over the graph's content digest, so every option variant of one
  graph lands on one worker.  Rendezvous (highest random weight)
  hashing is a pure function of ``(digest, slot, pool size)``: the
  same digest lands on the same worker across server restarts, so
  each worker's per-graph
  :class:`~repro.scheduling.session.CompilationSession` LRU and
  memory tier stay hot, and no shard map needs storing.
* **Tiered cache** — a shard answers from its memory tier (the
  :class:`ShardCore` memo of rendered response bodies, at most
  :data:`MEMO_ENTRIES`, filled on disk hits only), then the shared
  on-disk :class:`~repro.artifacts.cache.ArtifactCache`, and only then
  compiles.  Every tier returns bit-identical ``canonical()`` reports;
  the benchmark asserts it per round.
* **Supervision** — each worker is watched both *in-band* (a pipe
  that dies mid-request fails that request with a one-line 503 and
  respawns the worker on the spot) and by a background supervisor
  thread (an idle worker that dies is respawned within
  ``supervise_interval`` seconds, so ``/healthz`` recovers without
  traffic).  A worker that outlives a request deadline is killed and
  respawned — a hung compile cannot wedge its shard forever.
* **Live resizing** — :meth:`WorkerFarm.resize` grows or shrinks the
  pool while it serves traffic.  Growing spawns supervised workers
  for the new slots; shrinking *drains* the removed slots (each
  retired worker finishes its in-flight request, ships its final
  counters, and is shut down — never killed mid-compile).  Because
  rendezvous hashing is a pure function of ``(digest, size)``, only
  ~1/N of the key space changes owner either way.  Retired workers'
  counters, request tallies, and restart counts are folded into
  :attr:`WorkerFarm.retired` so ``/stats`` totals survive the resize.
  A request routed before a shrink that arrives at a retired slot is
  transparently re-routed to a live worker (results are bit-identical
  on every worker, so only cache locality is briefly affected).

Wire protocol (pickled tuples over a ``multiprocessing.Pipe``, one
request in flight per worker, serialized by a per-worker lock):

====================================  ===================================
parent -> worker                      worker -> parent
====================================  ===================================
``("compile_many", rid,               ``("ok_many", rid, results,
[(key, req|None), ...], trace)``      trees)`` — one ``("ok", status,
                                      tier, body)`` / ``("err", code,
                                      msg)`` / ``("need",)`` entry per
                                      item, order preserved.
                                      ``("need",)``: both tiers missed
                                      and only the key was sent; those
                                      items are re-sent with full
                                      documents in a second frame
``("stats", rid)``                    ``("stats", rid, payload)``
``("shutdown",)``                     (worker exits)
====================================  ===================================

The key-only first frame is the warm hot path: the front end memoizes
``raw body -> (key, shard)`` so a repeated request costs one SHA-256
and one small pipe round trip — no JSON parse, no document pickling.
The worker re-probes the tiers when the documents arrive, so N
identical cold items in one frame compile once.

Fault injection (``allow_faults=True``, never set by the CLI) honors a
top-level ``"fault"`` request field: ``"worker_crash"`` makes the
worker ``os._exit`` mid-compile (the ``repro check --inject``
``worker_crash`` mutation class), ``"sleep:N"`` delays the compile so
tests can hold a request in flight deterministically.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout

__all__ = [
    "FarmError",
    "FarmTimeout",
    "FarmWorkerCrashed",
    "LocalShard",
    "MEMO_ENTRIES",
    "ShardCore",
    "WorkerFarm",
    "http_error",
    "rendezvous_shard",
]

#: Returns one item's full parsed request; called only when a cache
#: tier cannot answer by key alone.
Fetch = Callable[[], Dict[str, Any]]

#: Capacity of each shard's memory tier (rendered response bodies).
MEMO_ENTRIES = 512


def rendezvous_shard(digest: str, size: int) -> int:
    """Highest-random-weight shard for ``digest`` in a pool of ``size``.

    Pure and stable: no state, no RNG — the winning slot is the argmax
    of ``sha256(digest ":" slot)`` over slots ``0..size-1``, so every
    process (and every restart) agrees on the placement, and growing
    the pool from N to N+1 moves only ~1/(N+1) of the digests.
    """
    if size < 1:
        raise ValueError(f"pool size must be >= 1, got {size}")
    if size == 1:
        return 0
    best_slot = 0
    best_weight = b""
    prefix = digest.encode("utf-8") + b":"
    for slot in range(size):
        weight = hashlib.sha256(prefix + str(slot).encode("ascii")).digest()
        if weight > best_weight:
            best_weight = weight
            best_slot = slot
    return best_slot


class FarmError(RuntimeError):
    """A request the farm could not complete; ``code`` is the HTTP status."""

    code = 500


class FarmWorkerCrashed(FarmError):
    """The worker died mid-request; it has been respawned."""

    code = 503


class FarmTimeout(FarmError):
    """The worker exceeded the request deadline; killed and respawned."""

    code = 504


# --------------------------------------------------------------------------
# Shard core (transport-free) and the worker process around it
# --------------------------------------------------------------------------

def http_error(exc: BaseException) -> Tuple[int, str]:
    """The one exception -> ``(HTTP code, one-line message)`` mapping.

    Malformed documents and options (``SDFError``, ``ValueError``,
    ``KeyError``, ``TypeError``) are the client's fault: 400.  Anything
    else is ours: 500.
    """
    from ..exceptions import SDFError

    if isinstance(exc, (SDFError, ValueError, KeyError, TypeError)):
        return 400, f"bad request: {exc}"
    return 500, f"internal error: {exc!r}"


class ShardCore:
    """What one shard does with an item, minus the transport.

    Probes the memory tier (a memo of rendered hit bodies) and the
    service's disk cache by key, then compiles.  Farm worker processes
    run it behind a pipe (:class:`_Worker`); the in-process server runs
    it directly (:class:`LocalShard`), so both answer byte-for-byte
    alike.  Safe to call from several threads: ``_lock`` guards the
    memo and the counters, never a compile.
    """

    def __init__(self, service, allow_faults: bool) -> None:
        from collections import OrderedDict

        from .. import obs

        self.service = service
        self.allow_faults = allow_faults
        #: The memory tier: rendered hit response bodies by cache key,
        #: at most :data:`MEMO_ENTRIES`.  A repeat hit skips the disk
        #: read, the report rebuild and the JSON encode and ships the
        #: stored bytes.  Only a disk hit fills it — never a compile —
        #: so a stream of never-repeated misses leaves it empty.
        self._bodies: "OrderedDict[str, bytes]" = OrderedDict()
        #: Long-lived counters-only recorder; totals ship with "stats".
        self.counters = obs.TraceRecorder()
        self._lock = threading.Lock()
        # Misses are mostly graphs below native.CROSSOVER_ACTORS, where
        # one cold process would not load the kernel; a shard compiles
        # many, so it loads the kernel once, before its first compile.
        from ..native import get_kernels

        get_kernels()

    def _count(self, name: str, recorder=None) -> None:
        with self._lock:
            self.counters.count(name)
        if recorder is not None:
            recorder.count(name)

    def counter_totals(self) -> Dict[str, int]:
        with self._lock:
            return self.counters.counter_totals()

    def answer(
        self, key: str, request: Optional[Dict[str, Any]], recorder
    ) -> Tuple[Any, ...]:
        """One item: ``("ok", status, tier, body)``, ``("need",)`` (the
        tiers missed and only the key was given) or ``("err", code,
        message)``.  An empty ``key`` means uncached."""
        try:
            reply = self._compile_inner(key, request, recorder)
        except Exception as exc:
            self._count("farm.errors")
            self._count("farm.requests")
            return ("err",) + http_error(exc)
        if reply is None:
            return ("need",)  # not terminal: not counted
        self._count("farm.requests")
        return ("ok",) + reply

    def _inject(self, fault: Any) -> None:
        """Honor a test-only ``"fault"`` field (``"sleep:N"``)."""
        if isinstance(fault, str) and fault.startswith("sleep:"):
            time.sleep(float(fault.split(":", 1)[1]))

    def _compile_inner(
        self, key: str, request: Optional[Dict[str, Any]], recorder
    ) -> Optional[Tuple[str, str, bytes]]:
        from .service import CompileOptions

        start = time.perf_counter()
        if key:
            with self._lock:
                body = self._bodies.get(key)
                if body is not None:
                    self._bodies.move_to_end(key)
            if body is not None:
                self._count("farm.mem_hits", recorder)
                return "hit", "memory", body
            found = self.service.lookup(key, recorder=recorder)
            if found is not None:
                report = found[0]
                self._count("farm.disk_hits", recorder)
                report.wall_s = time.perf_counter() - start
                return "hit", "disk", self._remember(key, report)
        if request is None:
            return None  # ask the front end for the document
        fault = request.get("fault")
        if fault and self.allow_faults:
            self._inject(fault)
        options = CompileOptions.from_dict(request.get("options"))
        report = self.service.compile_keyed(
            request["graph"], options, key, recorder=recorder
        )
        report.wall_s = time.perf_counter() - start
        self._count("farm.compiles", recorder)
        status = "miss" if key else "disabled"
        return status, "compile", self._render(status, report)

    def _remember(self, key: str, report) -> bytes:
        """Render a disk-hit body and memoize the bytes for repeat hits."""
        body = self._render("hit", report)
        with self._lock:
            self._bodies[key] = body
            while len(self._bodies) > MEMO_ENTRIES:
                self._bodies.popitem(last=False)
        return body

    @staticmethod
    def _render(status: str, report) -> bytes:
        return json.dumps(
            {"status": status, "report": report.to_json()}
        ).encode("utf-8")


def _worker_main(conn, config: Dict[str, Any]) -> None:  # pragma: no cover
    # Covered via subprocess in the farm tests; coverage tools cannot
    # see into the forked child.
    worker = _Worker(conn, config)
    worker.run()


class _Worker(ShardCore):
    """The loop running inside each farm process: the core behind a pipe."""

    def __init__(self, conn, config: Dict[str, Any]) -> None:
        from ..artifacts import ArtifactCache
        from .service import CompileService

        cache_root = config.get("cache_root")
        super().__init__(
            CompileService(
                cache=ArtifactCache(cache_root) if cache_root else None,
                max_sessions=int(config.get("max_sessions", 32)),
            ),
            bool(config.get("allow_faults")),
        )
        self.conn = conn

    def run(self) -> None:
        while True:
            try:
                msg = self.conn.recv()
            except (EOFError, OSError):
                return
            kind = msg[0]
            if kind == "shutdown":
                return
            if kind == "stats":
                self.conn.send(("stats", msg[1], self._stats()))
            elif kind == "compile_many":
                self._compile_many(*msg[1:])
            else:  # unknown frame: protocol bug, fail loudly
                self.conn.send(("err", msg[1], 500, f"unknown frame {kind!r}"))

    def _inject(self, fault: Any) -> None:
        if fault == "worker_crash":
            os._exit(23)  # die mid-compile, response never sent
        super()._inject(fault)

    def _stats(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "counters": self.counter_totals(),
            "sessions": len(self.service._sessions),
            "memory_entries": len(self._bodies),
        }

    def _compile_many(
        self, rid: int,
        items: List[Tuple[str, Optional[Dict[str, Any]]]],
        trace: bool,
    ) -> None:
        """One shard group (a ``/batch`` group or one ``/compile``) in
        a single frame.

        Items run sequentially in request order (identical colds in one
        group compile once: the first fills the disk tier, the rest hit
        it).  A bad item becomes a per-item ``("err", ...)`` entry — it
        never poisons the rest of the group.
        """
        from .. import obs

        results: List[Tuple[Any, ...]] = []
        trees: List[Optional[Dict[str, Any]]] = []
        for key, request in items:
            recorder = obs.TraceRecorder() if trace else None
            entry = self.answer(key, request, recorder)
            results.append(entry)
            trees.append(
                recorder.serialize()
                if recorder is not None and entry[0] == "ok" else None
            )
        self.conn.send(("ok_many", rid, results, trees))


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------

class _WorkerHandle:
    """Parent-side view of one worker slot: process, pipe, lock, counters."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.proc = None
        self.conn = None
        self.lock = threading.Lock()
        self.restarts = -1  # first spawn brings it to 0
        self.requests = 0
        self.failures = 0
        #: Set (under ``lock``) when the slot is removed by a shrink.
        #: A retired handle is never respawned; late requests that
        #: still hold a stale shard number re-route to a live slot.
        self.retired = False


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class WorkerFarm:
    """A supervised pool of compile worker processes.

    Parameters
    ----------
    size:
        Number of worker processes (shard slots).
    cache_root:
        Shared on-disk :class:`ArtifactCache` directory, or ``None``
        to run without the disk and memory tiers (every request
        compiles — bit-identical to the bare pipeline).
    allow_faults:
        Honor test-only ``"fault"`` request fields (never set by the
        CLI; used by the fault-injection self-test and the tests).
    supervise_interval:
        Seconds between background liveness sweeps (0 disables the
        supervisor thread; crash recovery then happens on first use).
    """

    def __init__(
        self,
        size: int,
        cache_root: Optional[str] = None,
        max_sessions: int = 32,
        allow_faults: bool = False,
        supervise_interval: float = 0.2,
    ) -> None:
        if size < 1:
            raise ValueError(f"farm size must be >= 1, got {size}")
        self.size = size
        self.cache_root = cache_root
        self.supervise_interval = supervise_interval
        self._config = {
            "cache_root": cache_root,
            "max_sessions": max_sessions,
            "allow_faults": allow_faults,
        }
        self._ctx = _mp_context()
        self._handles = [_WorkerHandle(slot) for slot in range(size)]
        self._rid = itertools.count(1)
        self._stopping = False
        self._supervisor: Optional[threading.Thread] = None
        #: Serializes :meth:`resize` calls and pins the
        #: ``(size, _handles)`` pair they publish together.
        self._resize_lock = threading.Lock()
        #: Totals carried over from workers retired by a shrink, so a
        #: resize never makes ``/stats`` counters go backwards.
        self.retired: Dict[str, Any] = {
            "workers": 0, "requests": 0, "failures": 0,
            "restarts": 0, "counters": {},
        }

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "WorkerFarm":
        for handle in self._handles:
            self._spawn(handle)
        if self.supervise_interval > 0:
            self._supervisor = threading.Thread(
                target=self._supervise, daemon=True,
                name="repro-farm-supervisor",
            )
            self._supervisor.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Shut every worker down; idempotent."""
        self._stopping = True
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
            self._supervisor = None
        for handle in list(self._handles):
            with handle.lock:
                if handle.proc is None:
                    continue
                try:
                    handle.conn.send(("shutdown",))
                except (OSError, BrokenPipeError, ValueError):
                    pass
                handle.proc.join(timeout=timeout)
                if handle.proc.is_alive():
                    handle.proc.kill()
                    handle.proc.join(timeout=timeout)
                try:
                    handle.conn.close()
                except OSError:
                    pass
                handle.proc = None

    def _spawn(self, handle: _WorkerHandle) -> None:
        """(Re)start ``handle``'s process.  Caller holds ``handle.lock``
        (or is single-threaded startup)."""
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._config),
            daemon=True,
            name=f"repro-farm-{handle.slot}",
        )
        proc.start()
        child_conn.close()
        handle.proc = proc
        handle.conn = parent_conn
        handle.restarts += 1

    def _supervise(self) -> None:
        """Respawn workers that died while idle, until :meth:`stop`."""
        while not self._stopping:
            time.sleep(self.supervise_interval)
            for handle in list(self._handles):
                if self._stopping:
                    return
                if (
                    handle.retired
                    or handle.proc is None
                    or handle.proc.is_alive()
                ):
                    continue
                # Try-lock only: if a request holds the lock, its own
                # error path respawns; blocking here could double-spawn.
                if handle.lock.acquire(blocking=False):
                    try:
                        if (
                            not self._stopping
                            and not handle.retired
                            and handle.proc is not None
                            and not handle.proc.is_alive()
                        ):
                            self._spawn(handle)
                    finally:
                        handle.lock.release()

    # -- live resizing --------------------------------------------------
    def resize(
        self, new_size: int, drain_timeout: float = 30.0
    ) -> Dict[str, Any]:
        """Grow or shrink the pool to ``new_size`` workers, live.

        Growing spawns supervised workers for the new slots; shrinking
        publishes the smaller routing table first (so no new request
        targets a removed slot) and then drains each retired worker:
        waits for its in-flight request, pulls its final counters into
        :attr:`retired`, and shuts it down.  Rendezvous hashing
        guarantees only ~1/max(old,new) of the digest space changes
        owner.  Returns ``{"previous": old, "size": new, "added": ...,
        "removed": ...}``.  Idempotent for ``new_size == size``.
        """
        if new_size < 1:
            raise ValueError(f"farm size must be >= 1, got {new_size}")
        with self._resize_lock:
            old_size = self.size
            if new_size == old_size:
                return {"previous": old_size, "size": old_size,
                        "added": 0, "removed": 0}
            if new_size > old_size:
                added = [
                    _WorkerHandle(slot)
                    for slot in range(old_size, new_size)
                ]
                for handle in added:
                    self._spawn(handle)
                # Publish handles before size: a racing request that
                # already computed a shard against the larger size must
                # find its handle present.
                self._handles = self._handles + added
                self.size = new_size
                return {"previous": old_size, "size": new_size,
                        "added": len(added), "removed": 0}
            removed = self._handles[new_size:]
            # Publish the shrunk table first: new routing decisions
            # stop at new_size while retired workers finish in-flight
            # work behind their locks.
            self._handles = self._handles[:new_size]
            self.size = new_size
            for handle in removed:
                self._drain_handle(handle, drain_timeout)
            return {"previous": old_size, "size": new_size,
                    "added": 0, "removed": len(removed)}

    def _drain_handle(self, handle: _WorkerHandle, timeout: float) -> None:
        """Retire one removed slot: finish in-flight work, keep totals.

        Acquiring ``handle.lock`` waits for the slot's in-flight
        request (requests hold the lock for their whole round trip),
        so a shrink never drops a request mid-compile.  The worker's
        final obs counters are merged into :attr:`retired` before the
        shutdown frame, so ``/stats`` totals survive the resize.
        """
        acquired = handle.lock.acquire(timeout=timeout)
        try:
            handle.retired = True
            # Without the lock (a request overran drain_timeout) the
            # pipe belongs to that request: skip the stats/shutdown
            # frames and kill below — the request fails with a 503 and
            # the retired flag stops any respawn.
            alive = (
                acquired
                and handle.proc is not None
                and handle.proc.is_alive()
            )
            if alive:
                try:
                    rid = next(self._rid)
                    handle.conn.send(("stats", rid))
                    if handle.conn.poll(2.0):
                        msg = handle.conn.recv()
                        if msg[0] == "stats" and msg[1] == rid:
                            for name, value in (
                                msg[2].get("counters") or {}
                            ).items():
                                self.retired["counters"][name] = (
                                    self.retired["counters"].get(name, 0)
                                    + value
                                )
                except (EOFError, OSError, BrokenPipeError, ValueError):
                    pass
                try:
                    handle.conn.send(("shutdown",))
                except (OSError, BrokenPipeError, ValueError):
                    pass
            if handle.proc is not None:
                handle.proc.join(timeout=5)
                if handle.proc.is_alive():
                    handle.proc.kill()
                    handle.proc.join(timeout=5)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:
                    pass
            handle.proc = None
            handle.conn = None
            self.retired["workers"] += 1
            self.retired["requests"] += handle.requests
            self.retired["failures"] += handle.failures
            self.retired["restarts"] += max(0, handle.restarts)
        finally:
            if acquired:
                handle.lock.release()

    # -- introspection --------------------------------------------------
    def shard_for(self, digest: str) -> int:
        """The worker slot owning ``digest`` (stable across restarts)."""
        return rendezvous_shard(digest, self.size)

    def alive_count(self) -> int:
        return sum(
            1 for h in list(self._handles)
            if h.proc is not None and h.proc.is_alive()
        )

    def restarts_total(self) -> int:
        """Restarts over the farm's lifetime, retired slots included."""
        return (
            sum(max(0, h.restarts) for h in list(self._handles))
            + self.retired["restarts"]
        )

    def describe(self) -> Dict[str, Any]:
        """Cheap pool summary (no worker round trips) for ``/healthz``."""
        return {
            "size": self.size,
            "alive": self.alive_count(),
            "restarts": self.restarts_total(),
            "retired_workers": self.retired["workers"],
        }

    def worker_stats(self, timeout: float = 2.0) -> List[Dict[str, Any]]:
        """Per-worker stats payloads (pid, obs counters, tier sizes).

        A worker that cannot answer within ``timeout`` (dead, hung, or
        busy with a long compile) is reported as ``{"alive": False}``
        rather than blocking the ``/stats`` endpoint.
        """
        out = []
        for handle in list(self._handles):
            row: Dict[str, Any] = {
                "slot": handle.slot,
                "alive": handle.proc is not None and handle.proc.is_alive(),
                "restarts": max(0, handle.restarts),
                "requests": handle.requests,
                "failures": handle.failures,
            }
            acquired = handle.lock.acquire(timeout=timeout)
            if acquired:
                try:
                    rid = next(self._rid)
                    handle.conn.send(("stats", rid))
                    if handle.conn.poll(timeout):
                        msg = handle.conn.recv()
                        if msg[0] == "stats" and msg[1] == rid:
                            row.update(msg[2])
                except (EOFError, OSError, BrokenPipeError, ValueError):
                    row["alive"] = False
                finally:
                    handle.lock.release()
            out.append(row)
        return out

    # -- dispatch -------------------------------------------------------
    def compile_many(
        self,
        shard: int,
        items: List[Tuple[str, Fetch]],
        trace: bool = False,
        timeout: Optional[float] = None,
    ) -> List[Tuple[Any, ...]]:
        """Run one shard group on worker ``shard`` in a single wire
        frame: a ``/batch`` group, or a ``/compile`` as a group of one.

        ``items`` is ``[(key, fetch), ...]`` in request order; a
        non-empty ``key`` enables the cache tiers and ``fetch()``
        returns the item's full parsed request.  The first frame
        carries keys only for cache-enabled items (the warm hot path:
        a whole warm group costs one small round trip and never calls
        ``fetch``); the worker marks tier-missed items ``("need",)``
        and a second frame re-sends just those with full documents.
        Returns one entry per item, order preserved:
        ``("ok", status, tier, body, tree|None)`` or
        ``("err", http_code, message)``.

        Raises :class:`FarmWorkerCrashed` (one respawn already done)
        when the worker dies mid-frame, :class:`FarmTimeout` when it
        exceeds ``timeout`` seconds (the worker is killed and
        respawned — a hung shard heals), and :class:`FarmError` for
        protocol corruption; each fails the *group* as a unit.

        ``shard`` may be stale after a concurrent :meth:`resize` (the
        caller routed against the old pool size); such a group is
        transparently re-routed onto a live slot — every worker
        produces bit-identical results, only cache locality is
        affected.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        handle = self._claim(shard, deadline, timeout)
        try:
            if handle.proc is None or not handle.proc.is_alive():
                self._spawn(handle)
            handle.requests += len(items)
            rid = next(self._rid)
            first = [
                (key, None if key else fetch()) for key, fetch in items
            ]
            try:
                msg = self._recv(
                    handle, rid, deadline,
                    send=("compile_many", rid, first, trace),
                )
                if msg[0] == "ok_many":
                    results = list(msg[2])
                    trees = list(msg[3])
                    needed = [
                        i for i, entry in enumerate(results)
                        if entry[0] == "need"
                    ]
                    if needed:
                        rid = next(self._rid)
                        msg = self._recv(
                            handle, rid, deadline,
                            send=("compile_many", rid,
                                  [(items[i][0], items[i][1]())
                                   for i in needed], trace),
                        )
                        if msg[0] == "ok_many":
                            for slot, entry, tree in zip(
                                needed, msg[2], msg[3]
                            ):
                                results[slot] = entry
                                trees[slot] = tree
            except (EOFError, OSError, BrokenPipeError, ValueError):
                handle.failures += 1
                if not handle.retired:
                    self._spawn(handle)
                raise FarmWorkerCrashed(
                    f"compile worker {handle.slot} crashed mid-request; "
                    f"respawned, retry the request"
                ) from None
            if msg[0] != "ok_many":
                handle.failures += 1
                if not handle.retired:
                    self._spawn(handle)
                raise FarmError(
                    f"worker {handle.slot} protocol error: "
                    f"frame {msg[0]!r}"
                )
            return [
                ("ok", entry[1], entry[2], entry[3], tree)
                if entry[0] == "ok" else entry
                for entry, tree in zip(results, trees)
            ]
        finally:
            handle.lock.release()

    def _claim(
        self, shard: int, deadline: Optional[float],
        timeout: Optional[float],
    ) -> _WorkerHandle:
        """Lock and return a live handle for ``shard``, re-routing
        stale (post-resize) shard numbers onto the current pool."""
        while True:
            handles = self._handles
            handle = handles[shard % len(handles)]
            if not self._acquire(handle.lock, deadline):
                raise FarmTimeout(
                    f"worker {handle.slot} busy past the "
                    f"{timeout}s deadline"
                )
            if not handle.retired:
                return handle
            # The slot was retired between routing and locking: route
            # again against the (shrunk) current table.
            handle.lock.release()
            shard = shard % self.size

    @staticmethod
    def _acquire(lock: threading.Lock, deadline: Optional[float]) -> bool:
        if deadline is None:
            return lock.acquire()
        remaining = deadline - time.monotonic()
        return remaining > 0 and lock.acquire(timeout=remaining)

    def _recv(self, handle: _WorkerHandle, rid: int, deadline, send=None):
        """Send ``send`` (optional) and wait for the matching reply."""
        if send is not None:
            handle.conn.send(send)
        while True:
            if deadline is None:
                if handle.conn.poll(None):
                    msg = handle.conn.recv()
                else:  # pragma: no cover - poll(None) blocks until data
                    continue
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not handle.conn.poll(remaining):
                    handle.failures += 1
                    handle.proc.kill()
                    handle.proc.join(timeout=5)
                    if not handle.retired:
                        self._spawn(handle)
                    raise FarmTimeout(
                        f"worker {handle.slot} exceeded the request "
                        f"deadline; killed and respawned"
                    )
                msg = handle.conn.recv()
            if msg[0] in ("ok_many", "err") and msg[1] == rid:
                return msg
            # Stale frame from an earlier timed-out request on this
            # pipe generation: drop it and keep waiting.


# --------------------------------------------------------------------------
# In-process shard
# --------------------------------------------------------------------------

class LocalShard:
    """The in-process server's single shard: :class:`ShardCore` with no
    pipe and no subprocess, behind :class:`WorkerFarm`'s dispatch call.

    Tier probes run on the calling (connection) thread, so a hit never
    waits behind a running compile; items that need compiling run on a
    ``threads``-wide pool.  Past ``timeout`` the call raises
    :class:`FarmTimeout` while the job finishes in the background
    (filling the cache for a retry), and a group stops at its next item
    boundary.  Its memory tier is the core's, exactly as in a farm
    worker.
    """

    size = 1

    def __init__(
        self, service, threads: int, allow_faults: bool = False
    ) -> None:
        self.core = ShardCore(service, allow_faults)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, threads), thread_name_prefix="repro-serve"
        )

    def shard_for(self, digest: str) -> int:
        return 0

    def stop(self) -> None:
        self._pool.shutdown(wait=True)

    def compile_many(
        self, shard: int, items: List[Tuple[str, Fetch]],
        trace: bool = False, timeout: Optional[float] = None,
    ) -> List[Tuple[Any, ...]]:
        """Like :meth:`WorkerFarm.compile_many`."""
        from .. import obs

        recorders = [
            obs.TraceRecorder() if trace else None for _ in items
        ]
        results = [
            self.core.answer(key, None, recorder) if key else ("need",)
            for (key, _fetch), recorder in zip(items, recorders)
        ]
        needed = [i for i, entry in enumerate(results) if entry[0] == "need"]
        if needed:
            stop = threading.Event()
            job = self._pool.submit(
                self._compile_needed,
                [(items[i][0], items[i][1], recorders[i]) for i in needed],
                stop,
            )
            try:
                for i, entry in zip(needed, job.result(timeout=timeout)):
                    results[i] = entry
            except FutureTimeout:
                stop.set()
                raise FarmTimeout(
                    f"request exceeded {timeout}s; still compiling, "
                    f"retry to pick up the cached result"
                ) from None
        return [
            entry + (None if recorder is None else recorder.serialize(),)
            if entry[0] == "ok" else entry
            for entry, recorder in zip(results, recorders)
        ]

    def _compile_needed(self, items, stop: threading.Event):
        out = []
        for key, fetch, recorder in items:
            if stop.is_set():
                break
            out.append(self.core.answer(key, fetch(), recorder))
        return out

