"""JSON-over-HTTP front end for the compilation service (stdlib only).

``repro serve`` wraps a :class:`~repro.serve.service.CompileService`
in a :class:`http.server.ThreadingHTTPServer`.  The design goals, in
order: never corrupt a result, shed load explicitly, drain cleanly.

* **Compile farm** — with ``processes > 0`` compilations run on a
  :class:`~repro.serve.farm.WorkerFarm` of worker *processes*;
  requests are sharded by graph content digest (rendezvous hashing)
  so each worker's session LRU and in-memory report tier stay hot.
  The connection thread talks straight to its shard's pipe — no
  intermediate queue hop.  With ``processes = 0`` (the default and
  the pre-farm behavior) compilations run on a bounded
  ``ThreadPoolExecutor`` (``workers`` threads) in-process.
* **Farm-aware batch** — with a farm, ``/batch`` routes *through* it:
  every item is sharded by its own graph digest, shard groups run
  concurrently (items within a shard in order, so each worker's
  caches stay hot), each item reuses the per-item single-flight and
  all three cache tiers, and item failures are isolated — one
  malformed document or one worker crash costs that *item* an error
  entry, never the whole batch.  Responses come back in request
  order, success items spliced verbatim from the workers' rendered
  bytes.  Without a farm ``/batch`` keeps the in-process
  ``parallel_map`` fan-out, now with the same per-item isolation.
* **Live resizing** — ``POST /resize`` ``{"workers": N}`` grows or
  shrinks the farm without a restart: added workers are spawned
  supervised, removed workers drain (finish in-flight work, ship
  final counters) before shutdown, and rendezvous hashing moves only
  ~1/N of the key space.  The body memo is flushed so routing follows
  the new pool immediately.
* **Single-flight** — concurrent identical cache-enabled ``/compile``
  requests coalesce: the first becomes the leader and compiles; the
  rest wait and receive the leader's bytes verbatim (counted under
  ``coalesced``, not as extra hits/misses).  A cold-cache stampede
  compiles once, not N times.
* **Bounded queue / backpressure** — at most ``queue_limit`` requests
  may be queued or running; one more gets an immediate ``429`` with a
  ``Retry-After`` header instead of unbounded buffering.  Load the
  server cannot take is the *client's* signal to back off.
* **Per-request timeout** — a request that outlives
  ``request_timeout`` seconds gets ``504``.  On the farm path the
  overdue worker is killed and respawned, so a hung compile cannot
  wedge its shard; on the thread path the worker slot is reclaimed
  when the underlying job finishes.
* **Supervision** — a farm worker that crashes mid-request fails that
  request with a one-line ``503`` (never a hang) and is respawned
  immediately; a worker that dies idle is respawned by the farm's
  supervisor thread, so ``/healthz`` recovers without traffic.
* **Graceful drain** — :meth:`CompileServer.drain` (wired to SIGTERM
  by the CLI) stops accepting new work (``503`` while draining),
  waits for in-flight requests, stops the farm, writes the
  accumulated trace, and returns; ``repro serve`` then exits 0.
* **Observability** — with ``trace_path`` set, every request records
  a ``serve.request`` span tree.  Farm workers record into their own
  recorders and ship the serialized tree back over the pipe; the
  front end grafts it under the request span, so one merged
  Chrome-trace file covers the whole pool.  ``/stats`` reports
  latency percentiles (p50/p95/p99 over a sliding window) and
  per-worker counters alongside the existing cache figures.

Endpoints
---------
``GET /healthz``
    ``{"status": "ok" | "draining"}`` (200 / 503); with a farm, also
    a ``farm`` object (size, alive, restarts).
``GET /stats``
    Server counters, latency percentiles, cache stats, farm stats.
``POST /compile``
    ``{"graph": <to_json document>, "options": {...}, "cache": true}``
    → ``{"status": "hit"|"miss"|"disabled", "report": {...}}``.
``POST /batch``
    ``{"graphs": [<document>, ...], "options": {...}, "jobs": N}``
    → ``{"responses": [{"status": ..., "report": ...}, ...]}`` in
    request order.  A failed item is ``{"status": "error", "code":
    <http-equivalent>, "error": "..."}`` with the other items intact.
``POST /resize``
    ``{"workers": N}`` → the post-resize farm description (400 when
    no farm is configured).

Error responses are ``{"error": "..."}`` with status 400 (malformed
request), 404 (unknown path), 429 (queue full), 503 (draining or
worker crash), 504 (timeout), or 500 (unexpected failure).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from ..exceptions import SDFError
from ..sdf.io import canonical_hash
from ..artifacts import cache_key
from .farm import (
    FarmError,
    FarmRequestError,
    FarmTimeout,
    FarmWorkerCrashed,
    WorkerFarm,
)
from .service import CompileOptions, CompileService

__all__ = ["CompileServer", "DEFAULT_PORT"]

DEFAULT_PORT = 8177

#: Longest a coalesced follower will wait on its leader when no
#: ``request_timeout`` is configured.  The leader always publishes a
#: result (its error paths run under ``finally``), so this bound only
#: matters if the leader thread is destroyed mid-request.
_SINGLE_FLIGHT_CAP_S = 600.0

#: Body-memo limits: requests larger than this, or beyond this many
#: distinct bodies, are parsed every time instead of cached.
_MEMO_MAX_BODY = 1 << 20
_MEMO_MAX_ENTRIES = 512

#: Largest request body read: a longer declared ``Content-Length`` is
#: refused with a 413 before any of the body is read.
MAX_BODY_BYTES = 64 << 20


class _FastHeaders:
    """Case-insensitive header lookup over a plain dict.

    Stands in for the ``email.message.Message`` that
    ``http.client.parse_headers`` would build — the full MIME parser
    costs ~100µs per request, an order of magnitude more than every
    other per-request step combined, for headers we only ever ``get``.
    """

    __slots__ = ("_fields",)

    def __init__(self, fields: Dict[str, str]) -> None:
        self._fields = fields

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self._fields.get(name.lower(), default)


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the owning :class:`CompileServer`."""

    protocol_version = "HTTP/1.1"
    # Keep-alive clients on loopback otherwise hit the Nagle +
    # delayed-ACK interaction: each response stalls ~40ms waiting for
    # the client's ACK before the final segment leaves.  TCP_NODELAY
    # on the server socket (client-side alone is not enough) takes
    # warm round trips from ~23/s to thousands/s.
    disable_nagle_algorithm = True

    _STATUS_LINES = {
        code: f"HTTP/1.1 {code} {msg[0]}\r\n".encode("latin-1")
        for code, msg in BaseHTTPRequestHandler.responses.items()
    }

    @property
    def _owner(self) -> "CompileServer":
        return self.server.owner  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:
        if not self._owner.quiet:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def handle_one_request(self) -> None:
        """One request off the wire, with lean header parsing.

        Replaces the stock implementation only to avoid routing the
        header block through ``email.feedparser``; request-line
        handling, error codes, and keep-alive semantics match
        ``BaseHTTPRequestHandler``.
        """
        try:
            self.raw_requestline = self.rfile.readline(65537)
            if len(self.raw_requestline) > 65536:
                self.requestline = ""
                self.request_version = ""
                self.command = ""
                self.send_error(414)
                return
            if not self.raw_requestline:
                self.close_connection = True
                return
            if not self._parse_fast():
                return
            mname = "do_" + self.command
            if not hasattr(self, mname):
                self.send_error(
                    501, f"Unsupported method ({self.command!r})"
                )
                return
            getattr(self, mname)()
            self.wfile.flush()
        except TimeoutError as exc:  # pragma: no cover - socket timeout
            self.log_error("Request timed out: %r", exc)
            self.close_connection = True

    def _parse_fast(self) -> bool:
        """Parse request line + headers; False means already replied."""
        self.command = ""
        self.request_version = version = "HTTP/0.9"
        self.close_connection = True
        requestline = self.raw_requestline.decode("iso-8859-1")
        self.requestline = requestline = requestline.rstrip("\r\n")
        words = requestline.split()
        if len(words) == 3:
            command, path, version = words
            if version not in ("HTTP/1.0", "HTTP/1.1"):
                self.send_error(
                    505, f"Invalid HTTP version ({version[5:]})"
                )
                return False
        elif len(words) == 2:
            command, path = words
            if command != "GET":
                self.send_error(
                    400, f"Bad HTTP/0.9 request type ({command!r})"
                )
                return False
        else:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        self.command, self.path, self.request_version = (
            command, path, version
        )
        fields: Dict[str, str] = {}
        while True:
            line = self.rfile.readline(65537)
            if len(line) > 65536:
                self.send_error(431, "Header line too long")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            if len(fields) >= 100:
                self.send_error(431, "Too many headers")
                return False
            name, sep, value = line.decode("iso-8859-1").partition(":")
            if not sep:
                self.send_error(
                    400, f"Bad header line ({line!r})"
                )
                return False
            fields[name.strip().lower()] = value.strip()
        self.headers = _FastHeaders(fields)  # type: ignore[assignment]
        conntype = fields.get("connection", "").lower()
        if version == "HTTP/1.1":
            self.close_connection = "close" in conntype
        else:
            self.close_connection = "keep-alive" not in conntype
        if (
            fields.get("expect", "").lower() == "100-continue"
            and version == "HTTP/1.1"
        ):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def _reply_bytes(
        self, code: int, body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        # One buffer, one write: status line, headers, and body leave
        # in a single syscall/TCP segment instead of three.
        parts = [
            self._STATUS_LINES.get(
                code, f"HTTP/1.1 {code} Response\r\n".encode("latin-1")
            ),
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode("latin-1")
            + b"\r\n",
        ]
        for name, value in (headers or {}).items():
            parts.append(f"{name}: {value}\r\n".encode("latin-1"))
        if self.close_connection:
            parts.append(b"Connection: close\r\n")
        parts.append(b"\r\n")
        parts.append(body)
        self.wfile.write(b"".join(parts))
        if not self._owner.quiet:
            self.log_request(code, len(body))

    def _reply(
        self, code: int, payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._reply_bytes(
            code, json.dumps(payload).encode("utf-8"), headers
        )

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        owner = self._owner
        if self.path == "/healthz":
            payload: Dict[str, Any] = {
                "status": "draining" if owner.draining else "ok"
            }
            if owner.farm is not None:
                payload["farm"] = owner.farm.describe()
            self._reply(503 if owner.draining else 200, payload)
        elif self.path == "/stats":
            self._reply(200, owner.stats())
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        owner = self._owner
        if self.path not in ("/compile", "/batch", "/resize"):
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        declared = self.headers.get("Content-Length", "0")
        if not (declared.isascii() and declared.isdigit()):
            # Without a valid length the body cannot be framed, so the
            # connection cannot be reused either: answer and close.
            self.close_connection = True
            self._reply_bytes(*owner.bad_request(
                f"invalid Content-Length {declared!r}: expected a "
                f"non-negative integer"
            ))
            return
        # ``int`` refuses strings of over 4300 digits, so a length with
        # more digits than the cap is refused before it is converted.
        digits = declared.lstrip("0") or "0"
        if (len(digits) > len(str(MAX_BODY_BYTES))
                or int(digits) > MAX_BODY_BYTES):
            # The unread body would be taken for the next request.
            self.close_connection = True
            self._reply_bytes(*owner.bad_request(
                f"Content-Length exceeds the {MAX_BODY_BYTES}-byte "
                f"body limit", code=413,
            ))
            return
        length = int(digits)
        raw = self.rfile.read(length) if length else b""
        code, body, headers = owner.handle_raw(self.path, raw)
        self._reply_bytes(code, body, headers)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    owner: "CompileServer"


class _Memo:
    """Parsed-and-routed form of one distinct ``/compile`` body."""

    __slots__ = ("request", "key", "shard")

    def __init__(
        self, request: Dict[str, Any], key: str, shard: int
    ) -> None:
        self.request = request
        self.key = key
        self.shard = shard


class _Flight:
    """Single-flight rendezvous: leader publishes, followers wait."""

    __slots__ = ("event", "result")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[Tuple[int, bytes, Dict[str, str]]] = None


#: One-line payload shapes quoted by missing-field errors, so a 400
#: tells the client exactly what to send instead of a bare KeyError.
_PAYLOAD_SHAPES = {
    "/compile": '{"graph": <to_json document>, "options": {...}, '
                '"cache": true}',
    "/batch": '{"graphs": [<to_json document>, ...], "options": {...}, '
              '"cache": true}',
    "/resize": '{"workers": N}',
}


def _require(request: Dict[str, Any], field: str, path: str) -> Any:
    """``request[field]`` with an actionable one-line error on absence."""
    try:
        return request[field]
    except KeyError:
        raise ValueError(
            f"missing required field '{field}': POST {path} expects "
            f"{_PAYLOAD_SHAPES[path]}"
        ) from None


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


class CompileServer:
    """The long-running ``repro serve`` process (see module docstring).

    Parameters
    ----------
    service:
        The :class:`CompileService` handling actual compilation (the
        thread path and ``/batch``; farm workers build their own
        service instances over the same cache directory).
    host / port:
        Bind address; ``port=0`` picks a free ephemeral port
        (``.port`` reports the bound one).
    workers:
        Worker-pool *threads* executing in-process compilations
        (``/batch`` always; ``/compile`` when ``processes == 0``).
    processes:
        Farm size: worker *processes* serving ``/compile`` requests,
        sharded by content digest.  0 (default) disables the farm.
    shard_by:
        ``"digest"`` (graph content hash) or ``"key"`` (full cache
        key) — see :class:`~repro.serve.farm.WorkerFarm`.
    mem_entries:
        Per-farm-worker in-memory report tier capacity.
    allow_faults:
        Honor test-only ``"fault"`` request fields in farm workers
        (never set by the CLI).
    queue_limit:
        Maximum queued-plus-running requests before ``429``.
    request_timeout:
        Seconds a request may take before ``504`` (``None``: no limit).
    trace_path / trace_format:
        When set, per-request span trees (including farm-worker
        subtrees) are recorded and written here (Chrome traceEvents
        by default) at drain time.
    quiet:
        Suppress per-request access logging.
    """

    def __init__(
        self,
        service: Optional[CompileService] = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int = 2,
        processes: int = 0,
        shard_by: str = "digest",
        mem_entries: int = 512,
        allow_faults: bool = False,
        queue_limit: int = 8,
        request_timeout: Optional[float] = None,
        trace_path: Optional[str] = None,
        trace_format: str = "auto",
        quiet: bool = False,
    ) -> None:
        self.service = service or CompileService()
        self.workers = max(1, workers)
        self.queue_limit = max(1, queue_limit)
        self.request_timeout = request_timeout
        self.trace_path = trace_path
        self.trace_format = trace_format
        self.quiet = quiet
        self.draining = False
        self._lock = threading.Lock()
        self._inflight = 0
        self._counters = {
            "requests": 0, "hits": 0, "misses": 0, "compiled": 0,
            "rejected": 0, "timeouts": 0, "errors": 0,
            "coalesced": 0, "worker_failures": 0,
            "timeout_reclaimed": 0,
        }
        self._latencies: "deque[float]" = deque(maxlen=2048)
        self._trace_trees: List[Dict[str, Any]] = []
        self._memo: "OrderedDict[str, _Memo]" = OrderedDict()
        #: Batch plans by body SHA-256: the /batch analogue of
        #: ``_memo`` — a repeated identical batch body skips the JSON
        #: parse and both canonical-hash passes per item.
        self._batch_memo: "OrderedDict[str, List[Tuple[str, Any]]]" = (
            OrderedDict()
        )
        self._memo_lock = threading.Lock()
        self._flights: Dict[str, _Flight] = {}
        self._flight_lock = threading.Lock()
        self.farm: Optional[WorkerFarm] = None
        if processes > 0:
            cache_root = (
                self.service.cache.root
                if self.service.cache is not None else None
            )
            self.farm = WorkerFarm(
                size=processes,
                cache_root=cache_root,
                shard_by=shard_by,
                mem_entries=mem_entries,
                max_sessions=self.service.max_sessions,
                allow_faults=allow_faults,
            ).start()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        #: Shard-group dispatch for the farm /batch path.  A persistent
        #: pool: spawning one Thread per shard group per POST costs more
        #: than the warm dispatch it parallelizes.  run_group never
        #: re-submits, so a bounded pool cannot deadlock.
        self._batch_pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=8, thread_name_prefix="repro-batch"
            )
            if self.farm is not None else None
        )
        self._httpd = _Server((host, port), _Handler)
        self._httpd.owner = self
        self._thread: Optional[threading.Thread] = None

    # -- addressing -----------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "CompileServer":
        """Serve on a background thread (tests, smoke harness)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`drain` (CLI path)."""
        self._httpd.serve_forever()

    def drain(self, timeout: float = 60.0) -> None:
        """Stop accepting work, finish in-flight requests, shut down.

        Idempotent.  New requests observe ``draining`` and get 503
        immediately; existing ones run to completion (bounded by
        ``timeout`` seconds of waiting).  The farm is stopped after
        the queue empties; the accumulated trace, if any, is written
        last so it includes every completed request.
        """
        with self._lock:
            if self.draining:
                return
            self.draining = True
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self._inflight == 0:
                    break
            time.sleep(0.02)
        self._pool.shutdown(wait=True)
        if self._batch_pool is not None:
            self._batch_pool.shutdown(wait=True)
        if self.farm is not None:
            self.farm.stop()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._write_trace()

    # -- request handling -----------------------------------------------
    def handle_raw(
        self, path: str, raw: bytes
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """One POST body straight off the socket → response bytes.

        ``/compile`` and ``/batch`` with a farm take the fast path:
        memoized parse and routing, single-flight coalescing, direct
        pipe dispatch on the connection thread(s).  ``/resize``
        reconfigures the farm.  Everything else goes through the
        legacy parse-then-:meth:`handle` flow.
        """
        if self.draining:
            return self._err(503, "server is draining")
        start = time.perf_counter()
        try:
            if path == "/resize":
                return self._handle_resize(raw)
            if self.farm is not None:
                if path == "/compile":
                    return self._handle_farm(raw)
                if path == "/batch":
                    return self._handle_batch_farm(raw)
            try:
                request = json.loads(raw or b"{}")
                if not isinstance(request, dict):
                    raise ValueError("request body must be a JSON object")
            except (ValueError, json.JSONDecodeError) as exc:
                return self._err(400, f"malformed request: {exc}")
            code, payload, headers = self.handle(path, request)
            return code, json.dumps(payload).encode("utf-8"), headers
        finally:
            self._latencies.append(time.perf_counter() - start)

    @staticmethod
    def _err(
        code: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> Tuple[int, bytes, Dict[str, str]]:
        return (
            code,
            json.dumps({"error": message}).encode("utf-8"),
            headers or {},
        )

    def bad_request(
        self, message: str, code: int = 400
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """A counted error reply for a request refused before its body."""
        with self._lock:
            self._counters["errors"] += 1
        return self._err(code, message)

    def _parse_compile(self, raw: bytes) -> _Memo:
        """Parse + route one ``/compile`` body, memoized on its bytes.

        A repeated identical body (the warm hot path) costs one
        SHA-256 and a dict probe instead of a JSON parse, an options
        validation, and two canonical-JSON hashes.
        """
        body_id = hashlib.sha256(raw).hexdigest()
        with self._memo_lock:
            memo = self._memo.get(body_id)
            if memo is not None:
                self._memo.move_to_end(body_id)
                return memo
        request = json.loads(raw or b"{}")
        if not isinstance(request, dict):
            raise ValueError("request body must be a JSON object")
        options = CompileOptions.from_dict(request.get("options"))
        document = _require(request, "graph", "/compile")
        caching = (
            bool(request.get("cache", True))
            and self.service.cache is not None
        )
        key = cache_key(document, options.key_dict()) if caching else ""
        if self.farm.shard_by == "key" and key:
            shard = self.farm.shard_for(key)
        else:
            shard = self.farm.shard_for(canonical_hash(document))
        memo = _Memo(request, key, shard)
        if len(raw) <= _MEMO_MAX_BODY:
            with self._memo_lock:
                self._memo[body_id] = memo
                while len(self._memo) > _MEMO_MAX_ENTRIES:
                    self._memo.popitem(last=False)
        return memo

    def _handle_farm(self, raw: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        try:
            memo = self._parse_compile(raw)
        except (SDFError, ValueError, KeyError, TypeError) as exc:
            with self._lock:
                self._counters["errors"] += 1
            return self._err(400, f"bad request: {exc}")
        with self._lock:
            self._counters["requests"] += 1
            if self._inflight >= self.queue_limit:
                self._counters["rejected"] += 1
                return self._err(
                    429, "compile queue is full, retry later",
                    {"Retry-After": "1"},
                )
            self._inflight += 1
        try:
            return self._coalesced_dispatch(memo)
        finally:
            with self._lock:
                self._inflight -= 1

    def _coalesced_dispatch(
        self, memo: _Memo, path: str = "/compile"
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """One item through single-flight + farm dispatch.

        Shared by ``/compile`` and each ``/batch`` item: cache-enabled
        identical requests in flight anywhere on the server (single
        requests or batch items, in any mix) coalesce onto one leader
        per cache key; the rest receive the leader's bytes verbatim.
        """
        if not memo.key:
            return self._farm_dispatch(memo, path)
        with self._flight_lock:
            flight = self._flights.get(memo.key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[memo.key] = flight
        if not leader:
            ok = flight.event.wait(
                self.request_timeout or _SINGLE_FLIGHT_CAP_S
            )
            with self._lock:
                self._counters["coalesced"] += 1
            if not ok or flight.result is None:
                with self._lock:
                    self._counters["timeouts"] += 1
                return self._err(
                    504,
                    "coalesced request timed out waiting for the "
                    "in-flight identical compile",
                )
            return flight.result
        try:
            result = self._farm_dispatch(memo, path)
            flight.result = result
            return result
        finally:
            with self._flight_lock:
                self._flights.pop(memo.key, None)
            flight.event.set()

    def _farm_dispatch(
        self, memo: _Memo, path: str = "/compile"
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """Run one request on its shard; map farm failures to HTTP."""
        trace = self.trace_path is not None
        try:
            response = self.farm.compile(
                memo.shard, memo.key, memo.request,
                trace=trace, timeout=self.request_timeout,
            )
        except FarmRequestError as exc:
            with self._lock:
                self._counters["errors"] += 1
            return self._err(exc.code, str(exc))
        except FarmWorkerCrashed as exc:
            with self._lock:
                self._counters["worker_failures"] += 1
                self._counters["errors"] += 1
            return self._err(exc.code, str(exc))
        except FarmTimeout as exc:
            with self._lock:
                self._counters["timeouts"] += 1
            return self._err(exc.code, str(exc))
        self._account(response.status)
        if response.tree is not None:
            self._graft_worker_trace(memo, response.tree, path)
        return 200, response.body, {}

    def _graft_worker_trace(
        self, memo: _Memo, tree: Dict[str, Any], path: str = "/compile"
    ) -> None:
        from .. import obs

        recorder = obs.TraceRecorder()
        with recorder.span(
            "serve.request", path=path, shard=memo.shard
        ):
            recorder.merge_serialized(tree)
        with self._lock:
            self._trace_trees.append(recorder.serialize())

    # -- farm batch path ------------------------------------------------
    def _parse_batch(self, raw: bytes) -> List[Tuple[str, Any]]:
        """Parse + route one ``/batch`` body, memoized on its bytes.

        Returns one entry per item in request order: ``("item", memo)``
        for a routable document, ``("err", body_bytes)`` for a
        malformed one.  Like :meth:`_parse_compile`, a repeated
        identical batch body (the warm hot path) costs one SHA-256 and
        a dict probe instead of a JSON parse plus two canonical-JSON
        hashes *per item*.  Bodies with fault injection are never
        memoized — faults must reach the worker on every POST.
        """
        body_id = hashlib.sha256(raw).hexdigest()
        with self._memo_lock:
            entries = self._batch_memo.get(body_id)
            if entries is not None:
                self._batch_memo.move_to_end(body_id)
                return entries
        request = json.loads(raw or b"{}")
        if not isinstance(request, dict):
            raise ValueError("request body must be a JSON object")
        documents = _require(request, "graphs", "/batch")
        if not isinstance(documents, list):
            raise ValueError(
                "'graphs' must be a list of graph documents"
            )
        options = CompileOptions.from_dict(request.get("options"))
        caching = (
            bool(request.get("cache", True))
            and self.service.cache is not None
        )
        faults = request.get("faults")
        if faults is not None and (
            not isinstance(faults, list)
            or len(faults) != len(documents)
        ):
            raise ValueError(
                "'faults' must align one-to-one with 'graphs'"
            )
        entries = []
        options_dict = request.get("options") or {}
        for index, document in enumerate(documents):
            try:
                item = {
                    "graph": document,
                    "options": options_dict,
                    "cache": caching,
                }
                if faults is not None and faults[index]:
                    item["fault"] = faults[index]
                key = (
                    cache_key(document, options.key_dict())
                    if caching else ""
                )
                if self.farm.shard_by == "key" and key:
                    shard = self.farm.shard_for(key)
                else:
                    shard = self.farm.shard_for(
                        canonical_hash(document)
                    )
            except (SDFError, ValueError, KeyError, TypeError) as exc:
                entries.append(
                    ("err",
                     self._item_error(400, f"bad request: {exc}"))
                )
                continue
            entries.append(("item", _Memo(item, key, shard)))
        if faults is None and len(raw) <= _MEMO_MAX_BODY:
            with self._memo_lock:
                self._batch_memo[body_id] = entries
                while len(self._batch_memo) > _MEMO_MAX_ENTRIES:
                    self._batch_memo.popitem(last=False)
        return entries

    def _handle_batch_farm(
        self, raw: bytes
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """``/batch`` through the farm: per-item sharding + isolation.

        Each item is routed by its own graph digest; shard groups run
        on a persistent dispatch pool with the items of one shard
        processed in request order (the shard's session LRU and memory
        tier stay hot, and N identical colds in one batch compile
        exactly once — the first item compiles, the rest hit the
        memory tier or coalesce on the single-flight).  A malformed
        document, worker crash, or per-item timeout yields a
        ``{"status": "error", "code": ..., "error": ...}`` entry for
        that item only.  Success items splice the workers' rendered
        response bytes verbatim — no decode/re-encode on the hot path.
        """
        try:
            entries = self._parse_batch(raw)
        except (SDFError, ValueError, KeyError, TypeError,
                json.JSONDecodeError) as exc:
            with self._lock:
                self._counters["errors"] += 1
            return self._err(400, f"bad request: {exc}")
        with self._lock:
            self._counters["requests"] += 1
            if self._inflight >= self.queue_limit:
                self._counters["rejected"] += 1
                return self._err(
                    429, "compile queue is full, retry later",
                    {"Retry-After": "1"},
                )
            self._inflight += 1
        try:
            parts: List[Optional[bytes]] = [None] * len(entries)
            groups: Dict[int, List[Tuple[int, _Memo]]] = {}
            parse_errors = 0
            for index, (kind, value) in enumerate(entries):
                if kind == "err":
                    parts[index] = value
                    parse_errors += 1
                else:
                    groups.setdefault(value.shard, []).append(
                        (index, value)
                    )
            if parse_errors:
                with self._lock:
                    self._counters["errors"] += parse_errors

            def run_item(index: int, memo: _Memo) -> None:
                code, body, _headers = self._coalesced_dispatch(
                    memo, path="/batch"
                )
                if code == 200:
                    parts[index] = body
                else:
                    message = ""
                    try:
                        message = json.loads(body).get("error", "")
                    except (ValueError, AttributeError):
                        pass
                    parts[index] = self._item_error(code, message)

            def run_group(members: List[Tuple[int, _Memo]]) -> None:
                trace = self.trace_path is not None
                try:
                    results = self.farm.compile_many(
                        members[0][1].shard,
                        [(memo.key, memo.request)
                         for _, memo in members],
                        trace=trace, timeout=self.request_timeout,
                    )
                except (FarmWorkerCrashed, FarmTimeout, FarmError):
                    # The grouped frame failed as a unit (the worker
                    # died or hung mid-group).  Fall back to per-item
                    # dispatch so only the actually-bad item errors —
                    # fault isolation stays per item, not per shard.
                    with self._lock:
                        self._counters["worker_failures"] += 1
                    for index, memo in members:
                        run_item(index, memo)
                    return
                for (index, memo), entry in zip(members, results):
                    if entry[0] != "ok":
                        with self._lock:
                            self._counters["errors"] += 1
                        parts[index] = self._item_error(
                            entry[1], entry[2]
                        )
                        continue
                    _, status, _tier, body, tree = entry
                    self._account(status)
                    if tree is not None:
                        self._graft_worker_trace(memo, tree, "/batch")
                    parts[index] = body

            ordered = [groups[shard] for shard in sorted(groups)]
            if len(ordered) == 1:
                run_group(ordered[0])
            elif ordered:
                # First group runs inline; the rest overlap on the
                # persistent pool (per-POST Thread spawns cost more
                # than the warm dispatches they parallelize).
                futures = [
                    self._batch_pool.submit(run_group, members)
                    for members in ordered[1:]
                ]
                run_group(ordered[0])
                for future in futures:
                    future.result()
            filled = [
                part if part is not None
                else self._item_error(500, "internal error")
                for part in parts
            ]
            body = b'{"responses":[' + b",".join(filled) + b"]}"
            return 200, body, {}
        finally:
            with self._lock:
                self._inflight -= 1

    @staticmethod
    def _item_error(code: int, message: str) -> bytes:
        """One failed batch item, shaped like a response entry."""
        return json.dumps(
            {"status": "error", "code": code, "error": message}
        ).encode("utf-8")

    # -- live resizing --------------------------------------------------
    def _handle_resize(
        self, raw: bytes
    ) -> Tuple[int, bytes, Dict[str, str]]:
        try:
            request = json.loads(raw or b"{}")
            if not isinstance(request, dict):
                raise ValueError("request body must be a JSON object")
            workers = int(_require(request, "workers", "/resize"))
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            return self._err(400, f"bad request: {exc}")
        if self.farm is None:
            return self._err(
                400,
                "no farm to resize: start the server with "
                "--workers N (N > 0) to enable live resizing",
            )
        try:
            info = self.resize(workers)
        except ValueError as exc:
            return self._err(400, f"bad request: {exc}")
        payload = dict(info)
        payload.update(self.farm.describe())
        return 200, json.dumps(payload).encode("utf-8"), {}

    def resize(self, processes: int) -> Dict[str, Any]:
        """Resize the farm live; flush routing memos.  See
        :meth:`WorkerFarm.resize`."""
        if self.farm is None:
            raise ValueError("server has no farm to resize")
        info = self.farm.resize(processes)
        # Memoized bodies carry pre-resize shard numbers; flush so new
        # requests route against the new pool (in-flight stale shards
        # are re-routed by the farm itself).
        with self._memo_lock:
            self._memo.clear()
            self._batch_memo.clear()
        return info

    def handle(
        self, path: str, request: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Dispatch one parsed POST; returns (code, payload, headers).

        The thread-pool path: ``/batch`` always, and ``/compile`` when
        no farm is configured.
        """
        with self._lock:
            self._counters["requests"] += 1
            if self._inflight >= self.queue_limit:
                self._counters["rejected"] += 1
                return (
                    429,
                    {"error": "compile queue is full, retry later"},
                    {"Retry-After": "1"},
                )
            self._inflight += 1
        cancel: Optional[threading.Event] = None
        if self.request_timeout is not None and path == "/batch":
            cancel = threading.Event()
        future = self._pool.submit(self._run_job, path, request, cancel)
        try:
            return future.result(timeout=self.request_timeout)
        except FutureTimeout:
            # The job keeps running in the pool, but for /batch the
            # cancel event stops unstarted items at the next round
            # boundary, so the worker slot comes back promptly instead
            # of grinding through the abandoned batch.
            if cancel is not None:
                cancel.set()
            with self._lock:
                self._counters["timeouts"] += 1
            return (
                504,
                {"error": (
                    f"request exceeded {self.request_timeout}s; "
                    "still compiling, retry to pick up the cached result"
                )},
                {},
            )

    def _run_job(
        self, path: str, request: Dict[str, Any],
        cancel: Optional[threading.Event] = None,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        recorder = None
        if self.trace_path is not None:
            from .. import obs

            recorder = obs.TraceRecorder()
        try:
            span = (
                recorder.span("serve.request", path=path)
                if recorder is not None
                else None
            )
            if span is not None:
                with span:
                    return self._dispatch(path, request, recorder, cancel)
            return self._dispatch(path, request, recorder, cancel)
        finally:
            with self._lock:
                self._inflight -= 1
                if recorder is not None:
                    self._trace_trees.append(recorder.serialize())

    def _dispatch(
        self, path: str, request: Dict[str, Any], recorder,
        cancel: Optional[threading.Event] = None,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        try:
            if path == "/compile":
                return self._compile_one(request, recorder)
            return self._compile_batch(request, recorder, cancel)
        except (SDFError, ValueError, KeyError, TypeError) as exc:
            with self._lock:
                self._counters["errors"] += 1
            return 400, {"error": f"bad request: {exc}"}, {}
        except Exception as exc:  # pragma: no cover - defensive
            with self._lock:
                self._counters["errors"] += 1
            return 500, {"error": f"internal error: {exc!r}"}, {}

    def _compile_one(
        self, request: Dict[str, Any], recorder
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        document = _require(request, "graph", "/compile")
        options = CompileOptions.from_dict(request.get("options"))
        report, status = self.service.compile_document(
            document, options,
            use_cache=bool(request.get("cache", True)),
            recorder=recorder,
        )
        self._account(status)
        return 200, {"status": status, "report": report.to_json()}, {}

    def _compile_batch(
        self, request: Dict[str, Any], recorder,
        cancel: Optional[threading.Event] = None,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        documents = _require(request, "graphs", "/batch")
        if not isinstance(documents, list):
            raise ValueError("'graphs' must be a list of graph documents")
        options = CompileOptions.from_dict(request.get("options"))
        jobs = request.get("jobs")
        extra: Dict[str, Any] = {}
        if cancel is not None:  # stay duck-type compatible without it
            extra["cancel"] = cancel
        results = self.service.compile_batch(
            documents, options,
            use_cache=bool(request.get("cache", True)),
            jobs=int(jobs) if jobs is not None else None,
            recorder=recorder,
            **extra,
        )
        responses = []
        reclaimed = errored = 0
        for result, status in results:
            if status in ("error", "cancelled"):
                if status == "cancelled":
                    reclaimed += 1
                else:
                    errored += 1
                responses.append({
                    "status": "error",
                    "code": int(result.get("code", 500)),
                    "error": str(result.get("error", "")),
                })
                continue
            self._account(status)
            responses.append(
                {"status": status, "report": result.to_json()}
            )
        if reclaimed or errored:
            with self._lock:
                self._counters["timeout_reclaimed"] += reclaimed
                self._counters["errors"] += errored
        return 200, {"responses": responses}, {}

    def _account(self, status: str) -> None:
        with self._lock:
            if status == "hit":
                self._counters["hits"] += 1
            else:
                self._counters["compiled"] += 1
                if status == "miss":
                    self._counters["misses"] += 1

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Server counters plus cache/farm stats (the ``/stats`` payload)."""
        with self._lock:
            counters = dict(self._counters)
            counters["inflight"] = self._inflight
            window = sorted(self._latencies)
        payload: Dict[str, Any] = {
            "server": counters,
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "draining": self.draining,
            "latency_ms": {
                "count": len(window),
                "p50": round(_percentile(window, 0.50) * 1000, 3),
                "p95": round(_percentile(window, 0.95) * 1000, 3),
                "p99": round(_percentile(window, 0.99) * 1000, 3),
            },
        }
        if self.service.cache is not None:
            payload["cache"] = self.service.cache.stats()
        if self.farm is not None:
            farm = self.farm.describe()
            workers = self.farm.worker_stats()
            totals: Dict[str, int] = {}
            for row in workers:
                for name, value in row.get("counters", {}).items():
                    totals[name] = totals.get(name, 0) + value
            # Counters shipped home by workers drained on a shrink
            # keep counting after the resize.
            for name, value in self.farm.retired.get(
                "counters", {}
            ).items():
                totals[name] = totals.get(name, 0) + value
            farm["workers"] = workers
            farm["counters"] = totals
            payload["farm"] = farm
        return payload

    def _write_trace(self) -> None:
        if self.trace_path is None:
            return
        from .. import obs

        merged = obs.TraceRecorder()
        with self._lock:
            trees = list(self._trace_trees)
        for tree in trees:
            merged.merge_serialized(tree)
        obs.write_trace(merged, self.trace_path, fmt=self.trace_format)
