"""JSON-over-HTTP front end for the compilation service (stdlib only).

``repro serve`` wraps a :class:`~repro.serve.service.CompileService`
in a :class:`http.server.ThreadingHTTPServer`.  The design goals, in
order: never corrupt a result, shed load explicitly, bound every wait
on a client, drain cleanly.

**One request path.**  ``/compile`` and ``/batch`` take the same route
whatever the server's size.  A body is parsed and routed once and
memoized on its bytes as ``(cache key, shard)``; identical in-flight
``/compile`` requests coalesce; each item goes to a *shard* through
one dispatch call, ``compile_many`` (a ``/compile`` is a group of
one), routed by ``shard_for``.  With
``processes > 0`` the shards are the worker processes of a
:class:`~repro.serve.farm.WorkerFarm`; otherwise the one shard is a
:class:`~repro.serve.farm.LocalShard`, the same worker core run
in-process on ``workers`` threads.  Errors, counters, timeouts, traces
and ``/stats`` therefore behave the same in both modes.

* **Sharding** — the farm routes by graph content digest (rendezvous
  hashing) so each worker's session LRU and memory tier stay hot; the
  connection thread talks straight to its shard's pipe.
* **Body memo** — a repeated identical body costs one SHA-256 and a
  dict probe: no JSON parse, no options validation, no canonical-JSON
  hashing.  The memo keeps routing only; when no cache tier can answer
  by key, the document is parsed again from the raw body.
* **Batch** — every ``/batch`` item is routed by its own digest; shard
  groups run concurrently (items within a group in order), and item
  failures are isolated: one malformed document or one worker crash
  costs that *item* an error entry, never the whole batch.  Responses
  come back in request order, success items spliced verbatim from the
  shards' rendered bytes.
* **Live resizing** — ``POST /resize`` ``{"workers": N}`` grows or
  shrinks the farm without a restart; the body memos are flushed so
  routing follows the new pool immediately.
* **Single-flight** — concurrent identical cache-enabled ``/compile``
  requests coalesce: the first becomes the leader and compiles; the
  rest wait and receive the leader's bytes verbatim (counted under
  ``coalesced``, not as extra hits/misses).  A ``/batch`` group goes
  to its shard directly and reaches single-flight only in the
  per-item fallback after its grouped frame failed; N identical items
  within one group still compile once, because the shard re-probes
  the disk tier before each compile.
* **Bounded queue / backpressure** — at most ``queue_limit`` requests
  may be queued or running; one more gets an immediate ``429`` with a
  ``Retry-After`` header instead of unbounded buffering.
* **Bounded body read** — the body must arrive within
  :data:`BODY_READ_TIMEOUT_S` of the end of the headers, or the client
  gets a ``408`` and the connection closes; a body cut short by EOF
  gets a ``400`` and is never dispatched.  The keep-alive wait between
  requests is not bounded by it.
* **Per-request timeout** — a request that outlives
  ``request_timeout`` seconds gets ``504`` (a timed-out ``/batch``
  group answers each of its items with a ``504`` and stops at the next
  item boundary).  A farm worker past its deadline is killed and
  respawned; an in-process compile finishes in the background and
  fills the cache for a retry.
* **Supervision** — a farm worker that crashes mid-request fails that
  request with a one-line ``503`` (never a hang) and is respawned.
* **Graceful drain** — :meth:`CompileServer.drain` (wired to SIGTERM
  by the CLI) stops accepting new work (``503`` while draining),
  waits for in-flight requests, stops the shards, writes the
  accumulated trace, and returns; ``repro serve`` then exits 0.
* **Observability** — with ``trace_path`` set, every POST records one
  ``serve.request`` span covering the whole request, with each item's
  shard-side subtree grafted under it, so one merged Chrome-trace file
  covers the whole pool.  ``/stats`` reports latency percentiles
  (p50/p95/p99 over a sliding window) alongside the cache figures and
  the shards' per-tier counter totals (``shard_counters``) in both
  modes and, with a farm, per-worker rows.

Endpoints
---------
``GET /healthz``
    ``{"status": "ok" | "draining"}`` (200 / 503); with a farm, also
    a ``farm`` object (size, alive, restarts).
``GET /stats``
    Server counters, latency percentiles, cache stats, shard counter
    totals, farm stats.
``POST /compile``
    ``{"graph": <to_json document>, "options": {...}, "cache": true}``
    → ``{"status": "hit"|"miss"|"disabled", "report": {...}}``.
``POST /batch``
    ``{"graphs": [<document>, ...], "options": {...}, "cache": true}``
    → ``{"responses": [{"status": ..., "report": ...}, ...]}`` in
    request order.  A failed item is ``{"status": "error", "code":
    <http-equivalent>, "error": "..."}`` with the other items intact.
``POST /resize``
    ``{"workers": N}`` → the post-resize farm description (400 when
    no farm is configured).

Error responses are one-line ``{"error": "..."}`` with status 400
(malformed request or truncated body), 404 (unknown path), 408 (body
not received in time), 413 (body too large), 429 (queue full), 503
(draining or worker crash), 504 (timeout), or 500 (unexpected failure).
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from ..sdf.io import canonical_hash
from ..artifacts import cache_key
from .farm import (
    FarmError,
    FarmTimeout,
    FarmWorkerCrashed,
    LocalShard,
    WorkerFarm,
    http_error,
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

#: Seconds a client has, from the end of its headers, to send the whole
#: declared body; past it the request gets a 408 and the connection
#: closes, so a stalled sender cannot pin a handler thread.
BODY_READ_TIMEOUT_S = 10.0


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
        try:
            self.wfile.write(b"".join(parts))
        except OSError:  # the client hung up first: nothing to tell it
            self.close_connection = True
            return
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
        raw = self._read_body(int(digits))
        if raw is not None:
            self._reply_bytes(*owner.handle_raw(self.path, raw))

    def _read_body(self, length: int) -> Optional[bytes]:
        """The declared body, or ``None`` once a 408/400 has been sent.

        :data:`BODY_READ_TIMEOUT_S` bounds the whole body, starting
        when the headers end; the keep-alive wait before the next
        request is left unbounded.  A stall past the deadline gets a
        counted 408, a body cut short by EOF a counted 400; either way
        the connection closes and nothing is dispatched.
        """
        sock = self.connection
        deadline = time.monotonic() + BODY_READ_TIMEOUT_S
        chunks: List[bytes] = []
        remaining = length
        refusal: Optional[Tuple[str, int]] = None
        try:
            while remaining:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError
                sock.settimeout(left)
                chunk = self.rfile.read1(remaining)
                if not chunk:
                    refusal = (
                        f"request body ended after {length - remaining} "
                        f"of {length} declared bytes", 400,
                    )
                    break
                chunks.append(chunk)
                remaining -= len(chunk)
        except TimeoutError:
            refusal = (
                f"request body not received within "
                f"{BODY_READ_TIMEOUT_S}s of the headers", 408,
            )
        finally:
            sock.settimeout(self.timeout)
        if refusal is None:
            return b"".join(chunks)
        self.close_connection = True
        self._reply_bytes(*self._owner.bad_request(*refusal))
        return None


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    owner: "CompileServer"


class _Memo:
    """Routing of one distinct body (or batch item): key and shard.

    Holds no document: a memo of parsed bodies would keep every
    never-seen miss's graph alive.  Whoever needs the document parses
    it again from the raw body.
    """

    __slots__ = ("key", "shard")

    def __init__(self, key: str, shard: int) -> None:
        self.key = key
        self.shard = shard


class _Flight:
    """Single-flight rendezvous: leader publishes, followers wait."""

    __slots__ = ("event", "result")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[Tuple[int, bytes, Dict[str, str]]] = None


class _BatchBody:
    """One ``/batch`` body, parsed at most once and only on demand."""

    def __init__(self, raw: bytes, request: Optional[Dict[str, Any]]) -> None:
        self.raw = raw
        self.request = request

    def item(self, index: int) -> Dict[str, Any]:
        """Item ``index`` as a stand-alone ``/compile`` request."""
        if self.request is None:
            self.request = _load_object(self.raw)
        request = self.request
        item = {
            "graph": request["graphs"][index],
            "options": request.get("options") or {},
        }
        faults = request.get("faults")
        if faults is not None and faults[index]:
            item["fault"] = faults[index]
        return item


def _load_object(raw: bytes) -> Dict[str, Any]:
    request = json.loads(raw or b"{}")
    if not isinstance(request, dict):
        raise ValueError("request body must be a JSON object")
    return request


def _cache_flag(request: Dict[str, Any]) -> bool:
    """The request's ``cache`` field: a JSON boolean, ``true`` if absent."""
    cache = request.get("cache", True)
    if not isinstance(cache, bool):
        raise ValueError(f"cache must be a JSON boolean, got {cache!r}")
    return cache


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
        The :class:`CompileService` the in-process shard compiles with
        (farm workers build their own service instances over the same
        cache directory).
    host / port:
        Bind address; ``port=0`` picks a free ephemeral port
        (``.port`` reports the bound one).
    workers:
        Compile *threads* of the in-process shard (``processes == 0``).
    processes:
        Farm size: worker *processes* serving ``/compile`` and
        ``/batch``, sharded by content digest.  0 (default) compiles
        in-process.
    allow_faults:
        Honor test-only ``"fault"`` request fields (never set by the
        CLI); in-process only ``"sleep:N"`` applies.
    queue_limit:
        Maximum queued-plus-running requests before ``429``.
    request_timeout:
        Seconds a request may take before ``504`` (``None``: no limit).
    trace_path / trace_format:
        When set, per-request span trees (including shard-side
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
        }
        self._latencies: "deque[float]" = deque(maxlen=2048)
        self._trace_trees: List[Dict[str, Any]] = []
        #: Routing by body SHA-256, for /compile and /batch bodies.
        self._memo: "OrderedDict[str, _Memo]" = OrderedDict()
        self._batch_memo: "OrderedDict[str, List[Tuple[str, Any]]]" = (
            OrderedDict()
        )
        self._memo_lock = threading.Lock()
        self._flights: Dict[str, _Flight] = {}
        self._flight_lock = threading.Lock()
        self.farm: Optional[WorkerFarm] = None
        self._batch_pool: Optional[ThreadPoolExecutor] = None
        if processes > 0:
            cache_root = (
                self.service.cache.root
                if self.service.cache is not None else None
            )
            self.farm = WorkerFarm(
                size=processes,
                cache_root=cache_root,
                max_sessions=self.service.max_sessions,
                allow_faults=allow_faults,
            ).start()
            #: Overlaps a /batch's shard groups.  A persistent pool:
            #: spawning one Thread per group per POST costs more than
            #: the warm dispatch it parallelizes.  Groups never
            #: re-submit, so a bounded pool cannot deadlock.
            self._batch_pool = ThreadPoolExecutor(
                max_workers=8, thread_name_prefix="repro-batch"
            )
            self.shards = self.farm
        else:
            self.shards = LocalShard(
                self.service, self.workers, allow_faults=allow_faults
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
        ``timeout`` seconds of waiting).  The shards are stopped after
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
        if self._batch_pool is not None:
            self._batch_pool.shutdown(wait=True)
        self.shards.stop()
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

        ``/compile`` and ``/batch`` go through the one dispatch path
        (memoized routing, shard dispatch; single-flight for
        ``/compile``) whatever the shards are; ``/resize`` reconfigures
        the farm.  With tracing on, the whole request is one
        ``serve.request`` span.
        """
        if self.draining:
            return self._err(503, "server is draining")
        start = time.perf_counter()
        recorder = None
        try:
            if path == "/resize":
                return self._handle_resize(raw)
            handle = (
                self._handle_compile if path == "/compile"
                else self._handle_batch
            )
            if self.trace_path is None:
                return handle(raw, None)
            from .. import obs

            recorder = obs.TraceRecorder()
            with recorder.span("serve.request", path=path):
                return handle(raw, recorder)
        finally:
            self._latencies.append(time.perf_counter() - start)
            if recorder is not None:
                with self._lock:
                    self._trace_trees.append(recorder.serialize())

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
        """A counted error reply for a request refused before dispatch."""
        with self._lock:
            self._counters["errors"] += 1
        return self._err(code, message)

    def _bad_body(self, exc: Exception) -> Tuple[int, bytes, Dict[str, str]]:
        code, message = http_error(exc)
        return self.bad_request(message, code)

    def _admitted(self, run) -> Tuple[int, bytes, Dict[str, str]]:
        """``run()`` inside the bounded queue, or a 429 when it is full."""
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
            return run()
        finally:
            with self._lock:
                self._inflight -= 1

    def _route(self, document: Any) -> int:
        shards = self.shards
        if shards.size == 1:
            return 0
        return shards.shard_for(canonical_hash(document))

    def _memoized(self, table: "OrderedDict[str, Any]", raw: bytes, parse):
        """``parse(request)`` for one body, memoized on its bytes.

        A repeated identical body (the warm hot path) costs one
        SHA-256 and a dict probe instead of a JSON parse, an options
        validation, and canonical-JSON hashes.  Returns the routing
        and, when this call parsed the body, the parsed request.
        """
        body_id = hashlib.sha256(raw).hexdigest()
        with self._memo_lock:
            routing = table.get(body_id)
            if routing is not None:
                table.move_to_end(body_id)
                return routing, None
        request = _load_object(raw)
        routing = parse(request)
        if len(raw) <= _MEMO_MAX_BODY:
            with self._memo_lock:
                table[body_id] = routing
                while len(table) > _MEMO_MAX_ENTRIES:
                    table.popitem(last=False)
        return routing, request

    def _parse_compile(self, request: Dict[str, Any]) -> _Memo:
        """Route one ``/compile`` request."""
        options = CompileOptions.from_dict(request.get("options"))
        document = _require(request, "graph", "/compile")
        caching = _cache_flag(request) and self.service.cache is not None
        key = cache_key(document, options.key_dict()) if caching else ""
        return _Memo(key, self._route(document))

    def _handle_compile(
        self, raw: bytes, recorder
    ) -> Tuple[int, bytes, Dict[str, str]]:
        try:
            memo, request = self._memoized(
                self._memo, raw, self._parse_compile
            )
        except Exception as exc:
            return self._bad_body(exc)
        if request is None:
            fetch = functools.partial(_load_object, raw)
        else:
            def fetch() -> Dict[str, Any]:
                return request

        def run() -> Tuple[int, bytes, Dict[str, str]]:
            reply, tree = self._coalesced_dispatch(
                memo, fetch, recorder is not None
            )
            if tree is not None:
                recorder.merge_serialized(tree)
            return reply

        return self._admitted(run)

    def _coalesced_dispatch(self, memo: _Memo, fetch, trace: bool):
        """One item through single-flight + shard dispatch.

        Serves ``/compile`` and the per-item fallback of a ``/batch``
        group whose grouped frame failed (a batch group dispatched as a
        group never passes through here): cache-enabled identical items
        in flight through it coalesce onto one leader per cache key;
        the rest receive the leader's bytes verbatim.  Returns the
        reply and the shard's span tree (the leader's only).
        """
        if not memo.key:
            return self._shard_dispatch(memo, fetch, trace)
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
                ), None
            return flight.result, None
        try:
            result, tree = self._shard_dispatch(memo, fetch, trace)
            flight.result = result
            return result, tree
        finally:
            with self._flight_lock:
                self._flights.pop(memo.key, None)
            flight.event.set()

    def _shard_dispatch(self, memo: _Memo, fetch, trace: bool):
        """Run one item on its shard as a group of one; map shard
        failures and item errors to counted one-line HTTP errors."""
        try:
            entry = self.shards.compile_many(
                memo.shard, [(memo.key, fetch)],
                trace=trace, timeout=self.request_timeout,
            )[0]
        except FarmError as exc:
            return self._err(exc.code, self._count_failure(exc)), None
        if entry[0] != "ok":
            with self._lock:
                self._counters["errors"] += 1
            return self._err(entry[1], entry[2]), None
        _, status, _tier, body, tree = entry
        self._account(status)
        return (200, body, {}), tree

    def _count_failure(self, exc: FarmError) -> str:
        """Count one failed dispatch by kind; returns its message."""
        with self._lock:
            if isinstance(exc, FarmTimeout):
                self._counters["timeouts"] += 1
            else:
                self._counters["errors"] += 1
                if isinstance(exc, FarmWorkerCrashed):
                    self._counters["worker_failures"] += 1
        return str(exc)

    # -- batch ----------------------------------------------------------
    def _parse_batch(self, request: Dict[str, Any]) -> List[Tuple[str, Any]]:
        """Route one ``/batch`` request: one entry per item in request
        order, ``("item", memo)`` for a routable document and ``("err",
        body_bytes)`` for a malformed one."""
        documents = _require(request, "graphs", "/batch")
        if not isinstance(documents, list):
            raise ValueError(
                "'graphs' must be a list of graph documents"
            )
        options = CompileOptions.from_dict(request.get("options"))
        caching = _cache_flag(request) and self.service.cache is not None
        faults = request.get("faults")
        if faults is not None and (
            not isinstance(faults, list)
            or len(faults) != len(documents)
        ):
            raise ValueError(
                "'faults' must align one-to-one with 'graphs'"
            )
        entries = []
        for document in documents:
            try:
                key = (
                    cache_key(document, options.key_dict())
                    if caching else ""
                )
                shard = self._route(document)
            except Exception as exc:
                entries.append(("err", self._item_error(*http_error(exc))))
                continue
            entries.append(("item", _Memo(key, shard)))
        return entries

    def _handle_batch(
        self, raw: bytes, recorder
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """``/batch``: per-item routing, shard groups, per-item isolation.

        Each item is routed by its own graph digest; shard groups run
        concurrently (on the farm's dispatch pool) with the items of
        one group processed in request order, so a shard's caches stay
        hot and N identical colds in one batch compile exactly once.
        A malformed document, worker crash, or timeout yields a
        ``{"status": "error", "code": ..., "error": ...}`` entry for
        the affected items only.  Success items splice the shards'
        rendered response bytes verbatim.
        """
        try:
            entries, request = self._memoized(
                self._batch_memo, raw, self._parse_batch
            )
        except Exception as exc:
            return self._bad_body(exc)
        return self._admitted(functools.partial(
            self._run_batch, entries, _BatchBody(raw, request), recorder,
        ))

    def _run_batch(
        self, entries: List[Tuple[str, Any]], body: _BatchBody, recorder
    ) -> Tuple[int, bytes, Dict[str, str]]:
        trace = recorder is not None
        parts: List[Optional[bytes]] = [None] * len(entries)
        trees: List[Optional[Dict[str, Any]]] = [None] * len(entries)
        groups: Dict[int, List[Tuple[int, _Memo]]] = {}
        parse_errors = 0
        for index, (kind, value) in enumerate(entries):
            if kind == "err":
                parts[index] = value
                parse_errors += 1
            else:
                groups.setdefault(value.shard, []).append((index, value))
        if parse_errors:
            with self._lock:
                self._counters["errors"] += parse_errors

        def run_item(index: int, memo: _Memo) -> None:
            (code, data, _headers), trees[index] = self._coalesced_dispatch(
                memo, functools.partial(body.item, index), trace
            )
            parts[index] = (
                data if code == 200
                else self._item_error(code, json.loads(data)["error"])
            )

        def run_group(members: List[Tuple[int, _Memo]]) -> None:
            try:
                results = self.shards.compile_many(
                    members[0][1].shard,
                    [(memo.key, functools.partial(body.item, index))
                     for index, memo in members],
                    trace=trace, timeout=self.request_timeout,
                )
            except FarmTimeout as exc:
                # The group stopped at an item boundary (a farm worker
                # is killed and respawned): no item of it has a result.
                for index, _ in members:
                    parts[index] = self._item_error(
                        exc.code, self._count_failure(exc)
                    )
                return
            except FarmError:
                # The grouped frame failed as a unit (the worker died
                # mid-group).  Fall back to per-item dispatch so only
                # the actually-bad item errors.
                with self._lock:
                    self._counters["worker_failures"] += 1
                for index, memo in members:
                    run_item(index, memo)
                return
            for (index, memo), entry in zip(members, results):
                if entry[0] != "ok":
                    with self._lock:
                        self._counters["errors"] += 1
                    parts[index] = self._item_error(entry[1], entry[2])
                    continue
                _, status, _tier, parts[index], trees[index] = entry
                self._account(status)

        ordered = [groups[shard] for shard in sorted(groups)]
        # The first group runs inline; the rest overlap on the farm's
        # persistent dispatch pool (a local shard has only one group).
        futures = [
            self._batch_pool.submit(run_group, members)
            for members in ordered[1:]
        ]
        if ordered:
            run_group(ordered[0])
        for future in futures:
            future.result()
        if recorder is not None:
            for tree in trees:
                if tree is not None:
                    recorder.merge_serialized(tree)
        filled = [
            part if part is not None
            else self._item_error(500, "internal error")
            for part in parts
        ]
        return 200, b'{"responses":[' + b",".join(filled) + b"]}", {}

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
            workers = _require(_load_object(raw), "workers", "/resize")
            # bool is a subclass of int: a worker count must refuse it.
            if not isinstance(workers, int) or isinstance(workers, bool):
                raise ValueError(
                    f"workers must be a JSON integer, got {workers!r}"
                )
        except ValueError as exc:
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
        if self.farm is None:
            payload["shard_counters"] = self.shards.core.counter_totals()
            return payload
        farm = self.farm.describe()
        farm["workers"] = self.farm.worker_stats()
        # Counters shipped home by workers drained on a shrink keep
        # counting after the resize.
        totals = dict(self.farm.retired["counters"])
        for row in farm["workers"]:
            for name, value in row.get("counters", {}).items():
                totals[name] = totals.get(name, 0) + value
        payload["shard_counters"] = totals
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
