"""``serve``: ``repro serve`` defaults, one client on one kept-alive connection.

The server is a child process (in-process compiles, ``--workers 0``)
with a fresh ``--cache-dir`` per server, so misses stay misses.  A
pass is ``len(MISS_SIZES)`` cycles of 4 ``/compile`` hits on the warm
working set, 1 ``/batch`` of 8 warm documents and 1 ``/compile`` of a
graph the server has never seen.  Request bodies are encoded before a
pass starts; responses are checked after it ends.

``p50_ms``/``p90_ms`` are the hit class; batch and miss percentiles are
printed and kept in the run record.  ``cpu_ms_per_op`` and
``peak_rss_mb`` are the server process's (``/proc/<pid>``).

The client and the server share one CPU (see :func:`pin_one_cpu`).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from common import (
    LOOP,
    Context,
    Meter,
    Result,
    class_latency,
    layer_times,
    mean_ms,
    median_setup,
    timed_passes,
    write_spans,
)
from corpus import MISS_SIZES, SYSTEMS, miss_graph, serve_plan, system_graph

#: /stats server counters reported per pass by the traced run.
STATS_COUNTERS = ("requests", "hits", "misses", "compiled", "errors",
                  "rejected", "timeouts")

#: Request order within one cycle.
CYCLE = ("hit", "hit", "batch", "hit", "hit", "miss")


class Server:
    """A ``repro serve`` child plus one kept-alive client connection."""

    _serial = 0

    def __init__(self, ctx: Context, trace_path: Optional[str] = None):
        Server._serial += 1
        cache = ctx.scratch_dir(f"serve-cache-{Server._serial}")
        argv = [ctx.python, "-m", "repro", "serve", "--port", "0",
                "--cache-dir", cache, "--quiet"]
        if trace_path is not None:
            argv += ["--trace", trace_path, "--trace-format", "jsonl"]
        self.log = open(ctx.path(f"serve-{Server._serial}.log"), "wb")
        self.proc = subprocess.Popen(argv, env=ctx.env, cwd=ctx.root,
                                     stdout=subprocess.PIPE, stderr=self.log)
        self.conn: Optional[http.client.HTTPConnection] = None
        try:
            line = self.proc.stdout.readline().decode()
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"repro serve did not start: {line!r}")
            port = int(line.split()[2].rsplit(":", 1)[1])
            self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                                   timeout=60)
            self.conn.connect()
            self.conn.sock.setsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY, 1)
        except BaseException:
            self.close()
            raise

    def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        self.conn.request("POST", path, body=body,
                          headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def get(self, path: str) -> Dict:
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        data = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"GET {path} -> {resp.status}")
        return json.loads(data)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        """SIGTERM (graceful drain) and wait for the process to end."""
        if self.conn is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def pin_one_cpu() -> int:
    """Confine the benchmark, and every server it starts, to one CPU.

    With one client in a closed loop only one of client and server is
    ever busy, so one CPU loses no work.  On two CPUs every request
    woke the other side on whichever CPU the scheduler picked, often an
    idle one, and the wake-up's cost varied from run to run: hit p90
    spread over 1.6-3.2 ms in runs of the same code, against 1.1-1.4 ms
    on one CPU.  It also puts the server's work on the CPU where the
    speed reference (``LOOP``) is timed.  Children inherit the
    affinity.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _canonical(report_json: Dict) -> str:
    from repro.serve import CompilationReport

    return CompilationReport.from_json(report_json).canonical()


class Warm:
    """The warm working set: documents, bodies and first-compile reports."""

    def __init__(self) -> None:
        from repro.sdf.io import to_json

        self.docs = {name: to_json(system_graph(name)) for name in SYSTEMS}
        self.bodies = {name: json.dumps({"graph": doc}).encode()
                       for name, doc in self.docs.items()}
        self.expected: Dict[str, str] = {}

    def warm_up(self, server: Server) -> None:
        """Compile every warm document once (the server's misses)."""
        server.get("/healthz")
        for name in SYSTEMS:
            code, data = server.post("/compile", self.bodies[name])
            payload = json.loads(data)
            if code != 200 or payload.get("status") != "miss":
                raise RuntimeError(f"warm-up compile of {name} failed")
            canonical = _canonical(payload["report"])
            if self.expected.setdefault(name, canonical) != canonical:
                raise RuntimeError(f"warm-up report of {name} changed")


def start_warm(ctx: Context, warm: Warm,
               trace_path: Optional[str] = None) -> Tuple[Server, float]:
    """A started, warmed server and its set-up seconds."""
    t0 = time.perf_counter()
    server = Server(ctx, trace_path)
    try:
        warm.warm_up(server)
    except BaseException:
        server.close()
        raise
    return server, time.perf_counter() - t0


class Session:
    """One server's timed passes and their checks."""

    def __init__(self, ctx: Context, warm: Warm, server: Server,
                 res: Result, meter: Meter, recorder=None) -> None:
        from repro.serve import ArtifactCache, CompileService

        self.ctx, self.warm, self.server, self.res = ctx, warm, server, res
        self.plan = serve_plan(ctx.seed)
        self.batch_bodies = [
            json.dumps({"graphs": [warm.docs[n] for n in names]}).encode()
            for names in self.plan["batches"]]
        self.meter = meter
        self.recorder = recorder
        #: This pass's never-seen documents and their request bodies.
        self.misses: List[Tuple[Dict, bytes]] = []
        self.responses: List[Tuple[str, object, int, bytes]] = []
        self.stats_before: Dict[str, int] = {}
        self.pass_stats: Dict[str, int] = {}
        # The in-process replay mirrors `repro serve`'s service: a disk
        # cache and no memory tier.
        self.replay = CompileService(
            cache=ArtifactCache(ctx.scratch_dir("replay-cache")))

    def prepare(self, index: int) -> None:
        from repro.sdf.io import to_json

        self.misses = []
        for k in range(len(MISS_SIZES)):
            doc = to_json(miss_graph(self.ctx.seed,
                                     index * len(MISS_SIZES) + k))
            self.misses.append((doc, json.dumps({"graph": doc}).encode()))
        if index == 0:
            self.stats_before = self.server.get("/stats")["server"]

    def one_pass(self, index: int) -> None:
        rec = self.recorder
        post = self.server.post
        cpu = self.server.cpu_s
        clock = time.perf_counter
        responses = self.responses
        for c, hits in enumerate(self.plan["hits"]):
            hit_iter = iter(hits)
            for kind in CYCLE:
                if kind == "hit":
                    name = next(hit_iter)
                    path, body, what = "/compile", self.warm.bodies[name], name
                elif kind == "batch":
                    path, body, what = "/batch", self.batch_bodies[c], c
                else:
                    path, body, what = "/compile", self.misses[c][1], c
                span = (nullcontext() if rec is None else
                        rec.span(f"client.{kind}", op=f"{index}.{c}.{kind}"))
                with span:
                    c0 = cpu()
                    t0 = clock()
                    code, data = post(path, body)
                    dt = clock() - t0
                    c1 = cpu()
                self.meter.add(dt, c1 - c0, kind)
                responses.append((kind, what, code, data))

    def check(self, index: int) -> None:
        if index == 0:
            self._check_stats()
        for kind, what, code, data in self.responses:
            self.res.attempted += 1
            try:
                ok = code == 200 and self._check_one(kind, what,
                                                     json.loads(data))
            except (ValueError, KeyError, TypeError) as exc:
                ok = False
                what = f"{what}: {exc!r}"
            if not ok:
                self.res.fail(f"serve {kind} {what}: HTTP {code}")
        self.responses = []

    def _check_stats(self) -> None:
        """``/stats`` over the first pass must show exactly the plan."""
        after = self.server.get("/stats")["server"]
        self.pass_stats = {k: after[k] - self.stats_before.get(k, 0)
                           for k in STATS_COUNTERS}
        cycles = len(self.plan["hits"])
        planned = {"requests": len(CYCLE), "hits": 4 + 8, "misses": 1,
                   "compiled": 1, "errors": 0, "rejected": 0, "timeouts": 0}
        for name, per_cycle in planned.items():
            self.res.attempted += 1
            if self.pass_stats[name] != per_cycle * cycles:
                self.res.fail(f"/stats {name} {self.pass_stats[name]} != "
                              f"planned {per_cycle * cycles}")

    def _check_one(self, kind: str, what, payload: Dict) -> bool:
        if kind == "hit":
            return (payload["status"] == "hit" and _canonical(
                payload["report"]) == self.warm.expected[what])
        if kind == "batch":
            names = self.plan["batches"][what]
            items = payload["responses"]
            return len(items) == len(names) and all(
                item["status"] == "hit"
                and _canonical(item["report"]) == self.warm.expected[name]
                for item, name in zip(items, names))
        doc, body = self.misses[what]
        return (payload["status"] == "miss"
                and _canonical(payload["report"]) == self._replay_miss(
                    doc, body))

    def _replay_miss(self, doc: Dict, body: bytes) -> str:
        """In-process miss path on the same document; canonical report."""
        from repro.scheduling.pipeline import implement
        from repro.sdf.io import from_json
        from repro.serve import CompilationReport, CompileOptions, cache_key

        rec = self.recorder
        span = rec.span if rec is not None else lambda _name: nullcontext()
        options = CompileOptions()
        with span("serve.miss_replay"):
            with span("serve.parse"):
                request = json.loads(body)
            with span("serve.cache_key"):
                key = cache_key(request["graph"], options.key_dict())
            with span("sdf.from_json"):
                graph = from_json(doc)
            with span("serve.compile"):
                result = implement(graph, options.method, seed=options.seed)
                report = CompilationReport.from_result(
                    result, graph.name, key=key, seed=options.seed)
            with span("serve.disk_write"):
                self.replay.cache.put(key, report)
            with span("serve.report_encode"):
                json.dumps({"status": "miss", "report": report.to_json()})
        return report.canonical()

    def replay_warm(self) -> None:
        """In-process hit and batch paths, mirroring the server's."""
        from repro.serve import CompileOptions, cache_key

        rec = self.recorder
        options = CompileOptions()
        for name in SYSTEMS:  # fill the replay cache (untimed)
            key = cache_key(self.warm.docs[name], options.key_dict())
            if self.replay.lookup(key) is None:
                self.replay.compile_document(self.warm.docs[name], options)
        for c, hits in enumerate(self.plan["hits"]):
            for name in hits:
                with rec.span("serve.hit_replay"):
                    with rec.span("serve.parse"):
                        request = json.loads(self.warm.bodies[name])
                    with rec.span("serve.cache_key"):
                        key = cache_key(request["graph"], options.key_dict())
                    with rec.span("serve.memory_tier"):
                        report, _tier = self.replay.lookup(key, recorder=rec)
                    with rec.span("serve.report_encode"):
                        json.dumps({"status": "hit",
                                    "report": report.to_json()})
            with rec.span("serve.batch"):
                docs = [self.warm.docs[n] for n in self.plan["batches"][c]]
                self.replay.compile_batch(docs, options)


def _measure(ctx: Context, warm: Warm, server: Server, res: Result,
             seconds: float, recorder=None):
    meter = Meter(LOOP)
    session = Session(ctx, warm, server, res, meter, recorder)
    timed_passes(seconds, meter, session.one_pass, session.prepare,
                 session.check)
    return session, meter


def run(ctx: Context) -> Result:
    res = Result()
    res.record["cpu"] = pin_one_cpu()
    warm = Warm()
    if not ctx.trace:
        servers: List[Server] = []

        def one_setup() -> float:
            server, seconds = start_warm(ctx, warm)
            servers.append(server)
            while len(servers) > 1:
                servers.pop(0).close()
            return seconds

        try:
            setup, setups = median_setup(ctx, one_setup)
            server = servers[-1]
            _session, meter = _measure(ctx, warm, server, res, ctx.seconds)
            res.put("setup_s", setup, "s")
            _report(res, meter, server.hwm_mb())
            res.record["setup_samples_s"] = setups
        finally:
            for server in servers:
                server.close()
        return res
    return _run_traced(ctx, warm, res)


def _report(res: Result, meter: Meter, hwm_mb: float) -> None:
    res.lines.append(meter.speed_line())
    classes = {}
    for kind, label in (("hit", "/compile hit"), ("batch", "/batch of 8"),
                        ("miss", "/compile miss")):
        prefix = "" if kind == "hit" else f"{kind}_"
        classes.update(class_latency(res, prefix, meter.scaled(kind), label))
    res.put("p50_ms", classes["p50_ms"], "ms")
    res.put("p90_ms", classes["p90_ms"], "ms")
    res.put("ops_per_s", meter.ops_per_s, "1/s")
    res.put("cpu_ms_per_op", 1e3 * meter.cpu_s / meter.ops, "ms")
    res.put("peak_rss_mb", hwm_mb, "MB")
    res.record["classes"] = classes


def _run_traced(ctx: Context, warm: Warm, res: Result) -> Result:
    from repro import obs

    half = ctx.seconds / 2.0
    server, _ = start_warm(ctx, warm)
    try:
        _plain, plain = _measure(ctx, warm, server, res, half)
    finally:
        server.close()
    trace_path = ctx.path("serve-server-trace.jsonl")
    rec = obs.TraceRecorder()
    server, _ = start_warm(ctx, warm, trace_path)
    try:
        session, traced = _measure(ctx, warm, server, res, half, rec)
        session.replay_warm()
    finally:
        server.close()

    spans = layer_times(rec.roots)
    scale = traced.median_factor
    for name in ("sdf.from_json", "serve.parse", "serve.cache_key",
                 "serve.memory_tier", "serve.disk_write", "serve.compile",
                 "serve.batch", "serve.report_encode"):
        res.put(name + "_ms", scale * mean_ms(spans.get(name, [])), "ms")
    res.put("serve.disk_read_ms",
            scale * mean_ms(spans.get("cache.lookup", [])), "ms")
    hit_path = _durations(rec.roots, "serve.hit_replay")
    res.put("serve.transport_ms",
            1e3 * (statistics.median(plain.scaled("hit"))
                   - scale * statistics.median(hit_path)), "ms")
    by_path = _server_request_ms(trace_path)
    res.put("serve.request_compile_ms", by_path.get("/compile", 0.0), "ms")
    res.put("serve.request_batch_ms", by_path.get("/batch", 0.0), "ms")
    stats = session.pass_stats
    for name in STATS_COUNTERS:
        res.put(f"server.{name}", stats[name], "count")
    res.put("serve.hit_ratio",
            stats["hits"] / (stats["hits"] + stats["misses"]), "ratio")
    res.put("obs.overhead_ratio", traced.ops_per_s / plain.ops_per_s,
            "ratio")
    res.record["spans"] = write_spans(
        rec, ctx.path(f"spans-serve-{ctx.seed}.jsonl"))
    res.lines.append(
        f"  traced {traced.ops} requests, untraced {plain.ops}; "
        f"/stats per pass {stats}")
    return res


def _durations(roots, name: str) -> List[float]:
    out, stack = [], list(roots)
    while stack:
        span = stack.pop()
        if span.name == name:
            out.append(span.duration)
        stack.extend(span.children)
    return out


def _server_request_ms(path: str) -> Dict[str, float]:
    """Mean ``serve.request`` span duration (ms) per request path."""
    sums: Dict[str, List[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if row.get("type") == "span" and row["name"] == "serve.request":
                sums.setdefault(row["attrs"]["path"], []).append(row["dur"])
    return {p: mean_ms(v) for p, v in sums.items()}
