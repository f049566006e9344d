"""Compile-farm benchmark: closed-loop load against the worker pool.

Writes the ``BENCH_PR6.json`` perf trajectory file (and, with the
batch sweep, ``BENCH_PR9.json``).  Four suites:

* **baseline (PR5-style)** — sequential warm ``/compile`` requests via
  :func:`compile_remote` (one TCP connection per request, no farm),
  exactly how ``bench_serve.py`` measured the PR5 figure of
  1116.8 req/s.  Re-measured here so the speedup comparison is
  same-machine, same-run.
* **warm throughput sweep** — for each farm size in 1/2/4/8 worker
  processes, a keep-alive connection hammers the server with warm
  CD-DAT requests; the acceptance floor is ``>= 5x`` the measured
  baseline at 4 workers (the farm fast path: memoized parse/route,
  per-worker report tiers, lean HTTP framing).
* **mixed workload sweep** — per farm size, several closed-loop client
  threads (each with its own keep-alive connection) replay a mixed
  schedule over CD-DAT + satrec + random SDF graphs, salted with
  never-seen-before cold graphs (true cache misses).  Reports
  throughput and p50/p95/p99 latency.
* **batch sweep (PR 9, ``BENCH_PR9.json``)** — warm ``/batch``
  requests through the farm (per-item sharding, shard groups on
  concurrent threads, worker-rendered bytes spliced verbatim) against
  the PR 6 in-process batch path as the same-run baseline.  Every
  item of every response is verified bit-identical to a direct
  :func:`implement` run; the acceptance floor is ``>= 3x`` the
  in-process items/s at 4 workers.

Every response is verified bit-identical — the served report's
``canonical()`` must equal a reference computed by calling
:func:`repro.scheduling.pipeline.implement` directly (the farm may
never change what the pipeline computes, on any tier, hot or cold).

Per-measurement minima over ``--repeat`` interleaved rounds, same as
the other bench files, so background noise cannot inflate one mode.

Usage::

    python benchmarks/bench_farm.py --out BENCH_PR6.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import socket
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.apps import table1_graph  # noqa: E402
from repro.apps.ptolemy_demos import cd_to_dat  # noqa: E402
from repro.experiments.runner import TimingReport  # noqa: E402
from repro.scheduling.pipeline import implement  # noqa: E402
from repro.sdf.io import from_json, to_json  # noqa: E402
from repro.sdf.random_graphs import random_sdf_graph  # noqa: E402
from repro.serve import (  # noqa: E402
    ArtifactCache,
    CompileServer,
    CompileService,
)
from repro.serve.client import compile_remote  # noqa: E402
from repro.artifacts import CompilationReport  # noqa: E402

#: Acceptance floor: warm farm throughput at 4 workers must beat the
#: PR5-style (per-request-connection, no farm) baseline by this factor.
MIN_FARM_SPEEDUP = 5.0

#: The PR5 figure this PR set out to beat, recorded for the trajectory.
PR5_BASELINE_RPS = 1116.8

WORKER_SWEEP = (1, 2, 4, 8)

#: Acceptance floor for the PR 9 batch sweep: warm /batch items/s at
#: 4 farm workers must beat the in-process batch path by this factor.
MIN_BATCH_SPEEDUP = 3.0

BATCH_WORKER_SWEEP = (1, 2, 4)

_cold_seeds = itertools.count(10_000)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


def reference_canonical(document):
    """What the pipeline itself says this document compiles to.

    Runs :func:`implement` directly — no service, no cache, no farm —
    and returns the canonical payload with the volatile ``key`` field
    cleared, the yardstick every served report must match.
    """
    graph = from_json(document)
    result = implement(graph)
    report = CompilationReport.from_result(result, graph.name, seed=0)
    payload = json.loads(report.canonical())
    payload["key"] = ""
    return payload


def served_canonical(body):
    """Canonical payload of one ``/compile`` response, key cleared."""
    payload = json.loads(body.decode("utf-8"))
    report = CompilationReport.from_json(payload["report"])
    canonical = json.loads(report.canonical())
    canonical["key"] = ""
    return canonical


class KeepAliveClient:
    """A raw keep-alive HTTP/1.1 connection to the loopback server.

    ``compile_remote`` (urllib) opens a fresh TCP connection per
    request, which is exactly the per-request overhead the farm's
    front end was built to avoid; the closed-loop generator needs
    persistent connections to measure the server, not the client.
    """

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def post(self, path, body):
        """POST ``body`` to ``path``; returns ``(status, body_bytes)``."""
        self.sock.sendall(
            b"POST " + path.encode() + b" HTTP/1.1\r\n"
            b"Host: localhost\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            + body
        )
        while b"\r\n\r\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed connection")
            self.buf += chunk
        head, _, self.buf = self.buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        while len(self.buf) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed connection")
            self.buf += chunk
        body, self.buf = self.buf[:length], self.buf[length:]
        return status, body

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def build_workload():
    """The named mixed-workload documents and their references."""
    documents = {
        "cddat": to_json(cd_to_dat()),
        "satrec": to_json(table1_graph("satrec")),
    }
    for index, seed in enumerate((7, 8, 9)):
        graph = random_sdf_graph(16, seed=seed)
        documents[f"random{index}"] = to_json(graph)
    return {
        name: (
            json.dumps(
                {"graph": doc, "options": {}, "cache": True}
            ).encode("utf-8"),
            reference_canonical(doc),
        )
        for name, doc in documents.items()
    }


def fresh_cold_item():
    """A never-before-compiled document (a guaranteed cache miss)."""
    doc = to_json(random_sdf_graph(14, seed=next(_cold_seeds)))
    body = json.dumps(
        {"graph": doc, "options": {}, "cache": True}
    ).encode("utf-8")
    return body, reference_canonical(doc)


def bench_baseline(report, requests, repeat):
    """PR5-style warm throughput: no farm, a connection per request."""
    document = to_json(cd_to_dat())
    best = None
    with tempfile.TemporaryDirectory() as root:
        server = CompileServer(
            CompileService(cache=ArtifactCache(root)),
            port=0, workers=2, queue_limit=64, quiet=True,
        ).start()
        try:
            compile_remote(document, url=server.url)  # fill the cache
            for _ in range(max(1, repeat)):
                t0 = time.perf_counter()
                for _ in range(requests):
                    _, status = compile_remote(document, url=server.url)
                    assert status == "hit", status
                wall = time.perf_counter() - t0
                if best is None or wall < best:
                    best = wall
        finally:
            server.drain()
    rps = requests / best
    report.record(
        "farm_baseline_http", best,
        requests=requests, requests_per_s=round(rps, 1),
        note="PR5-style: no farm, one connection per request",
    )
    return rps


def run_warm_round(server, workload, requests):
    """Sequential warm requests on one keep-alive connection."""
    body, reference = workload["cddat"]
    client = KeepAliveClient(server.host, server.port)
    try:
        status, resp = client.post("/compile", body)
        assert status == 200, (status, resp[:200])
        assert served_canonical(resp) == reference, "warm report differs"
        t0 = time.perf_counter()
        for _ in range(requests):
            status, resp = client.post("/compile", body)
            assert status == 200, (status, resp[:200])
        wall = time.perf_counter() - t0
        assert served_canonical(resp) == reference, "warm report differs"
    finally:
        client.close()
    return wall


def run_mixed_round(server, workload, clients, per_client, cold_every):
    """Closed-loop mixed warm/cold load; returns (wall, latencies)."""
    named = list(workload.values())
    schedules = []
    for c in range(clients):
        schedule = []
        for i in range(per_client):
            if cold_every and i % cold_every == cold_every - 1:
                schedule.append(fresh_cold_item())
            else:
                schedule.append(named[(i + c) % len(named)])
        schedules.append(schedule)
    latencies = []
    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def run_client(schedule):
        client = KeepAliveClient(server.host, server.port)
        local = []
        try:
            barrier.wait()
            for body, reference in schedule:
                t0 = time.perf_counter()
                status, resp = client.post("/compile", body)
                local.append(time.perf_counter() - t0)
                if status != 200:
                    raise AssertionError(
                        f"HTTP {status}: {resp[:200]!r}"
                    )
                if served_canonical(resp) != reference:
                    raise AssertionError("served report differs")
        except Exception as exc:  # noqa: BLE001 - surfaced below
            with lock:
                errors.append(exc)
        finally:
            client.close()
            with lock:
                latencies.extend(local)

    threads = [
        threading.Thread(target=run_client, args=(schedule,))
        for schedule in schedules
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return wall, latencies


def bench_farm_sweep(report, baseline_rps, args):
    """Warm + mixed suites per farm size; returns warm rps by size."""
    workload = build_workload()
    warm_rps = {}
    for workers in WORKER_SWEEP:
        with tempfile.TemporaryDirectory() as root:
            server = CompileServer(
                CompileService(cache=ArtifactCache(root)),
                port=0, processes=workers, queue_limit=64, quiet=True,
            ).start()
            try:
                warm_best = None
                mixed_best = None
                mixed_lat = []
                for _ in range(max(1, args.repeat)):
                    wall = run_warm_round(
                        server, workload, args.requests
                    )
                    if warm_best is None or wall < warm_best:
                        warm_best = wall
                    wall, latencies = run_mixed_round(
                        server, workload, args.clients,
                        args.mixed_per_client, args.cold_every,
                    )
                    if mixed_best is None or wall < mixed_best:
                        mixed_best = wall
                        mixed_lat = latencies
                mixed_requests = args.clients * args.mixed_per_client
                colds = args.clients * (
                    args.mixed_per_client // args.cold_every
                    if args.cold_every else 0
                )
            finally:
                server.drain()
        rps = args.requests / warm_best
        warm_rps[workers] = rps
        report.record(
            f"farm_warm_{workers}w", warm_best,
            workers=workers, requests=args.requests,
            requests_per_s=round(rps, 1),
            speedup_vs_baseline=round(rps / baseline_rps, 2),
            floor=MIN_FARM_SPEEDUP if workers == 4 else None,
        )
        mixed_lat.sort()
        report.record(
            f"farm_mixed_{workers}w", mixed_best,
            workers=workers, clients=args.clients,
            requests=mixed_requests, cold=colds,
            requests_per_s=round(mixed_requests / mixed_best, 1),
            p50_ms=round(percentile(mixed_lat, 0.50) * 1000, 3),
            p95_ms=round(percentile(mixed_lat, 0.95) * 1000, 3),
            p99_ms=round(percentile(mixed_lat, 0.99) * 1000, 3),
        )
    return warm_rps


def build_batch_workload(items):
    """One warm ``/batch`` body of ``items`` documents + references.

    Cycles the five mixed-workload graphs, so the batch exercises
    several shards and repeats within the batch (tier hits).
    """
    base = [to_json(cd_to_dat()), to_json(table1_graph("satrec"))]
    base += [to_json(random_sdf_graph(16, seed=s)) for s in (7, 8, 9)]
    references = [reference_canonical(doc) for doc in base]
    docs = [base[i % len(base)] for i in range(items)]
    refs = [references[i % len(base)] for i in range(items)]
    body = json.dumps(
        {"graphs": docs, "options": {}, "cache": True}
    ).encode("utf-8")
    return body, refs


def batch_canonicals(resp_body):
    """Per-item canonical payloads of one ``/batch`` response."""
    payload = json.loads(resp_body.decode("utf-8"))
    out = []
    for item in payload["responses"]:
        assert item.get("status") != "error", item
        report = CompilationReport.from_json(item["report"])
        canonical = json.loads(report.canonical())
        canonical["key"] = ""
        out.append(canonical)
    return out


def run_batch_round(server, body, refs, posts):
    """Sequential warm ``/batch`` posts on one keep-alive connection."""
    client = KeepAliveClient(server.host, server.port)
    try:
        status, resp = client.post("/batch", body)  # warm + verify
        assert status == 200, (status, resp[:200])
        assert batch_canonicals(resp) == refs, "batch reports differ"
        t0 = time.perf_counter()
        for _ in range(posts):
            status, resp = client.post("/batch", body)
            assert status == 200, (status, resp[:200])
        wall = time.perf_counter() - t0
        assert batch_canonicals(resp) == refs, "batch reports differ"
    finally:
        client.close()
    return wall


def bench_batch_sweep(report, args):
    """Warm /batch items/s: in-process baseline, then the farm sweep.

    Every response is verified bit-identical to direct ``implement()``
    runs (``refs``), so the farm path can never trade correctness for
    the speedup this measures.  Returns ``(baseline_ips, farm_ips)``.
    """
    body, refs = build_batch_workload(args.batch_items)
    items_total = args.batch_items * args.batch_posts

    with tempfile.TemporaryDirectory() as root:
        server = CompileServer(
            CompileService(cache=ArtifactCache(root)),
            port=0, processes=0, workers=2, queue_limit=64, quiet=True,
        ).start()
        try:
            base_best = None
            for _ in range(max(1, args.repeat)):
                wall = run_batch_round(
                    server, body, refs, args.batch_posts
                )
                if base_best is None or wall < base_best:
                    base_best = wall
        finally:
            server.drain()
    baseline_ips = items_total / base_best
    report.record(
        "batch_inprocess_baseline", base_best,
        batch_items=args.batch_items, posts=args.batch_posts,
        items_per_s=round(baseline_ips, 1),
        note="PR6 in-process /batch path (no farm)",
    )

    farm_ips = {}
    for workers in BATCH_WORKER_SWEEP:
        with tempfile.TemporaryDirectory() as root:
            server = CompileServer(
                CompileService(cache=ArtifactCache(root)),
                port=0, processes=workers, queue_limit=64, quiet=True,
            ).start()
            try:
                best = None
                for _ in range(max(1, args.repeat)):
                    wall = run_batch_round(
                        server, body, refs, args.batch_posts
                    )
                    if best is None or wall < best:
                        best = wall
            finally:
                server.drain()
        ips = items_total / best
        farm_ips[workers] = ips
        report.record(
            f"batch_farm_{workers}w", best,
            workers=workers, batch_items=args.batch_items,
            posts=args.batch_posts, items_per_s=round(ips, 1),
            speedup_vs_inprocess=round(ips / baseline_ips, 2),
            floor=MIN_BATCH_SPEEDUP if workers == 4 else None,
        )
    return baseline_ips, farm_ips


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_PR6.json")
    parser.add_argument("--batch-out", default=None,
                        help="also run the PR 9 batch sweep and write "
                             "its trajectory here (e.g. BENCH_PR9.json)")
    parser.add_argument("--batch-only", action="store_true",
                        help="run only the batch sweep (implies "
                             "--batch-out BENCH_PR9.json if unset)")
    parser.add_argument("--batch-items", type=int, default=24,
                        help="documents per /batch request")
    parser.add_argument("--batch-posts", type=int, default=30,
                        help="warm /batch posts per round")
    parser.add_argument("--requests", type=int, default=400,
                        help="warm keep-alive requests per round")
    parser.add_argument("--baseline-requests", type=int, default=120,
                        help="PR5-style baseline requests per round")
    parser.add_argument("--clients", type=int, default=4,
                        help="closed-loop connections in the mixed suite")
    parser.add_argument("--mixed-per-client", type=int, default=60,
                        help="mixed-suite requests per connection")
    parser.add_argument("--cold-every", type=int, default=20,
                        help="every Nth mixed request is a fresh cold "
                             "graph (0 disables)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="interleaved rounds; the minimum wall is kept")
    args = parser.parse_args(argv)
    if args.batch_only and args.batch_out is None:
        args.batch_out = "BENCH_PR9.json"

    if not args.batch_only:
        report = TimingReport()
        baseline_rps = bench_baseline(
            report, args.baseline_requests, args.repeat
        )
        warm_rps = bench_farm_sweep(report, baseline_rps, args)
        report.write_json(args.out)
        for row in report.rows:
            print(f"{row['bench']:>20}: {row['wall_s']:9.5f}s  "
                  f"{row['meta']}")
        print(f"baseline (per-request connections): {baseline_rps:.0f} "
              f"req/s (PR5 recorded {PR5_BASELINE_RPS} req/s)")
        for workers, rps in warm_rps.items():
            print(f"farm warm, {workers} worker(s): {rps:.0f} req/s "
                  f"({rps / baseline_rps:.1f}x baseline)")
        print(f"wrote {args.out}")
        headline = warm_rps[4] / baseline_rps
        assert headline >= MIN_FARM_SPEEDUP, (
            f"4-worker warm throughput {warm_rps[4]:.0f} req/s is only "
            f"{headline:.1f}x the same-run baseline {baseline_rps:.0f} "
            f"req/s — below the {MIN_FARM_SPEEDUP}x acceptance floor"
        )

    if args.batch_out:
        batch_report = TimingReport()
        baseline_ips, farm_ips = bench_batch_sweep(batch_report, args)
        batch_report.write_json(args.batch_out)
        for row in batch_report.rows:
            print(f"{row['bench']:>24}: {row['wall_s']:9.5f}s  "
                  f"{row['meta']}")
        print(f"in-process batch baseline: {baseline_ips:.0f} items/s")
        for workers, ips in farm_ips.items():
            print(f"farm batch, {workers} worker(s): {ips:.0f} items/s "
                  f"({ips / baseline_ips:.1f}x in-process)")
        print(f"wrote {args.batch_out}")
        batch_headline = farm_ips[4] / baseline_ips
        assert batch_headline >= MIN_BATCH_SPEEDUP, (
            f"4-worker warm batch throughput {farm_ips[4]:.0f} items/s "
            f"is only {batch_headline:.1f}x the in-process baseline "
            f"{baseline_ips:.0f} items/s — below the "
            f"{MIN_BATCH_SPEEDUP}x acceptance floor"
        )


if __name__ == "__main__":
    main()
