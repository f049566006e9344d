"""Service smoke test: start ``repro serve``, exercise it, drain it.

The end-to-end acceptance ritual, runnable locally (``make
serve-smoke``) and in CI, in two phases:

**In-process phase** (the default ``--workers 0``: one local shard):

1. start ``repro serve`` as a subprocess on an ephemeral port with a
   throwaway cache directory and ``--trace`` enabled;
2. wait for ``/healthz``;
3. submit CD-DAT three times through the real client; assert the
   first response is a cache *miss*, the others *hits*, and that the
   three reports are bit-identical (canonical-form comparison);
4. assert ``/stats`` agrees: the server counts 2 hits, 1 miss and 0
   rejected, and ``shard_counters`` one compile, one disk hit and one
   memory hit;
5. on raw sockets: an oversized ``Content-Length`` gets a one-line
   JSON 413, a body cut short by EOF a 400, and a body that stalls a
   408 within the body-read deadline — each closes the connection, and
   ``/healthz`` stays "ok" afterwards;
6. send SIGTERM; assert the server drains cleanly (exit code 0) and
   leaves the trace artifact behind (``serve_trace.json`` by
   default — CI uploads it).

**Farm phase** (``--workers 2``):

7. start ``repro serve --workers 2`` (a two-process compile farm)
   with its own throwaway cache and trace file;
8. assert ``/healthz`` reports the farm (size 2, all alive), then
   miss -> hit -> hit with bit-identical reports, the same
   ``shard_counters`` tier split and the oversized-body 413, exactly
   as above;
9. SIGKILL one worker process (pid from ``/stats``); assert the
   supervisor respawns it — ``/healthz`` returns to 2/2 alive with a
   restart counted — and that a subsequent submit still hits,
   bit-identical;
10. ``/batch`` through the farm: a mixed cold batch then the same
   batch warm, every item bit-identical across the two; a batch with
   one malformed document yields a per-item 400 entry with the good
   items untouched;
11. live resize 2 -> 4 -> 2 via ``POST /resize`` with ``/healthz``
    green at every step and the same batch still bit-identical after
    each move;
12. SIGTERM; assert a clean drain and that the merged trace artifact
    (``serve_farm_trace.json``) contains worker-side request spans.

Exit code 0 only when every step held.

Usage::

    python scripts/serve_smoke.py [--trace serve_trace.json]
                                  [--farm-trace serve_farm_trace.json]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
sys.path.insert(0, REPO_SRC)

from repro.apps.ptolemy_demos import cd_to_dat  # noqa: E402
from repro.sdf.io import to_json  # noqa: E402
from repro.sdf.random_graphs import random_sdf_graph  # noqa: E402
from repro.serve.client import (  # noqa: E402
    BatchItemError,
    ServeClientError,
    compile_batch_remote,
    compile_remote,
    get_json,
    resize_remote,
)
from repro.serve.server import (  # noqa: E402
    BODY_READ_TIMEOUT_S,
    MAX_BODY_BYTES,
)


def fail(message: str) -> "NoReturn":  # noqa: F821 (py3.10 typing)
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def wait_healthy(url: str, deadline_s: float = 15.0) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            if get_json(url, "/healthz", timeout=2).get("status") == "ok":
                return
        except ServeClientError:
            pass
        time.sleep(0.1)
    fail(f"server at {url} never became healthy")


def launch(extra_args, trace, env):
    """Start one ``repro serve`` subprocess; returns (proc, url)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--quiet", "--trace", trace, *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    banner = proc.stdout.readline().strip()
    if not banner.startswith("serving on "):
        proc.kill()
        fail(f"unexpected server banner: {banner!r}")
    url = banner.split()[2]
    wait_healthy(url)
    return proc, url


def submit_thrice(url):
    """CD-DAT miss, then a disk hit, then a memory hit; returns the
    (bit-identical) warm report."""
    document = to_json(cd_to_dat())
    first, first_status = compile_remote(document, url=url, timeout=30)
    if first_status != "miss":
        fail(f"first submit should miss, got {first_status!r}")
    for attempt in ("second", "third"):
        warm, warm_status = compile_remote(document, url=url, timeout=30)
        if warm_status != "hit":
            fail(f"{attempt} submit should hit, got {warm_status!r}")
        if warm.canonical() != first.canonical():
            fail(f"{attempt} report is not bit-identical to the cold one")
        if not warm.cached or first.cached:
            fail("cached flags inconsistent with statuses")
    tiers = get_json(url, "/stats", timeout=5).get("shard_counters", {})
    split = {name: tiers.get(name) for name in
             ("farm.compiles", "farm.disk_hits", "farm.mem_hits")}
    if split != {"farm.compiles": 1, "farm.disk_hits": 1,
                 "farm.mem_hits": 1}:
        fail(f"unexpected /stats shard_counters: {tiers}")
    return warm


def raw_post(url, head, body=b"", half_close=False, timeout=10.0):
    """POST ``head`` + ``body`` on a raw socket; read until the server
    closes.  Returns ``(status line + headers, body, seconds)``."""
    host, port = url.rsplit("/", 1)[-1].rsplit(":", 1)
    start = time.monotonic()
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(
            f"POST /compile HTTP/1.1\r\nHost: {host}\r\n{head}\r\n"
            .encode("latin-1") + body
        )
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        response = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
    head_out, _, body_out = response.partition(b"\r\n\r\n")
    return head_out, body_out, time.monotonic() - start


def expect_refusal(url, what, code, head, body=b"", half_close=False,
                   within=10.0) -> None:
    """One raw request must get a one-line JSON ``code`` and a close."""
    got_head, got_body, seconds = raw_post(
        url, head, body, half_close, timeout=within
    )
    if not got_head.startswith(f"HTTP/1.1 {code} ".encode()):
        fail(f"{what} not refused with {code}: {got_head[:80]!r}")
    if b"\n" in got_body or "error" not in json.loads(got_body):
        fail(f"{what} reply is not one-line JSON: {got_body!r}")
    if seconds > within:
        fail(f"{what} took {seconds:.1f}s, over {within}s")


def hostile_body_steps(url) -> None:
    """Oversized, truncated and stalled bodies; then /healthz "ok"."""
    expect_refusal(url, "oversized body", 413,
                   f"Content-Length: {MAX_BODY_BYTES + 1}\r\n")
    expect_refusal(url, "truncated body", 400, "Content-Length: 100\r\n",
                   b'{"graph": {}}', half_close=True)
    expect_refusal(url, "stalled body", 408, "Content-Length: 100\r\n",
                   b"12345", within=BODY_READ_TIMEOUT_S + 5.0)
    health = get_json(url, "/healthz", timeout=5)
    if health.get("status") != "ok":
        fail(f"server left 'ok' after hostile bodies: {health}")


def terminate_cleanly(proc, trace, timeout):
    """SIGTERM; assert exit 0, a clean-drain message, and the trace."""
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=timeout)
    if proc.returncode != 0:
        fail(f"server exited {proc.returncode}; output:\n{out}")
    if "drained cleanly" not in out:
        fail(f"no clean-drain message; output:\n{out}")
    if not os.path.isfile(trace):
        fail(f"trace artifact {trace!r} was not written")


def in_process_phase(args, env) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-cache-") as root:
        proc, url = launch(["--cache-dir", root], args.trace, env)
        try:
            submit_thrice(url)
            stats = get_json(url, "/stats", timeout=5)
            server_stats = stats.get("server", {})
            if (server_stats.get("hits"), server_stats.get("misses"),
                    server_stats.get("rejected")) != (2, 1, 0):
                fail(f"unexpected /stats counters: {server_stats}")
            hostile_body_steps(url)
            terminate_cleanly(proc, args.trace, args.timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    print("serve-smoke: in-process phase OK "
          "(cold miss -> disk hit -> memory hit, bit-identical; "
          "oversized body -> 413, "
          "truncated -> 400, stalled -> 408; "
          f"trace at {args.trace})")


def batch_docs():
    """Three distinct documents so the batch spans shards."""
    return [
        to_json(cd_to_dat()),
        to_json(random_sdf_graph(12, seed=71)),
        to_json(random_sdf_graph(12, seed=72)),
    ]


def batch_canonicals(url, docs):
    """One ``/batch`` POST; fail on any error item, return canonicals."""
    results = compile_batch_remote(docs, url=url, timeout=30)
    for index, (report, status) in enumerate(results):
        if isinstance(report, BatchItemError):
            fail(f"batch item {index} errored: "
                 f"{report.code}: {report.message}")
        if status not in ("miss", "hit"):
            fail(f"batch item {index} has status {status!r}")
    return [report.canonical() for report, _ in results]


def farm_batch_steps(url) -> list:
    """Step 10: batch miss -> hit bit-identity + per-item isolation."""
    docs = batch_docs()
    cold = batch_canonicals(url, docs)
    warm = batch_canonicals(url, docs)
    if warm != cold:
        fail("warm /batch is not bit-identical to the cold one")

    poisoned = [docs[0], {"actors": "not-a-graph"}, docs[1]]
    results = compile_batch_remote(poisoned, url=url, timeout=30)
    bad_report, bad_status = results[1]
    if not isinstance(bad_report, BatchItemError) or bad_status != "error":
        fail(f"poisoned batch item not isolated: got {bad_status!r}")
    if bad_report.code != 400:
        fail(f"poisoned item should be a per-item 400, "
             f"got {bad_report.code}")
    for index in (0, 2):
        report, status = results[index]
        if isinstance(report, BatchItemError) or status != "hit":
            fail(f"good item {index} was poisoned by its neighbour: "
                 f"{status!r}")
    health = get_json(url, "/healthz", timeout=5)
    if health.get("status") != "ok":
        fail(f"server left 'ok' after poisoned batch: {health}")
    return cold


def resize_steps(url, expected) -> None:
    """Step 11: live resize 2 -> 4 -> 2, /healthz green throughout."""
    docs = batch_docs()
    for size in (4, 2):
        info = resize_remote(size, url=url, timeout=30)
        if info.get("size") != size:
            fail(f"resize to {size} reported {info}")
        health = get_json(url, "/healthz", timeout=5)
        farm = health.get("farm", {})
        if health.get("status") != "ok" or (
                farm.get("alive"), farm.get("size")) != (size, size):
            fail(f"farm not {size}/{size} alive after resize: {health}")
        if batch_canonicals(url, docs) != expected:
            fail(f"batch not bit-identical after resize to {size}")


def farm_phase(args, env) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-farm-") as root:
        proc, url = launch(
            ["--cache-dir", root, "--workers", "2"],
            args.farm_trace, env,
        )
        try:
            farm = get_json(url, "/healthz", timeout=5).get("farm")
            if not farm or (farm.get("size"), farm.get("alive")) != (2, 2):
                fail(f"farm not reported 2/2 alive on /healthz: {farm}")
            warm = submit_thrice(url)
            expect_refusal(url, "oversized body", 413,
                           f"Content-Length: {MAX_BODY_BYTES + 1}\r\n")

            # Kill one worker; the supervisor must respawn it without
            # the server ever leaving "ok".
            rows = get_json(url, "/stats", timeout=5)["farm"]["workers"]
            pids = [r["pid"] for r in rows if r.get("alive") and "pid" in r]
            if not pids:
                fail(f"no live worker pids in /stats farm rows: {rows}")
            os.kill(pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 15.0
            while True:
                health = get_json(url, "/healthz", timeout=5)
                if health.get("status") != "ok":
                    fail(f"server left 'ok' after worker kill: {health}")
                farm = health.get("farm", {})
                if farm.get("alive") == 2 and farm.get("restarts", 0) >= 1:
                    break
                if time.monotonic() > deadline:
                    fail(f"worker never respawned: {farm}")
                time.sleep(0.1)

            document = to_json(cd_to_dat())
            after, after_status = compile_remote(
                document, url=url, timeout=30
            )
            if after_status != "hit":
                fail(f"post-respawn submit should hit, got {after_status!r}")
            if after.canonical() != warm.canonical():
                fail("post-respawn report is not bit-identical")

            expected = farm_batch_steps(url)
            resize_steps(url, expected)

            terminate_cleanly(proc, args.farm_trace, args.timeout)
            with open(args.farm_trace, encoding="utf-8") as handle:
                trace_text = handle.read()
            if "serve.request" not in trace_text:
                fail("farm trace has no serve.request spans "
                     "(worker trees not merged?)")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    print("serve-smoke: farm phase OK "
          "(2 workers, miss -> disk hit -> memory hit, oversized body "
          "-> 413, kill -> respawn -> "
          "healthy; farm batch "
          "miss -> hit bit-identical, poisoned item isolated, live "
          "resize 2 -> 4 -> 2 green; "
          f"merged trace at {args.farm_trace})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", default="serve_trace.json",
                        help="in-process-phase trace artifact path")
    parser.add_argument("--farm-trace", default="serve_farm_trace.json",
                        help="farm-phase merged trace artifact path")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="per-subprocess wait budget, seconds")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        REPO_SRC + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else REPO_SRC
    )
    for trace in (args.trace, args.farm_trace):
        if os.path.exists(trace):
            os.unlink(trace)

    in_process_phase(args, env)
    farm_phase(args, env)
    print("serve-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
