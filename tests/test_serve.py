"""Tests for the compilation service: cache, service core, HTTP server."""

import json
import os
import socket
import sys
import threading
import time

import pytest

from repro import native
from repro.apps.ptolemy_demos import cd_to_dat
from repro.check.fault_injection import inject_cache_corrupt
from repro.check.oracles import build_artifacts
from repro.lifetimes.periodic import DEFAULT_OCCURRENCE_CAP
from repro.scheduling.pipeline import implement
from repro.sdf.graph import SDFGraph
from repro.sdf.io import to_json
from repro.serve import (
    ArtifactCache,
    CompilationReport,
    CompileOptions,
    CompileServer,
    CompileService,
    cache_key,
)
from repro.serve import client as serve_client
from repro.serve.client import (
    BatchItemError,
    ServeClientError,
    compile_batch_remote,
    compile_remote,
    get_json,
)
from repro.serve import server as server_module
from repro.serve.server import MAX_BODY_BYTES

import random


def small_graph(name="serve_sample"):
    g = SDFGraph(name)
    g.add_actors("ABC")
    g.add_edge("A", "B", 3, 2)
    g.add_edge("B", "C", 2, 5, delay=2)
    return g


def make_report(**overrides):
    result = implement(small_graph())
    report = CompilationReport.from_result(result, "serve_sample")
    for name, value in overrides.items():
        setattr(report, name, value)
    return report


class TestCacheKey:
    def test_key_order_invariant(self):
        doc = to_json(small_graph())
        reordered = {k: doc[k] for k in reversed(list(doc))}
        reordered["edges"] = [
            {k: e[k] for k in reversed(list(e))} for e in doc["edges"]
        ]
        assert cache_key(doc) == cache_key(reordered)

    def test_semantic_changes_change_key(self):
        doc = to_json(small_graph())
        base = cache_key(doc)
        assert cache_key(doc, {"method": "apgan"}) != base
        assert cache_key(doc, version="other") != base
        changed = json.loads(json.dumps(doc))
        changed["edges"][0]["production"] += 1
        assert cache_key(changed) != base


class TestArtifactCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        report = make_report()
        key = cache_key(to_json(small_graph()))
        cache.put(key, report)
        again = cache.get(key)
        assert again is not None
        assert again.cached is True
        assert again.canonical() != ""  # volatile fields excluded
        # Stored copy is bit-identical modulo the key field it gains.
        report.key = key
        assert again.canonical() == report.canonical()
        assert cache.hits == 1 and cache.writes == 1

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.put("ab" * 32, make_report())
        leftovers = [
            name
            for _, _, names in os.walk(str(tmp_path))
            for name in names
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    @pytest.mark.parametrize("mode", ["truncate", "tamper", "garbage"])
    def test_corrupt_entry_evicted_not_served(self, tmp_path, mode):
        cache = ArtifactCache(str(tmp_path))
        key = "cd" * 32
        cache.put(key, make_report())
        path = cache.path_for(key)
        if mode == "truncate":
            with open(path, "r+") as handle:
                handle.truncate(os.path.getsize(path) // 2)
        elif mode == "tamper":
            with open(path) as handle:
                entry = json.load(handle)
            entry["report"]["total"] += 1
            with open(path, "w") as handle:
                json.dump(entry, handle)
        else:
            with open(path, "w") as handle:
                handle.write("\x00garbage\x00")
        assert cache.get(key) is None
        assert not os.path.exists(path)
        assert cache.evictions == 1 and cache.misses == 1

    def test_wrong_key_field_rejected(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.put("ef" * 32, make_report())
        # Entry copied under a different key must fail verification.
        src = cache.path_for("ef" * 32)
        dst = cache.path_for("01" * 32)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(src) as handle:
            data = handle.read()
        with open(dst, "w") as handle:
            handle.write(data)
        assert cache.get("01" * 32) is None
        assert not os.path.exists(dst)

    def test_gc_max_entries_keeps_newest(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        report = make_report()
        keys = [format(i, "02x") * 32 for i in range(4)]
        for i, key in enumerate(keys):
            cache.put(key, report)
            os.utime(cache.path_for(key), (1000 + i, 1000 + i))
        assert cache.gc(max_entries=2) == 2
        assert cache.get(keys[0]) is None
        assert cache.get(keys[3]) is not None

    def test_gc_max_age(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.put("aa" * 32, make_report())
        os.utime(cache.path_for("aa" * 32), (100.0, 100.0))
        assert cache.gc(max_age_s=50.0, now=1000.0) == 1
        assert cache.stats()["entries"] == 0

    def test_clear_and_stats(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.put("bb" * 32, make_report())
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["bytes"] > 0
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0


class TestCompilationReport:
    def test_json_round_trip(self):
        report = make_report(cached=True, wall_s=1.5)
        again = CompilationReport.from_json(report.to_json())
        assert again == report

    def test_canonical_excludes_volatile(self):
        a = make_report()
        b = make_report(cached=True, wall_s=99.0)
        assert a.canonical() == b.canonical()
        assert a.digest() == b.digest()

    def test_summary_mentions_source(self):
        assert "cache hit" in make_report(cached=True).summary_lines()[0]
        assert "compiled" in make_report().summary_lines()[0]


class TestCompileOptions:
    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown compile options"):
            CompileOptions.from_dict({"methd": "rpmc"})

    def test_round_trip(self):
        options = CompileOptions(method="apgan", seed=3)
        assert CompileOptions.from_dict(options.as_dict()) == options

    @pytest.mark.parametrize("cap", [0, -1, DEFAULT_OCCURRENCE_CAP + 1,
                                     10 ** 9])
    def test_occurrence_cap_out_of_range_rejected(self, cap):
        with pytest.raises(ValueError) as err:
            CompileOptions.from_dict({"occurrence_cap": cap})
        assert str(err.value) == (
            f"occurrence_cap must be in 1..{DEFAULT_OCCURRENCE_CAP}, "
            f"got {cap}"
        )

    @pytest.mark.parametrize("cap", [1, DEFAULT_OCCURRENCE_CAP])
    def test_occurrence_cap_bounds_accepted(self, cap):
        options = CompileOptions.from_dict({"occurrence_cap": cap})
        assert options.occurrence_cap == cap


class TestCompileService:
    def test_miss_then_hit_bit_identical(self, tmp_path):
        service = CompileService(cache=ArtifactCache(str(tmp_path)))
        doc = to_json(cd_to_dat())
        cold, s1 = service.compile_document(doc)
        warm, s2 = service.compile_document(doc)
        assert (s1, s2) == ("miss", "hit")
        assert warm.canonical() == cold.canonical()
        assert warm.cached and not cold.cached

    def test_disabled_cache_matches_direct_pipeline(self):
        doc = to_json(cd_to_dat())
        report, status = CompileService().compile_document(doc)
        assert status == "disabled"
        direct = CompilationReport.from_result(
            implement(cd_to_dat()), "cd2dat"
        )
        assert report.canonical() == direct.canonical()

    def test_options_fragment_cache(self, tmp_path):
        service = CompileService(cache=ArtifactCache(str(tmp_path)))
        doc = to_json(small_graph())
        _, s1 = service.compile_document(doc, CompileOptions(method="rpmc"))
        _, s2 = service.compile_document(doc, CompileOptions(method="apgan"))
        assert (s1, s2) == ("miss", "miss")

    def test_sessions_are_reused(self, tmp_path):
        service = CompileService()
        doc = to_json(small_graph())
        service.compile_document(doc, use_cache=False)
        assert len(service._sessions) == 1
        service.compile_document(doc, use_cache=False)
        assert len(service._sessions) == 1

    def test_session_lru_key_is_the_session_graph_digest(self):
        # The LRU key, CompilationSession.graph_digest, and the graph
        # component of cache keys must all be the same content address.
        service = CompileService()
        service.compile_document(to_json(small_graph()), use_cache=False)
        ((digest, session),) = service._sessions.items()
        assert session.graph_digest == digest

    def test_batch_preserves_order_and_statuses(self, tmp_path):
        service = CompileService(cache=ArtifactCache(str(tmp_path)))
        docs = [to_json(small_graph()), to_json(cd_to_dat())]
        results = service.compile_batch(docs + docs)
        names = [r.graph for r, _ in results]
        assert names == ["serve_sample", "cd2dat"] * 2
        assert [s for _, s in results] == ["miss", "miss", "hit", "hit"]
        assert results[0][0].canonical() == results[2][0].canonical()


def _faulted_server(**kwargs):
    """An in-process server that honors ``"fault": "sleep:N"``."""
    return CompileServer(
        CompileService(), port=0, allow_faults=True, quiet=True, **kwargs
    ).start()


def _sleepy(seconds):
    """A cache-bypassing /compile payload held in flight ``seconds``."""
    return {
        "graph": to_json(small_graph()), "options": {}, "cache": False,
        "fault": f"sleep:{seconds}",
    }


@pytest.fixture
def live_server(tmp_path):
    server = CompileServer(
        CompileService(cache=ArtifactCache(str(tmp_path))),
        port=0, workers=2, queue_limit=4, quiet=True,
    ).start()
    yield server
    server.drain(timeout=10)


class TestCompileServer:
    def test_healthz_and_stats(self, live_server):
        assert get_json(live_server.url, "/healthz") == {"status": "ok"}
        stats = get_json(live_server.url, "/stats")
        assert stats["server"]["requests"] == 0
        assert "cache" in stats

    def test_compile_miss_then_hit(self, live_server):
        doc = to_json(cd_to_dat())
        cold, s1 = compile_remote(doc, url=live_server.url)
        warm, s2 = compile_remote(doc, url=live_server.url)
        assert (s1, s2) == ("miss", "hit")
        assert warm.canonical() == cold.canonical()
        stats = get_json(live_server.url, "/stats")
        assert stats["server"]["hits"] == 1
        assert stats["server"]["misses"] == 1

    def test_batch_endpoint(self, live_server):
        doc = to_json(small_graph())
        results = compile_batch_remote([doc, doc], url=live_server.url)
        assert [s for _, s in results] == ["miss", "hit"]

    def test_malformed_request_400(self, live_server):
        with pytest.raises(ServeClientError) as err:
            compile_remote({"actors": "nope"}, url=live_server.url)
        assert err.value.status == 400

    def test_unknown_option_400(self, live_server):
        with pytest.raises(ServeClientError) as err:
            compile_remote(
                to_json(small_graph()), url=live_server.url,
                options={"bogus": 1},
            )
        assert err.value.status == 400

    def test_huge_occurrence_cap_400(self, live_server):
        with pytest.raises(ServeClientError) as err:
            compile_remote(
                to_json(small_graph()), url=live_server.url,
                options={"occurrence_cap": 10 ** 9},
            )
        assert err.value.status == 400
        message = str(err.value)
        assert "occurrence_cap must be in 1..4096, got 1000000000" in message
        assert "\n" not in message

    def test_unknown_path_404(self, live_server):
        payload = get_json(live_server.url, "/nope")
        assert "error" in payload

    def test_backpressure_429(self):
        server = _faulted_server(workers=1, queue_limit=1)
        try:
            errors = []

            def slow():
                try:
                    serve_client._post(
                        server.url, "/compile", _sleepy(0.5), timeout=10
                    )
                except ServeClientError as exc:
                    errors.append(exc)

            first = threading.Thread(target=slow)
            first.start()
            time.sleep(0.1)  # first request now occupies the one slot
            with pytest.raises(ServeClientError) as err:
                compile_remote(
                    to_json(small_graph()), url=server.url, timeout=10
                )
            assert err.value.status == 429
            first.join()
            assert errors == []
            assert server.stats()["server"]["rejected"] == 1
        finally:
            server.drain(timeout=10)

    def test_request_timeout_504(self):
        server = _faulted_server(
            workers=1, queue_limit=2, request_timeout=0.05
        )
        try:
            with pytest.raises(ServeClientError) as err:
                serve_client._post(
                    server.url, "/compile", _sleepy(1.0), timeout=10
                )
            assert err.value.status == 504
            assert server.stats()["server"]["timeouts"] == 1
        finally:
            server.drain(timeout=10)

    def test_drain_rejects_new_work(self, tmp_path):
        server = CompileServer(
            CompileService(), port=0, quiet=True,
        ).start()
        url = server.url
        server.drain(timeout=10)
        with pytest.raises(ServeClientError):
            compile_remote(to_json(small_graph()), url=url, timeout=2)

    def test_hit_does_not_wait_behind_a_compile(self, tmp_path):
        server = CompileServer(
            CompileService(cache=ArtifactCache(str(tmp_path))),
            port=0, workers=1, allow_faults=True, quiet=True,
        ).start()
        try:
            doc = to_json(cd_to_dat())
            compile_remote(doc, url=server.url)
            slow = threading.Thread(target=serve_client._post, args=(
                server.url, "/compile", _sleepy(1.0), 10,
            ))
            slow.start()
            time.sleep(0.1)  # the one compile thread is now asleep
            t0 = time.monotonic()
            _, status = compile_remote(doc, url=server.url, timeout=10)
            assert status == "hit"
            assert time.monotonic() - t0 < 0.5
            slow.join(timeout=10)
            assert not slow.is_alive()
        finally:
            server.drain(timeout=10)

    def test_concurrent_hits_lose_no_counts(self, tmp_path):
        # The in-process shard's core is shared by every connection
        # and compile thread; its counters must agree with /stats.
        server = CompileServer(
            CompileService(cache=ArtifactCache(str(tmp_path))),
            port=0, workers=4, queue_limit=64, quiet=True,
        ).start()
        interval = sys.getswitchinterval()
        try:
            doc = to_json(small_graph())
            compile_remote(doc, url=server.url)
            statuses = []

            def hammer():
                for _ in range(25):
                    statuses.append(
                        compile_remote(doc, url=server.url, timeout=30)[1]
                    )

            sys.setswitchinterval(1e-5)
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            server.drain(timeout=10)
        assert statuses == ["hit"] * 200
        stats = server.stats()["server"]
        assert stats["hits"] + stats["coalesced"] == 200
        core = server.shards.core.counters.counter_totals()
        assert core["farm.requests"] == 1 + stats["hits"]

    def test_malformed_body_counted_as_error(self, live_server):
        with pytest.raises(ServeClientError) as err:
            serve_client._post(live_server.url, "/compile", [1, 2])
        assert err.value.status == 400
        stats = live_server.stats()["server"]
        assert (stats["errors"], stats["requests"]) == (1, 0)

    def test_warm_hit_beats_cold_compile_tenfold(self, tmp_path):
        # A warm CD-DAT hit is >= 10x faster than its cold compile
        # (min of N each, fresh cache per cold run).
        doc = to_json(cd_to_dat())
        colds, warms = [], []
        for run in range(3):
            service = CompileService(
                cache=ArtifactCache(str(tmp_path / str(run)))
            )
            t0 = time.perf_counter()
            service.compile_document(doc)
            colds.append(time.perf_counter() - t0)
            for _ in range(3):
                t0 = time.perf_counter()
                _, status = service.compile_document(doc)
                warms.append(time.perf_counter() - t0)
                assert status == "hit"
        assert min(colds) >= 10 * min(warms)

    def test_trace_written_on_drain(self, tmp_path):
        trace = str(tmp_path / "trace.json")
        server = CompileServer(
            CompileService(cache=ArtifactCache(str(tmp_path / "c"))),
            port=0, quiet=True, trace_path=trace,
        ).start()
        compile_remote(to_json(small_graph()), url=server.url)
        server.drain(timeout=10)
        with open(trace) as handle:
            events = json.load(handle)["traceEvents"]
        names = {e["name"] for e in events}
        assert "serve.request" in names
        assert "implement" in names


def _raw_exchange(port: int, request: bytes, timeout: float = 5.0) -> bytes:
    """Send raw bytes and read until the server closes the connection.

    A handler stuck reading the body never closes it, so the client
    timeout turns a hung thread into a test failure.
    """
    address = ("127.0.0.1", port)
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(request)
        return _read_to_close(sock)


def _read_to_close(sock) -> bytes:
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


class TestHostileContentLength:
    """A bad or oversized ``Content-Length`` gets a one-line JSON error."""

    @pytest.mark.parametrize("declared", ["abc", "-1", "1_0", "+5", ""])
    def test_bad_length_400(self, live_server, declared):
        response = _raw_exchange(
            live_server.port,
            b"POST /compile HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: " + declared.encode() + b"\r\n\r\n",
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\n" not in body
        assert "Content-Length" in json.loads(body)["error"]
        assert get_json(live_server.url, "/healthz") == {"status": "ok"}
        assert live_server.stats()["server"]["errors"] == 1

    @pytest.mark.parametrize(
        "declared", [str(MAX_BODY_BYTES + 1), "100000000000", "9" * 5000],
        ids=["cap+1", "100GB", "5000-digits"],
    )
    def test_oversized_length_413(self, live_server, declared):
        # The body is never sent: the reply must come from the header.
        response = _raw_exchange(
            live_server.port,
            b"POST /compile HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: " + declared.encode() + b"\r\n\r\n",
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in head
        assert b"\n" not in body
        assert "body limit" in json.loads(body)["error"]
        assert get_json(live_server.url, "/healthz") == {"status": "ok"}
        assert live_server.stats()["server"]["errors"] == 1

    def test_valid_length_still_compiles(self, live_server):
        body = json.dumps({"graph": to_json(small_graph())}).encode()
        response = _raw_exchange(
            live_server.port,
            b"POST /compile HTTP/1.1\r\nHost: test\r\n"
            b"Connection: close\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            + body,
        )
        assert response.startswith(b"HTTP/1.1 200 ")


class TestBodyReadDeadline:
    """A stalled or truncated body: a one-line error, never a stuck thread."""

    @staticmethod
    def _handler_threads(before):
        return [
            t for t in threading.enumerate()
            if t not in before and t.is_alive()
            and "process_request_thread" in t.name
        ]

    def test_stalled_bodies_get_408_and_free_their_threads(
        self, monkeypatch
    ):
        monkeypatch.setattr(server_module, "BODY_READ_TIMEOUT_S", 0.3)
        before = set(threading.enumerate())
        server = CompileServer(CompileService(), port=0, quiet=True).start()
        try:
            socks = [
                socket.create_connection(("127.0.0.1", server.port),
                                         timeout=5)
                for _ in range(20)
            ]
            for sock in socks:
                sock.sendall(
                    b"POST /compile HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: 100\r\n\r\n12345"
                )
            for sock in socks:
                with sock:
                    response = _read_to_close(sock)
                head, _, body = response.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 408 ")
                assert b"Connection: close" in head
                assert b"\n" not in body and "error" in json.loads(body)
            assert get_json(server.url, "/healthz") == {"status": "ok"}
            stats = server.stats()["server"]
            assert (stats["errors"], stats["requests"]) == (20, 0)
            deadline = time.monotonic() + 5
            while (self._handler_threads(before)
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert self._handler_threads(before) == []
        finally:
            server.drain(timeout=10)
        assert self._handler_threads(before) == []

    def test_truncated_body_400_never_dispatched(self, live_server):
        # Valid JSON, but shorter than its Content-Length: refused.
        body = json.dumps({"graph": to_json(small_graph())}).encode()
        address = ("127.0.0.1", live_server.port)
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(
                b"POST /compile HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: " + str(len(body) + 10).encode()
                + b"\r\n\r\n" + body
            )
            sock.shutdown(socket.SHUT_WR)
            response = _read_to_close(sock)
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\n" not in payload
        assert "ended after" in json.loads(payload)["error"]
        stats = live_server.stats()["server"]
        assert (stats["errors"], stats["requests"], stats["compiled"]) == (
            1, 0, 0
        )


class TestRequestSpans:
    def test_traced_batch_is_one_request_span(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        server = CompileServer(
            CompileService(cache=ArtifactCache(str(tmp_path / "c"))),
            port=0, quiet=True, trace_path=trace,
        ).start()
        docs = [to_json(small_graph(f"span{i}")) for i in range(3)]
        compile_batch_remote(docs, url=server.url)
        server.drain(timeout=10)
        with open(trace) as handle:
            spans = [
                row for row in map(json.loads, handle)
                if row["type"] == "span"
            ]
        (request,) = [s for s in spans if s["name"] == "serve.request"]
        assert request["attrs"]["path"] == "/batch"
        children = [s for s in spans if s["depth"] == request["depth"] + 1]
        assert len(children) >= 3
        assert request["dur"] >= sum(child["dur"] for child in children)


class TestBatchThreadPath:
    """/batch on the in-process shard: isolation + timeouts."""

    def test_missing_field_messages_name_field_and_shape(self, live_server):
        # Satellite: a missing graph/graphs key must produce a one-line
        # actionable message, not a bare KeyError repr.
        for path, field in (("/compile", "graph"), ("/batch", "graphs")):
            with pytest.raises(ServeClientError) as err:
                serve_client._post(live_server.url, path, {"options": {}})
            assert err.value.status == 400
            message = str(err.value)
            assert f"missing required field '{field}'" in message
            assert f"POST {path} expects" in message
            assert "\n" not in message

    def test_poisoned_item_isolated(self, live_server):
        good = to_json(small_graph())
        results = compile_batch_remote(
            [good, {"actors": "nope"}, good], url=live_server.url
        )
        (r0, s0), (r1, s1), (r2, s2) = results
        assert isinstance(r1, BatchItemError)
        assert (s1, r1.code) == ("error", 400)
        assert s0 == "miss" and s2 == "hit"
        assert r0.canonical() == r2.canonical()
        stats = get_json(live_server.url, "/stats")["server"]
        assert stats["errors"] >= 1

    def test_batch_timeout_reclaims_pool_slot(self):
        # A /batch group that outlives the deadline answers each of its
        # items with a 504 and stops at the next item boundary: the
        # item in flight finishes in the background, the rest never
        # start, and the pool slot comes back.
        server = _faulted_server(
            workers=1, queue_limit=4, request_timeout=0.1
        )
        try:
            docs = [to_json(small_graph(f"slow{i}")) for i in range(6)]
            response = serve_client._post(
                server.url, "/batch",
                {"graphs": docs, "options": {}, "cache": False,
                 "faults": ["sleep:0.3"] * 6},
                timeout=30,
            )
            assert [item["code"] for item in response["responses"]] == (
                [504] * 6
            )
            # Wait out the abandoned group on the one-thread pool.
            server.shards._pool.submit(lambda: None).result(timeout=10)
            assert len(server.service._sessions) == 1
            stats = server.stats()["server"]
            assert stats["timeouts"] == 6
            assert stats["inflight"] == 0
        finally:
            server.drain(timeout=10)


class TestKernelPreload:
    @pytest.mark.skipif(
        native.find_compiler() is None or not native.native_enabled(),
        reason="native kernels unavailable (no cc, or REPRO_NATIVE=0)",
    )
    def test_small_served_miss_counts_native_dp(self, tmp_path):
        # A fresh interpreter: the test process may have loaded the
        # kernel already.  The server loads it before its first compile,
        # so a miss below the crossover still runs it.
        from .test_cold_imports import _run

        run = _run(
            "import json\n"
            "from repro.apps import table1_graph\n"
            "from repro.sdf.io import to_json\n"
            "from repro.serve import ArtifactCache, CompileServer,"
            " CompileService\n"
            "from repro.serve.client import compile_remote\n"
            f"cache, trace = {str(tmp_path / 'c')!r}, "
            f"{str(tmp_path / 't.jsonl')!r}\n"
            "server = CompileServer(CompileService(cache=ArtifactCache(cache)),"
            " port=0, quiet=True, trace_path=trace).start()\n"
            "graph = table1_graph('satrec')\n"
            "_, status = compile_remote(to_json(graph), url=server.url)\n"
            "server.drain(timeout=10)\n"
            "counters = {}\n"
            "for line in open(trace):\n"
            "    row = json.loads(line)\n"
            "    if row['type'] == 'counter':\n"
            "        counters[row['name']] = row['total']\n"
            "print(json.dumps({'actors': graph.num_actors,"
            " 'status': status, 'counters': counters}))\n"
        )
        assert run["actors"] < native.CROSSOVER_ACTORS
        assert run["status"] == "miss"
        assert run["counters"].get("native.dp", 0) >= 1
        assert "native.fallback" not in run["counters"]


class TestCacheCorruptInjection:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_modes_caught(self, seed):
        art = build_artifacts(small_graph(), method="rpmc", seed=seed)
        outcome = inject_cache_corrupt(art, random.Random(seed))
        assert outcome is not None
        assert outcome.caught, outcome.detail
