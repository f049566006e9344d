"""Tests for the compile farm: sharding, tiers, single-flight,
supervision, client retries, and cache gc under concurrency."""

import json
import multiprocessing
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.apps.ptolemy_demos import cd_to_dat
from repro.scheduling.pipeline import implement
from repro.sdf.graph import SDFGraph
from repro.sdf.io import canonical_hash, to_json
from repro.serve import (
    ArtifactCache,
    CompilationReport,
    CompileOptions,
    CompileServer,
    CompileService,
    ServeClientError,
    WorkerFarm,
    cache_key,
    rendezvous_shard,
)
from repro.serve.farm import ShardCore
from repro.serve import client as serve_client
from repro.serve import farm as farm_module
from repro.serve.client import (
    BatchItemError,
    compile_batch_remote,
    compile_remote,
    get_json,
    resize_remote,
)


def small_graph(name="farm_sample"):
    g = SDFGraph(name)
    g.add_actors("ABC")
    g.add_edge("A", "B", 3, 2)
    g.add_edge("B", "C", 2, 5, delay=2)
    return g


def make_report():
    result = implement(small_graph())
    return CompilationReport.from_result(result, "farm_sample")


def farm_counter(server, name):
    """A shard counter summed over all shards, via /stats."""
    stats = get_json(server.url, "/stats")
    return stats["shard_counters"].get(name, 0)


class TestRendezvousShard:
    def test_deterministic_and_stable_across_instances(self):
        # The shard is a pure function of (digest, size): two pools of
        # the same size — e.g. a server before and after a restart —
        # must agree on every placement.
        digests = [canonical_hash(to_json(small_graph(f"g{i}")))
                   for i in range(12)]
        for size in (1, 2, 4, 8):
            first = [rendezvous_shard(d, size) for d in digests]
            again = [rendezvous_shard(d, size) for d in digests]
            assert first == again
            assert all(0 <= s < size for s in first)

    def test_all_slots_reachable(self):
        shards = {rendezvous_shard(f"{i:064x}", 4) for i in range(64)}
        assert shards == {0, 1, 2, 3}

    def test_growth_moves_few_keys(self):
        # Consistent-hashing property: going from N to N+1 workers
        # must not reshuffle the world (that would cold every cache).
        keys = [f"{i:064x}" for i in range(256)]
        before = [rendezvous_shard(k, 4) for k in keys]
        after = [rendezvous_shard(k, 5) for k in keys]
        moved = sum(1 for b, a in zip(before, after) if b != a)
        assert moved < len(keys) * 0.4  # ~1/5 expected, 0.4 is lax

    def test_farm_shard_for_matches_free_function(self):
        farm = WorkerFarm(size=4, supervise_interval=0)  # not started
        digest = canonical_hash(to_json(small_graph()))
        assert farm.shard_for(digest) == rendezvous_shard(digest, 4)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            rendezvous_shard("ab", 0)
        with pytest.raises(ValueError):
            WorkerFarm(size=0)


def core_with_cache(tmp_path):
    return ShardCore(
        CompileService(cache=ArtifactCache(str(tmp_path))),
        allow_faults=False,
    )


def shard_item(doc):
    """``(key, request)`` for one cache-enabled item, as the front end
    builds them."""
    return (
        cache_key(doc, CompileOptions().key_dict()),
        {"graph": doc, "options": {}},
    )


def body_canonical(body):
    return CompilationReport.from_json(
        json.loads(body)["report"]
    ).canonical()


class TestMemoryTier:
    """The shard's memo of rendered bodies is the one memory tier."""

    def test_three_tiers_bit_identical(self, tmp_path):
        core = core_with_cache(tmp_path)
        key, request = shard_item(to_json(small_graph()))
        # Key only: both tiers miss, so the shard asks for the document.
        assert core.answer(key, None, None) == ("need",)
        cold = core.answer(key, request, None)
        disk = core.answer(key, None, None)
        memory = core.answer(key, None, None)
        assert [entry[:3] for entry in (cold, disk, memory)] == [
            ("ok", "miss", "compile"),
            ("ok", "hit", "disk"),
            ("ok", "hit", "memory"),
        ]
        assert (
            body_canonical(cold[3]) == body_canonical(disk[3])
            == body_canonical(memory[3])
        )
        assert memory[3] == disk[3]  # the memo ships the stored bytes
        assert core.counter_totals() == {
            "farm.requests": 3, "farm.compiles": 1,
            "farm.disk_hits": 1, "farm.mem_hits": 1,
        }

    def test_never_repeated_misses_leave_memo_empty(self, tmp_path):
        # Only a disk hit fills the memo, so a stream of never-seen
        # misses holds no rendered bodies: serve RSS stays flat.
        core = core_with_cache(tmp_path)
        for i in range(6):
            key, request = shard_item(to_json(small_graph(f"n{i}")))
            assert core.answer(key, request, None)[1] == "miss"
        assert len(core._bodies) == 0
        assert core.counter_totals()["farm.compiles"] == 6

    def test_memory_lru_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(farm_module, "MEMO_ENTRIES", 2)
        core = core_with_cache(tmp_path)
        items = [shard_item(to_json(small_graph(f"m{i}"))) for i in range(3)]
        for key, request in items:
            core.answer(key, request, None)
        for key, _request in items:
            assert core.answer(key, None, None)[2] == "disk"
        assert len(core._bodies) == 2
        # The oldest body fell out of the memo; it comes back from disk.
        assert core.answer(items[0][0], None, None)[2] == "disk"
        assert core.answer(items[2][0], None, None)[2] == "memory"
        assert len(core._bodies) == 2

    def test_lookup_misses_do_not_skew_counters(self, tmp_path):
        core = core_with_cache(tmp_path)
        cache = core.service.cache
        key, request = shard_item(to_json(small_graph()))
        assert core.service.lookup(key) is None
        # A miss as the front end drives it: the key-only probe, then
        # the re-probe and the compile once the document arrives.
        assert core.answer(key, None, None) == ("need",)
        core.answer(key, request, None)
        # One logical miss happened; the probes must not double-count.
        assert (cache.hits, cache.misses) == (0, 1)
        core.answer(key, None, None)
        assert (cache.hits, cache.misses) == (1, 1)


@pytest.fixture
def farm_server(tmp_path):
    server = CompileServer(
        CompileService(cache=ArtifactCache(str(tmp_path))),
        port=0, processes=2, queue_limit=32,
        allow_faults=True, quiet=True,
    ).start()
    yield server
    server.drain(timeout=15)


class TestFarmServer:
    def test_miss_then_hit_bit_identical(self, farm_server):
        doc = to_json(cd_to_dat())
        cold, s1 = compile_remote(doc, url=farm_server.url)
        warm, s2 = compile_remote(doc, url=farm_server.url)
        assert (s1, s2) == ("miss", "hit")
        assert warm.canonical() == cold.canonical()
        assert farm_counter(farm_server, "farm.compiles") == 1

    def test_requests_land_on_their_shard(self, farm_server):
        docs = [to_json(small_graph(f"s{i}")) for i in range(4)]
        expected = [0] * farm_server.farm.size
        for doc in docs:
            shard = farm_server.farm.shard_for(canonical_hash(doc))
            expected[shard] += 2
            compile_remote(doc, url=farm_server.url)
            compile_remote(doc, url=farm_server.url)
        stats = get_json(farm_server.url, "/stats")
        observed = [w["requests"] for w in stats["farm"]["workers"]]
        assert observed == expected

    def test_single_flight_concurrent_identical_colds(self, farm_server):
        # Six identical cold requests in flight together: the leader
        # compiles (slowed by the sleep fault so the others genuinely
        # overlap), the rest receive its bytes.  Exactly one compile.
        doc = to_json(small_graph("stampede"))
        payload = {
            "graph": doc, "options": {}, "cache": True,
            "fault": "sleep:0.4",
        }
        results = []
        errors = []

        def post():
            try:
                results.append(
                    serve_client._post(
                        farm_server.url, "/compile", payload, timeout=30
                    )
                )
            except ServeClientError as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=post) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(results) == 6
        canonicals = set()
        for response in results:
            report = CompilationReport.from_json(response["report"])
            canonicals.add(report.canonical())
        assert len(canonicals) == 1
        assert farm_counter(farm_server, "farm.compiles") == 1
        stats = get_json(farm_server.url, "/stats")["server"]
        assert stats["misses"] == 1
        assert stats["coalesced"] + stats["hits"] == 5
        assert stats["coalesced"] >= 1

    def test_worker_crash_is_one_line_503_and_recovers(self, farm_server):
        doc = to_json(small_graph("crashy"))
        payload = {
            "graph": doc, "options": {}, "cache": False,
            "fault": "worker_crash",
        }
        with pytest.raises(ServeClientError) as err:
            serve_client._post(
                farm_server.url, "/compile", payload, timeout=30
            )
        assert err.value.status == 503
        assert "\n" not in str(err.value)
        # The same worker answers normal traffic again immediately.
        report, status = compile_remote(doc, url=farm_server.url)
        assert status in ("miss", "hit")
        assert report.graph == "crashy"
        health = get_json(farm_server.url, "/healthz")
        assert health["status"] == "ok"
        assert health["farm"]["alive"] == health["farm"]["size"]
        assert health["farm"]["restarts"] >= 1

    def test_idle_crash_respawned_by_supervisor(self, farm_server):
        handle = farm_server.farm._handles[0]
        pid = handle.proc.pid
        handle.proc.kill()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if (
                handle.proc is not None
                and handle.proc.is_alive()
                and handle.proc.pid != pid
            ):
                break
            time.sleep(0.05)
        health = get_json(farm_server.url, "/healthz")
        assert health["farm"]["alive"] == health["farm"]["size"]
        assert health["farm"]["restarts"] >= 1

    def test_hung_worker_times_out_and_respawns(self, tmp_path):
        server = CompileServer(
            CompileService(cache=ArtifactCache(str(tmp_path / "c2"))),
            port=0, processes=1, queue_limit=8,
            request_timeout=0.5, allow_faults=True, quiet=True,
        ).start()
        try:
            doc = to_json(small_graph("sleepy"))
            payload = {
                "graph": doc, "options": {}, "cache": False,
                "fault": "sleep:30",
            }
            with pytest.raises(ServeClientError) as err:
                serve_client._post(server.url, "/compile", payload,
                                   timeout=30)
            assert err.value.status == 504
            # The shard healed: the killed worker's replacement serves.
            report, _ = compile_remote(doc, url=server.url, timeout=30)
            assert report.graph == "sleepy"
            assert server.farm.restarts_total() >= 1
        finally:
            server.drain(timeout=15)

    def test_mixed_load_with_crash_all_answered(self, farm_server):
        # Acceptance: killing a worker mid-load leaves the server
        # healthy with every request answered — a result or a one-line
        # 503, never a hang.
        docs = [to_json(small_graph(f"mix{i}")) for i in range(4)]
        outcomes = []

        def normal(doc):
            try:
                _, status = compile_remote(doc, url=farm_server.url,
                                           timeout=60)
                outcomes.append(("ok", status))
            except ServeClientError as exc:
                outcomes.append(("err", exc.status))

        def crash():
            payload = {
                "graph": to_json(small_graph("mixcrash")),
                "options": {}, "cache": False, "fault": "worker_crash",
            }
            try:
                serve_client._post(farm_server.url, "/compile", payload,
                                   timeout=60)
                outcomes.append(("ok", "crash-survived"))
            except ServeClientError as exc:
                outcomes.append(("err", exc.status))

        threads = [threading.Thread(target=normal, args=(d,))
                   for d in docs for _ in range(2)]
        threads.insert(3, threading.Thread(target=crash))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90)
        assert not any(t.is_alive() for t in threads), "a request hung"
        assert len(outcomes) == 9
        # Normal requests may be collateral 503s of the crashed worker,
        # but every single one got an answer and the pool recovered.
        assert all(
            kind == "ok" or code in (503, 504)
            for kind, code in outcomes
        )
        health = get_json(farm_server.url, "/healthz")
        assert health["farm"]["alive"] == health["farm"]["size"]

    def test_stats_reports_latency_percentiles(self, farm_server):
        doc = to_json(small_graph())
        for _ in range(3):
            compile_remote(doc, url=farm_server.url)
        latency = get_json(farm_server.url, "/stats")["latency_ms"]
        assert latency["count"] >= 3
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_cache_disabled_matches_direct_pipeline(self, farm_server):
        doc = to_json(small_graph())
        report, status = compile_remote(
            doc, url=farm_server.url, use_cache=False
        )
        assert status == "disabled"
        direct = CompilationReport.from_result(
            implement(small_graph()), "farm_sample"
        )
        assert report.canonical() == direct.canonical()

    def test_bad_request_stays_400_on_farm_path(self, farm_server):
        with pytest.raises(ServeClientError) as err:
            compile_remote({"actors": "nope"}, url=farm_server.url)
        assert err.value.status == 400
        with pytest.raises(ServeClientError) as err:
            compile_remote(
                to_json(small_graph()), url=farm_server.url,
                options={"bogus": 1},
            )
        assert err.value.status == 400


def canonical_sans_key(report):
    """Canonical payload with the cache key cleared, for comparing a
    served report against a direct ``implement()`` run (which has no
    cache and therefore an empty key)."""
    payload = json.loads(report.canonical())
    payload["key"] = ""
    return payload


class TestFarmBatch:
    """/batch routed through the farm: sharding, coalescing, isolation."""

    def test_mixed_batch_bit_identical_to_serial_implement(
        self, farm_server
    ):
        graphs = [small_graph(f"fb{i}") for i in range(4)]
        docs = [to_json(g) for g in graphs] + [to_json(graphs[0])]
        cold = compile_batch_remote(docs, url=farm_server.url)
        # Four distinct colds compile; the in-batch duplicate of the
        # first is answered from the tiers.
        assert [s for _, s in cold] == ["miss"] * 4 + ["hit"]
        warm = compile_batch_remote(docs, url=farm_server.url)
        assert [s for _, s in warm] == ["hit"] * 5
        for (c, _), (w, _) in zip(cold, warm):
            assert w.canonical() == c.canonical()
        for graph, (report, _) in zip(graphs, cold):
            direct = CompilationReport.from_result(
                implement(graph), graph.name, seed=0
            )
            assert canonical_sans_key(report) == canonical_sans_key(direct)

    def test_identical_colds_in_one_batch_compile_once(self, farm_server):
        doc = to_json(small_graph("batchstampede"))
        results = compile_batch_remote([doc] * 6, url=farm_server.url)
        assert len({r.canonical() for r, _ in results}) == 1
        # Same digest => same shard => one ordered group: the first
        # item compiles, the other five are tier hits.  Exactly one
        # pipeline run for six identical cold items.
        assert results[0][1] == "miss"
        assert all(s == "hit" for _, s in results[1:])
        assert farm_counter(farm_server, "farm.compiles") == 1

    def test_poisoned_item_isolated_per_item(self, farm_server):
        good = to_json(small_graph("pois"))
        results = compile_batch_remote(
            [good, {"actors": "nope"}, good], url=farm_server.url
        )
        (r0, s0), (r1, s1), (r2, s2) = results
        assert isinstance(r1, BatchItemError)
        assert (s1, r1.code) == ("error", 400)
        assert "\n" not in r1.message
        assert s0 == "miss" and s2 == "hit"
        assert r0.canonical() == r2.canonical()

    def test_worker_crash_mid_batch_isolated_per_item(self, farm_server):
        docs = [to_json(small_graph(f"cb{i}")) for i in range(3)]
        payload = {
            "graphs": docs, "options": {}, "cache": False,
            "faults": [None, "worker_crash", None],
        }
        response = serve_client._post(
            farm_server.url, "/batch", payload, timeout=60
        )
        items = response["responses"]
        assert items[1]["status"] == "error"
        assert items[1]["code"] == 503
        assert "\n" not in items[1]["error"]
        assert items[0]["status"] == "disabled"
        assert items[2]["status"] == "disabled"
        health = get_json(farm_server.url, "/healthz")
        assert health["status"] == "ok"
        assert health["farm"]["alive"] == health["farm"]["size"]

    def test_missing_graphs_field_actionable_message(self, farm_server):
        with pytest.raises(ServeClientError) as err:
            serve_client._post(
                farm_server.url, "/batch", {"options": {}}
            )
        assert err.value.status == 400
        message = str(err.value)
        assert "missing required field 'graphs'" in message
        assert "POST /batch expects" in message
        assert "\n" not in message
        with pytest.raises(ServeClientError) as err:
            serve_client._post(
                farm_server.url, "/compile", {"options": {}}
            )
        assert "missing required field 'graph'" in str(err.value)

    def test_batch_counts_in_farm_worker_stats(self, farm_server):
        docs = [to_json(small_graph(f"wc{i}")) for i in range(3)]
        compile_batch_remote(docs, url=farm_server.url)
        assert farm_counter(farm_server, "farm.compiles") == 3
        stats = get_json(farm_server.url, "/stats")
        by_worker = [w["requests"] for w in stats["farm"]["workers"]]
        assert sum(by_worker) == 3


def _normalized(responses):
    """Responses with each report replaced by its canonical form."""
    return [
        dict(r, report=CompilationReport.from_json(r["report"]).canonical())
        if "report" in r else r
        for r in responses
    ]


class TestOneRequestPath:
    """In-process and farm servers answer through the same path."""

    def test_local_and_farm_answers_agree(self, tmp_path):
        docs = [to_json(cd_to_dat()), to_json(small_graph("one_path"))]
        runs = {}
        for processes in (0, 2):
            server = CompileServer(
                CompileService(
                    cache=ArtifactCache(str(tmp_path / str(processes)))
                ),
                port=0, processes=processes, quiet=True,
            ).start()
            try:
                responses = [
                    serve_client._post(server.url, "/compile",
                                       {"graph": doc, "options": {}})
                    for doc in docs * 2
                ]
                responses += serve_client._post(
                    server.url, "/batch",
                    {"graphs": docs + [{"actors": "nope"}], "options": {}},
                )["responses"]
                with pytest.raises(ServeClientError) as err:
                    serve_client._post(server.url, "/compile", [1])
                assert err.value.status == 400
                stats = server.stats()["server"]
            finally:
                server.drain(timeout=15)
            runs[processes] = (
                _normalized(responses),
                {name: stats[name] for name in
                 ("requests", "hits", "misses", "compiled", "errors")},
            )
        assert runs[0] == runs[2]
        assert runs[0][1] == {"requests": 5, "hits": 4, "misses": 2,
                              "compiled": 2, "errors": 2}

    @pytest.mark.parametrize("processes", [0, 1])
    def test_tier_split_in_stats(self, tmp_path, processes):
        # The same miss/hit/hit sequence reports the same tier split
        # and byte-identical reports in-process and on a farm.
        doc = to_json(cd_to_dat())
        reference, _ = CompileService(
            cache=ArtifactCache(str(tmp_path / "ref"))
        ).compile_document(doc)
        server = CompileServer(
            CompileService(cache=ArtifactCache(str(tmp_path / "c"))),
            port=0, processes=processes, quiet=True,
        ).start()
        try:
            runs = [compile_remote(doc, url=server.url) for _ in range(3)]
            counters = get_json(server.url, "/stats")["shard_counters"]
        finally:
            server.drain(timeout=15)
        assert [status for _, status in runs] == ["miss", "hit", "hit"]
        for report, _ in runs:
            assert report.canonical() == reference.canonical()
        assert counters == {
            "farm.requests": 3, "farm.compiles": 1,
            "farm.disk_hits": 1, "farm.mem_hits": 1,
        }

    def test_traced_farm_batch_is_one_request_span(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        server = CompileServer(
            CompileService(cache=ArtifactCache(str(tmp_path / "c"))),
            port=0, processes=1, quiet=True, trace_path=trace,
        ).start()
        try:
            compile_batch_remote(
                [to_json(small_graph(f"span{i}")) for i in range(3)],
                url=server.url,
            )
        finally:
            server.drain(timeout=15)
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


class TestFarmResize:
    """POST /resize: live grow/drain with counters surviving."""

    def test_grow_and_shrink_live_bit_identical(self, farm_server):
        docs = [to_json(small_graph(f"rz{i}")) for i in range(6)]
        baseline = compile_batch_remote(docs, url=farm_server.url)
        info = resize_remote(4, url=farm_server.url)
        assert (info["previous"], info["size"]) == (2, 4)
        assert (info["added"], info["removed"]) == (2, 0)
        health = get_json(farm_server.url, "/healthz")
        assert health["farm"]["alive"] == health["farm"]["size"] == 4
        grown = compile_batch_remote(docs, url=farm_server.url)
        info = resize_remote(2, url=farm_server.url)
        assert (info["size"], info["removed"]) == (2, 2)
        shrunk = compile_batch_remote(docs, url=farm_server.url)
        for (b, _), (g, _), (s, _) in zip(baseline, grown, shrunk):
            assert b.canonical() == g.canonical() == s.canonical()
        stats = get_json(farm_server.url, "/stats")
        assert stats["farm"]["retired_workers"] == 2
        # Every batch item is one farm request; the drained workers'
        # tallies were folded into the totals, so nothing went
        # backwards across the shrink.
        assert stats["shard_counters"]["farm.requests"] >= 18

    def test_resize_is_idempotent_for_same_size(self, farm_server):
        info = resize_remote(2, url=farm_server.url)
        assert info == {**info, "previous": 2, "size": 2,
                        "added": 0, "removed": 0}

    def test_resize_rejects_bad_requests(self, farm_server):
        with pytest.raises(ServeClientError) as err:
            resize_remote(0, url=farm_server.url)
        assert err.value.status == 400
        with pytest.raises(ServeClientError) as err:
            serve_client._post(farm_server.url, "/resize", {})
        assert err.value.status == 400
        assert "missing required field 'workers'" in str(err.value)

    def test_resize_without_farm_is_400(self, tmp_path):
        server = CompileServer(
            CompileService(cache=ArtifactCache(str(tmp_path))),
            port=0, processes=0, quiet=True,
        ).start()
        try:
            with pytest.raises(ServeClientError) as err:
                resize_remote(2, url=server.url)
            assert err.value.status == 400
            assert "no farm" in str(err.value)
        finally:
            server.drain(timeout=10)

    def test_resize_under_load_drops_nothing(self, farm_server):
        # Acceptance: resizing 2->4->3->2 while batches hammer the
        # server must drop zero in-flight requests and keep every
        # response bit-identical.
        docs = [to_json(small_graph(f"load{i}")) for i in range(4)]
        baseline = compile_batch_remote(docs, url=farm_server.url)
        expected = [r.canonical() for r, _ in baseline]
        stop = threading.Event()
        failures = []
        rounds = [0]

        def hammer():
            while not stop.is_set():
                try:
                    results = compile_batch_remote(
                        docs, url=farm_server.url, timeout=60
                    )
                except ServeClientError as exc:
                    failures.append(("transport", str(exc)))
                    continue
                rounds[0] += 1
                for (report, status), want in zip(results, expected):
                    if isinstance(report, BatchItemError):
                        failures.append(("item-error", report.message))
                    elif report.canonical() != want:
                        failures.append(("mismatch", status))

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for t in threads:
            t.start()
        try:
            for size in (4, 3, 2):
                info = resize_remote(size, url=farm_server.url,
                                     timeout=60)
                assert info["size"] == size
                time.sleep(0.15)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "a batch hung"
        assert failures == []
        assert rounds[0] >= 3
        health = get_json(farm_server.url, "/healthz")
        assert health["status"] == "ok"
        assert health["farm"]["alive"] == health["farm"]["size"] == 2

    def test_farm_resize_moves_few_assignments(self):
        # Acceptance: the routing function behind /resize moves at
        # most ~1/N of the shard assignments on a grow of one.
        keys = [f"{i:064x}" for i in range(512)]
        before = [rendezvous_shard(k, 4) for k in keys]
        after = [rendezvous_shard(k, 5) for k in keys]
        moved = sum(1 for b, a in zip(before, after) if b != a)
        assert moved <= len(keys) * 0.3  # ~1/5 expected


class _StubHandler(BaseHTTPRequestHandler):
    """Scripted responses for client-retry tests."""

    script = []  # list of (code, headers, payload) consumed per request
    seen = []

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
        type(self).seen.append(self.path)
        code, headers, payload = (
            self.script.pop(0) if self.script
            else (200, {}, {"status": "hit", "report": None})
        )
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        pass


@pytest.fixture
def stub_server():
    httpd = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    _StubHandler.script = []
    _StubHandler.seen = []
    yield httpd
    httpd.shutdown()
    httpd.server_close()


def stub_url(httpd):
    return f"http://127.0.0.1:{httpd.server_address[1]}"


def ok_payload():
    return {"status": "miss", "report": make_report().to_json()}


class TestClientRetries:
    def test_default_no_retry(self, stub_server):
        _StubHandler.script = [
            (429, {"Retry-After": "1"}, {"error": "queue full"}),
            (200, {}, ok_payload()),
        ]
        with pytest.raises(ServeClientError) as err:
            compile_remote(to_json(small_graph()),
                           url=stub_url(stub_server))
        assert err.value.status == 429
        assert err.value.retry_after == 1.0
        assert len(_StubHandler.seen) == 1

    def test_retry_honors_retry_after(self, stub_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr(serve_client, "_sleep", sleeps.append)
        monkeypatch.setattr(serve_client, "_jitter", lambda: 1.0)
        _StubHandler.script = [
            (429, {"Retry-After": "2"}, {"error": "queue full"}),
            (503, {"Retry-After": "0.5"}, {"error": "worker respawning"}),
            (200, {}, ok_payload()),
        ]
        report, status = compile_remote(
            to_json(small_graph()), url=stub_url(stub_server), retries=3
        )
        assert status == "miss"
        assert report.graph == "farm_sample"
        assert len(_StubHandler.seen) == 3
        # jitter pinned to 1.0 => sleeps are exactly the Retry-After
        # values the server sent.
        assert sleeps == [2.0, 0.5]

    def test_backoff_without_header_is_exponential_and_capped(
        self, stub_server, monkeypatch
    ):
        sleeps = []
        monkeypatch.setattr(serve_client, "_sleep", sleeps.append)
        monkeypatch.setattr(serve_client, "_jitter", lambda: 1.0)
        _StubHandler.script = [
            (503, {}, {"error": "busy"}) for _ in range(4)
        ] + [(200, {}, ok_payload())]
        compile_remote(
            to_json(small_graph()), url=stub_url(stub_server), retries=4
        )
        assert sleeps == [0.25, 0.5, 1.0, 2.0]
        # A huge Retry-After is clamped to the cap.
        sleeps.clear()
        _StubHandler.script = [
            (429, {"Retry-After": "3600"}, {"error": "busy"}),
            (200, {}, ok_payload()),
        ]
        compile_remote(
            to_json(small_graph()), url=stub_url(stub_server), retries=1
        )
        assert sleeps == [serve_client.RETRY_CAP_S]

    def test_http_date_retry_after_honored(self, stub_server, monkeypatch):
        import email.utils

        sleeps = []
        monkeypatch.setattr(serve_client, "_sleep", sleeps.append)
        monkeypatch.setattr(serve_client, "_jitter", lambda: 1.0)
        # RFC 9110 allows the HTTP-date form; it must parse to the
        # seconds-until-then (capped), not raise inside the retry loop.
        date = email.utils.formatdate(time.time() + 4, usegmt=True)
        _StubHandler.script = [
            (429, {"Retry-After": date}, {"error": "busy"}),
            (200, {}, ok_payload()),
        ]
        report, status = compile_remote(
            to_json(small_graph()), url=stub_url(stub_server), retries=1
        )
        assert status == "miss"
        assert len(sleeps) == 1
        assert 2.5 <= sleeps[0] <= 4.5

    def test_garbage_retry_after_falls_back_to_backoff(
        self, stub_server, monkeypatch
    ):
        sleeps = []
        monkeypatch.setattr(serve_client, "_sleep", sleeps.append)
        monkeypatch.setattr(serve_client, "_jitter", lambda: 1.0)
        _StubHandler.script = [
            (429, {"Retry-After": "soonish"}, {"error": "busy"}),
            (503, {"Retry-After": "Wed, 99 Nonsense"}, {"error": "busy"}),
            (200, {}, ok_payload()),
        ]
        report, status = compile_remote(
            to_json(small_graph()), url=stub_url(stub_server), retries=2
        )
        assert status == "miss"
        # Unparseable headers never raise: each attempt fell back to
        # the exponential schedule (0.25, 0.5, ...).
        assert sleeps == [0.25, 0.5]

    def test_parse_retry_after_forms(self):
        import email.utils

        parse = serve_client._parse_retry_after
        assert parse(None) is None
        assert parse("") is None
        assert parse("2") == 2.0
        assert parse("-5") == 0.0
        assert parse("soonish") is None
        past = email.utils.formatdate(time.time() - 100, usegmt=True)
        assert parse(past) == 0.0

    def test_retries_exhausted_raises_last_error(
        self, stub_server, monkeypatch
    ):
        monkeypatch.setattr(serve_client, "_sleep", lambda s: None)
        _StubHandler.script = [
            (429, {"Retry-After": "0"}, {"error": "queue full"})
            for _ in range(3)
        ]
        with pytest.raises(ServeClientError) as err:
            compile_remote(to_json(small_graph()),
                           url=stub_url(stub_server), retries=2)
        assert err.value.status == 429
        assert len(_StubHandler.seen) == 3

    def test_non_retryable_statuses_fail_fast(
        self, stub_server, monkeypatch
    ):
        monkeypatch.setattr(
            serve_client, "_sleep",
            lambda s: pytest.fail("must not sleep on 400"),
        )
        _StubHandler.script = [(400, {}, {"error": "bad graph"})]
        with pytest.raises(ServeClientError) as err:
            compile_remote(to_json(small_graph()),
                           url=stub_url(stub_server), retries=5)
        assert err.value.status == 400
        assert len(_StubHandler.seen) == 1


def _gc_writer(task):
    """Hammer the shared cache with writes (separate process)."""
    root, worker, rounds, report_json = task
    cache = ArtifactCache(root)
    report = CompilationReport.from_json(report_json)
    for i in range(rounds):
        # Few distinct keys per worker: later rounds *rewrite* entries,
        # exercising the scan-then-replace race against gc.
        key = f"{worker:02d}{i % 4:02d}" + "ab" * 30
        cache.put(key, report)
    return cache.writes


class TestCacheGcRaces:
    def test_rewritten_entry_not_deleted(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        report = make_report()
        key = "aa" * 32
        cache.put(key, report)
        path = cache.path_for(key)
        stale_ns = os.stat(path).st_mtime_ns - 10_000_000_000
        # A writer replaced the entry after gc's scan recorded
        # stale_ns: the removal must be skipped.
        assert cache._remove_if_unchanged(path, stale_ns) is False
        assert os.path.isfile(path)

    def test_vanished_entry_not_double_counted(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.put("bb" * 32, make_report())
        path = cache.path_for("bb" * 32)
        seen = os.stat(path).st_mtime_ns
        os.unlink(path)  # concurrent gc got there first
        assert cache._remove_if_unchanged(path, seen) is False
        assert cache.gc(max_entries=0) == 0

    def test_gc_ignores_inflight_tempfiles(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.put("cc" * 32, make_report())
        sub = os.path.dirname(cache.path_for("cc" * 32))
        tmp = os.path.join(sub, "tmpworker.tmp")
        with open(tmp, "w") as handle:
            handle.write("{half an entry")
        assert cache.gc(max_entries=0) == 1  # the entry, not the tmp
        assert os.path.isfile(tmp)

    def test_stats_tolerates_vanishing_entries(self, tmp_path, monkeypatch):
        cache = ArtifactCache(str(tmp_path))
        cache.put("dd" * 32, make_report())
        cache.put("ee" * 32, make_report())
        real_getsize = os.path.getsize

        def flaky_getsize(path):
            if "dd" in os.path.basename(path):
                raise FileNotFoundError(path)
            return real_getsize(path)

        monkeypatch.setattr(os.path, "getsize", flaky_getsize)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0

    def test_concurrent_writers_and_gc_stress(self, tmp_path):
        # Several processes rewrite a small key space while the parent
        # runs gc in a tight loop.  Nothing may crash, every surviving
        # entry must verify, and removals must be consistent.
        root = str(tmp_path)
        report_json = make_report().to_json()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        tasks = [(root, w, 40, report_json) for w in range(3)]
        with ctx.Pool(3) as pool:
            async_result = pool.map_async(_gc_writer, tasks)
            gc_cache = ArtifactCache(root)
            removed = 0
            while not async_result.ready():
                removed += gc_cache.gc(max_entries=3)
                gc_cache.gc(max_age_s=0.0)  # expire-everything sweep
            writes = async_result.get(timeout=60)
        assert writes == [40, 40, 40]
        # Every entry still on disk parses and verifies.
        survivor_cache = ArtifactCache(root)
        for path in survivor_cache._entries():
            key = os.path.basename(path)[:-len(".json")]
            report = survivor_cache.get(key)
            assert report is not None, f"unverifiable survivor {path}"
        assert survivor_cache.evictions == 0
        # No tempfiles were orphaned or deleted mid-replace.
        leftovers = [
            name
            for _, _, names in os.walk(root)
            for name in names
            if name.endswith(".tmp")
        ]
        assert leftovers == []
