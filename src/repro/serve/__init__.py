"""Compilation as a service: content-addressed caching over the pipeline.

The one-shot CLI (``repro compile``) reruns the full
schedule/allocation flow on every invocation.  This package turns the
same :func:`~repro.scheduling.pipeline.implement` machinery into a
long-running, cache-fronted service:

:mod:`repro.artifacts` (re-exported here)
    :class:`ArtifactCache` — a content-addressed on-disk store of
    :class:`CompilationReport` payloads, keyed by
    :func:`~repro.artifacts.cache.cache_key` (SHA-256 of the canonical
    graph document + strategy options + package version).  Atomic
    writes, hash-verified reads, corrupt entries evicted and
    recomputed rather than served.  ``repro cache {stats,gc,clear}``.
    :class:`CompilationReport` is the plain-data projection of an
    ``ImplementationResult`` that travels over HTTP and into the
    cache.  The package is a leaf that :mod:`repro.native` shares for
    its kernel binaries without importing this one.

:mod:`repro.serve.service`
    :class:`CompileService` — transport-independent cache-then-compile
    core with a per-graph :class:`CompilationSession` LRU.

:mod:`repro.serve.farm`
    :class:`WorkerFarm` — a supervised pool of compile worker
    *processes*, sharded by graph content digest with rendezvous
    hashing (:func:`~repro.serve.farm.rendezvous_shard`) so each
    worker's session LRU and memory tier stay hot.  Crashed
    workers are respawned; their in-flight request fails with a
    one-line 503 rather than hanging.  :class:`LocalShard` runs the
    same worker core in-process for a server without a farm.

:mod:`repro.serve.server`
    :class:`CompileServer` — the ``repro serve`` JSON-over-HTTP
    front end (stdlib ``http.server``): one request path to a compile
    farm or the local shard, single-flight coalescing of identical
    concurrent requests, bounded queue with 429 backpressure, bounded
    body reads, per-request timeouts, latency percentiles on
    ``/stats``, graceful SIGTERM drain, per-request ``repro.obs``
    spans (including shard-side subtrees) exported through the
    Chrome-trace path.

:mod:`repro.serve.client`
    ``repro submit`` — submit one or many graphs to a running server
    and print/save the reports.

Quickstart::

    $ repro serve --port 8177 &
    $ repro submit cddat                 # cold: compiles, fills cache
    $ repro submit cddat                 # warm: served from cache,
                                         # bit-identical, >=10x faster

The cache can be disabled end to end (``repro serve --no-cache``,
``repro submit --no-cache``, ``CompileService(cache=None)``), in which
case the service's outputs are bit-identical to the direct pipeline.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "ArtifactCache": "..artifacts.cache",
    "cache_key": "..artifacts.cache",
    "default_cache_dir": "..artifacts.cache",
    "BatchItemError": ".client",
    "CompilationReport": "..artifacts.report",
    "CompileOptions": ".service",
    "CompileService": ".service",
    "CompileServer": ".server",
    "DEFAULT_PORT": ".server",
    "DEFAULT_URL": ".client",
    "FarmError": ".farm",
    "FarmTimeout": ".farm",
    "FarmWorkerCrashed": ".farm",
    "ServeClientError": ".client",
    "WorkerFarm": ".farm",
    "compile_remote": ".client",
    "compile_batch_remote": ".client",
    "get_json": ".client",
    "rendezvous_shard": ".farm",
    "resize_remote": ".client",
})
