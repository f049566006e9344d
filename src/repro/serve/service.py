"""The compilation service core: cache in front of the pipeline.

:class:`CompileService` is the transport-independent heart of
``repro serve`` — the HTTP server's shards (:mod:`repro.serve.farm`)
and the in-process benchmarks call the same methods:

* :meth:`CompileService.compile_document` — one graph document through
  the cache-then-compile flow, returning a
  :class:`~repro.artifacts.report.CompilationReport` plus a cache status
  (``"hit"``, ``"miss"``, or ``"disabled"``);
* :meth:`CompileService.lookup` — probe the on-disk cache by key alone,
  without a document;
* :meth:`CompileService.compile_keyed` — the compile step on its own,
  for a caller that already holds the key and has probed the cache
  (the shards, :class:`~repro.serve.farm.ShardCore`, do both);
* :meth:`CompileService.compile_batch` — :meth:`compile_document`
  over a list of documents, in order.

The service keeps no report tier in memory: the one in-process tier is
the shard's memo of rendered response bodies (``ShardCore``), which
sits in front of :meth:`lookup`.

Repeated compiles of the same graph within one service process also
share a :class:`~repro.scheduling.session.CompilationSession` (a small
LRU keyed by the graph's canonical hash), so even cache-disabled
traffic reuses the per-graph precomputation.

With the cache disabled the flow degrades to exactly the pre-service
pipeline — same :func:`~repro.scheduling.pipeline.implement` call,
same outputs — which the equivalence tests pin bit-for-bit.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..lifetimes.periodic import DEFAULT_OCCURRENCE_CAP
from ..scheduling.pipeline import implement
from ..scheduling.session import CompilationSession
from ..sdf.io import canonical_hash, from_json
from ..artifacts import ArtifactCache, CompilationReport, cache_key

__all__ = ["CompileOptions", "CompileService"]


#: Each compile option's JSON type: ``bool`` fields take only ``true``
#: or ``false`` and ``int`` fields only integers (never a boolean), so
#: a request cannot compile, and be cached, under a value it did not
#: send (``"false"`` read as true, ``2.9`` as 2).
_OPTION_TYPES = {
    "method": str,
    "seed": int,
    "use_chain_dp": bool,
    "occurrence_cap": int,
    "vectorize": bool,
    "memory_budget": int,
}
_JSON_TYPE_NAMES = {str: "string", int: "integer", bool: "boolean"}


@dataclass(frozen=True)
class CompileOptions:
    """The strategy knobs of one compile request.

    ``method``/``seed``/``use_chain_dp``/``occurrence_cap`` are exactly
    the :func:`~repro.scheduling.pipeline.implement` arguments that
    change the result; ``vectorize``/``memory_budget`` run the blocking
    pass (:mod:`repro.scheduling.vectorize`), which changes the artifact
    too (the blocked schedule carries different lifetimes and a
    different allocation).  All of them form the cache key
    (:meth:`key_dict`): a vectorized compile and a plain compile of the
    same document never share an entry.  The DP kernel is not an
    option: the graph picks it, with bit-identical results.
    """

    method: str = "rpmc"
    seed: int = 0
    use_chain_dp: bool = True
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP
    vectorize: bool = False
    memory_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.memory_budget is not None and not self.vectorize:
            raise ValueError("memory_budget requires vectorize")

    def key_dict(self) -> Dict[str, Any]:
        """The JSON-ready form, which is also the cache-key form."""
        return {
            "method": self.method,
            "seed": self.seed,
            "use_chain_dp": self.use_chain_dp,
            "occurrence_cap": self.occurrence_cap,
            "vectorize": self.vectorize,
            "memory_budget": self.memory_budget,
        }

    @staticmethod
    def from_dict(data: Optional[Dict[str, Any]]) -> "CompileOptions":
        """Build options from a request's ``options`` object.

        Unknown keys raise ``ValueError`` (a typo'd option silently
        ignored would silently mis-key the cache), as does a value of
        the wrong JSON type (:data:`_OPTION_TYPES`; ``memory_budget``
        may also be ``null``) or a ``memory_budget`` without
        ``vectorize``.  So does an ``occurrence_cap`` outside
        ``1..DEFAULT_OCCURRENCE_CAP``: lifetimes materialize up to that
        many occurrence starts each, so an unbounded cap would let one
        request spend a worker's memory.
        """
        data = dict(data or {})
        unknown = sorted(set(data) - set(_OPTION_TYPES))
        if unknown:
            raise ValueError(f"unknown compile options: {unknown}")
        for name, value in data.items():
            kind = _OPTION_TYPES[name]
            if value is None and name == "memory_budget":
                continue
            # bool is a subclass of int: an int field must refuse it.
            if not isinstance(value, kind) or (
                kind is int and isinstance(value, bool)
            ):
                raise ValueError(
                    f"{name} must be a JSON {_JSON_TYPE_NAMES[kind]}, "
                    f"got {value!r}"
                )
        budget = data.get("memory_budget")
        if budget is not None and budget < 0:
            raise ValueError(f"memory_budget must be >= 0, got {budget}")
        cap = data.get("occurrence_cap")
        if cap is not None and not 1 <= cap <= DEFAULT_OCCURRENCE_CAP:
            raise ValueError(
                f"occurrence_cap must be in 1..{DEFAULT_OCCURRENCE_CAP}, "
                f"got {cap}"
            )
        return CompileOptions(**data)


class CompileService:
    """Cache-fronted compilation over the existing pipeline.

    Parameters
    ----------
    cache:
        An :class:`~repro.artifacts.cache.ArtifactCache`, or ``None`` to
        disable caching entirely (every request recompiles).
    max_sessions:
        Size of the per-graph :class:`CompilationSession` LRU.
    """

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        max_sessions: int = 32,
    ) -> None:
        self.cache = cache
        self.max_sessions = max_sessions
        self._sessions: "OrderedDict[str, CompilationSession]" = OrderedDict()

    def lookup(
        self, key: str, recorder=None
    ) -> Optional[Tuple[CompilationReport, str]]:
        """Probe the disk cache for ``key`` without a document.

        Returns ``(report, "disk")``, or ``None`` on a miss (the caller
        must then supply the document and compile).  Never counts a
        miss against the cache's ``misses`` counter — a probe is not a
        request outcome.
        """
        if self.cache is None:
            return None
        span = (
            recorder.span("cache.lookup", key=key[:12])
            if recorder is not None
            else None
        )
        if span is not None:
            with span:
                report = self.cache.get(key)
        else:
            report = self.cache.get(key)
        if report is None:
            # cache.get counted a miss; undo it — the compile path that
            # follows will account the miss exactly once.
            self.cache.misses -= 1
            return None
        if recorder is not None:
            recorder.count("serve.cache_hits")
        return report, "disk"

    # -- session reuse --------------------------------------------------
    def _session_for(self, digest: str, graph) -> CompilationSession:
        session = self._sessions.get(digest)
        if session is None:
            session = CompilationSession(graph)
            self._sessions[digest] = session
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
        else:
            self._sessions.move_to_end(digest)
        return session

    # -- single compile -------------------------------------------------
    def compile_document(
        self,
        document: Dict[str, Any],
        options: Optional[CompileOptions] = None,
        use_cache: bool = True,
        recorder=None,
    ) -> Tuple[CompilationReport, str]:
        """One graph document through cache-then-compile.

        Returns ``(report, status)`` where ``status`` is ``"hit"``
        (served from the cache, bit-identical to the cold result),
        ``"miss"`` (compiled and stored), or ``"disabled"`` (compiled;
        no cache configured or ``use_cache=False``).  Malformed
        documents raise :class:`repro.exceptions.GraphStructureError`;
        unknown options raise ``ValueError`` — transport layers map
        both to 400-class responses.
        """
        options = options or CompileOptions()
        caching = use_cache and self.cache is not None
        key = cache_key(document, options.key_dict()) if caching else ""
        start = time.perf_counter()
        if caching:
            found = self.lookup(key, recorder=recorder)
            if found is not None:
                report = found[0]
                report.wall_s = time.perf_counter() - start
                return report, "hit"
        report = self.compile_keyed(document, options, key, recorder)
        report.wall_s = time.perf_counter() - start
        return report, "miss" if key else "disabled"

    def compile_keyed(
        self,
        document: Dict[str, Any],
        options: CompileOptions,
        key: str,
        recorder=None,
    ) -> CompilationReport:
        """Compile ``document`` and store the report under ``key``.

        The caller has already computed ``key`` and probed the cache;
        an empty ``key`` means uncached (nothing is stored).  A
        non-empty one needs a ``cache`` and accounts one cache miss.
        """
        graph = from_json(document)
        session = self._session_for(canonical_hash(document), graph)
        result = implement(
            graph,
            options.method,
            seed=options.seed,
            use_chain_dp=options.use_chain_dp,
            occurrence_cap=options.occurrence_cap,
            session=session,
            recorder=recorder,
            vectorize=options.vectorize,
            memory_budget=options.memory_budget,
        )
        report = CompilationReport.from_result(
            result, graph.name, key=key, seed=options.seed
        )
        if key:
            if recorder is not None:
                recorder.count("serve.cache_misses")
            self.cache.misses += 1  # lookup() deferred the accounting
            self.cache.put(key, report)
        return report

    # -- batch compile --------------------------------------------------
    def compile_batch(
        self,
        documents: List[Dict[str, Any]],
        options: Optional[CompileOptions] = None,
    ) -> List[Tuple[CompilationReport, str]]:
        """:meth:`compile_document` over ``documents``, in order."""
        return [
            self.compile_document(document, options)
            for document in documents
        ]
