"""Shared compilation sessions: per-graph precomputation reused across trials.

The paper's evaluation compiles the *same* graph under hundreds of
lexical orders — 1000-trial random searches (section 10.1), the
figure 25/26 order sweeps, and both heuristic sorts of every Table 1
row.  Everything that depends only on the graph is identical across
those trials:

* the repetitions vector (balance-equation solve);
* per-buffer TNSE/delay word weights;
* the chain test (``chain_order``) and, for chain graphs, the entire
  order-independent precise DP of section 6;
* the BMLB lower bound.

A :class:`CompilationSession` computes each of these exactly once and
hands out per-order :class:`~repro.scheduling.common.ChainContext`
objects with ``trusted=True`` for orders produced by our own topological
sort generators, skipping the O(n·e) re-validation per trial.  The
pipeline entry points (:func:`~repro.scheduling.pipeline.implement`,
``implement_best``), the random-search baseline and the experiment
drivers all accept and thread a session; callers that don't pass one
get a fresh session per call, which preserves the original semantics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..sdf.bounds import bmlb
from ..sdf.graph import SDFGraph
from ..sdf.repetitions import repetitions_vector
from .chain_sdppo import ChainSDPPOResult, chain_sdppo
from .common import BufferWeights, ChainContext, buffer_weights

__all__ = ["CompilationSession"]


class CompilationSession:
    """Graph-level state shared by every compilation trial of one graph.

    Cheap to construct (one balance-equation solve plus one edge scan);
    everything else is computed lazily on first use and cached.  The
    session is read-only with respect to the graph, so one session can
    back any number of sequential trials.  (Sessions hold plain Python
    state and pickle with their graph, but the parallel experiment
    runner deliberately rebuilds one session per worker process instead
    of shipping cached state around.)
    """

    #: Always ``"auto"``: :func:`~repro.scheduling.pipeline.implement`
    #: lets the graph pick the DP kernel.  Kept for the benchmark's
    #: traced replay, which passes it to ``repro.native.resolve_backend``.
    backend = "auto"

    def __init__(self, graph: SDFGraph) -> None:
        self.graph = graph
        #: The repetitions vector, solved once per graph.
        self.q: Dict[str, int] = repetitions_vector(graph)
        #: Per-buffer (source, sinks, weights), reused by every
        #: per-order ChainContext.
        self.weights: BufferWeights = buffer_weights(graph, self.q)
        self._chain_order: Optional[List[str]] = None
        self._chain_checked = False
        self._chain_result: Optional[ChainSDPPOResult] = None
        self._bmlb: Optional[int] = None
        #: Chain-DP result cache statistics (hits = reuses of the
        #: order-independent section 6 DP), flushed by the pipeline.
        self.chain_dp_hits = 0
        self.chain_dp_misses = 0

    # ------------------------------------------------------------------
    @property
    def chain_order(self) -> Optional[List[str]]:
        """The graph's chain order, or None; computed once."""
        if not self._chain_checked:
            self._chain_order = self.graph.chain_order()
            self._chain_checked = True
        return self._chain_order

    def context_for(
        self, order: Sequence[str], trusted: bool = True
    ) -> ChainContext:
        """A :class:`ChainContext` for ``order`` over this session's graph.

        ``trusted`` must only be left True for orders that are
        topological by construction (our generators); pass False for
        externally supplied orders to keep the validation.
        """
        return ChainContext(
            self.graph,
            order,
            q=self.q,
            trusted=trusted,
            weights=self.weights,
        )

    def chain_sdppo_result(self) -> ChainSDPPOResult:
        """The section 6 precise chain DP, order-independent per graph.

        Only meaningful when :attr:`chain_order` is not None; cached so
        a 1000-trial search on a chain graph pays the DP once.
        """
        if self._chain_result is None:
            self.chain_dp_misses += 1
            self._chain_result = chain_sdppo(self.graph, q=self.q)
        else:
            self.chain_dp_hits += 1
        return self._chain_result

    def bmlb(self) -> int:
        """The buffer-memory lower bound of the graph, cached."""
        if self._bmlb is None:
            self._bmlb = bmlb(self.graph)
        return self._bmlb
