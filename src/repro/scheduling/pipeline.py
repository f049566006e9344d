"""The end-to-end compiler flow of the paper (figure 21).

For a consistent acyclic SDF graph:

1. generate a topological sort with RPMC or APGAN (section 7);
2. post-optimize its flat SAS with DPPO (non-shared cost, the baseline)
   and with SDPPO (shared cost; the precise chain DP when the graph is a
   chain);
3. extract buffer lifetimes from the SDPPO schedule (section 8);
4. allocate with first-fit under both orderings (``ffdur``, ``ffstart``,
   :func:`repro.allocation.first_fit.allocate`);
5. compute the optimistic/pessimistic clique-weight bounds and the
   BMLB, and verify the winning allocation.

:func:`implement` runs the flow for one topological-sort method;
:func:`implement_best` runs both methods and both orderings, reproducing
exactly the comparison columns of Table 1.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence

from ..exceptions import GraphStructureError
from ..sdf.graph import SDFGraph
from ..sdf.schedule import LoopedSchedule
from ..lifetimes.intervals import LifetimeSet, extract_lifetimes
from ..lifetimes.periodic import DEFAULT_OCCURRENCE_CAP
from ..allocation.clique import mcw_optimistic, mcw_pessimistic
from ..allocation.first_fit import Allocation, allocate
from ..allocation.verify import verify_allocation
from ..obs.recorder import active as _active_recorder
from .dppo import dppo
from .rpmc import rpmc
from .sdppo import sdppo
from .session import CompilationSession

if TYPE_CHECKING:
    from .vectorize import VectorizeResult

__all__ = ["ImplementationResult", "implement", "implement_best", "BestResult"]


@dataclass
class ImplementationResult:
    """Everything the flow produces for one topological-sort method.

    Sizes are in words.  ``allocation`` is the better of the two
    first-fit runs (verified feasible); ``ffdur_total``/``ffstart_total``
    are the individual totals reported in Table 1.
    """

    method: str
    order: List[str]
    dppo_cost: int
    dppo_schedule: LoopedSchedule
    sdppo_cost: int
    sdppo_schedule: LoopedSchedule
    lifetimes: LifetimeSet
    mco: int
    mcp: int
    ffdur_total: int
    ffstart_total: int
    allocation: Allocation
    bmlb: int
    #: Present when the flow ran with ``vectorize=True``: the blocking
    #: pass outcome.  ``lifetimes``/``allocation`` then describe the
    #: *blocked* schedule (``vectorize.schedule``); ``sdppo_cost`` and
    #: ``sdppo_schedule`` keep the unblocked DP output so the Table 1
    #: quantities stay comparable across runs.
    vectorize: Optional["VectorizeResult"] = None

    @property
    def best_shared_total(self) -> int:
        return min(self.ffdur_total, self.ffstart_total)

    @property
    def improvement_percent(self) -> float:
        """Shared improvement over this method's own non-shared DPPO."""
        if self.dppo_cost == 0:
            return 0.0
        return 100.0 * (self.dppo_cost - self.best_shared_total) / self.dppo_cost


def _topological_order_for(
    graph: SDFGraph,
    method: str,
    seed: int,
    q: Optional[Dict[str, int]] = None,
    recorder=None,
) -> List[str]:
    if method == "rpmc":
        return rpmc(graph, q=q, seed=seed, recorder=recorder).order
    if method == "apgan":
        from .apgan import apgan

        return apgan(graph, q=q, recorder=recorder).order
    if method == "natural":
        return graph.topological_order()
    raise GraphStructureError(
        f"unknown topological sort method {method!r}; "
        f"expected 'rpmc', 'apgan' or 'natural'"
    )


@contextmanager
def _stage(recorder, name: str) -> Iterator[Dict[str, Any]]:
    """One pipeline stage: a recorder span, or nothing without one.

    ``recorder`` follows the :class:`repro.obs.Recorder` protocol.  The
    yielded meta dict is the span's attrs, so mutations inside the
    block land in the trace and in the ``repro compile --profile`` row
    rendered from it.  The span closes on exception with its ``error``
    set, which is what keeps partial profiles available when a stage
    raises.  Without a recorder the block gets a plain dict.
    """
    if recorder is None:
        yield {}
        return
    with recorder.span(name) as span:
        yield span.attrs if span is not None else {}


def implement(
    graph: SDFGraph,
    method: str = "rpmc",
    order: Optional[Sequence[str]] = None,
    seed: int = 0,
    use_chain_dp: bool = True,
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
    verify: bool = True,
    session: Optional[CompilationSession] = None,
    trusted_order: bool = False,
    recorder=None,
    backend: Optional[str] = None,
    vectorize: bool = False,
    memory_budget: Optional[int] = None,
) -> ImplementationResult:
    """Run the full flow with one topological-sort method.

    This is the package's main entry point: topological sort, the
    DPPO/SDPPO dynamic programs, lifetime extraction, clique bounds,
    first-fit allocation under both orderings, and verification of the
    winner — everything one Table 1 cell needs.  The call is
    deterministic given ``(graph, method, seed)``; the compilation
    service (:mod:`repro.serve`) relies on that to cache results
    content-addressed.

    Parameters
    ----------
    graph:
        A consistent, acyclic :class:`~repro.sdf.graph.SDFGraph`.
    method:
        ``"rpmc"``, ``"apgan"``, or ``"natural"`` (the deterministic
        topological order; useful as a naive baseline).  Ignored when an
        explicit ``order`` is supplied (reported as ``"given"``).
    order:
        An explicit actor order to schedule instead of running a
        heuristic; see ``trusted_order``.
    seed:
        Seed for RPMC's randomized cut selection (the other methods
        are deterministic and ignore it).
    use_chain_dp:
        Use the precise triple DP of section 6 when the graph is
        chain-structured (falls back to EQ 5's heuristic otherwise).
    occurrence_cap:
        Cap on periodic-occurrence enumeration in intersection tests.
    verify:
        Independently verify the winning allocation (definition 5).
    session:
        A :class:`CompilationSession` for ``graph``, so repeated calls
        (search trials, the RPMC/APGAN pair) share the graph-level
        precomputation.  A fresh session is created when absent.
    trusted_order:
        Declare an explicitly supplied ``order`` topological by
        construction, skipping re-validation.  Orders generated here
        (``method=...``) are always trusted; leave False for orders
        from outside the package's own generators.
    recorder:
        A :class:`repro.obs.Recorder` for hierarchical spans and work
        counters (DP cells, window-cache hits, first-fit probes...),
        one child span of ``implement`` per stage — the hook behind
        ``repro compile --profile`` and ``--trace``.  A stage that
        raises still closes its span, with ``error`` set.  The default
        ``None`` takes the uninstrumented code path.
    backend:
        Kernel backend for the DPPO/SDPPO chain DP: ``"python"`` runs
        the scalar recurrence only; ``"native"`` and ``"auto"`` run the
        cc-compiled DP kernel (:mod:`repro.native`) when a compiler is
        available — bit-identical results, with a silent fall-through
        to Python (counted as ``native.fallback``) otherwise.  ``None`` (the
        default) inherits the session's backend, itself ``"auto"`` by
        default.  The section 6 chain DP always runs in Python.
    vectorize:
        Run the blocking pass (:mod:`repro.scheduling.vectorize`) on
        the SDPPO schedule and carry the *blocked* schedule through
        allocation and verification; the pass's own costing of that
        schedule (lifetimes and allocation) is reused, not recomputed.
        The result's ``vectorize`` field holds the pass outcome (block
        factors, re-costed totals); ``sdppo_schedule``/``sdppo_cost``
        keep the unblocked DP output.
    memory_budget:
        Word budget for the blocking pass (requires
        ``vectorize=True``; a negative budget raises ``ValueError``).
        ``None`` means unconstrained — every safe fission is applied.

    Returns
    -------
    ImplementationResult
        The schedules and costs of both DPs, the extracted lifetime
        set, the clique-weight bounds (``mco``/``mcp``), both
        first-fit totals with the better, verified
        :class:`~repro.allocation.first_fit.Allocation`, and the BMLB.
        All sizes are in words.

    Raises
    ------
    repro.exceptions.GraphStructureError
        If ``graph`` is cyclic, ``method`` is unknown, or a supplied
        ``order`` is not topological (``trusted_order=False``).
    repro.exceptions.InconsistentGraphError
        If the balance equations have no solution.
    repro.exceptions.AllocationError
        If ``verify=True`` and the winning allocation fails the
        independent definition-5 check (never expected; it means a
        pipeline bug).
    """
    if memory_budget is not None and not vectorize:
        raise ValueError("memory_budget requires vectorize=True")
    recorder = _active_recorder(recorder)
    outer = (
        recorder.span("implement", graph=graph.name)
        if recorder is not None
        else nullcontext()
    )
    with outer:
        if session is None:
            with _stage(recorder, "session"):
                session = CompilationSession(graph)
        q = session.q
        requested = backend if backend is not None else session.backend
        if requested == "python":
            eff_backend = "python"
        else:
            # The first call in a process imports, probes and loads the
            # kernels: a stage of its own, not orphan time in implement.
            with _stage(recorder, "native.resolve"):
                from ..native import resolve_backend

                eff_backend, _ = resolve_backend(
                    requested, recorder=recorder
                )
        if order is not None:
            chosen = list(order)
            method = "given"
            trusted = trusted_order
        else:
            with _stage(recorder, "topsort") as meta:
                chosen = _topological_order_for(
                    graph, method, seed, q, recorder=recorder
                )
                meta["method"] = method
            trusted = True

        context = session.context_for(chosen, trusted=trusted)
        n = context.n
        # Both strided DPs evaluate every split of every window:
        # sum over lengths L of (n-L+1)(L-1) = n(n^2-1)/6 cells.
        dp_cells = n * (n * n - 1) // 6
        with _stage(recorder, "dppo"):
            dppo_result = dppo(
                graph, chosen, q, context=context, backend=eff_backend
            )
            if recorder is not None:
                recorder.count("dp.cells", dp_cells)
                if eff_backend == "native" and context.use_native:
                    recorder.count("native.dp")
        with _stage(recorder, "sdppo") as meta:
            if use_chain_dp and session.chain_order is not None:
                meta["dp"] = "chain"
                if recorder is not None:
                    hits0, misses0 = (
                        session.chain_dp_hits, session.chain_dp_misses
                    )
                chain_result = session.chain_sdppo_result()
                sdppo_cost, sdppo_schedule = (
                    chain_result.cost, chain_result.schedule
                )
                if recorder is not None:
                    recorder.count(
                        "session.chain_dp_hits",
                        session.chain_dp_hits - hits0,
                    )
                    recorder.count(
                        "session.chain_dp_misses",
                        session.chain_dp_misses - misses0,
                    )
            else:
                meta["dp"] = "eq5"
                sdppo_result = sdppo(
                    graph, chosen, q, context=context, backend=eff_backend
                )
                sdppo_cost, sdppo_schedule = (
                    sdppo_result.cost, sdppo_result.schedule
                )
                if recorder is not None:
                    recorder.count("dp.cells", dp_cells)
                    if eff_backend == "native" and context.use_native:
                        recorder.count("native.dp")
            if recorder is not None:
                recorder.count("chain.window_hits", context.window_hits)
                recorder.count("chain.window_misses", context.window_misses)

        vec_result: Optional[VectorizeResult] = None
        if vectorize:
            with _stage(recorder, "vectorize") as meta:
                from .vectorize import vectorize_schedule

                vec_result = vectorize_schedule(
                    graph, sdppo_schedule, q,
                    memory_budget=memory_budget,
                    occurrence_cap=occurrence_cap,
                    recorder=recorder,
                )
                meta["blocks"] = vec_result.blocks
                meta["fissions"] = vec_result.steps

        if vec_result is not None and vec_result.lifetimes is not None:
            # The pass already costed its final schedule: reuse it.
            lifetimes, allocation = vec_result.lifetimes, vec_result.allocation
        else:
            schedule = vec_result.schedule if vec_result else sdppo_schedule
            with _stage(recorder, "lifetimes"):
                lifetimes = extract_lifetimes(graph, schedule, q)
            allocation = allocate(
                lifetimes.as_list(), occurrence_cap=occurrence_cap,
                recorder=recorder,
            )
        buffers = lifetimes.as_list()
        best = allocation.best
        if recorder is not None:
            probes = allocation.ffdur.probes + allocation.ffstart.probes
            recorder.count("first_fit.probes", probes)
            recorder.count("alloc.words", best.total)
        with _stage(recorder, "clique"):
            mco = mcw_optimistic(buffers)
            mcp = mcw_pessimistic(buffers)
        with _stage(recorder, "bmlb"):
            bmlb = session.bmlb()
        if verify:
            with _stage(recorder, "verify"):
                verify_allocation(
                    buffers, best, occurrence_cap=occurrence_cap
                )

    return ImplementationResult(
        method=method,
        order=chosen,
        dppo_cost=dppo_result.cost,
        dppo_schedule=dppo_result.schedule,
        sdppo_cost=sdppo_cost,
        sdppo_schedule=sdppo_schedule,
        lifetimes=lifetimes,
        mco=mco,
        mcp=mcp,
        ffdur_total=allocation.ffdur.total,
        ffstart_total=allocation.ffstart.total,
        allocation=best,
        bmlb=bmlb,
        vectorize=vec_result,
    )


@dataclass
class BestResult:
    """The Table 1 comparison: RPMC and APGAN flows side by side."""

    rpmc: ImplementationResult
    apgan: ImplementationResult

    @property
    def best_nonshared(self) -> int:
        """``MIN(dppo(R), dppo(A))``."""
        return min(self.rpmc.dppo_cost, self.apgan.dppo_cost)

    @property
    def best_shared(self) -> int:
        """``MIN(ffdur(R), ffstart(R), ffdur(A), ffstart(A))``."""
        return min(
            self.rpmc.ffdur_total,
            self.rpmc.ffstart_total,
            self.apgan.ffdur_total,
            self.apgan.ffstart_total,
        )

    @property
    def improvement_percent(self) -> float:
        """The paper's last Table 1 column."""
        base = self.best_nonshared
        if base == 0:
            return 0.0
        return 100.0 * (base - self.best_shared) / base


def implement_best(
    graph: SDFGraph,
    seed: int = 0,
    use_chain_dp: bool = True,
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
    verify: bool = True,
    session: Optional[CompilationSession] = None,
    recorder=None,
    backend: Optional[str] = None,
) -> BestResult:
    """Run both topological-sort methods; the Table 1 row for a system.

    Both flows share one compilation session, so the graph-level
    precomputation (repetitions vector, edge weights, chain DP, BMLB)
    is paid once rather than per method.
    """
    if session is None:
        session = CompilationSession(graph)
    return BestResult(
        rpmc=implement(
            graph, "rpmc", seed=seed, use_chain_dp=use_chain_dp,
            occurrence_cap=occurrence_cap, verify=verify, session=session,
            recorder=recorder, backend=backend,
        ),
        apgan=implement(
            graph, "apgan", seed=seed, use_chain_dp=use_chain_dp,
            occurrence_cap=occurrence_cap, verify=verify, session=session,
            recorder=recorder, backend=backend,
        ),
    )
