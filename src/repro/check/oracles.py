"""Cross-layer oracles: each redundant implementation pair, cross-checked.

Every function returns a list of violation strings (empty = all agree),
prefixed with the layer pair being compared (``trace:``, ``sched:``,
``exec:``, ``alloc:``).  The fault-injection self-test reuses the same
functions on deliberately corrupted artifacts, so anything the oracles
would miss there they would also miss on a real bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import SDFError
from ..sdf.graph import SDFGraph
from ..sdf.schedule import LoopedSchedule
from ..sdf.simulate import (
    BlockScan,
    buffer_memory_nonshared,
    max_live_tokens,
    validate_schedule,
)
from ..sdf.repetitions import repetitions_vector
from ..lifetimes.intervals import extract_lifetimes
from ..lifetimes.periodic import DEFAULT_OCCURRENCE_CAP
from ..scheduling.pipeline import ImplementationResult, implement
from ..allocation.first_fit import allocate, first_fit
from ..allocation.optimal import optimal_allocation
from ..allocation.verify import verify_allocation
from ..codegen.py_emitter import compile_python
from ..codegen.vm import SharedMemoryVM
from .reference import (
    full_trace,
    reference_coarse_intervals,
    reference_max_live_tokens,
    reference_max_tokens,
    reference_peak_token_words,
)

__all__ = [
    "PipelineArtifacts",
    "build_artifacts",
    "run_oracles",
    "trace_oracles",
    "schedule_oracles",
    "symbolic_oracles",
    "execution_oracles",
    "allocation_oracles",
    "broadcast_oracles",
    "cyclic_oracles",
    "native_oracles",
    "vectorize_oracles",
    "vectorize_violations",
]

#: Instances at or below this many sized buffers also get checked
#: against the exact branch-and-bound allocator.
OPTIMAL_LIMIT = 7


@dataclass
class PipelineArtifacts:
    """One graph pushed through the full flow, plus its provenance."""

    graph: SDFGraph
    method: str
    seed: int
    occurrence_cap: int
    result: ImplementationResult
    q: Dict[str, int]
    backend: str = "auto"


def build_artifacts(
    graph: SDFGraph,
    method: str = "rpmc",
    seed: int = 0,
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
    recorder: Optional[object] = None,
    backend: str = "auto",
) -> PipelineArtifacts:
    """Run the full compilation flow and bundle everything checkable."""
    result = implement(
        graph, method, seed=seed, occurrence_cap=occurrence_cap,
        verify=False, recorder=recorder, backend=backend,
    )
    return PipelineArtifacts(
        graph=graph,
        method=method,
        seed=seed,
        occurrence_cap=occurrence_cap,
        result=result,
        q=repetitions_vector(graph),
        backend=backend,
    )


# ----------------------------------------------------------------------
# trace layer: the block-level replay engine vs naive full snapshots
# ----------------------------------------------------------------------
def trace_oracles(
    graph: SDFGraph,
    schedule: LoopedSchedule,
    recorder: Optional[object] = None,
    prefix: str = "trace:",
) -> List[str]:
    """One :class:`BlockScan` replay against the snapshot reference.

    Compares the final token state, ``max_tokens``, the coarse live
    episodes and the live-array peak.  Runs as the ``trace:`` oracle
    on pipeline and cyclic schedules and, with ``prefix="vec:"``, on
    blocked schedules, where blocks hold many firings.
    """
    scan = BlockScan(graph, schedule, recorder)
    snapshots = full_trace(graph, schedule)
    bad: List[str] = []
    for label, got, want in (
        ("final tokens", scan.tokens, snapshots[-1]),
        ("max_tokens", scan.peaks, reference_max_tokens(graph, schedule)),
        ("coarse_live_intervals", scan.intervals,
         reference_coarse_intervals(graph, schedule)),
        ("max_live_tokens", scan.live_peak(),
         reference_max_live_tokens(graph, schedule)),
    ):
        if got != want:
            bad.append(
                f"{prefix} block replay {label} disagrees with "
                f"reference: {got} != {want}"
            )
    return bad


# ----------------------------------------------------------------------
# schedule layer: DPPO/SDPPO outputs vs the interpreter
# ----------------------------------------------------------------------
def schedule_oracles(art: PipelineArtifacts) -> List[str]:
    """Both post-optimized schedules are valid SASs with honest costs."""
    bad: List[str] = []
    r = art.result
    for label, schedule in (
        ("dppo", r.dppo_schedule),
        ("sdppo", r.sdppo_schedule),
    ):
        try:
            counts = validate_schedule(art.graph, schedule)
        except SDFError as exc:
            bad.append(f"sched: {label} schedule invalid: {exc}")
            continue
        if counts != art.q:
            bad.append(
                f"sched: {label} firing counts {counts} != "
                f"repetitions vector {art.q}"
            )
        if not schedule.is_single_appearance():
            bad.append(f"sched: {label} schedule is not single appearance")
        if schedule.lexical_order() != list(r.order):
            bad.append(
                f"sched: {label} lexical order "
                f"{schedule.lexical_order()} != pipeline order {r.order}"
            )
    # DPPO's cost claim is exact: it *is* the non-shared buffer memory of
    # the schedule it returns (EQ 1, re-derived by simulation).
    realized = buffer_memory_nonshared(art.graph, r.dppo_schedule)
    if r.dppo_cost != realized:
        bad.append(
            f"sched: dppo_cost {r.dppo_cost} != simulated non-shared "
            f"memory {realized}"
        )
    return bad


# ----------------------------------------------------------------------
# symbolic layer: loop-compressed closed forms vs naive full snapshots
# ----------------------------------------------------------------------
def symbolic_oracles(graph: SDFGraph, schedule: LoopedSchedule) -> List[str]:
    """:class:`SymbolicTrace` closed forms vs the references, bit-for-bit.

    The symbolic engine only claims coverage of delayless self-loop-free
    graphs under full topological single appearance schedules; on
    anything else ``try_build`` declines, the block engine answers
    instead (checked by the ``trace:`` oracles), and there is nothing
    to compare.  Where it does claim coverage, the schedule must be
    valid (the claim behind skipping a replay) and every observable
    must match the snapshot reference exactly.
    """
    from ..sdf.symbolic import SymbolicTrace

    trace = SymbolicTrace.try_build(graph, schedule)
    if trace is None:
        return []
    snapshots = full_trace(graph, schedule)
    bad: List[str] = []
    if snapshots[-1] != snapshots[0]:
        bad.append(
            f"symb: accepted schedule does not return to its initial "
            f"state: {snapshots[-1]} != {snapshots[0]}"
        )
    for label, got, want in (
        ("max_tokens", trace.max_tokens(),
         reference_max_tokens(graph, schedule)),
        ("coarse_live_intervals", trace.coarse_live_intervals(),
         reference_coarse_intervals(graph, schedule)),
        ("max_live_tokens", trace.max_live_tokens(),
         reference_max_live_tokens(graph, schedule)),
    ):
        if got != want:
            bad.append(
                f"symb: {label} symbolic result disagrees with "
                f"reference: {got} != {want}"
            )
    return bad


def _sequence_actors(graph: SDFGraph):
    """Actor callables for generated modules that check token integrity.

    Every produced word is the tuple ``(buffer identity, token sequence,
    word index)``; every consumer asserts it reads exactly the words its
    producer wrote, in order — the generated-code analogue of the VM's
    token check.  The buffer identity is the edge key for an ordinary
    edge and the *first member's* edge key for a broadcast group (the
    group's one physical stream, written once per firing and expected
    identically by every member sink).  Returns ``(actors, state)``
    where ``state`` tracks per-actor firing counts, per-buffer produce
    counters and per-edge consume counters.
    """
    first_of = {
        name: members[0]
        for name, members in graph.broadcast_groups().items()
    }
    produced = {
        e.key: e.delay for e in graph.edges() if e.broadcast is None
    }
    for first in first_of.values():
        produced[first.key] = first.delay
    state = {
        "fired": {a: 0 for a in graph.actor_names()},
        "produced": produced,
        "consumed": {e.key: 0 for e in graph.edges()},
    }

    def make_fire(actor: str) -> Callable:
        ins = graph.in_edges(actor)
        # Output *ports*: one per ordinary edge, one per broadcast
        # group — matching the generated module's firing signature.
        out_ports = []
        seen = set()
        for e in graph.out_edges(actor):
            if e.broadcast is None:
                out_ports.append((e.key, e))
            elif e.broadcast not in seen:
                seen.add(e.broadcast)
                out_ports.append((first_of[e.broadcast].key, e))

        def fire(inputs: List[List[object]]) -> List[List[object]]:
            state["fired"][actor] += 1
            for e, words in zip(ins, inputs):
                ident = (
                    e.key if e.broadcast is None
                    else first_of[e.broadcast].key
                )
                for i in range(e.consumption):
                    seq = state["consumed"][e.key]
                    state["consumed"][e.key] += 1
                    for w in range(e.token_size):
                        expected = (ident, seq, w)
                        actual = words[i * e.token_size + w]
                        if actual != expected:
                            raise AssertionError(
                                f"generated code fed {actor!r} corrupt "
                                f"input on {e.key}: expected "
                                f"{expected}, got {actual!r}"
                            )
            outputs: List[List[object]] = []
            for ident, e in out_ports:
                words: List[object] = []
                for _ in range(e.production):
                    seq = state["produced"][ident]
                    state["produced"][ident] += 1
                    words.extend(
                        (ident, seq, w) for w in range(e.token_size)
                    )
                outputs.append(words)
            return outputs

        return fire

    actors = {a: make_fire(a) for a in graph.actor_names()}
    return actors, state


def _module_preloads(graph: SDFGraph) -> Dict:
    """Initial-token word lists keyed by generated-module buffer ids.

    Ordinary delayed edges preload under their edge key; a delayed
    broadcast group preloads *once* under ``('bcast', name)`` with the
    first member's key as token identity.
    """
    preloads = {}
    for e in graph.edges():
        if e.delay == 0 or e.broadcast is not None:
            continue
        preloads[e.key] = [
            (e.key, seq, w)
            for seq in range(e.delay)
            for w in range(e.token_size)
        ]
    for name, members in graph.broadcast_groups().items():
        first = members[0]
        if first.delay == 0:
            continue
        preloads[("bcast", name)] = [
            (first.key, seq, w)
            for seq in range(first.delay)
            for w in range(first.token_size)
        ]
    return preloads


def _execution_checks(
    graph: SDFGraph,
    q: Dict[str, int],
    lifetimes,
    allocation,
    periods: int = 2,
    recorder: Optional[object] = None,
) -> List[str]:
    """VM + generated-Python cross-checks against interpreter counts."""
    bad: List[str] = []
    expected = {a: q[a] * periods for a in q}

    vm = SharedMemoryVM(graph, lifetimes, allocation)
    try:
        vm.run(periods=periods, recorder=recorder)
    except SDFError as exc:
        bad.append(f"exec: shared-memory VM failed: {exc}")
    else:
        if vm.firings_per_actor != expected:
            bad.append(
                f"exec: VM firing counts {vm.firings_per_actor} != "
                f"interpreter counts {expected}"
            )
        if vm.peak_address > allocation.total:
            bad.append(
                f"exec: VM wrote up to address {vm.peak_address}, past "
                f"the allocation total {allocation.total}"
            )

    try:
        module = compile_python(graph, lifetimes, allocation)
    except SDFError as exc:
        return bad + [f"exec: python emission failed: {exc}"]
    actors, state = _sequence_actors(graph)
    try:
        module["run"](
            actors, periods=periods, preloads=_module_preloads(graph)
        )
    except (AssertionError, IndexError, ValueError) as exc:
        bad.append(f"exec: generated module failed: {exc}")
    else:
        if state["fired"] != expected:
            bad.append(
                f"exec: generated module firing counts {state['fired']} "
                f"!= interpreter counts {expected}"
            )
    return bad


def execution_oracles(
    art: PipelineArtifacts,
    periods: int = 2,
    recorder: Optional[object] = None,
) -> List[str]:
    """Run the implementation three ways and compare firing behaviour.

    The interpreter defines ground truth; the VM must fire each actor
    identically and stay inside the allocation; the generated Python
    module must deliver every token uncorrupted through the shared pool.
    Two periods exercise circular-cursor wraparound on delayed edges.
    """
    r = art.result
    return _execution_checks(
        art.graph, art.q, r.lifetimes, r.allocation,
        periods=periods, recorder=recorder,
    )


# ----------------------------------------------------------------------
# allocation layer: predicted costs vs realized allocation vs optimum
# ----------------------------------------------------------------------
def allocation_oracles(art: PipelineArtifacts) -> List[str]:
    """Definition-5 verification, cost orderings, and the exact optimum."""
    bad: List[str] = []
    r = art.result
    graph = art.graph
    buffers = r.lifetimes.as_list()

    try:
        verify_allocation(buffers, r.allocation, art.occurrence_cap)
    except SDFError as exc:
        bad.append(f"alloc: verification failed: {exc}")
    if r.allocation.total != min(r.ffdur_total, r.ffstart_total):
        bad.append(
            f"alloc: winning allocation total {r.allocation.total} is not "
            f"min(ffdur {r.ffdur_total}, ffstart {r.ffstart_total})"
        )

    # Cost orderings tying the symbolic layers to the realized memory.
    # The coarse live peak sizes delayed edges as circular buffers at
    # peak occupancy (matching the lifetime extraction) and EQ 5 carries
    # delayed-edge buffers as an always-summed persistent component, so
    # both orderings hold with delays — the chains that used to
    # falsify them are pinned as passing in
    # tests/test_check_regressions.py.
    mlt = max_live_tokens(graph, r.sdppo_schedule)
    if mlt > r.sdppo_cost:
        bad.append(
            f"alloc: coarse live peak {mlt} exceeds SDPPO's predicted "
            f"shared cost {r.sdppo_cost}"
        )
    if mlt > r.allocation.total:
        bad.append(
            f"alloc: coarse live peak {mlt} exceeds the packed total "
            f"{r.allocation.total}"
        )
    # Unconditional: tokens simultaneously present occupy disjoint
    # words (co-live buffers have disjoint address ranges, occupancy
    # never exceeds a buffer's array), so the occupancy peak
    # lower-bounds any feasible extent, delays or not.
    occupancy = reference_peak_token_words(graph, r.sdppo_schedule)
    if occupancy > r.allocation.total:
        bad.append(
            f"alloc: peak token occupancy {occupancy} words exceeds the "
            f"packed total {r.allocation.total}"
        )
    if r.mco > r.allocation.total:
        bad.append(
            f"alloc: optimistic clique weight {r.mco} exceeds the packed "
            f"total {r.allocation.total} (MCW is a lower bound)"
        )
    unshared = r.lifetimes.total_size()
    if r.allocation.total > unshared:
        bad.append(
            f"alloc: packed total {r.allocation.total} exceeds the sum of "
            f"buffer sizes {unshared} (sharing cannot lose)"
        )

    sized = [b for b in buffers if b.size > 0]
    if len(sized) <= OPTIMAL_LIMIT:
        try:
            opt = optimal_allocation(
                buffers,
                graph=r.allocation.graph,
                occurrence_cap=art.occurrence_cap,
            )
        except RuntimeError:
            opt = None  # node limit; skip silently on this instance
        if opt is not None:
            if opt.total > r.allocation.total:
                bad.append(
                    f"alloc: branch-and-bound optimum {opt.total} exceeds "
                    f"first-fit {r.allocation.total}"
                )
            if r.mco > opt.total:
                bad.append(
                    f"alloc: optimistic clique weight {r.mco} exceeds the "
                    f"optimum {opt.total}"
                )
            try:
                verify_allocation(buffers, opt, art.occurrence_cap)
            except SDFError as exc:
                bad.append(f"alloc: optimum fails verification: {exc}")
    return bad


# ----------------------------------------------------------------------
# broadcast layer: shared-buffer model vs k-parallel-edges modelling
# ----------------------------------------------------------------------
def broadcast_oracles(art: PipelineArtifacts) -> List[str]:
    """The sharing win: a broadcast group never costs more than its
    k-parallel-edges model.

    Compiling the same graph with every ``broadcast`` tag dropped
    models each fan-out as ``k`` independent buffers.  The shared model
    holds one buffer per group — structurally the farthest member's
    buffer with the latest member stop — so every memory figure must
    come out at or below the parallel model's: the summed buffer sizes
    and the DPPO cost exactly (the group is counted once instead of
    ``k`` times at every DP split), the coarse live peak and the packed
    pool total on every harness instance.
    """
    graph = art.graph
    if not graph.has_broadcasts():
        return []
    bad: List[str] = []
    try:
        parallel = build_artifacts(
            graph.without_broadcasts(),
            method=art.method,
            seed=art.seed,
            occurrence_cap=art.occurrence_cap,
        )
    except SDFError as exc:
        return [f"bcast: parallel-edges model failed to compile: {exc}"]
    r, p = art.result, parallel.result
    if r.lifetimes.total_size() > p.lifetimes.total_size():
        bad.append(
            f"bcast: shared buffer sizes sum to "
            f"{r.lifetimes.total_size()}, more than the parallel-edges "
            f"model's {p.lifetimes.total_size()}"
        )
    if r.dppo_cost > p.dppo_cost:
        bad.append(
            f"bcast: shared DPPO cost {r.dppo_cost} exceeds the "
            f"parallel-edges model's {p.dppo_cost}"
        )
    # Pointwise dominance is a theorem only on the *same* schedule (a
    # group's live envelope is its slowest member's), and the two
    # models share topology — so judge both under the parallel model's
    # schedule.
    mlt = max_live_tokens(graph, p.sdppo_schedule)
    mlt_parallel = max_live_tokens(parallel.graph, p.sdppo_schedule)
    if mlt > mlt_parallel:
        bad.append(
            f"bcast: shared coarse live peak {mlt} exceeds the "
            f"parallel-edges model's {mlt_parallel} on the same schedule"
        )
    if r.allocation.total > p.allocation.total:
        bad.append(
            f"bcast: shared pool total {r.allocation.total} exceeds the "
            f"parallel-edges model's {p.allocation.total}"
        )
    return bad


# ----------------------------------------------------------------------
# native layer: cc-compiled kernels vs the Python pipeline, bit for bit
# ----------------------------------------------------------------------
def _result_signature(r: ImplementationResult) -> Dict[str, object]:
    """Every output of one ``implement`` run, as comparable plain data."""
    return {
        "order": list(r.order),
        "dppo_cost": r.dppo_cost,
        "dppo_schedule": str(r.dppo_schedule),
        "sdppo_cost": r.sdppo_cost,
        "sdppo_schedule": str(r.sdppo_schedule),
        "mco": r.mco,
        "mcp": r.mcp,
        "ffdur_total": r.ffdur_total,
        "ffstart_total": r.ffstart_total,
        "offsets": dict(r.allocation.offsets),
        "alloc_total": r.allocation.total,
        "bmlb": r.bmlb,
    }


def native_oracles(art: PipelineArtifacts) -> List[str]:
    """The bit-identity contract: native and Python pipelines agree.

    Recompiles the artifact's graph with the *other* kernel backend and
    compares every pipeline output field.  When no native kernel is
    available (no compiler, ``REPRO_NATIVE=0``) both runs would take
    the Python path and the comparison is vacuous, so it is skipped —
    the fallback path itself is exercised by the ``native_kernel``
    fault-injection class and the compiler-less tests.
    """
    from ..native import get_kernels

    if get_kernels() is None:
        return []
    native_run = art.backend != "python"
    other = "python" if native_run else "native"
    alt = implement(
        art.graph, art.method, seed=art.seed,
        occurrence_cap=art.occurrence_cap, verify=False, backend=other,
    )
    mine = _result_signature(art.result)
    theirs = _result_signature(alt)
    bad = []
    for field in mine:
        if mine[field] != theirs[field]:
            a, b = (
                (mine[field], theirs[field]) if native_run
                else (theirs[field], mine[field])
            )
            bad.append(
                f"native: {field} differs between backends: "
                f"native {a!r} != python {b!r}"
            )
    return bad


# ----------------------------------------------------------------------
# vectorize layer: blocked schedules vs every independent judge
# ----------------------------------------------------------------------
def vectorize_violations(
    graph: SDFGraph,
    vec,
    q: Dict[str, int],
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
) -> List[str]:
    """Judge one claimed :class:`VectorizeResult` independently.

    Shared between :func:`vectorize_oracles` (clean artifacts) and the
    ``vectorize_overrun`` fault-injection class (forged artifacts), so
    a check the injector proves sharp is the same check every harness
    trial runs.  Three claims are re-derived from scratch: the blocked
    schedule is a valid period, the block-level replay reproduces every
    snapshot-reference observable on it bit for bit, and the claimed
    pool cost equals the real lifetime/first-fit re-cost — which must
    also sit within any claimed ``memory_budget``.
    """
    from ..scheduling.vectorize import dispatch_blocks

    try:
        counts = validate_schedule(graph, vec.schedule)
    except SDFError as exc:
        return [f"vec: blocked schedule invalid: {exc}"]
    bad: List[str] = []
    if counts != q:
        bad.append(
            f"vec: blocked schedule fires {counts}, repetitions vector "
            f"is {q}"
        )
    bad.extend(trace_oracles(graph, vec.schedule, prefix="vec:"))
    blocks, firings, factors = dispatch_blocks(vec.schedule)
    if (blocks, firings, factors) != (
        vec.blocks, vec.firings, vec.block_factors
    ):
        bad.append(
            f"vec: claimed block accounting ({vec.blocks} blocks, "
            f"{vec.firings} firings, {vec.block_factors}) != re-derived "
            f"({blocks}, {firings}, {factors})"
        )
    if vec.cost is not None:
        buffers = extract_lifetimes(graph, vec.schedule, q).as_list()
        actual = allocate(buffers, occurrence_cap=occurrence_cap).best.total
        if actual != vec.cost:
            bad.append(
                f"vec: claimed pool cost {vec.cost} words != re-costed "
                f"{actual}"
            )
        if vec.memory_budget is not None and actual > vec.memory_budget:
            bad.append(
                f"vec: blocked schedule costs {actual} words, over its "
                f"claimed budget of {vec.memory_budget}"
            )
    return bad


def vectorize_oracles(
    art: PipelineArtifacts, recorder: Optional[object] = None
) -> List[str]:
    """Blocking pass output vs the interpreter, the re-cost, both VMs.

    Vectorizes the artifact's SDPPO schedule twice — unconstrained and
    with the baseline pool total as the budget (the tightest budget the
    identity pass always satisfies, so the greedy loop is exercised
    without being vacuous) — and pushes each outcome through
    :func:`vectorize_violations`.  Each costable blocking then runs on
    both execution engines: the firing-at-a-time
    :class:`~repro.codegen.vm.SharedMemoryVM` and the block-at-a-time
    :class:`~repro.codegen.batched_vm.BatchedVM` must fire identically
    and report the same pool high-water mark over two periods.
    """
    from ..codegen.batched_vm import BatchedVM
    from ..scheduling.vectorize import vectorize_schedule

    r = art.result
    bad: List[str] = []
    budgets = (None, r.allocation.total)
    for budget in budgets:
        vec = vectorize_schedule(
            art.graph, r.sdppo_schedule, art.q,
            memory_budget=budget,
            occurrence_cap=art.occurrence_cap,
        )
        bad.extend(
            vectorize_violations(
                art.graph, vec, art.q, occurrence_cap=art.occurrence_cap
            )
        )
        if budget is not None and vec.cost is not None and vec.cost > budget:
            bad.append(
                f"vec: pass returned cost {vec.cost} over its own budget "
                f"{budget}"
            )
        if vec.cost is None:
            continue
        lifetimes = extract_lifetimes(art.graph, vec.schedule, art.q)
        allocation = first_fit(
            lifetimes.as_list(), occurrence_cap=art.occurrence_cap
        )
        engines = {}
        for label, vm_class in (
            ("scalar", SharedMemoryVM), ("batched", BatchedVM),
        ):
            vm = vm_class(art.graph, lifetimes, allocation)
            try:
                vm.run(periods=2, recorder=recorder)
            except SDFError as exc:
                bad.append(f"vec: {label} VM failed on blocked artifact: {exc}")
                break
            engines[label] = vm
        if len(engines) == 2:
            scalar, batched = engines["scalar"], engines["batched"]
            if scalar.firings_per_actor != batched.firings_per_actor:
                bad.append(
                    f"vec: batched VM firing counts "
                    f"{batched.firings_per_actor} != scalar VM "
                    f"{scalar.firings_per_actor}"
                )
            if scalar.peak_address != batched.peak_address:
                bad.append(
                    f"vec: batched VM peak address {batched.peak_address} "
                    f"!= scalar VM {scalar.peak_address}"
                )
            if batched.peak_address > allocation.total:
                bad.append(
                    f"vec: batched VM wrote up to address "
                    f"{batched.peak_address}, past the blocked allocation "
                    f"total {allocation.total}"
                )
    return bad


# ----------------------------------------------------------------------
# cyclic layer: SCC-clustered scheduling vs the interpreter
# ----------------------------------------------------------------------
def cyclic_oracles(
    graph: SDFGraph,
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
    recorder: Optional[object] = None,
) -> List[str]:
    """``schedule_cyclic`` output against the token interpreter.

    The expanded schedule must fire exactly the repetitions vector with
    no edge underflow (the interpreter is the judge), the quotient
    bookkeeping must cover every actor exactly once, and — whenever the
    greedy subschedules compress to single appearance — the schedule
    must carry the full downstream pipeline: lifetime extraction,
    first-fit packing, Definition-5 verification, and the VM/generated
    Python execution cross-check.
    """
    from ..scheduling.cyclic import schedule_cyclic

    bad: List[str] = []
    q = repetitions_vector(graph)
    try:
        res = schedule_cyclic(graph)
    except SDFError as exc:
        return [f"cyclic: schedule_cyclic failed: {exc}"]
    schedule = res.schedule
    try:
        counts = validate_schedule(graph, schedule)
    except SDFError as exc:
        return [f"cyclic: expanded schedule invalid: {exc}"]
    if counts != q:
        bad.append(
            f"cyclic: expanded schedule fires {counts}, repetitions "
            f"vector is {q}"
        )
    covered = sorted(
        a for members in res.clustered.members.values() for a in members
    )
    if covered != sorted(graph.actor_names()):
        bad.append(
            f"cyclic: quotient members cover {covered}, graph has "
            f"{sorted(graph.actor_names())}"
        )
    if not res.clustered.quotient.is_acyclic():
        bad.append("cyclic: SCC quotient graph is not acyclic")
    bad.extend(trace_oracles(graph, schedule, recorder))

    if schedule.is_single_appearance():
        try:
            lifetimes = extract_lifetimes(graph, schedule, q)
            buffers = lifetimes.as_list()
            allocation = first_fit(buffers, occurrence_cap=occurrence_cap)
            verify_allocation(buffers, allocation, occurrence_cap)
        except SDFError as exc:
            return bad + [f"cyclic: downstream pipeline failed: {exc}"]
        bad.extend(
            _execution_checks(
                graph, q, lifetimes, allocation, recorder=recorder
            )
        )
    return bad


def run_oracles(
    art: PipelineArtifacts, recorder: Optional[object] = None
) -> List[str]:
    """All oracle groups for one set of artifacts.

    With a recorder, each oracle group runs under its own span (so a
    trace shows which comparison dominates a differential trial) and
    carries a ``check.violations`` counter when it found any.
    """
    r = art.result
    groups: List[Tuple[str, Callable[[], List[str]]]] = [
        ("oracle.sched", lambda: schedule_oracles(art)),
        ("oracle.trace.sdppo",
         lambda: trace_oracles(art.graph, r.sdppo_schedule, recorder)),
        ("oracle.trace.dppo",
         lambda: trace_oracles(art.graph, r.dppo_schedule, recorder)),
        ("oracle.symbolic.sdppo",
         lambda: symbolic_oracles(art.graph, r.sdppo_schedule)),
        ("oracle.symbolic.dppo",
         lambda: symbolic_oracles(art.graph, r.dppo_schedule)),
        ("oracle.exec", lambda: execution_oracles(art, recorder=recorder)),
        ("oracle.alloc", lambda: allocation_oracles(art)),
        ("oracle.vectorize",
         lambda: vectorize_oracles(art, recorder=recorder)),
    ]
    if art.graph.has_broadcasts():
        groups.append(("oracle.bcast", lambda: broadcast_oracles(art)))
    groups.append(("oracle.native", lambda: native_oracles(art)))
    bad: List[str] = []
    for name, fn in groups:
        if recorder is not None:
            with recorder.span(name) as span:
                found = fn()
                if span is not None and found:
                    span.count("check.violations", len(found))
        else:
            found = fn()
        bad.extend(found)
    return bad
