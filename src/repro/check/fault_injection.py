"""Mutation-kill self-test: prove the oracles can actually fail.

A checking harness that never fires is indistinguishable from one that
works.  Each mutation class below corrupts one artifact the way a real
bug in that layer would — a misplaced offset, a dropped intersection
edge, a skewed loop bound, an understated pool total, a shrunk buffer —
and asserts the corresponding oracle *catches* it.  A mutation that survives means an oracle has gone blind,
and ``python -m repro check --inject`` exits nonzero.

Each injector returns ``None`` when the sampled artifacts cannot host
its mutation (e.g. no two buffers ever overlap in time); the self-test
then tries the next graph seed, so every class is exercised on graphs
where it is meaningful.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..exceptions import SDFError
from ..lifetimes.intervals import extract_lifetimes
from ..sdf.random_graphs import random_sdf_graph
from ..sdf.schedule import Firing, Loop, LoopedSchedule, ScheduleNode
from ..sdf.simulate import validate_schedule
from ..allocation.first_fit import Allocation, allocate, first_fit
from ..allocation.verify import verify_allocation
from ..codegen.vm import SharedMemoryVM
from .oracles import PipelineArtifacts, build_artifacts

__all__ = [
    "InjectionOutcome",
    "InjectionReport",
    "MUTATION_CLASSES",
    "run_injection_selftest",
]


@dataclass
class InjectionOutcome:
    """One mutation applied to one compiled graph."""

    mutation: str
    graph_seed: int
    caught: bool
    detail: str


@dataclass
class InjectionReport:
    """The self-test verdict across all mutation classes."""

    outcomes: List[InjectionOutcome] = field(default_factory=list)

    @property
    def all_caught(self) -> bool:
        return bool(self.outcomes) and all(o.caught for o in self.outcomes)

    def summary_lines(self) -> List[str]:
        lines = []
        for o in self.outcomes:
            verdict = "caught" if o.caught else "MISSED"
            lines.append(
                f"{o.mutation:>18}  seed {o.graph_seed:>5}  {verdict}: "
                f"{o.detail}"
            )
        return lines


def _overlapping_pair(art: PipelineArtifacts):
    """Two sized buffers whose lifetimes intersect, or ``None``."""
    buffers = [b for b in art.result.lifetimes.as_list() if b.size > 0]
    for i in range(len(buffers)):
        for j in range(i + 1, len(buffers)):
            if buffers[i].overlaps(
                buffers[j], occurrence_cap=art.occurrence_cap
            ):
                return buffers[i], buffers[j]
    return None


def _verify_catches(art: PipelineArtifacts, allocation: Allocation) -> bool:
    try:
        verify_allocation(
            art.result.lifetimes.as_list(), allocation, art.occurrence_cap
        )
    except SDFError:
        return True
    return False


def inject_offset(
    art: PipelineArtifacts, rng: random.Random
) -> Optional[InjectionOutcome]:
    """Move one buffer onto a time-overlapping neighbour's address."""
    pair = _overlapping_pair(art)
    if pair is None:
        return None
    victim, neighbour = pair
    alloc = art.result.allocation
    offsets = dict(alloc.offsets)
    offsets[victim.name] = offsets[neighbour.name]
    mutated = Allocation(
        offsets=offsets,
        total=max(offsets[n] + b.size for n, b in (
            (b.name, b) for b in art.result.lifetimes.as_list()
        )),
        order=alloc.order,
        graph=alloc.graph,
    )
    caught = _verify_catches(art, mutated)
    return InjectionOutcome(
        mutation="offset",
        graph_seed=art.seed,
        caught=caught,
        detail=(
            f"placed {victim.name!r} on top of {neighbour.name!r} "
            f"at offset {offsets[victim.name]}"
        ),
    )


def inject_wig_edge(
    art: PipelineArtifacts, rng: random.Random
) -> Optional[InjectionOutcome]:
    """Drop an intersection-graph edge and re-run first-fit.

    The allocator, blinded to one genuine conflict, may now overlay the
    pair; Definition-5 verification (which re-derives intersection from
    the lifetimes, not the WIG) must notice.  Only edges whose removal
    actually changes the placement into an overlap count — dropping an
    edge the allocator never relied on is not a fault.
    """
    buffers = art.result.lifetimes.as_list()
    wig = art.result.allocation.graph
    candidates = [
        (i, j)
        for i in range(len(buffers))
        for j in wig.neighbors[i]
        if i < j and buffers[i].size > 0 and buffers[j].size > 0
    ]
    rng.shuffle(candidates)
    for i, j in candidates:
        neighbors = [set(n) for n in wig.neighbors]
        neighbors[i].discard(j)
        neighbors[j].discard(i)
        pruned = type(wig)(buffers=list(wig.buffers), neighbors=neighbors)
        alloc = first_fit(
            buffers, graph=pruned, occurrence_cap=art.occurrence_cap
        )
        oi, oj = alloc.offsets[buffers[i].name], alloc.offsets[buffers[j].name]
        disjoint = (
            oi + buffers[i].size <= oj or oj + buffers[j].size <= oi
        )
        if disjoint:
            continue  # allocator got lucky; this drop is harmless
        caught = _verify_catches(art, alloc)
        return InjectionOutcome(
            mutation="wig_edge",
            graph_seed=art.seed,
            caught=caught,
            detail=(
                f"dropped WIG edge ({buffers[i].name!r}, "
                f"{buffers[j].name!r}); first-fit overlaid them at "
                f"{oi}/{oj}"
            ),
        )
    return None


def _skew_one_loop(
    node: ScheduleNode, rng: random.Random
) -> Optional[ScheduleNode]:
    """Rebuild ``node`` with one nested loop/firing count bumped by one.

    Only *inner* counts are touched: scaling the whole schedule uniformly
    would be a legal blocking-factor change, not a fault.
    """
    if isinstance(node, Firing):
        return Firing(node.actor, node.count + 1)
    body = list(node.body)
    k = rng.randrange(len(body))
    skewed = _skew_one_loop(body[k], rng)
    if skewed is None:
        return None
    body[k] = skewed
    return Loop(node.count, tuple(body))


def inject_loop_bound(
    art: PipelineArtifacts, rng: random.Random
) -> Optional[InjectionOutcome]:
    """Skew one loop bound of the SDPPO schedule; validation must fail.

    A graph with one actor has every count change absorbed into the
    blocking factor, so the mutation needs at least two actors (always
    true for harness graphs).
    """
    schedule = art.result.sdppo_schedule
    if len(art.graph.actor_names()) < 2:
        return None
    body = list(schedule.body)
    k = rng.randrange(len(body))
    skewed = _skew_one_loop(body[k], rng)
    if skewed is None:
        return None
    body[k] = skewed
    mutated = LoopedSchedule(body)
    try:
        validate_schedule(art.graph, mutated)
        caught = False
    except SDFError:
        caught = True
    return InjectionOutcome(
        mutation="loop_bound",
        graph_seed=art.seed,
        caught=caught,
        detail=f"skewed {schedule} into {mutated}",
    )


def inject_total(
    art: PipelineArtifacts, rng: random.Random
) -> Optional[InjectionOutcome]:
    """Understate the allocation's reported pool extent by one word."""
    alloc = art.result.allocation
    if alloc.total < 1:
        return None
    mutated = Allocation(
        offsets=dict(alloc.offsets),
        total=alloc.total - 1,
        order=alloc.order,
        graph=alloc.graph,
    )
    caught = _verify_catches(art, mutated)
    return InjectionOutcome(
        mutation="total",
        graph_seed=art.seed,
        caught=caught,
        detail=f"reported total {alloc.total - 1} instead of {alloc.total}",
    )


def inject_buffer_size(
    art: PipelineArtifacts, rng: random.Random
) -> Optional[InjectionOutcome]:
    """Shrink one linear buffer below its episode transfer size.

    The VM's cursor discipline writes exactly ``size`` words per episode
    into a non-circular buffer, so a size understated by one word must
    overrun (or corrupt a neighbour) at run time.
    """
    lifetimes = copy.deepcopy(art.result.lifetimes)
    candidates = [
        k
        for k, lt in lifetimes.lifetimes.items()
        if lt.size > 1 and art.graph.edge(*k).delay == 0
    ]
    if not candidates:
        return None
    key = rng.choice(sorted(candidates))
    victim = lifetimes.lifetimes[key]
    lifetimes.lifetimes[key] = type(victim)(
        name=victim.name,
        size=victim.size - 1,
        start=victim.start,
        duration=victim.duration,
        periods=victim.periods,
        total_span=victim.total_span,
    )
    try:
        vm = SharedMemoryVM(art.graph, lifetimes, art.result.allocation)
        vm.run(periods=2)
        caught = False
    except SDFError:
        caught = True
    return InjectionOutcome(
        mutation="buffer_size",
        graph_seed=art.seed,
        caught=caught,
        detail=(
            f"shrank buffer {victim.name!r} from {victim.size} to "
            f"{victim.size - 1} words"
        ),
    )


def inject_stage_crash(
    art: PipelineArtifacts, rng: random.Random
) -> Optional[InjectionOutcome]:
    """Crash the pipeline mid-flow; partial observability must survive.

    Feeding the pipeline its own order *reversed* (declared trusted, so
    the up-front validation that would reject it is skipped) makes a
    downstream stage raise on most graphs — the regression mode where
    ``repro compile --profile`` used to lose the raising stage's row
    entirely.  Caught means: the flow raised, a stage span under
    ``implement`` carries the error, the rendered ``--profile`` table
    shows that stage's row with ``error=``, and the recorder's span
    stack unwound cleanly (no span left open).  Graphs whose reversed
    order happens to compile (enough initial tokens) are skipped as
    inapplicable.
    """
    from .. import obs
    from ..scheduling.pipeline import implement

    order = list(reversed(art.result.order))
    if order == art.result.order:
        return None
    rec = obs.TraceRecorder()
    try:
        # ``use_chain_dp=False``: the chain DP ignores the supplied
        # order (it derives its own), which would mask the fault.
        implement(
            art.graph,
            order=order,
            trusted_order=True,
            use_chain_dp=False,
            occurrence_cap=art.occurrence_cap,
            recorder=rec,
        )
        return None  # reversed order compiled cleanly; try another graph
    except SDFError:
        pass
    root = next((r for r in rec.roots if r.name == "implement"), None)
    failed = [s for s in (root.children if root else []) if s.error]
    rows = [line.strip() for line in obs.format_profile(rec).splitlines()]
    error_rows = [row for row in rows if "error=" in row]
    caught = (
        len(failed) == 1
        and len(error_rows) == 1
        and error_rows[0].startswith(f"{failed[0].name}:")
        and not rec.open_spans
    )
    return InjectionOutcome(
        mutation="stage_crash",
        graph_seed=art.seed,
        caught=caught,
        detail=(
            f"reversed order crashed stage "
            f"{failed[0].name if failed else '<none>'}; "
            f"{len(error_rows)} profile error row(s), "
            f"open spans {rec.open_spans!r}"
        ),
    )


def inject_cache_corrupt(
    art: PipelineArtifacts, rng: random.Random
) -> Optional[InjectionOutcome]:
    """Corrupt an artifact-cache entry; it must never be served.

    Compiles the graph through a :class:`repro.serve.CompileService`
    backed by a throwaway cache, then corrupts the stored entry one of
    three ways a real deployment could: truncation (crash mid-write of
    a non-atomic writer), field tampering with a stale digest (bit rot
    or a buggy external editor), or wholesale garbage.  Caught means
    the corrupted entry is evicted on read (the lookup misses, the
    file is gone) and the recompute's report is bit-identical to the
    pre-corruption cold result — corruption repaired, never served.
    """
    import os
    import tempfile

    from ..sdf.io import to_json
    from ..serve import ArtifactCache, CompileOptions, CompileService

    document = to_json(art.graph)
    options = CompileOptions(
        method=art.method, seed=art.seed,
        occurrence_cap=art.occurrence_cap,
    )
    mode = rng.choice(("truncate", "tamper", "garbage"))
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as root:
        cache = ArtifactCache(root)
        service = CompileService(cache=cache)
        cold, status = service.compile_document(document, options)
        path = cache.path_for(cold.key)
        if status != "miss" or not os.path.isfile(path):
            return None
        if mode == "truncate":
            with open(path, "r+", encoding="utf-8") as handle:
                handle.truncate(max(1, os.path.getsize(path) // 2))
        elif mode == "tamper":
            # Valid JSON, wrong content: only the digest check can
            # notice.  Overstate the pool total by one word.
            import json

            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
            entry["report"]["total"] = int(entry["report"]["total"]) + 1
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\x00not json\x00" * 3)
        served = cache.get(cold.key)
        evicted = not os.path.isfile(path)
        warm, warm_status = service.compile_document(document, options)
        caught = (
            served is None
            and evicted
            and warm_status == "miss"
            and warm.canonical() == cold.canonical()
        )
        return InjectionOutcome(
            mutation="cache_corrupt",
            graph_seed=art.seed,
            caught=caught,
            detail=(
                f"{mode}: corrupt read -> "
                f"{'miss' if served is None else 'SERVED'}, "
                f"entry {'evicted' if evicted else 'STILL PRESENT'}, "
                f"recompute ({warm_status}) "
                f"{'bit-identical' if warm.canonical() == cold.canonical() else 'DIFFERS'}"
            ),
        )


def inject_worker_crash(
    art: PipelineArtifacts, rng: random.Random
) -> Optional[InjectionOutcome]:
    """Kill a farm worker mid-compile; the failure must stay loud.

    Stands up a single-worker compile farm (``allow_faults=True``, a
    knob the CLI never sets) and submits the graph with the
    ``worker_crash`` fault armed: the worker ``os._exit``\\ s midway
    through the compile, after admission but before any response
    frame.  Caught means the crash surfaced as an immediate one-line
    503 (not a hang — the client would time out — and not a silently
    retried success), the supervisor respawned the worker, and a
    plain resubmit then compiles to a report bit-identical to the
    direct pipeline result.  A crash that hangs the request, leaks a
    dead pool, or diverges on retry means the farm's supervision has
    gone blind.
    """
    import tempfile

    from ..sdf.io import to_json
    from ..serve import (
        ArtifactCache,
        CompilationReport,
        CompileServer,
        CompileService,
        ServeClientError,
    )
    from ..serve.client import compile_remote

    document = to_json(art.graph)
    options = {
        "method": art.method, "seed": art.seed,
        "occurrence_cap": art.occurrence_cap,
    }
    reference = CompilationReport.from_result(
        art.result, art.graph.name, seed=art.seed
    )
    with tempfile.TemporaryDirectory(prefix="repro-farm-") as root:
        server = CompileServer(
            CompileService(cache=ArtifactCache(root)),
            port=0, processes=1, queue_limit=16,
            allow_faults=True, quiet=True,
        ).start()
        try:
            crash_status: Optional[int] = None
            crash_detail = "request unexpectedly succeeded"
            try:
                # cache=False keeps the fault on the compile path (a
                # cache hit would answer before the hook runs).
                payload = {
                    "graph": document, "options": options,
                    "cache": False, "fault": "worker_crash",
                }
                from ..serve.client import _post

                _post(server.url, "/compile", payload, timeout=60.0)
            except ServeClientError as exc:
                crash_status = exc.status
                crash_detail = str(exc)
            crashed_cleanly = crash_status == 503 and "\n" not in crash_detail
            try:
                retry, retry_status = compile_remote(
                    document, url=server.url, options=options, timeout=60.0
                )
            except ServeClientError as exc:
                return InjectionOutcome(
                    mutation="worker_crash",
                    graph_seed=art.seed,
                    caught=False,
                    detail=f"farm did not recover: {exc}",
                )
            reference.key = retry.key
            recovered = (
                server.farm is not None
                and server.farm.alive_count() == server.farm.size
                and server.farm.restarts_total() >= 1
            )
            identical = retry.canonical() == reference.canonical()
            caught = crashed_cleanly and recovered and identical
            return InjectionOutcome(
                mutation="worker_crash",
                graph_seed=art.seed,
                caught=caught,
                detail=(
                    f"crash -> HTTP {crash_status} "
                    f"({'one-line 503' if crashed_cleanly else 'WRONG SHAPE'}), "
                    f"worker {'respawned' if recovered else 'NOT RESPAWNED'}, "
                    f"retry ({retry_status}) "
                    f"{'bit-identical' if identical else 'DIVERGED'}"
                ),
            )
        finally:
            server.drain(timeout=10)


def inject_broadcast_stop(
    art: PipelineArtifacts, rng: random.Random
) -> Optional[InjectionOutcome]:
    """Truncate a broadcast buffer's lifetime to its *earliest* member
    stop — the signature bug of modelling a shared buffer by its fastest
    consumer instead of its slowest.

    Builds its own broadcast graph (the default factory graphs carry no
    groups), shortens the group lifetime so first-fit may reuse the tail
    that slow members still read, and asserts Definition-5 verification
    — which re-derives conflicts from the *true* lifetimes — rejects
    the resulting placement.  Truncations first-fit never exploits are
    harmless and skipped.
    """
    from ..sdf.random_graphs import random_broadcast_sdf_graph

    try:
        graph = random_broadcast_sdf_graph(
            rng.randint(4, 7),
            seed=art.seed,
            num_groups=2,
            delayed_group_fraction=0.0,
            max_repetition=6,
        )
        bart = build_artifacts(
            graph, method="rpmc", seed=art.seed,
            occurrence_cap=art.occurrence_cap,
        )
    except SDFError:
        return None
    except RuntimeError:
        return None
    lifetimes = bart.result.lifetimes
    tree = lifetimes.tree
    for buffer in lifetimes.buffers:
        if buffer.reset is None:
            continue  # delayed buffers span the whole period; no tail
        first = buffer.members[0]
        stops = [
            tree.stop_within(buffer.reset, m.sink) for m in buffer.members
        ]
        shared = lifetimes.lifetimes[first.key]
        if min(stops) >= shared.start + shared.duration:
            continue  # all readers stop together (one reader included)
        if min(stops) <= shared.start:
            continue
        mutated = copy.deepcopy(lifetimes)
        wrong = mutated.lifetimes[first.key]
        truncated = type(wrong)(
            name=wrong.name,
            size=wrong.size,
            start=wrong.start,
            duration=min(stops) - wrong.start,
            periods=wrong.periods,
            total_span=wrong.total_span,
        )
        for key, lt in list(mutated.lifetimes.items()):
            if lt is wrong:
                mutated.lifetimes[key] = truncated
        alloc = first_fit(
            mutated.as_list(), occurrence_cap=art.occurrence_cap
        )
        # Did first-fit exploit the shortened tail?  The mutation only
        # counts when the group buffer now shares addresses with a
        # buffer that truly conflicts with it.
        lo = alloc.offsets[shared.name]
        hi = lo + shared.size
        exploited = False
        for other in lifetimes.as_list():
            if other.name == shared.name or other.size == 0:
                continue
            o = alloc.offsets[other.name]
            if o + other.size <= lo or hi <= o:
                continue
            if shared.overlaps(other, occurrence_cap=art.occurrence_cap):
                exploited = True
                break
        if not exploited:
            continue  # allocator did not take the bait on this group
        caught = _verify_catches(bart, alloc)
        return InjectionOutcome(
            mutation="broadcast_stop",
            graph_seed=art.seed,
            caught=caught,
            detail=(
                f"truncated group {first.broadcast!r} lifetime from duration "
                f"{shared.duration} to {truncated.duration} (earliest "
                f"member stop); first-fit overlaid it with a live buffer"
            ),
        )
    return None


def inject_cyclic_schedule(
    art: PipelineArtifacts, rng: random.Random
) -> Optional[InjectionOutcome]:
    """Skew one loop bound of a *cyclic* graph's expanded schedule.

    Builds its own cyclic graph (the default factory graphs are
    acyclic), runs SCC clustering + quotient scheduling + expansion,
    then bumps one nested firing count — the shape of a bug in the
    composite-firing expansion.  Token-replay validation on the
    original cyclic graph must reject the result.
    """
    from ..scheduling.cyclic import schedule_cyclic
    from ..sdf.random_graphs import random_cyclic_sdf_graph

    try:
        graph = random_cyclic_sdf_graph(
            rng.randint(3, 6), seed=art.seed, num_feedback=1,
            max_repetition=6,
        )
        schedule = schedule_cyclic(graph).schedule
    except (SDFError, RuntimeError):
        return None
    if len(graph.actor_names()) < 2:
        return None
    body = list(schedule.body)
    k = rng.randrange(len(body))
    skewed = _skew_one_loop(body[k], rng)
    if skewed is None:
        return None
    body[k] = skewed
    mutated = LoopedSchedule(body)
    try:
        validate_schedule(graph, mutated)
        caught = False
    except SDFError:
        caught = True
    return InjectionOutcome(
        mutation="cyclic_schedule",
        graph_seed=art.seed,
        caught=caught,
        detail=f"skewed cyclic schedule {schedule} into {mutated}",
    )


def inject_native_kernel(
    art: PipelineArtifacts, rng: random.Random
) -> Optional[InjectionOutcome]:
    """Arm a fault inside the compiled DP kernel; the differential
    comparison against the Python DP must notice.

    The ``dp_cell`` fault skews one cell of the DP cost table, the shape
    of a real kernel bug (a bad index or combiner in the C loop).
    Caught means the faulted kernel's DPPO/SDPPO outputs differ from
    the Python DP's — exactly what the ``oracle.native`` bit-identity
    comparison checks on every trial.  Without a usable kernel (no
    compiler, ``REPRO_NATIVE=0``) the armed contract is the *fallback*:
    a kernel-requested DP must silently produce the Python result bit
    for bit.
    """
    from ..native import get_kernels, kernel_fault
    from .oracles import _dp_signature

    reference = _dp_signature(art, "python")
    if get_kernels() is None:
        identical = _dp_signature(art, "native") == reference
        return InjectionOutcome(
            mutation="native_kernel",
            graph_seed=art.seed,
            caught=identical,
            detail=(
                "no native kernel available; backend='native' fallback "
                + ("bit-identical to python" if identical else "DIVERGED")
            ),
        )
    with kernel_fault("dp_cell"):
        skewed = _dp_signature(art, "native")
    differing = sorted(k for k in reference if skewed[k] != reference[k])
    caught = bool(differing)
    return InjectionOutcome(
        mutation="native_kernel",
        graph_seed=art.seed,
        caught=caught,
        detail=(
            "armed 'dp_cell' kernel fault; "
            + (
                f"differential caught it on {', '.join(differing)}"
                if caught
                else "faulted native run matched python (oracle blind)"
            )
        ),
    )


def inject_vectorize_overrun(
    art: PipelineArtifacts, rng: random.Random
) -> Optional[InjectionOutcome]:
    """Claim a budget the blocked schedule actually violates.

    Runs the real unconstrained blocking pass, then forges its result
    to assert it respected a ``memory_budget`` equal to the *baseline*
    pool total — the exact lie a buggy greedy loop would tell if it
    applied a fission without re-costing it.  The independent re-cost
    in :func:`~repro.check.oracles.vectorize_violations` (the same
    helper every ``oracle.vectorize`` trial runs) must expose the
    overrun.  Graphs where blocking is free (no safe fission, or the
    flat schedule costs no more than the baseline) cannot host the
    mutation and defer to the next seed.
    """
    from dataclasses import replace

    from ..scheduling.vectorize import vectorize_schedule
    from .oracles import vectorize_violations

    vec = vectorize_schedule(
        art.graph, art.result.sdppo_schedule, art.q,
        occurrence_cap=art.occurrence_cap,
    )
    if vec.cost is None or vec.steps == 0:
        return None
    # An unconstrained pass that blocked does not cost its baseline.
    lifetimes = extract_lifetimes(art.graph, vec.baseline_schedule, art.q)
    baseline_cost = allocate(
        lifetimes.as_list(), occurrence_cap=art.occurrence_cap
    ).best.total
    if vec.cost <= baseline_cost:
        return None
    forged = replace(vec, memory_budget=baseline_cost)
    violations = vectorize_violations(
        art.graph, forged, art.q, occurrence_cap=art.occurrence_cap
    )
    caught = any("budget" in v for v in violations)
    return InjectionOutcome(
        mutation="vectorize_overrun",
        graph_seed=art.seed,
        caught=caught,
        detail=(
            f"claimed budget {baseline_cost} on a blocking costing "
            f"{vec.cost} words; {len(violations)} violation(s) reported"
        ),
    )


MUTATION_CLASSES: Dict[
    str, Callable[[PipelineArtifacts, random.Random], Optional[InjectionOutcome]]
] = {
    "offset": inject_offset,
    "wig_edge": inject_wig_edge,
    "loop_bound": inject_loop_bound,
    "total": inject_total,
    "buffer_size": inject_buffer_size,
    "stage_crash": inject_stage_crash,
    "cache_corrupt": inject_cache_corrupt,
    "worker_crash": inject_worker_crash,
    "broadcast_stop": inject_broadcast_stop,
    "cyclic_schedule": inject_cyclic_schedule,
    "native_kernel": inject_native_kernel,
    "vectorize_overrun": inject_vectorize_overrun,
}


def run_injection_selftest(
    seed: int = 0,
    max_attempts: int = 40,
    graph_factory: Optional[Callable[[int], PipelineArtifacts]] = None,
) -> InjectionReport:
    """Apply every mutation class to compiled random graphs.

    Each class retries across graph seeds until its mutation is
    applicable (at most ``max_attempts`` graphs); an inapplicable class
    after all attempts is recorded as missed — the self-test must not
    silently skip a mutation.
    """
    rng = random.Random(seed)
    if graph_factory is None:
        def graph_factory(graph_seed: int) -> PipelineArtifacts:
            graph = random_sdf_graph(
                rng.randint(3, 7), seed=graph_seed, max_repetition=6
            )
            return build_artifacts(graph, method="rpmc", seed=graph_seed)

    report = InjectionReport()
    cache: Dict[int, PipelineArtifacts] = {}
    for name, inject in MUTATION_CLASSES.items():
        outcome: Optional[InjectionOutcome] = None
        for attempt in range(max_attempts):
            graph_seed = seed * 1000 + attempt
            if graph_seed not in cache:
                cache[graph_seed] = graph_factory(graph_seed)
            outcome = inject(cache[graph_seed], rng)
            if outcome is not None:
                break
        if outcome is None:
            outcome = InjectionOutcome(
                mutation=name,
                graph_seed=-1,
                caught=False,
                detail=f"no applicable instance in {max_attempts} graphs",
            )
        report.outcomes.append(outcome)
    return report
