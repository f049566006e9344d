"""Memory-constrained vectorization: blocking firings under a budget.

The paper's entire cost model trades buffer words for schedule
structure; memory-constrained vectorization (Lin/Wu/Bhattacharyya)
pulls the same lever in the other direction: *blocking* consecutive
firings of an actor into one counted firing block amortizes per-firing
dispatch overhead, at the price of larger live windows on the edges the
block spans.  This module rewrites a single appearance schedule by
*loop fission* — distributing a loop over its body hoists every child
to a bigger block factor::

    (3 A (2 B)) (2 C)   ->   (3 A) (6 B) (2 C)

turning seven dispatch blocks per period into three, without changing
any actor's firing count.  Fission is only applied where it provably
preserves validity (no lexically-backward edge inside the fissioned
body, see :func:`fission_safe`), so delayed feedback and the SCC bodies
of cyclic schedules decline cleanly and keep their original nesting.

Every candidate blocking is *re-costed, not guessed*: the blocked
schedule goes through the real lifetime extraction
(:func:`repro.lifetimes.intervals.extract_lifetimes`) and the
allocation stage (:func:`repro.allocation.first_fit.allocate`), and a
candidate is only applied while the packed
pool total stays within ``memory_budget``.  ``memory_budget=None``
means unconstrained: every safe fission is applied, which on an
acyclic delay-free SAS degenerates to the flat schedule
``(q1 x1)...(qn xn)`` — maximal blocks, maximal buffers, the far end
of the throughput/memory Pareto frontier that ``BENCH_PR10.json``
records (``docs/vectorization.md`` reads it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..allocation.first_fit import FirstFitResult, allocate
from ..exceptions import SDFError
from ..sdf.graph import SDFGraph
from ..sdf.repetitions import repetitions_vector
from ..sdf.schedule import Firing, Loop, LoopedSchedule, ScheduleNode
from ..sdf.simulate import validate_schedule
from ..lifetimes.intervals import LifetimeSet, extract_lifetimes
from ..lifetimes.periodic import DEFAULT_OCCURRENCE_CAP

__all__ = [
    "VectorizeResult",
    "vectorize_schedule",
    "fission_safe",
    "fission_candidates",
    "dispatch_blocks",
]


def _actors_of(node: ScheduleNode, into: Optional[set] = None) -> set:
    if into is None:
        into = set()
    if isinstance(node, Firing):
        into.add(node.actor)
    else:
        for child in node.body:
            _actors_of(child, into)
    return into


def fission_safe(graph: SDFGraph, loop: Loop) -> bool:
    """True when distributing ``loop`` over its body preserves validity.

    Fission turns ``(n c1 c2 ... ck)`` into ``hoist(c1)...hoist(ck)``:
    all ``n`` iterations of each child run back to back.  Relative to
    the original interleaving, a child's own firing subsequence is
    unchanged and consumption on a lexically-*forward* edge (producer
    in an earlier child) only moves later — tokens accumulate, nothing
    can underflow.  What breaks is a lexically-*backward* edge inside
    the body: a consumer in an earlier child than its producer lives on
    initial tokens replenished once per iteration, and hoisting the
    consumer's whole iteration count ahead of the producer would drain
    the delay dry.  That is exactly the shape of delayed feedback and
    of the SCC subschedules produced by cyclic clustering, so the pass
    declines there and the original nesting survives.  An actor
    appearing in more than one child (non-SAS bodies) is likewise
    declined: fission would reorder the actor against itself.
    """
    position: Dict[str, int] = {}
    for i, child in enumerate(loop.body):
        for a in _actors_of(child):
            if a in position:
                return False
            position[a] = i
    for e in graph.edges():
        i = position.get(e.source)
        j = position.get(e.sink)
        if i is None or j is None:
            continue
        if j < i:  # lexically backward within the fissioned body
            return False
    return True


def _hoist(loop: Loop) -> List[ScheduleNode]:
    """Distribute ``loop`` over its body, multiplying child counts."""
    out: List[ScheduleNode] = []
    for child in loop.body:
        if isinstance(child, Firing):
            out.append(Firing(child.actor, child.count * loop.count))
        else:
            out.append(Loop(child.count * loop.count, child.body))
    return out


def fission_candidates(
    graph: SDFGraph, schedule: LoopedSchedule
) -> Iterator[LoopedSchedule]:
    """Every schedule reachable from ``schedule`` by one safe fission.

    Candidates are yielded normalized (unit loops collapsed, nested
    single-child loops merged) and in a deterministic tree-walk order,
    each built only when the caller asks for it.
    """

    def walk(
        nodes: Tuple[ScheduleNode, ...],
        rebuild: Callable[[List[ScheduleNode]], LoopedSchedule],
    ) -> Iterator[LoopedSchedule]:
        for idx, node in enumerate(nodes):
            if not isinstance(node, Loop):
                continue
            if len(node.body) >= 2 and fission_safe(graph, node):
                spliced = (
                    list(nodes[:idx]) + _hoist(node) + list(nodes[idx + 1:])
                )
                yield rebuild(spliced)

            def rebuild_child(
                body: List[ScheduleNode],
                idx: int = idx,
                node: Loop = node,
                nodes: Tuple[ScheduleNode, ...] = nodes,
                rebuild: Callable = rebuild,
            ) -> LoopedSchedule:
                return rebuild(
                    list(nodes[:idx])
                    + [Loop(node.count, tuple(body))]
                    + list(nodes[idx + 1:])
                )

            yield from walk(node.body, rebuild_child)

    return walk(
        schedule.body,
        lambda body: LoopedSchedule(body).normalized(),
    )


def dispatch_blocks(
    schedule: LoopedSchedule,
) -> Tuple[int, int, Dict[str, int]]:
    """``(blocks, firings, block_factors)`` of one schedule period.

    A *dispatch block* is one visit to a ``Firing`` leaf: the generated
    loop nest reaches the leaf and fires its actor ``count`` times back
    to back (one batched call in the vectorized backends).  The block
    factor of an actor is the largest such ``count`` — for a SAS, the
    one leaf's count.  ``firings / blocks`` is the amortization the
    blocking buys over firing-at-a-time dispatch.
    """
    blocks = 0
    firings = 0
    factors: Dict[str, int] = {}

    def walk(node: ScheduleNode, multiplier: int) -> None:
        nonlocal blocks, firings
        if isinstance(node, Firing):
            blocks += multiplier
            firings += multiplier * node.count
            factors[node.actor] = max(factors.get(node.actor, 0), node.count)
        else:
            for child in node.body:
                walk(child, multiplier * node.count)

    for node in schedule.body:
        walk(node, 1)
    return blocks, firings, factors


@dataclass
class VectorizeResult:
    """The outcome of one vectorization pass.

    ``schedule`` is the blocked schedule (identical to
    ``baseline_schedule`` when no fission fit the budget or none was
    safe); ``cost``/``baseline_cost`` are the honest re-costed pool
    totals in words, or ``None`` when the schedule shape does not
    support costing (non-SAS cyclic expansions — the pass then returns
    the identity).  An unconstrained pass (``memory_budget=None``)
    allocates only the schedule it returns, so ``baseline_cost`` is
    also ``None`` when it applied a fission; a caller that needs it
    costs ``baseline_schedule`` with ``extract_lifetimes`` and
    ``allocate``.  ``lifetimes``/``allocation`` are ``schedule``'s
    costing, which ``implement`` reuses (``None`` when ``cost`` is).
    ``blocks``/``firings`` describe one period of the blocked schedule;
    ``steps`` counts the fissions applied.
    """

    schedule: LoopedSchedule
    baseline_schedule: LoopedSchedule
    block_factors: Dict[str, int] = field(default_factory=dict)
    cost: Optional[int] = None
    baseline_cost: Optional[int] = None
    memory_budget: Optional[int] = None
    blocks: int = 0
    firings: int = 0
    baseline_blocks: int = 0
    steps: int = 0
    lifetimes: Optional[LifetimeSet] = None
    allocation: Optional[FirstFitResult] = None

    @property
    def amortization(self) -> float:
        """Firings per dispatch block of the blocked schedule."""
        return self.firings / self.blocks if self.blocks else 0.0

    @property
    def baseline_amortization(self) -> float:
        return (
            self.firings / self.baseline_blocks
            if self.baseline_blocks else 0.0
        )


def vectorize_schedule(
    graph: SDFGraph,
    schedule: LoopedSchedule,
    q: Optional[Dict[str, int]] = None,
    memory_budget: Optional[int] = None,
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
    backend: Optional[str] = None,
    recorder=None,
) -> VectorizeResult:
    """Block consecutive firings of ``schedule`` under a memory budget.

    Greedy best-first loop fission: at each step every safe single
    fission of the current schedule is enumerated, re-costed through
    lifetime extraction and the allocation stage, and the candidate
    with the fewest dispatch blocks (ties: cheapest, then stable text
    order) is applied — provided its honest cost stays within
    ``memory_budget``.  The loop stops when no candidate fits, so a
    budget below the cheapest blocking returns the schedule unchanged
    (the identity pass).  With ``memory_budget=None`` every safe
    fission is applied without per-step costing (the order cannot
    affect the fixed point) and only the final schedule is costed: the
    baseline is then costed only when no fission applied.

    When at least one fission was applied, the result's schedule is
    validated by a token replay
    (:func:`repro.sdf.simulate.validate_schedule`) before being
    returned.  Schedules the cost model cannot process
    (non-single-appearance cyclic expansions) fall back to the identity
    with ``cost=None``.  A negative ``memory_budget`` raises
    ``ValueError``.  ``backend`` is ignored, as in
    :func:`repro.allocation.first_fit.ffdur`.
    """
    if memory_budget is not None and memory_budget < 0:
        raise ValueError(f"memory_budget must be >= 0, got {memory_budget}")
    if q is None:
        q = repetitions_vector(graph)
    base = schedule.normalized()
    base_blocks, firings, base_factors = dispatch_blocks(base)

    def costed(candidate: LoopedSchedule):
        lifetimes = extract_lifetimes(graph, candidate, q)
        return lifetimes, allocate(
            lifetimes.as_list(), occurrence_cap=occurrence_cap
        )

    try:
        lifetimes = extract_lifetimes(graph, base, q)
    except SDFError:
        # The cost model needs a single appearance schedule; cyclic
        # expansions that stay non-SA cannot be re-costed, so the pass
        # declines entirely rather than guessing.
        return VectorizeResult(
            schedule=base,
            baseline_schedule=base,
            block_factors=base_factors,
            memory_budget=memory_budget,
            blocks=base_blocks,
            firings=firings,
            baseline_blocks=base_blocks,
        )

    current = base
    current_blocks = base_blocks
    steps = 0

    if memory_budget is None:
        # Unconstrained: fission to the fixed point, cost once at the
        # end.  Candidate order cannot change the fixed point (each
        # fission only exposes, never forecloses, further safe ones).
        while True:
            first = next(fission_candidates(graph, current), None)
            if first is None:
                break
            current = first
            steps += 1
        if steps:
            lifetimes = extract_lifetimes(graph, current, q)
    # Unconstrained, this costs only the schedule returned: no budget
    # needs the baseline's cost.  Under a budget it is the baseline.
    allocation = allocate(lifetimes.as_list(), occurrence_cap=occurrence_cap)
    baseline_cost = None if steps else allocation.best.total
    if memory_budget is not None:
        while True:
            # Only the best fitting candidate's costing is kept: the
            # least (blocks, cost, text) key.
            best = None
            for cand in fission_candidates(graph, current):
                try:
                    cand_costing = costed(cand)
                except SDFError:
                    continue
                cost = cand_costing[1].best.total
                if cost > memory_budget:
                    continue
                key = (dispatch_blocks(cand)[0], cost, str(cand))
                if best is None or key < best[0]:
                    best = (key, cand, cand_costing)
            if best is None or best[0][0] >= current_blocks:
                break
            key, current, (lifetimes, allocation) = best
            current_blocks = key[0]
            steps += 1

    if steps:
        # Belt and braces: the safety rule is proved above, but the
        # token replay stays the judge of anything this pass emits.
        validate_schedule(graph, current, recorder=recorder)
    blocks, firings, factors = dispatch_blocks(current)
    if recorder is not None:
        recorder.count("vectorize.fissions", steps)
        recorder.count("vectorize.blocks", blocks)
    return VectorizeResult(
        schedule=current,
        baseline_schedule=base,
        block_factors=factors,
        cost=allocation.best.total,
        baseline_cost=baseline_cost,
        memory_budget=memory_budget,
        blocks=blocks,
        firings=firings,
        baseline_blocks=base_blocks,
        steps=steps,
        lifetimes=lifetimes,
        allocation=allocation,
    )
