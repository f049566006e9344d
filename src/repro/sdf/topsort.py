"""Topological-sort utilities (paper sections 7 and 10.1).

For a delayless acyclic SDF graph, every single appearance schedule is
determined by (i) a topological sort of the actors (its lexical order)
and (ii) a loop nesting hierarchy over that order.  APGAN and RPMC
(:mod:`repro.scheduling`) construct good topological sorts heuristically;
this module provides the primitives they and the random-search baseline
(section 10.1) are built on:

* deterministic topological ordering (in :class:`~repro.sdf.graph.SDFGraph`);
* uniform-at-random topological sorts (for the random-search experiment);
* exhaustive enumeration of all topological sorts (for small graphs and
  for exact optimality tests);
* counting topological sorts without enumerating them.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Set

from ..exceptions import GraphStructureError
from .graph import SDFGraph

__all__ = [
    "random_topological_sort",
    "all_topological_sorts",
    "count_topological_sorts",
    "is_topological_order",
]


def is_topological_order(graph: SDFGraph, order: Sequence[str]) -> bool:
    """True if ``order`` is a topological order of ``graph``'s actors."""
    if sorted(order) != sorted(graph.actor_names()):
        return False
    position = {a: i for i, a in enumerate(order)}
    return all(position[e.source] < position[e.sink] for e in graph.edges())


def random_topological_sort(
    graph: SDFGraph, rng: Optional[random.Random] = None
) -> List[str]:
    """A topological sort sampled by random tie-breaking.

    At each step one actor is drawn uniformly from the current ready set
    (indegree zero among unplaced actors).  This reaches every
    topological sort with non-zero probability, which is all the
    random-search baseline of section 10.1 needs.  (The distribution is
    not uniform over sorts; uniform sampling is #P-hard in general.)
    """
    rng = rng or random.Random()
    indeg = {a: 0 for a in graph.actor_names()}
    out_keys = graph._out
    for keys in out_keys.values():
        for k in keys:
            indeg[k[1]] += 1
    ready = [a for a, d in indeg.items() if d == 0]
    order: List[str] = []
    while ready:
        idx = rng.randrange(len(ready))
        ready[idx], ready[-1] = ready[-1], ready[idx]
        a = ready.pop()
        order.append(a)
        for k in out_keys[a]:
            s = k[1]
            d = indeg[s] - 1
            indeg[s] = d
            if d == 0:
                ready.append(s)
    if len(order) != graph.num_actors:
        raise GraphStructureError(f"graph {graph.name!r} contains a cycle")
    return order


def all_topological_sorts(graph: SDFGraph) -> Iterator[List[str]]:
    """Yield every topological sort of ``graph`` (Knuth/Szwarcfiter-style).

    Exponential in general — intended for graphs of up to roughly a
    dozen actors (exact-optimum cross-checks in tests).
    """
    indeg = {a: 0 for a in graph.actor_names()}
    for e in graph.edges():
        indeg[e.sink] += 1
    order: List[str] = []
    n = graph.num_actors

    def backtrack() -> Iterator[List[str]]:
        if len(order) == n:
            yield list(order)
            return
        for a in graph.actor_names():
            if indeg[a] == 0:
                indeg[a] = -1  # mark placed
                order.append(a)
                for e in graph.out_edges(a):
                    indeg[e.sink] -= 1
                yield from backtrack()
                for e in graph.out_edges(a):
                    indeg[e.sink] += 1
                order.pop()
                indeg[a] = 0

    yielded_any = False
    for sort in backtrack():
        yielded_any = True
        yield sort
    if not yielded_any and n:
        raise GraphStructureError(f"graph {graph.name!r} contains a cycle")


def count_topological_sorts(graph: SDFGraph, limit: int = 10 ** 7) -> int:
    """Count topological sorts by memoised DP over ready sets.

    Stops and raises :class:`GraphStructureError` if more than ``limit``
    distinct antichain states are visited (guards against exponential
    blow-up on wide graphs).
    """
    names = graph.actor_names()
    index = {a: i for i, a in enumerate(names)}
    preds_mask = [0] * len(names)
    for e in graph.edges():
        preds_mask[index[e.sink]] |= 1 << index[e.source]
    if len(names) > 62:
        raise GraphStructureError(
            "count_topological_sorts supports at most 62 actors"
        )

    full = (1 << len(names)) - 1
    states = 0
    # Explicit memo keyed on the placed-set mask; masks are only
    # meaningful within one graph's count, so the table lives here
    # rather than in a decorator rebuilt per call.
    memo: Dict[int, int] = {}

    def count(placed: int) -> int:
        nonlocal states
        cached = memo.get(placed)
        if cached is not None:
            return cached
        states += 1
        if states > limit:
            raise GraphStructureError("too many states while counting sorts")
        if placed == full:
            memo[placed] = 1
            return 1
        total = 0
        for i in range(len(names)):
            bit = 1 << i
            if not placed & bit and (preds_mask[i] & placed) == preds_mask[i]:
                total += count(placed | bit)
        memo[placed] = total
        return total

    if not names:
        return 1
    result = count(0)
    if result == 0:
        raise GraphStructureError(f"graph {graph.name!r} contains a cycle")
    return result
