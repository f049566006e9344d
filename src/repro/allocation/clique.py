"""Maximum clique weight bounds for lifetime instances (section 9.1).

The maximum clique weight (MCW) of the weighted intersection graph — the
largest total size of simultaneously live buffers — lower-bounds the
chromatic-number-style allocation total.  For *non-periodic* instances
the MCW is computed exactly by sweeping interval start times (the
maximum overlap always includes some interval's start).

With periodic lifetimes the maximum can occur at a later occurrence of
an interval (figure 20), and checking all occurrence starts is
exponential in the worst case.  Following section 9.1 the paper (and we)
use two polynomial heuristics:

* ``mco`` — optimistic: evaluate the clique weight only at each
  lifetime's *earliest* start (a lower bound on the true MCW);
* ``mcp`` — pessimistic: ignore periodicity, treating each lifetime as
  solid from its earliest start to its last stop, and compute the exact
  MCW of that interval instance (an upper bound on the true MCW).

``mcw_exact_occurrences`` evaluates every occurrence start (exact but
potentially slow) for cross-checks on small instances.
"""

from __future__ import annotations

from typing import List, Sequence

from ..lifetimes.periodic import PeriodicLifetime

__all__ = [
    "clique_weight_at",
    "mcw_optimistic",
    "mcw_pessimistic",
    "mcw_exact_occurrences",
]


def clique_weight_at(buffers: Sequence[PeriodicLifetime], time: int) -> int:
    """Total size of the buffers live at ``time`` (figure 18 test)."""
    return sum(b.size for b in buffers if b.live_at(time))


def mcw_optimistic(buffers: Sequence[PeriodicLifetime]) -> int:
    """``mco``: max clique weight over earliest start times only.

    A lower bound on the true MCW: the set of times where the maximum
    overlap occurs always contains *some* occurrence's start, but not
    necessarily an earliest one (figure 20).

    One sweep over the distinct starts in ascending order: a lifetime
    joins the candidates at its start and leaves once its last stop has
    passed, so only candidates get the figure 18 test.
    """
    pending = sorted(buffers, key=lambda b: b.start)
    active: List[PeriodicLifetime] = []
    best = 0
    for i, b in enumerate(pending):
        active.append(b)
        t = b.start
        if i + 1 < len(pending) and pending[i + 1].start == t:
            continue  # the last lifetime starting at t evaluates t
        active = [x for x in active if x.last_stop > t]
        best = max(best, sum(x.size for x in active if x.live_at(t)))
    return best


def mcw_pessimistic(buffers: Sequence[PeriodicLifetime]) -> int:
    """``mcp``: exact MCW after replacing lifetimes by solid envelopes.

    An upper bound on the true MCW.  Computed by an event sweep over
    (start, +size) / (stop, -size) events with deaths processed before
    births at equal times (half-open intervals).
    """
    events: List = []
    for b in buffers:
        solid = b.solid()
        events.append((solid.start, 1, solid.size))
        events.append((solid.start + solid.duration, 0, solid.size))
    events.sort()
    live = best = 0
    for _, kind, size in events:
        if kind == 0:
            live -= size
        else:
            live += size
            if live > best:
                best = live
    return best


def mcw_exact_occurrences(
    buffers: Sequence[PeriodicLifetime], occurrence_limit: int = 200_000
) -> int:
    """Exact MCW by evaluating every occurrence start of every lifetime.

    Raises :class:`ValueError` if the instance has more occurrence
    starts than ``occurrence_limit`` (the non-polynomial blow-up the
    paper's heuristics exist to avoid).  Intended for validation on
    small instances.
    """
    total = sum(b.num_occurrences for b in buffers)
    if total > occurrence_limit:
        raise ValueError(
            f"instance has {total} occurrence starts; exceeds limit "
            f"{occurrence_limit}"
        )
    best = 0
    for b in buffers:
        for s in b.occurrence_starts():
            w = clique_weight_at(buffers, s)
            if w > best:
                best = w
    return best
