"""Precise shared-buffer DP for chain-structured graphs (section 6).

EQ 5's ``max(left, right)`` is pessimistic: it assumes the split-crossing
buffer is simultaneously live with *everything* on both sides.  For
chain-structured graphs the paper refines the cost of a subchain to a
triple

    (left, cost, right)

where ``cost`` is the shared memory to implement the subchain in
isolation, ``left`` the part of it that can be live simultaneously with
the buffer on the input edge of the subchain's first actor, and
``right`` the part that can overlap the buffer on the output edge of its
last actor (figure 6: subchain ABCD reports (104, 104, 91), so the
DE-crossing buffer adds to 91 instead of 104, giving the true 127).

Combining a left triple ``(l1, l2, l3)`` and a right triple
``(r1, r2, r3)`` across a split with crossing-buffer size ``c`` depends
on how often each side iterates inside the merged loop: with
``g_xy = gcd(q_x..q_y)``, the left side iterates ``rL = g_ik / g_ij``
times and the right side ``rR = g_(k+1)j / g_ij`` times.  Three regimes
matter per side — once, twice, three-or-more — giving the paper's nine
cases.  The paper details the three cases with ``rR = 1``
(sections 6.1.1–6.1.3); the remaining six follow by the left/right
mirror symmetry of the buffer profiles, which we apply below.

Incomparable triples (figure 11) are kept as a Pareto set per DP cell,
bounded by ``max_entries`` to keep time and space polynomial, exactly as
the paper suggests.

Delayed edges are handled as in EQ 5's episodic/persistent split (see
:mod:`repro.scheduling.sdppo`): a delayed edge's circular buffer is live
across the whole period, so it bypasses the triple's overlap reasoning
and accumulates in a fourth, always-summed ``pers`` component per Pareto
entry; a subchain's true cost is ``mid + pers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import GraphStructureError
from ..sdf.graph import SDFGraph
from ..sdf.schedule import LoopedSchedule
from .common import ChainContext, build_schedule_from_splits

__all__ = ["CostTriple", "ChainSDPPOResult", "chain_sdppo", "combine_triples"]


@dataclass(frozen=True)
class CostTriple:
    """A (left, cost, right) shared-memory cost triple (section 6)."""

    left: int
    mid: int
    right: int

    def dominates(self, other: "CostTriple") -> bool:
        """Element-wise <= with at least one strict (Pareto dominance)."""
        return (
            self.left <= other.left
            and self.mid <= other.mid
            and self.right <= other.right
            and (self != other)
        )

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.left, self.mid, self.right)


def combine_triples(
    left: CostTriple,
    right: CostTriple,
    crossing: int,
    left_ratio: int,
    right_ratio: int,
    left_is_leaf: bool = False,
    right_is_leaf: bool = False,
) -> CostTriple:
    """Apply the nine-case combination rule of section 6.1.

    ``crossing`` is the split-crossing buffer size ``c_ij(k)``;
    ``left_ratio`` / ``right_ratio`` are ``g_ik/g_ij`` and
    ``g_(k+1)j/g_ij`` — how many times each side iterates within one
    iteration of the merged loop.

    The middle component is live memory at the worst instant: one of

    * the left side at full cost, plus the crossing buffer if the left
      side repeats (the crossing buffer is partially filled during
      repeats ≥ 2) — ``l2 (+c)``;
    * the left side's output-overlap portion together with the crossing
      buffer while the left side fills it — ``l3 + c``;
    * the right side's input-overlap portion while it drains the
      crossing buffer — ``r1 + c``;
    * the right side at full cost, plus the crossing buffer if the right
      side repeats (undrained until the final repeat) — ``r2 (+c)``.

    The left component follows section 6.1's cases I–III; the right
    component is the mirror image.

    ``left_is_leaf`` / ``right_is_leaf`` record that a side is a single
    actor.  A single actor's input buffers stay live until it finishes
    and its output buffers are live from when it starts (the coarse
    model, sections 5 and 12), so a leaf side's external buffer always
    overlaps the crossing buffer: the window's (A, B) base triple is
    ``(c, c, c)``, not ``(0, c, 0)``.  This is the reading under which
    the paper's figure 6 values — subchain ABCD reporting
    ``(104, 104, 91)`` and the total coming to 127 — reproduce exactly.
    """
    if left_ratio < 1 or right_ratio < 1:
        raise GraphStructureError(
            f"loop ratios must be >= 1, got {left_ratio}/{right_ratio}"
        )
    c = crossing
    l1, l2, l3 = left.as_tuple()
    r1, r2, r3 = right.as_tuple()

    mid = max(
        l2 + (c if left_ratio >= 2 else 0),
        l3 + c if not left_is_leaf else c,
        r1 + c if not right_is_leaf else c,
        r2 + (c if right_ratio >= 2 else 0),
        c,
    )

    if left_ratio == 1:
        t_left = max(l1, c) if left_is_leaf else l1
    elif left_ratio == 2:
        t_left = max(l1 + c, l2)
    else:
        t_left = l2 + c

    if right_ratio == 1:
        t_right = max(r3, c) if right_is_leaf else r3
    elif right_ratio == 2:
        t_right = max(r3 + c, r2)
    else:
        t_right = r2 + c

    # The overlap portions can never exceed the total cost.
    return CostTriple(min(t_left, mid), mid, min(t_right, mid))


@dataclass
class _Entry:
    """A Pareto-set member with provenance for schedule reconstruction.

    ``pers`` carries the subchain's *persistent* memory — delayed-edge
    circular buffers, live across the whole period and so excluded from
    the episodic triple's overlap reasoning; the subchain's true cost is
    ``triple.mid + pers``.  Dominance must compare all four components:
    folding ``pers`` into the triple is unsound (an entry with a larger
    episodic triple but smaller persistent part can win after a merge
    whose other side dwarfs both episodic profiles).
    """

    triple: CostTriple
    split: int = -1  # -1 for leaf windows
    left_index: int = -1
    right_index: int = -1
    pers: int = 0

    def dominates(self, other: "_Entry") -> bool:
        return (
            self.triple.left <= other.triple.left
            and self.triple.mid <= other.triple.mid
            and self.triple.right <= other.triple.right
            and self.pers <= other.pers
            and (self.triple != other.triple or self.pers != other.pers)
        )


@dataclass
class ChainSDPPOResult:
    """Outcome of the precise chain DP.

    ``cost`` is the exact shared-model cost estimate of the best root
    entry (minimum episodic middle component plus persistent total);
    ``schedule`` the reconstructed SAS; ``pareto`` the root window's
    episodic triples.
    """

    cost: int
    schedule: LoopedSchedule
    order: List[str]
    pareto: List[CostTriple]


def chain_sdppo(
    graph: SDFGraph,
    order: Optional[Sequence[str]] = None,
    q: Optional[Dict[str, int]] = None,
    max_entries: int = 8,
) -> ChainSDPPOResult:
    """Precise shared-buffer DP over a chain-structured graph.

    Parameters
    ----------
    graph:
        Must be chain-structured (a simple path); the lexical order of a
        chain's SAS is forced, so ``order`` defaults to the chain order.
    max_entries:
        Bound on incomparable triples retained per DP cell (the paper's
        suggested polynomial-time safeguard).  Entries with the smallest
        middle component are preferred when truncating.
    """
    chain = graph.chain_order()
    if chain is None:
        raise GraphStructureError(
            f"chain_sdppo requires a chain-structured graph; "
            f"{graph.name!r} is not a simple path"
        )
    if order is not None and list(order) != chain:
        raise GraphStructureError(
            "a chain has a unique topological order; "
            f"expected {chain!r}, got {list(order)!r}"
        )
    if max_entries < 1:
        raise GraphStructureError("max_entries must be >= 1")

    context = ChainContext(graph, chain, q, trusted=True)
    n = context.n
    cells: Dict[Tuple[int, int], List[_Entry]] = {}
    for i in range(n):
        cells[(i, i)] = [_Entry(CostTriple(0, 0, 0))]

    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length - 1
            g_ij = context.window_gcd(i, j)
            candidates: List[_Entry] = []
            for k in range(i, j):
                # A delayed crossing edge's circular buffer is live for
                # the whole period: it takes no part in the episodic
                # overlap cases, it simply adds to the persistent total.
                # On a chain, edge (k, k+1) is the only edge crossing k.
                c_total = context.crossing_cost(i, j, k)
                p_cross = context.pers_crossing_cost(i, j, k)
                c_epi = c_total - p_cross
                r_left = context.window_gcd(i, k) // g_ij
                r_right = context.window_gcd(k + 1, j) // g_ij
                for li, le in enumerate(cells[(i, k)]):
                    for ri, re in enumerate(cells[(k + 1, j)]):
                        t = combine_triples(
                            le.triple, re.triple, c_epi, r_left, r_right,
                            left_is_leaf=(i == k),
                            right_is_leaf=(k + 1 == j),
                        )
                        candidates.append(
                            _Entry(t, k, li, ri,
                                   pers=le.pers + re.pers + p_cross)
                        )
            cells[(i, j)] = _pareto_prune(candidates, max_entries)

    root = cells[(0, n - 1)]
    best_index = min(
        range(len(root)), key=lambda x: root[x].triple.mid + root[x].pers
    )
    split, factored = {}, {}
    _collect_splits(cells, (0, n - 1), best_index, split, factored)
    schedule = build_schedule_from_splits(context, split, factored)
    return ChainSDPPOResult(
        cost=root[best_index].triple.mid + root[best_index].pers,
        schedule=schedule,
        order=chain,
        pareto=[e.triple for e in root],
    )


def _pareto_prune(candidates: List[_Entry], max_entries: int) -> List[_Entry]:
    """Keep 4-way Pareto-minimal entries, at most ``max_entries``.

    Entries are preferred by total cost (``mid + pers``) when
    truncating; dominance compares (left, mid, right, pers)
    component-wise (see :class:`_Entry` for why ``pers`` cannot be
    folded into the triple).
    """
    candidates.sort(
        key=lambda e: (
            e.triple.mid + e.pers, e.triple.left, e.triple.right, e.pers
        )
    )
    kept: List[_Entry] = []
    for entry in candidates:
        if any(
            k.dominates(entry)
            or (k.triple == entry.triple and k.pers == entry.pers)
            for k in kept
        ):
            continue
        kept.append(entry)
        if len(kept) >= max_entries:
            break
    return kept


def _collect_splits(
    cells: Dict[Tuple[int, int], List[_Entry]],
    window: Tuple[int, int],
    index: int,
    split: Dict[Tuple[int, int], int],
    factored: Dict[Tuple[int, int], bool],
) -> None:
    i, j = window
    if i == j:
        return
    entry = cells[window][index]
    split[window] = entry.split
    # Chains always have the single crossing edge between adjacent
    # actors, so the section 5.1 heuristic always factors.
    factored[window] = True
    _collect_splits(cells, (i, entry.split), entry.left_index, split, factored)
    _collect_splits(
        cells, (entry.split + 1, j), entry.right_index, split, factored
    )
