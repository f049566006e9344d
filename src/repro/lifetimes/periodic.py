"""Periodic buffer lifetimes (paper section 8.4).

A buffer's liveness profile under a nested looped schedule is periodic:
the innermost common loop of producer and consumer fills and drains the
buffer once per body iteration, and every enclosing loop repeats that
pattern.  The paper represents such a lifetime by the triple

    { start, (a_1, ..., a_n), (loop_1, ..., loop_n) }

where ``a_i`` are the body durations of the parent-set nodes and
``loop_i`` their iteration counts: the buffer is live during

    [ start + sum_i p_i * a_i ,  start + sum_i p_i * a_i + dur ]

for every digit combination ``p_i in {0, ..., loop_i - 1}`` — a
mixed-radix ("number in the basis (loop_1, ..., loop_n)") enumeration.

Because loops nest, ``a_i * (loop_i - 1) <= a_(i+1)`` when sorted
ascending, which makes the greedy digit extraction of figure 18 exact:
liveness at a time ``T`` and the next occurrence after ``T`` are both
computed in O(n).

Conventions
-----------
Occurrence intervals are half-open ``[s, s + dur)`` for *conflict*
purposes: a buffer whose last consumer finishes at step ``t`` may share
memory with a buffer first written at step ``t``.  (Figure 18's closed
``<=`` test is equivalent for the integer schedule steps at which
buffers actually change state; the half-open form just fixes the
boundary tie in the safe direction.)
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

from ..exceptions import SDFError

__all__ = ["DEFAULT_OCCURRENCE_CAP", "PeriodicLifetime"]

#: Default cap on periodic-occurrence enumeration in intersection tests
#: (:meth:`PeriodicLifetime.overlaps`).  Lifetime pairs where both sides
#: exceed the cap fall back to comparing solid envelopes — pessimistic,
#: hence safe for allocation.  Every layer that performs intersection
#: tests (WIG construction, first-fit, verification, the exact optimum)
#: defaults to this one constant so the fast path and the oracles agree
#: on when the fallback engages.
DEFAULT_OCCURRENCE_CAP = 4096


@dataclass(frozen=True)
class PeriodicLifetime:
    """A (possibly periodic) buffer lifetime with a size in words.

    Parameters
    ----------
    name:
        Identifier (usually ``"src->snk"``), used in reports.
    size:
        Words of memory the buffer occupies while live.
    start:
        Start of the first live interval, in schedule steps.
    duration:
        Length of each live interval (``stop - start`` of section 8.3).
    periods:
        ``(a_i, loop_i)`` pairs, sorted by increasing ``a_i``; empty for
        a non-periodic (single-interval) lifetime.  Unit loops must be
        dropped by the caller (they contribute nothing).
    total_span:
        Duration of one complete schedule period, for bounds checking.
    """

    name: str
    size: int
    start: int
    duration: int
    periods: Tuple[Tuple[int, int], ...] = ()
    total_span: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise SDFError(f"lifetime {self.name!r}: negative size")
        if self.duration <= 0:
            raise SDFError(
                f"lifetime {self.name!r}: duration must be positive"
            )
        for idx, (a, loop) in enumerate(self.periods):
            if a <= 0 or loop <= 1:
                raise SDFError(
                    f"lifetime {self.name!r}: period entries need a > 0 "
                    f"and loop > 1, got ({a}, {loop})"
                )
            if idx + 1 < len(self.periods):
                nxt = self.periods[idx + 1][0]
                # The greedy liveness test (figure 18) requires the
                # nested-loop property a_i (loop_i - 1) <= a_(i+1).
                if a * (loop - 1) > nxt:
                    raise SDFError(
                        f"lifetime {self.name!r}: periods violate the "
                        f"nesting property ({a} * {loop - 1} > {nxt})"
                    )

    @classmethod
    def from_basis(
        cls,
        name: str,
        size: int,
        start: int,
        duration: int,
        basis: Sequence[Tuple[int, int]],
        total_span: int = 0,
    ) -> "PeriodicLifetime":
        """Build a lifetime from a raw parent-set basis.

        ``basis`` is ``(a_i, loop_i)`` pairs in any order, unit loops
        included — exactly what a walk over a schedule tree's parent
        set produces (section 8.4).  Unit loops are dropped (they
        contribute no occurrences) and the rest sorted ascending by
        ``a_i``, which is the constructor's normal form.
        """
        periods = tuple(
            sorted((p for p in basis if p[1] > 1), key=lambda p: p[0])
        )
        return cls(
            name=name, size=size, start=start, duration=duration,
            periods=periods, total_span=total_span,
        )

    # ------------------------------------------------------------------
    # Derived quantities are cached on the instance (lifetimes are
    # frozen); the WIG build queries them once per candidate pair.
    @cached_property
    def num_occurrences(self) -> int:
        n = 1
        for _, loop in self.periods:
            n *= loop
        return n

    @cached_property
    def last_stop(self) -> int:
        """End of the final occurrence: the solid-interval upper bound."""
        offset = sum(a * (loop - 1) for a, loop in self.periods)
        return self.start + offset + self.duration

    @cached_property
    def _starts(self) -> List[int]:
        """All occurrence starts, materialized once for pair testing."""
        return list(self.occurrence_starts())

    def solid(self) -> "PeriodicLifetime":
        """The pessimistic non-periodic envelope (periodicity ignored)."""
        if not self.periods:
            return self
        return PeriodicLifetime(
            name=self.name,
            size=self.size,
            start=self.start,
            duration=self.last_stop - self.start,
            periods=(),
            total_span=self.total_span,
        )

    # ------------------------------------------------------------------
    # the figure 18 algorithm and its derivatives
    # ------------------------------------------------------------------
    def live_at(self, time: int) -> bool:
        """True if the buffer is live at ``time`` (half-open intervals).

        Greedy mixed-radix digit extraction, largest period first
        (figure 18): valid because nested loops satisfy
        ``a_i (loop_i - 1) <= a_(i+1)``.
        """
        t = time - self.start
        if t < 0:
            return False
        for a, loop in reversed(self.periods):
            k = min(t // a, loop - 1)
            t -= k * a
        return t < self.duration

    def occurrence_starts(self) -> Iterator[int]:
        """All occurrence start times, ascending."""
        digits = [0] * len(self.periods)
        value = self.start
        while True:
            yield value
            # mixed-radix increment, least significant (smallest a) first,
            # tracking the weighted value alongside the digits
            i = 0
            while i < len(digits):
                a, loop = self.periods[i]
                digits[i] += 1
                value += a
                if digits[i] < loop:
                    break
                digits[i] = 0
                value -= a * loop
                i += 1
            else:
                return

    def next_start(self, time: int) -> Optional[int]:
        """Smallest occurrence start ``>= time``, or None if none remain.

        Implements the paper's "increment the number formed by the k_i
        in the basis (loop_1, ..., loop_n)" (section 8.4).
        """
        if time <= self.start:
            return self.start
        t = time - self.start
        digits: List[int] = []
        remainder = t
        for a, loop in reversed(self.periods):
            k = min(remainder // a, loop - 1)
            digits.append(k)
            remainder -= k * a
        digits.reverse()  # now aligned with self.periods (ascending a)
        # sum(d_i * a_i) is exactly what the greedy extraction removed
        # from t, so the floor candidate is time minus the remainder.
        candidate = time - remainder
        while candidate < time:
            # increment in the mixed basis; repeated in the (tree-built
            # lifetimes never hit it) corner case where weakly nested
            # periods make one increment insufficient
            i = 0
            while i < len(digits):
                a, loop = self.periods[i]
                digits[i] += 1
                candidate += a
                if digits[i] < loop:
                    break
                digits[i] = 0
                candidate -= a * loop
                i += 1
            else:
                return None
        return candidate

    def overlaps(
        self,
        other: "PeriodicLifetime",
        occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
    ) -> bool:
        """True if any live interval of self intersects one of ``other``.

        Enumerates the occurrence starts of the sparser lifetime and
        queries the other via :meth:`live_at` / :meth:`next_start`.  If
        both lifetimes have more occurrences than ``occurrence_cap``,
        falls back to comparing solid envelopes — pessimistic, hence
        safe for allocation (a claimed overlap only prevents sharing).
        """
        a, b = (self, other) if self.num_occurrences <= other.num_occurrences else (other, self)
        if a.num_occurrences > occurrence_cap:
            a, b = a.solid(), b.solid()
        if a.start >= b.last_stop or b.start >= a.last_stop:
            return False  # disjoint solid envelopes
        starts = a._starts
        n = len(starts)
        dur = a.duration
        idx = 0
        if b.num_occurrences <= occurrence_cap:
            # Both sides enumerable: decide each a-occurrence with two
            # binary searches over b's cached starts (the arrays are
            # shared across every pair test of a WIG build).
            b_starts = b._starts
            nb = len(b_starts)
            b_dur = b.duration
            while idx < n:
                s = starts[idx]
                j = bisect_right(b_starts, s)
                if j and b_starts[j - 1] + b_dur > s:
                    return True  # a b-interval covers s
                if j == nb:
                    return False  # no b-interval starts after s
                nxt = b_starts[j]
                if nxt < s + dur:
                    return True
                # b has no live interval in [s, nxt): skip every
                # a-occurrence that ends inside that dead space.
                idx = bisect_right(starts, nxt - dur, idx + 1)
            return False
        # b too dense to enumerate: query it analytically (figure 18).
        while idx < n:
            s = starts[idx]
            if b.live_at(s):
                return True
            nxt = b.next_start(s)
            if nxt is None:
                return False
            if nxt < s + dur:
                return True
            idx = bisect_right(starts, nxt - dur, idx + 1)
        return False

    def intervals(self) -> Iterator[Tuple[int, int]]:
        """All half-open live intervals, ascending by start."""
        for s in self.occurrence_starts():
            yield (s, s + self.duration)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if not self.periods:
            return (
                f"{self.name}: size={self.size} "
                f"[{self.start}, {self.start + self.duration})"
            )
        basis = ", ".join(f"{a}x{l}" for a, l in self.periods)
        return (
            f"{self.name}: size={self.size} start={self.start} "
            f"dur={self.duration} periods=({basis})"
        )
