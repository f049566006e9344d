"""Looped schedules and single appearance schedules (paper section 3).

A *schedule* is a sequence of actor firings.  Generated code repeats a
finite *valid schedule* forever, so compact schedules matter: the looped
schedule notation ``(2 B (2 C))`` denotes the firing sequence ``BCCBCC``,
and a *single appearance schedule* (SAS) — one in which each actor
appears exactly once lexically — yields code in which each actor's code
block is instantiated exactly once.

This module defines the schedule syntax tree (:class:`Firing`,
:class:`Loop`, :class:`LoopedSchedule`), a parser for the paper's textual
notation, and structural queries (lexical order, appearance counts,
flattening, firing counts).  Semantic checks that need token counting
live in :mod:`repro.sdf.simulate`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from ..exceptions import ScheduleError

__all__ = [
    "Firing",
    "Loop",
    "ScheduleNode",
    "LoopedSchedule",
    "parse_schedule",
    "flat_single_appearance_schedule",
]


@dataclass(frozen=True)
class Firing:
    """A leaf of the schedule tree: ``count`` consecutive firings of ``actor``.

    The notation ``3A`` is ``Firing("A", 3)``.
    """

    actor: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ScheduleError(
                f"firing count for {self.actor!r} must be positive, "
                f"got {self.count}"
            )

    def __str__(self) -> str:
        return self.actor if self.count == 1 else f"({self.count}{self.actor})"


@dataclass(frozen=True)
class Loop:
    """A schedule loop ``(count body...)``.

    ``Loop(2, (Firing("B"), Loop(2, (Firing("C"),))))`` prints as
    ``(2B(2C))`` and denotes the firing sequence ``BCCBCC``.
    """

    count: int
    body: Tuple["ScheduleNode", ...]

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ScheduleError(f"loop count must be positive, got {self.count}")
        if not self.body:
            raise ScheduleError("loop body must be non-empty")

    def __str__(self) -> str:
        inner = _join_terms(self.body)
        return f"({self.count}{inner})" if self.count != 1 else inner


ScheduleNode = Union[Firing, Loop]


def _join_terms(nodes: Sequence["ScheduleNode"]) -> str:
    """Concatenate term strings, spacing adjacent bare actor names.

    ``(2 B C)`` must not print as ``(2BC)`` — with multi-character
    actor names that would be ambiguous (and unparseable).
    """
    parts: List[str] = []
    for node in nodes:
        text = str(node)
        if parts and parts[-1][-1] not in ")(" and text[0] not in "(":
            parts.append(" ")
        parts.append(text)
    return "".join(parts)


class LoopedSchedule:
    """A complete looped schedule: an ordered forest of schedule nodes.

    The top level has an implicit loop count of one (the whole schedule
    is wrapped in the infinite loop by the code generator, which is
    outside this representation).
    """

    def __init__(self, body: Sequence[ScheduleNode]) -> None:
        if not body:
            raise ScheduleError("schedule must be non-empty")
        self.body: Tuple[ScheduleNode, ...] = tuple(body)
        # Memoized flattenings.  A schedule's body is an immutable tuple
        # of frozen dataclasses, so these never need invalidation; the
        # pipeline (validate -> max_tokens -> simulate) re-walks the same
        # tree several times and shares the flat list instead.
        self._flat: Optional[List[str]] = None
        self._firings_per_actor: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def firing_sequence(self) -> Iterator[str]:
        """Yield actor names in execution order (may be long).

        The flattening is memoized on first use (schedules are immutable
        after construction), so repeated consumers — validation, token
        counting, simulation — walk the tree once between them.
        """
        return iter(self._flat_cached())

    def firing_list(self) -> List[str]:
        return list(self._flat_cached())

    def _flat_cached(self) -> List[str]:
        if self._flat is None:
            flat: List[str] = []

            def walk(node: ScheduleNode) -> None:
                if isinstance(node, Firing):
                    flat.extend([node.actor] * node.count)
                else:
                    start = len(flat)
                    for child in node.body:
                        walk(child)
                    body = flat[start:]
                    for _ in range(node.count - 1):
                        flat.extend(body)

            for node in self.body:
                walk(node)
            self._flat = flat
        return self._flat

    def firings_per_actor(self) -> Dict[str, int]:
        """Total firing count of each actor in one schedule period."""
        if self._firings_per_actor is not None:
            return dict(self._firings_per_actor)
        counts: Dict[str, int] = {}

        def walk(node: ScheduleNode, multiplier: int) -> None:
            if isinstance(node, Firing):
                counts[node.actor] = (
                    counts.get(node.actor, 0) + multiplier * node.count
                )
            else:
                for child in node.body:
                    walk(child, multiplier * node.count)

        for node in self.body:
            walk(node, 1)
        self._firings_per_actor = counts
        return dict(counts)

    def appearances(self) -> Dict[str, int]:
        """Number of lexical appearances of each actor."""
        counts: Dict[str, int] = {}

        def walk(node: ScheduleNode) -> None:
            if isinstance(node, Firing):
                counts[node.actor] = counts.get(node.actor, 0) + 1
            else:
                for child in node.body:
                    walk(child)

        for node in self.body:
            walk(node)
        return counts

    def is_single_appearance(self) -> bool:
        return all(c == 1 for c in self.appearances().values())

    def lexical_order(self) -> List[str]:
        """``lexorder(S)``: actors in order of first lexical appearance."""
        order: List[str] = []
        seen = set()
        def walk(node: ScheduleNode) -> None:
            if isinstance(node, Firing):
                if node.actor not in seen:
                    seen.add(node.actor)
                    order.append(node.actor)
            else:
                for child in node.body:
                    walk(child)
        for node in self.body:
            walk(node)
        return order

    def actors(self) -> List[str]:
        return self.lexical_order()

    def is_flat(self) -> bool:
        """True if the schedule is a bare firing sequence (a *flat* SAS).

        A flat SAS ``(q1 x1)(q2 x2)...(qn xn)`` has no multi-element
        loops: every top-level term is a single (possibly repeated)
        actor firing.
        """
        return all(isinstance(node, Firing) for node in self.body)

    def depth(self) -> int:
        """Maximum loop nesting depth (a bare firing has depth 0)."""

        def node_depth(node: ScheduleNode) -> int:
            if isinstance(node, Firing):
                return 0
            return 1 + max(node_depth(child) for child in node.body)

        return max(node_depth(node) for node in self.body)

    def num_firings(self) -> int:
        return sum(self.firings_per_actor().values())

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def normalized(self) -> "LoopedSchedule":
        """Collapse unit loops and merge nested single-child loops.

        ``(1 A B)`` becomes ``A B``; ``(2 (3 A))`` becomes ``(6 A)``
        when the inner loop is the sole body element.  The firing
        sequence is unchanged.
        """

        def norm(node: ScheduleNode) -> List[ScheduleNode]:
            if isinstance(node, Firing):
                return [node]
            new_body: List[ScheduleNode] = []
            for child in node.body:
                new_body.extend(norm(child))
            if node.count == 1:
                return new_body
            if len(new_body) == 1:
                only = new_body[0]
                if isinstance(only, Firing):
                    return [Firing(only.actor, only.count * node.count)]
                return [Loop(only.count * node.count, only.body)]
            return [Loop(node.count, tuple(new_body))]

        flat_body: List[ScheduleNode] = []
        for node in self.body:
            flat_body.extend(norm(node))
        return LoopedSchedule(flat_body)

    def __str__(self) -> str:
        return _join_terms(self.body)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LoopedSchedule({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoopedSchedule):
            return NotImplemented
        return self.body == other.body

    def __hash__(self) -> int:
        return hash(self.body)


_TOKEN_RE = re.compile(r"\s*(\(|\)|\d+|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text: str) -> List[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ScheduleError(
                    f"cannot tokenize schedule at ...{text[pos:pos + 20]!r}"
                )
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_schedule(text: str) -> LoopedSchedule:
    """Parse the paper's schedule notation.

    Grammar::

        schedule := term+
        term     := COUNT? actor | '(' COUNT? term+ ')'

    A count directly before an actor multiplies that single actor
    (``3A`` = A fired three times); a count after ``(`` applies to the
    whole parenthesised body.

    Examples
    --------
    >>> s = parse_schedule("(3A)(6B)(2C)")
    >>> s.firings_per_actor() == {"A": 3, "B": 6, "C": 2}
    True
    >>> parse_schedule("A(2B(2C))").firing_list()
    ['A', 'B', 'C', 'C', 'B', 'C', 'C']
    """
    tokens = _tokenize(text)
    pos = 0

    def parse_terms(stop_at_paren: bool) -> List[ScheduleNode]:
        nonlocal pos
        nodes: List[ScheduleNode] = []
        while pos < len(tokens):
            tok = tokens[pos]
            if tok == ")":
                if not stop_at_paren:
                    raise ScheduleError("unbalanced ')' in schedule")
                return nodes
            if tok == "(":
                pos += 1
                count = 1
                if pos < len(tokens) and tokens[pos].isdigit():
                    count = int(tokens[pos])
                    pos += 1
                body = parse_terms(stop_at_paren=True)
                if pos >= len(tokens) or tokens[pos] != ")":
                    raise ScheduleError("missing ')' in schedule")
                pos += 1
                if not body:
                    raise ScheduleError("empty loop body in schedule")
                if len(body) == 1 and isinstance(body[0], Firing) and body[0].count == 1:
                    nodes.append(Firing(body[0].actor, count))
                else:
                    nodes.append(Loop(count, tuple(body)))
            elif tok.isdigit():
                count = int(tok)
                pos += 1
                if pos >= len(tokens):
                    raise ScheduleError("dangling count at end of schedule")
                nxt = tokens[pos]
                if nxt == "(":
                    pos += 1
                    body = parse_terms(stop_at_paren=True)
                    if pos >= len(tokens) or tokens[pos] != ")":
                        raise ScheduleError("missing ')' in schedule")
                    pos += 1
                    nodes.append(Loop(count, tuple(body)))
                elif nxt not in (")",) and not nxt.isdigit():
                    pos += 1
                    nodes.append(Firing(nxt, count))
                else:
                    raise ScheduleError(f"count {count} not followed by actor or '('")
            else:
                pos += 1
                nodes.append(Firing(tok, 1))
        return nodes

    body = parse_terms(stop_at_paren=False)
    if pos != len(tokens):
        raise ScheduleError("unbalanced parentheses in schedule")
    return LoopedSchedule(body)


def flat_single_appearance_schedule(
    lexical_order: Sequence[str], q: Dict[str, int]
) -> LoopedSchedule:
    """The flat SAS ``(q1 x1)(q2 x2)...(qn xn)`` for a lexical order.

    This is the starting point that DPPO/SDPPO post-optimise into a
    nested loop hierarchy (paper section 7).
    """
    missing = [a for a in lexical_order if a not in q]
    if missing:
        raise ScheduleError(
            f"actors {missing!r} missing from repetitions vector"
        )
    return LoopedSchedule([Firing(a, q[a]) for a in lexical_order])
