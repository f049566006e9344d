"""Synchronous dataflow (SDF) graph model.

An SDF graph [Lee & Messerschmitt 1987] is a directed multigraph whose
nodes (*actors*) communicate over FIFO channels (*edges*).  Every firing
of an actor consumes a fixed, compile-time-known number of tokens from
each input edge and produces a fixed number on each output edge.  An edge
may carry initial tokens, called *delays*.

Following the paper's notation (section 2):

* ``src(e)`` / ``snk(e)`` — source and sink actor of edge *e*;
* ``prod(e)`` / ``cns(e)`` — tokens produced per firing of ``src(e)``
  onto *e* and consumed per firing of ``snk(e)`` from *e*;
* ``del(e)`` — initial tokens (delay) on *e*.

The class below follows the networkx idiom (string node names, attribute
dictionaries, adjacency maps) but is self-contained: graph structure is
central to every algorithm in the package and we want exact control over
semantics such as parallel edges and deterministic iteration order.

Iteration order over actors and edges is insertion order, which makes
every algorithm in the package deterministic for a given construction
sequence — essential for reproducible schedules and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..exceptions import GraphStructureError

__all__ = ["Actor", "Edge", "SDFGraph"]


@dataclass(frozen=True)
class Actor:
    """A vertex of an SDF graph.

    Parameters
    ----------
    name:
        Unique identifier within its graph.
    execution_time:
        Abstract cost of one firing, in processor cycles.  Only used by
        the input-buffering experiment (paper section 11.1.3), where the
        spacing of source-actor firings in real time matters.  The
        scheduling and allocation algorithms never look at it.
    """

    name: str
    execution_time: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphStructureError("actor name must be a non-empty string")
        if self.execution_time < 0:
            raise GraphStructureError(
                f"actor {self.name!r}: execution_time must be >= 0, "
                f"got {self.execution_time}"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Edge:
    """A FIFO channel between two actors.

    ``production`` and ``consumption`` are the paper's ``prod(e)`` and
    ``cns(e)``; ``delay`` is ``del(e)``.  ``token_size`` lets tokens be
    vectors or matrices (section 10.2 notes that savings grow when
    "vectors or matrices are being exchanged instead of numerical
    tokens"); all buffer sizes reported by this package are in *words*,
    i.e. tokens multiplied by ``token_size``.

    ``broadcast`` tags this edge as one *member* of a broadcast group
    (generalized graph connections, Liu/Barford/Bhattacharyya): the
    producer writes each token once into a single shared buffer and
    every member sink reads its own cursor over that buffer.  All
    members of a group share one source, production rate, delay, and
    token size; each member keeps its own consumption rate and sink.
    Token *counting* on a member is ordinary FIFO counting; only
    memory accounting (one physical buffer per group) differs.
    """

    source: str
    sink: str
    production: int
    consumption: int
    delay: int = 0
    token_size: int = 1
    #: Disambiguates parallel edges between the same actor pair.
    index: int = 0
    #: Broadcast-group name, or None for an ordinary point-to-point edge.
    broadcast: Optional[str] = None

    def __post_init__(self) -> None:
        if self.production <= 0 or self.consumption <= 0:
            raise GraphStructureError(
                f"edge ({self.source}, {self.sink}): production and "
                f"consumption must be positive, got "
                f"{self.production}/{self.consumption}"
            )
        if self.delay < 0:
            raise GraphStructureError(
                f"edge ({self.source}, {self.sink}): delay must be >= 0, "
                f"got {self.delay}"
            )
        if self.token_size <= 0:
            raise GraphStructureError(
                f"edge ({self.source}, {self.sink}): token_size must be "
                f"positive, got {self.token_size}"
            )

    @property
    def key(self) -> Tuple[str, str, int]:
        """Hashable identifier of this edge within its graph."""
        return (self.source, self.sink, self.index)

    def is_self_loop(self) -> bool:
        return self.source == self.sink

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        d = f", {self.delay}D" if self.delay else ""
        return (
            f"({self.source} -{self.production}/"
            f"{self.consumption}-> {self.sink}{d})"
        )


class SDFGraph:
    """A directed SDF multigraph.

    Examples
    --------
    The graph of the paper's figure 1 (``A -2/1-> B``, one delay, and
    ``B -1/3-> C``)::

        >>> g = SDFGraph()
        >>> for name in "ABC":
        ...     _ = g.add_actor(name)
        >>> _ = g.add_edge("A", "B", production=2, consumption=1, delay=1)
        >>> _ = g.add_edge("B", "C", production=1, consumption=3)
        >>> sorted(g.actor_names())
        ['A', 'B', 'C']
    """

    def __init__(self, name: str = "sdf") -> None:
        self.name = name
        self._actors: Dict[str, Actor] = {}
        self._edges: Dict[Tuple[str, str, int], Edge] = {}
        # adjacency: actor -> list of edge keys
        self._out: Dict[str, List[Tuple[str, str, int]]] = {}
        self._in: Dict[str, List[Tuple[str, str, int]]] = {}
        # Memoized repetitions-vector solve (populated by
        # repro.sdf.repetitions.repetitions_vector, dropped on mutation).
        self._q_cache: Optional[Dict[str, int]] = None

    def invalidate_caches(self) -> None:
        """Drop derived-result caches; called on every graph mutation.

        ``add_actor``/``add_edge`` are the only mutation points (edges
        and actors are frozen dataclasses and nothing removes them), so
        structural caches like the repetitions-vector solve stay valid
        between mutations.
        """
        self._q_cache = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_actor(self, name: str, execution_time: int = 1) -> Actor:
        """Add an actor; raises if the name is already present."""
        if name in self._actors:
            raise GraphStructureError(f"duplicate actor {name!r}")
        actor = Actor(name, execution_time)
        self._actors[name] = actor
        self._out[name] = []
        self._in[name] = []
        self.invalidate_caches()
        return actor

    def add_actors(self, names: Iterable[str]) -> List[Actor]:
        """Add several unit-cost actors at once."""
        return [self.add_actor(n) for n in names]

    def add_edge(
        self,
        source: str,
        sink: str,
        production: int,
        consumption: int,
        delay: int = 0,
        token_size: int = 1,
        broadcast: Optional[str] = None,
    ) -> Edge:
        """Add a FIFO channel from ``source`` to ``sink``.

        Parallel edges are permitted and distinguished by an
        automatically assigned ``index``.  ``broadcast`` tags the edge
        as a member of a broadcast group; members must agree on source,
        production, delay, and token size, and have pairwise-distinct
        sinks (use :meth:`add_broadcast` for whole groups).
        """
        for endpoint in (source, sink):
            if endpoint not in self._actors:
                raise GraphStructureError(
                    f"edge endpoint {endpoint!r} is not an actor of "
                    f"graph {self.name!r}"
                )
        if broadcast is not None:
            if source == sink:
                raise GraphStructureError(
                    f"broadcast group {broadcast!r}: member must not be "
                    f"a self-loop ({source!r})"
                )
            for member in self.broadcast_members(broadcast):
                if member.source != source:
                    raise GraphStructureError(
                        f"broadcast group {broadcast!r}: members must "
                        f"share one source ({member.source!r} vs "
                        f"{source!r})"
                    )
                if member.sink == sink:
                    raise GraphStructureError(
                        f"broadcast group {broadcast!r}: duplicate "
                        f"sink {sink!r}"
                    )
                if (member.production, member.delay, member.token_size) != (
                    production, delay, token_size
                ):
                    raise GraphStructureError(
                        f"broadcast group {broadcast!r}: members must "
                        f"share production/delay/token_size"
                    )
        index = sum(
            1 for k in self._out[source] if k[0] == source and k[1] == sink
        )
        edge = Edge(
            source, sink, production, consumption, delay, token_size,
            index, broadcast,
        )
        self._edges[edge.key] = edge
        self._out[source].append(edge.key)
        self._in[sink].append(edge.key)
        self.invalidate_caches()
        return edge

    def add_broadcast(
        self,
        source: str,
        sinks: Sequence[str],
        production: int,
        consumptions: Sequence[int],
        delay: int = 0,
        token_size: int = 1,
        name: Optional[str] = None,
    ) -> List[Edge]:
        """Add a broadcast group: one producer, one shared buffer, k sinks.

        ``consumptions[i]`` is the consumption rate of the member edge
        to ``sinks[i]``.  Every member carries the same production,
        delay, and token size; the physical buffer backing the group is
        sized once (by the member that holds tokens the longest), not
        once per member.  Returns the member edges in ``sinks`` order.
        """
        if len(sinks) != len(consumptions):
            raise GraphStructureError(
                f"broadcast from {source!r}: {len(sinks)} sinks but "
                f"{len(consumptions)} consumption rates"
            )
        if not sinks:
            raise GraphStructureError(
                f"broadcast from {source!r}: needs at least one sink"
            )
        if name is None:
            existing = self.broadcast_names()
            counter = len(existing)
            name = f"bc{counter}"
            while name in existing:
                counter += 1
                name = f"bc{counter}"
        elif name in self.broadcast_names():
            raise GraphStructureError(
                f"duplicate broadcast group name {name!r}"
            )
        return [
            self.add_edge(
                source, sink, production, cns, delay, token_size,
                broadcast=name,
            )
            for sink, cns in zip(sinks, consumptions)
        ]

    # ------------------------------------------------------------------
    # broadcast queries
    # ------------------------------------------------------------------
    def broadcast_groups(self) -> Dict[str, List[Edge]]:
        """Group name -> member edges, in edge insertion order."""
        groups: Dict[str, List[Edge]] = {}
        for e in self._edges.values():
            if e.broadcast is not None:
                groups.setdefault(e.broadcast, []).append(e)
        return groups

    def buffers(self) -> List[Tuple[Edge, ...]]:
        """Member edges of each physical buffer.

        A physical buffer is one written stream and its reader edges.
        Every plain edge is a one-member buffer, in edge order; then
        come the broadcast groups, in :meth:`broadcast_groups` order.
        """
        plain = [(e,) for e in self._edges.values() if e.broadcast is None]
        return plain + [
            tuple(members) for members in self.broadcast_groups().values()
        ]

    def broadcast_members(self, name: str) -> List[Edge]:
        """Member edges of broadcast group ``name`` (possibly empty)."""
        return [
            e for e in self._edges.values() if e.broadcast == name
        ]

    def broadcast_names(self) -> Set[str]:
        return {
            e.broadcast
            for e in self._edges.values()
            if e.broadcast is not None
        }

    def has_broadcasts(self) -> bool:
        return any(e.broadcast is not None for e in self._edges.values())

    def without_broadcasts(self) -> "SDFGraph":
        """A copy with every broadcast tag dropped.

        The *k-parallel-edges model*: each member becomes an ordinary
        point-to-point FIFO with its own buffer.  Token dynamics (and
        hence schedules and the repetitions vector) are identical; only
        memory accounting changes, which is exactly what the harness's
        sharing-win oracle compares.
        """
        flat = SDFGraph(self.name)
        for a in self._actors.values():
            flat.add_actor(a.name, a.execution_time)
        for e in self.edges():
            flat.add_edge(
                e.source, e.sink, e.production, e.consumption,
                e.delay, e.token_size,
            )
        return flat

    def add_chain(
        self,
        names: Sequence[str],
        rates: Sequence[Tuple[int, int]],
        delays: Optional[Sequence[int]] = None,
    ) -> List[Edge]:
        """Add actors ``names`` connected in a chain.

        ``rates[i]`` is the ``(production, consumption)`` pair for the
        edge from ``names[i]`` to ``names[i+1]``.  Actors already in the
        graph are reused, new ones are created.
        """
        if len(rates) != len(names) - 1:
            raise GraphStructureError(
                f"chain of {len(names)} actors needs {len(names) - 1} "
                f"rate pairs, got {len(rates)}"
            )
        if delays is None:
            delays = [0] * len(rates)
        if len(delays) != len(rates):
            raise GraphStructureError("delays must match rates in length")
        for n in names:
            if n not in self._actors:
                self.add_actor(n)
        edges = []
        for (u, v), (p, c), d in zip(zip(names, names[1:]), rates, delays):
            edges.append(self.add_edge(u, v, p, c, d))
        return edges

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._actors

    def __len__(self) -> int:
        return len(self._actors)

    @property
    def num_actors(self) -> int:
        return len(self._actors)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def actor(self, name: str) -> Actor:
        try:
            return self._actors[name]
        except KeyError:
            raise GraphStructureError(
                f"no actor {name!r} in graph {self.name!r}"
            ) from None

    def actors(self) -> Iterator[Actor]:
        return iter(self._actors.values())

    def actor_names(self) -> List[str]:
        return list(self._actors)

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    def edge_list(self) -> List[Edge]:
        return list(self._edges.values())

    def edge(self, source: str, sink: str, index: int = 0) -> Edge:
        try:
            return self._edges[(source, sink, index)]
        except KeyError:
            raise GraphStructureError(
                f"no edge ({source!r}, {sink!r}, {index}) in graph "
                f"{self.name!r}"
            ) from None

    def has_edge(self, source: str, sink: str) -> bool:
        return any(k[1] == sink for k in self._out.get(source, ()))

    def out_edges(self, name: str) -> List[Edge]:
        return [self._edges[k] for k in self._out[name]]

    def in_edges(self, name: str) -> List[Edge]:
        return [self._edges[k] for k in self._in[name]]

    def successors(self, name: str) -> List[str]:
        """Distinct successor actor names, in edge insertion order."""
        seen: Set[str] = set()
        result = []
        for k in self._out[name]:
            if k[1] not in seen:
                seen.add(k[1])
                result.append(k[1])
        return result

    def predecessors(self, name: str) -> List[str]:
        seen: Set[str] = set()
        result = []
        for k in self._in[name]:
            if k[0] not in seen:
                seen.add(k[0])
                result.append(k[0])
        return result

    def sources(self) -> List[str]:
        """Actors with no input edges."""
        return [a for a in self._actors if not self._in[a]]

    def sinks(self) -> List[str]:
        """Actors with no output edges."""
        return [a for a in self._actors if not self._out[a]]

    # ------------------------------------------------------------------
    # structure predicates
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True if the underlying undirected graph is connected."""
        if not self._actors:
            return True
        start = next(iter(self._actors))
        seen = {start}
        stack = [start]
        while stack:
            a = stack.pop()
            for b in self.successors(a) + self.predecessors(a):
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        return len(seen) == len(self._actors)

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except GraphStructureError:
            return False

    def is_homogeneous(self) -> bool:
        """True if every edge has ``production == consumption`` (section 2)."""
        return all(e.production == e.consumption for e in self.edges())

    def is_chain(self) -> bool:
        """True if the graph is a simple directed chain x1 -> x2 -> ... -> xn."""
        order = self.chain_order()
        return order is not None

    def chain_order(self) -> Optional[List[str]]:
        """The actor order of a chain-structured graph, or ``None``.

        A chain-structured graph (paper section 6) has actors
        ``x1, ..., xN`` with exactly one edge from each ``xi`` to
        ``x(i+1)`` and no other edges.
        """
        n = len(self._actors)
        if n == 0:
            return []
        if self.num_edges != n - 1:
            return None
        starts = [a for a in self._actors if not self._in[a]]
        if n == 1:
            return starts if len(starts) == 1 else None
        if len(starts) != 1:
            return None
        order = [starts[0]]
        while len(order) < n:
            outs = self._out[order[-1]]
            if len(outs) != 1:
                return None
            nxt = outs[0][1]
            if self._in[nxt] != [outs[0]]:
                return None
            order.append(nxt)
        return order

    def topological_order(self) -> List[str]:
        """A topological order of the actors (Kahn's algorithm).

        Deterministic: ties are broken by actor insertion order.
        Raises :class:`GraphStructureError` if the graph has a cycle.
        """
        indeg = {a: 0 for a in self._actors}
        for e in self.edges():
            indeg[e.sink] += 1
        ready = [a for a in self._actors if indeg[a] == 0]
        order: List[str] = []
        position = {a: i for i, a in enumerate(self._actors)}
        while ready:
            ready.sort(key=position.__getitem__)
            a = ready.pop(0)
            order.append(a)
            for e in self.out_edges(a):
                indeg[e.sink] -= 1
                if indeg[e.sink] == 0:
                    ready.append(e.sink)
        if len(order) != len(self._actors):
            raise GraphStructureError(
                f"graph {self.name!r} contains a cycle"
            )
        return order

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, actor_names: Iterable[str], name: str = "") -> "SDFGraph":
        """The induced subgraph on ``actor_names`` (edges with both ends in)."""
        keep = set(actor_names)
        unknown = keep - set(self._actors)
        if unknown:
            raise GraphStructureError(
                f"subgraph: unknown actors {sorted(unknown)!r}"
            )
        sub = SDFGraph(name or f"{self.name}[{len(keep)}]")
        for a in self._actors.values():
            if a.name in keep:
                sub.add_actor(a.name, a.execution_time)
        for e in self.edges():
            if e.source in keep and e.sink in keep:
                sub.add_edge(
                    e.source, e.sink, e.production, e.consumption,
                    e.delay, e.token_size, broadcast=e.broadcast,
                )
        return sub

    def copy(self) -> "SDFGraph":
        return self.subgraph(self._actors, name=self.name)

    def reversed(self) -> "SDFGraph":
        """The graph with every edge reversed (production/consumption swapped).

        Broadcast tags are dropped: reversing a broadcast group would
        turn one-writer-many-readers into many-writers-one-reader,
        which is a merge, not a broadcast.
        """
        rev = SDFGraph(f"{self.name}_rev")
        for a in self._actors.values():
            rev.add_actor(a.name, a.execution_time)
        for e in self.edges():
            rev.add_edge(
                e.sink, e.source, e.consumption, e.production,
                e.delay, e.token_size,
            )
        return rev

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SDFGraph({self.name!r}, actors={self.num_actors}, "
            f"edges={self.num_edges})"
        )
