"""SDF graph serialization: JSON documents and Graphviz DOT export.

A small, stable interchange format so graphs can live outside Python
(test fixtures, user designs, tool pipelines):

.. code-block:: json

    {
      "name": "fig1",
      "actors": [{"name": "A", "execution_time": 1}, ...],
      "edges": [
        {"source": "A", "sink": "B", "production": 2,
         "consumption": 1, "delay": 1, "token_size": 1}
      ]
    }

``to_dot`` renders the paper's drawing conventions: edges annotated
``prod/cons`` with ``nD`` for n initial tokens.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, IO, Union

from ..exceptions import GraphStructureError
from .graph import SDFGraph

__all__ = [
    "to_json",
    "from_json",
    "save_graph",
    "load_graph",
    "canonical_document",
    "canonical_hash",
    "to_dot",
]


def to_json(graph: SDFGraph) -> Dict[str, Any]:
    """The JSON-ready dictionary form of a graph."""
    return {
        "name": graph.name,
        "actors": [
            {"name": a.name, "execution_time": a.execution_time}
            for a in graph.actors()
        ],
        "edges": [
            {
                "source": e.source,
                "sink": e.sink,
                "production": e.production,
                "consumption": e.consumption,
                "delay": e.delay,
                "token_size": e.token_size,
                # Only present for broadcast members: keeps the
                # canonical document (and hence every content address
                # already in a serve cache) byte-stable for ordinary
                # graphs.
                **({"broadcast": e.broadcast} if e.broadcast else {}),
            }
            for e in graph.edges()
        ],
    }


def from_json(document: Dict[str, Any]) -> SDFGraph:
    """Rebuild a graph from :func:`to_json` output.

    Raises :class:`GraphStructureError` on malformed documents (missing
    keys, unknown endpoint names, bad rates).
    """
    try:
        graph = SDFGraph(document.get("name", "sdf"))
        for actor in document["actors"]:
            graph.add_actor(
                actor["name"], int(actor.get("execution_time", 1))
            )
        for edge in document["edges"]:
            broadcast = edge.get("broadcast")
            graph.add_edge(
                edge["source"],
                edge["sink"],
                int(edge["production"]),
                int(edge["consumption"]),
                int(edge.get("delay", 0)),
                int(edge.get("token_size", 1)),
                broadcast=str(broadcast) if broadcast is not None else None,
            )
    except (KeyError, TypeError) as exc:
        raise GraphStructureError(
            f"malformed SDF graph document: {exc!r}"
        ) from exc
    return graph


def canonical_document(
    document: Union[SDFGraph, Dict[str, Any]]
) -> str:
    """The canonical serialized form of a graph document.

    Accepts either an :class:`SDFGraph` or a :func:`to_json`-shaped
    dictionary.  Object keys are sorted and whitespace is fixed, so two
    documents that differ only in JSON key order (or in insignificant
    formatting) canonicalize to the same string.  List order is kept:
    actor order and edge order are semantic (they break ties in
    topological sorts and name parallel edges), so reordering them is a
    *different* graph and must produce a different canonical form.
    """
    if isinstance(document, SDFGraph):
        document = to_json(document)
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def canonical_hash(document: Union[SDFGraph, Dict[str, Any]]) -> str:
    """SHA-256 hex digest of :func:`canonical_document`.

    The content address of a graph: stable across Python processes,
    file formatting, and JSON key ordering.  The compilation service
    routes each document to its farm shard and keys its session LRU by
    this digest; the artifact cache's key
    (:func:`repro.artifacts.cache.cache_key`) hashes the raw document
    with its options and the package version instead.
    """
    return hashlib.sha256(
        canonical_document(document).encode("utf-8")
    ).hexdigest()


def save_graph(graph: SDFGraph, target: Union[str, IO[str]]) -> None:
    """Write a graph to a JSON file (path or open text handle)."""
    document = to_json(graph)
    if isinstance(target, str):
        with open(target, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    else:
        json.dump(document, target, indent=2, sort_keys=True)


def load_graph(source: Union[str, IO[str]]) -> SDFGraph:
    """Read a graph from a JSON file (path or open text handle)."""
    if isinstance(source, str):
        with open(source) as handle:
            return from_json(json.load(handle))
    return from_json(json.load(source))


def to_dot(graph: SDFGraph) -> str:
    """Graphviz DOT rendering with the paper's edge annotations."""
    lines = [f'digraph "{graph.name}" {{', "  rankdir=LR;"]
    for a in graph.actors():
        lines.append(f'  "{a.name}" [shape=circle];')
    for e in graph.edges():
        label = f"{e.production}/{e.consumption}"
        if e.delay:
            label += f", {e.delay}D"
        if e.token_size != 1:
            label += f" x{e.token_size}w"
        attrs = f'label="{label}"'
        if e.broadcast:
            attrs = f'label="{label} [{e.broadcast}]" style=dashed'
        lines.append(f'  "{e.source}" -> "{e.sink}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
