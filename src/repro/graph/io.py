"""Graph serialisation: whitespace edge lists.

Edge-list format (one edge per line)::

    # directed: true        <- optional header comment
    v                       <- a node: nodes are added in the order read
    u v [weight]
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.errors import GraphError
from repro.graph.graph import Graph

PathLike = Union[str, Path]


def write_edge_list(g: Graph, path: PathLike) -> None:
    """Write ``g`` as a whitespace edge list with a directedness header:
    every node first, one per line in ``g.nodes`` order (which fragment
    lids follow), so node order and isolated nodes round-trip."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# directed: {'true' if g.directed else 'false'}\n")
        fh.writelines(f"{v}\n" for v in g.nodes)
        fh.writelines(f"{u} {v} {w}\n" for u, v, w in g.edges())


def read_edge_list(path: PathLike, directed: bool = None) -> Graph:
    """Read an edge list written by :func:`write_edge_list`.

    Node ids are parsed as ``int`` when possible, otherwise kept as strings.
    ``directed`` overrides the header when given.
    """
    header_directed = None
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                lowered = line.lower()
                if "directed:" in lowered:
                    header_directed = "true" in lowered
                continue
            parts = line.split()
            if len(parts) == 1:
                edges.append((_parse_node(parts[0]), None, None))
            elif len(parts) in (2, 3):
                u, v = (_parse_node(parts[0]), _parse_node(parts[1]))
                w = float(parts[2]) if len(parts) == 3 else 1.0
                edges.append((u, v, w))
            else:
                raise GraphError(
                    f"{path}:{lineno}: expected 'u v [w]' or 'v', "
                    f"got {line!r}")
    if directed is None:
        directed = header_directed if header_directed is not None else True
    g = Graph(directed=directed)
    for u, v, w in edges:
        if v is None:
            g.add_node(u)
        else:
            g.add_edge(u, v, w)
    return g


def _parse_node(token: str):
    try:
        return int(token)
    except ValueError:
        return token
