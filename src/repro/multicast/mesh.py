"""Graph view of radio connectivity.

:func:`connectivity_graph` builds a :mod:`networkx` graph from node
positions.  It is an *analysis* tool — protocols never read it — used by
the offline geographic routing study.  networkx is loaded on first use,
so importing :mod:`repro.multicast` (every simulator and serve process
does) does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.util.geometry import Vec2

if TYPE_CHECKING:
    import networkx as nx


def connectivity_graph(
    positions: Dict[int, Vec2], link_range_m: float
) -> nx.Graph:
    """Unit-disk connectivity graph over node positions.

    Args:
        positions: node id -> position.
        link_range_m: maximum link distance.

    Returns:
        An undirected graph with one node per robot and an edge between
        every pair within range, annotated with the pair distance.
    """
    if link_range_m <= 0:
        raise ValueError(
            "link_range_m must be positive, got %r" % link_range_m
        )
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(positions)
    ids = sorted(positions)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            d = positions[a].distance_to(positions[b])
            if d <= link_range_m:
                graph.add_edge(a, b, distance=d)
    return graph
