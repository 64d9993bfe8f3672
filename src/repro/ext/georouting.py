"""Greedy geographic routing over CoCoA coordinates (§6 application).

    "CoCoA coordinates are good enough to enable scalable geographic
    routing [23] of messages and data among the robots or to a controller."

Greedy geographic forwarding moves a packet to whichever neighbor is
closest (by *advertised* coordinates) to the destination; it fails at a
local minimum, where no neighbor improves on the current holder.  Its
delivery rate therefore directly measures coordinate quality: with exact
positions, failures come only from topology voids; with CoCoA estimates,
additional failures come from localization error misdirecting the greedy
choice.

:func:`run_georouting_study` runs a CoCoA team, freezes position snapshots
at several times, and compares greedy routing over true versus estimated
coordinates — the quantitative version of the paper's claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CoCoAConfig
from repro.core.team import CoCoATeam
from repro.util.geometry import Vec2

if TYPE_CHECKING:
    import networkx as nx

#: Radio link range (m) of the study's connectivity graphs.
LINK_RANGE_M = 90.0

#: Seed of the stream that draws the study's (source, destination) pairs.
PAIR_SEED = 7


@dataclass(frozen=True)
class GeoRoutingResult:
    """Aggregate outcome of a routing study.

    Attributes:
        delivery_rate_true: greedy delivery rate using true coordinates.
        delivery_rate_estimated: greedy delivery rate using CoCoA
            estimates.
        mean_stretch_true: delivered-path hops / shortest-path hops.
        mean_stretch_estimated: same, over CoCoA coordinates.
        attempts: routed (source, destination) pairs.
    """

    delivery_rate_true: float
    delivery_rate_estimated: float
    mean_stretch_true: float
    mean_stretch_estimated: float
    attempts: int


def greedy_route(
    graph: nx.Graph,
    coordinates: Dict[int, Vec2],
    source: int,
    destination: int,
) -> Optional[List[int]]:
    """Greedy geographic forwarding from ``source`` to ``destination``.

    Each hop forwards to the neighbor whose *advertised* coordinates are
    closest to the destination's advertised coordinates, only if that
    strictly improves on the current holder (otherwise: local minimum,
    routing fails).  Every hop strictly closes in on the destination, so
    no route visits a node twice and the node count bounds the hops.

    Args:
        graph: connectivity graph (edges = radio links).
        coordinates: node id -> advertised position.
        source: originating node.
        destination: target node.

    Returns:
        The hop list including both endpoints, or ``None`` on failure.
    """
    if source not in graph or destination not in graph:
        return None
    target = coordinates[destination]
    path = [source]
    current = source
    for _ in range(graph.number_of_nodes()):
        if current == destination:
            return path
        neighbors = list(graph.neighbors(current))
        if not neighbors:
            return None
        current_distance = coordinates[current].distance_to(target)
        best = min(
            neighbors, key=lambda n: coordinates[n].distance_to(target)
        )
        if coordinates[best].distance_to(target) >= current_distance:
            return None  # local minimum
        path.append(best)
        current = best
    return path if current == destination else None


def _snapshot_study(
    graph: nx.Graph,
    true_coords: Dict[int, Vec2],
    est_coords: Dict[int, Vec2],
    pairs: Sequence[Tuple[int, int]],
) -> Tuple[int, int, List[float], List[float]]:
    import networkx as nx

    delivered_true = delivered_est = 0
    stretch_true: List[float] = []
    stretch_est: List[float] = []
    for source, destination in pairs:
        if not nx.has_path(graph, source, destination):
            continue
        shortest = nx.shortest_path_length(graph, source, destination)
        true_path = greedy_route(graph, true_coords, source, destination)
        if true_path is not None:
            delivered_true += 1
            if shortest > 0:
                stretch_true.append((len(true_path) - 1) / shortest)
        est_path = greedy_route(graph, est_coords, source, destination)
        if est_path is not None:
            delivered_est += 1
            if shortest > 0:
                stretch_est.append((len(est_path) - 1) / shortest)
    return delivered_true, delivered_est, stretch_true, stretch_est


def run_georouting_study(
    config: Optional[CoCoAConfig] = None,
    snapshot_times: Sequence[float] = (150.0, 300.0, 450.0),
    pairs_per_snapshot: int = 60,
) -> GeoRoutingResult:
    """Compare greedy routing over true versus CoCoA coordinates.

    Runs one CoCoA scenario, then at each snapshot time routes random
    (source, destination) pairs over the same connectivity graph twice:
    once with ground-truth coordinates and once with each robot's own
    estimate (anchors advertise their device positions).

    Estimated-coordinate snapshots come from re-running the deterministic
    scenario's mobility/estimator state via the team's node objects after
    the run, so both coordinate sets describe the same instant.
    """
    if config is None:
        config = CoCoAConfig(duration_s=max(snapshot_times) + 30.0)
    import networkx as nx

    from repro.multicast.mesh import connectivity_graph

    team = CoCoATeam(config)

    snapshots: List[Tuple[Dict[int, Vec2], Dict[int, Vec2]]] = []

    def capture() -> None:
        t = team.sim.now
        true_coords = {
            node.node_id: node.true_position(t) for node in team.nodes
        }
        est_coords = {
            node.node_id: node.estimated_position(t) for node in team.nodes
        }
        snapshots.append((true_coords, est_coords))

    for at in snapshot_times:
        if at >= config.duration_s:
            raise ValueError(
                "snapshot time %r beyond duration %r"
                % (at, config.duration_s)
            )
        team.sim.schedule_at(at, capture, name="georouting-snapshot")
    team.run()

    rng = np.random.default_rng(PAIR_SEED)
    node_ids = [node.node_id for node in team.nodes]
    total_true = total_est = total_attempts = 0
    stretch_true_all: List[float] = []
    stretch_est_all: List[float] = []
    for true_coords, est_coords in snapshots:
        graph = connectivity_graph(true_coords, LINK_RANGE_M)
        pairs = []
        for _ in range(pairs_per_snapshot):
            source, destination = rng.choice(node_ids, size=2, replace=False)
            pairs.append((int(source), int(destination)))
        routable = [
            p for p in pairs if nx.has_path(graph, p[0], p[1])
        ]
        delivered_true, delivered_est, s_true, s_est = _snapshot_study(
            graph, true_coords, est_coords, routable
        )
        total_true += delivered_true
        total_est += delivered_est
        total_attempts += len(routable)
        stretch_true_all.extend(s_true)
        stretch_est_all.extend(s_est)

    def rate(delivered: int) -> float:
        return delivered / total_attempts if total_attempts else 0.0

    def mean(values: List[float]) -> float:
        return float(np.mean(values)) if values else float("nan")

    return GeoRoutingResult(
        delivery_rate_true=rate(total_true),
        delivery_rate_estimated=rate(total_est),
        mean_stretch_true=mean(stretch_true_all),
        mean_stretch_estimated=mean(stretch_est_all),
        attempts=total_attempts,
    )
