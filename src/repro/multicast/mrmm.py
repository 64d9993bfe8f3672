"""MRMM — Mobile Robot Mesh Multicast (Das et al., ICRA 2005).

MRMM extends ODMRP with the mobility knowledge available in robot networks:
each robot knows its own commanded velocity, its time to the next waypoint,
and its rest time ``d_rest``.  The CoCoA paper summarizes the extension as a
*mesh pruning* algorithm: from the set ``F`` of candidate forwarders the
protocol selects ``P ⊆ F`` "that maximizes the lifetime of the mesh without
greatly affecting the redundancy and path lengths", so fewer rebroadcasts
are needed and data travels over a sparser mesh.

The pruning is realized in two concrete mechanisms:

1. **Lifetime-aware upstream selection.**  JOIN QUERY packets carry the
   sender's kinematics and the minimum predicted link lifetime along the
   path so far.  A node hearing multiple copies of the same query keeps the
   upstream that maximizes the path-lifetime bound (hop count breaks ties,
   then the lower node id).  Plain ODMRP keeps whichever copy won the race.

2. **Deterministic parent coalescing.**  The id tie-break makes nearby
   members choose the *same* parent instead of scattering their JOIN
   REPLYs across whoever happened to transmit first, so the forwarding
   group — the pruned set ``P`` — is smaller and more stable between
   refreshes.

The practical effects the ablation benchmark measures — smaller forwarding
group, fewer data transmissions per delivered packet, longer-lived mesh —
are exactly the improvements the CoCoA paper attributes to MRMM.
"""

from __future__ import annotations

from typing import Optional

from repro.multicast.lifetime import Kinematics, predict_link_lifetime
from repro.multicast.odmrp import JOIN_QUERY_MRMM_BYTES, OdmrpNode, _RouteEntry


class MrmmNode(OdmrpNode):
    """An ODMRP node with MRMM's mobility-aware mesh pruning.

    Requires a ``kinematics_provider`` so the node can advertise its own
    motion in forwarded JOIN QUERYs and evaluate link lifetimes to
    neighbors.
    """

    #: Link range used for lifetime prediction.
    ASSUMED_LINK_RANGE_M = 100.0
    #: Cap on link-lifetime predictions.
    MAX_LIFETIME_HORIZON_S = 600.0
    #: Links heard at or above this strength count as *reliable*; parent
    #: selection prefers reliable links outright, pruning the flaky
    #: long-distance links that win ODMRP's first-copy race but drop data
    #: later.
    RELIABLE_RSSI_DBM = -85.0
    #: Overheard copies that cancel a scheduled rebroadcast (the
    #: redundancy the pruning preserves).
    SUPPRESS_THRESHOLD = 2

    def _jq_bytes(self) -> int:
        return JOIN_QUERY_MRMM_BYTES

    def _own_kinematics(self) -> Optional[Kinematics]:
        if self._kinematics_provider is None:
            return None
        return self._kinematics_provider()

    def _link_lifetime_to(self, sender: Optional[Kinematics]) -> float:
        """Predicted lifetime of the link to the JQ's last hop."""
        own = self._own_kinematics()
        if own is None or sender is None:
            return float("inf")
        return predict_link_lifetime(
            own, sender, self.ASSUMED_LINK_RANGE_M,
            self.MAX_LIFETIME_HORIZON_S,
        )

    def _candidate_better(
        self, candidate: _RouteEntry, incumbent: _RouteEntry
    ) -> bool:
        """Prefer reliable links, then longer-lived paths, then shorter
        paths, then the lower parent id.

        The reliability class prunes flaky long-range links; the lifetime
        metric is the mobility-knowledge pruning of the MRMM paper; and the
        final deterministic tie-break coalesces members onto shared
        parents, shrinking the forwarding group.
        """
        threshold = self.RELIABLE_RSSI_DBM
        cand_reliable = candidate.rssi_dbm >= threshold
        inc_reliable = incumbent.rssi_dbm >= threshold
        if cand_reliable != inc_reliable:
            return cand_reliable
        if candidate.path_lifetime != incumbent.path_lifetime:
            return candidate.path_lifetime > incumbent.path_lifetime
        if candidate.hop_count != incumbent.hop_count:
            return candidate.hop_count < incumbent.hop_count
        return candidate.upstream < incumbent.upstream
