"""Multicast substrate: ODMRP and its robot-aware extension MRMM.

CoCoA distributes SYNC messages over MRMM (Mobile Robot Mesh Multicast,
Das et al., ICRA 2005), an extension of ODMRP (On-Demand Multicast Routing
Protocol, Lee et al., WCNC 1999).  Both build a *mesh* of forwarding nodes
with periodic JOIN QUERY floods answered by JOIN REPLY packets; data is
broadcast along the mesh.  MRMM additionally exploits the mobility knowledge
robots have about themselves — current velocity, time to the next waypoint,
and rest time ``d_rest`` — to predict link lifetimes and select a sparser,
longer-lived mesh (the pruning step, §2.3 of the CoCoA paper).
"""
