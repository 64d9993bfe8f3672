"""Tests for ODMRP and MRMM: mesh construction, data delivery, pruning."""

import pytest

from repro.energy.model import EnergyModel
from repro.mobility.base import StationaryMobility
from repro.mobility.waypoint import WaypointMobility
from repro.multicast.lifetime import kinematics_of
from repro.multicast.mesh import (
    connectivity_graph,
)
from repro.multicast.mrmm import MrmmNode
from repro.multicast.odmrp import OdmrpNode
from repro.net.channel import BroadcastChannel
from repro.net.interface import NetworkInterface
from repro.net.phy import PathLossModel
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.util.geometry import Rect, Vec2


def build_line(
    cls=OdmrpNode,
    spacing=40.0,
    n=5,
    seed=3,
):
    """A line topology with adjacent nodes solidly in range."""
    sim = Simulator()
    streams = RandomStreams(seed)
    channel = BroadcastChannel(sim, PathLossModel(), streams.get("phy"))
    agents, delivered = [], []
    for i in range(n):
        mob = StationaryMobility(Vec2(spacing * i, 0.0))
        interface = NetworkInterface(
            sim,
            i,
            mob,
            channel,
            EnergyModel.wavelan_2mbps(),
            streams.spawn("mac", i),
        )
        agent = cls(
            sim,
            interface,
            streams.spawn("mc", i),
            is_source=(i == 0),
            is_member=(i != 0),
            kinematics_provider=(lambda m=mob: kinematics_of(m, sim.now)),
        )
        agent.on_data(lambda body, rp: delivered.append((rp.receiver, body)))
        agents.append(agent)
    return sim, channel, agents, delivered


class TestOdmrpMesh:
    def test_join_query_floods_to_all(self):
        sim, channel, agents, _ = build_line()
        agents[0].send_join_query()
        sim.run(until=5.0)
        # Everyone except the source learned a route back to it.
        for agent in agents[1:]:
            assert 0 in agent._routes

    def test_forwarding_group_formed(self):
        sim, channel, agents, _ = build_line()
        agents[0].send_join_query()
        sim.run(until=5.0)
        forwarders = [a.node_id for a in agents if a.is_forwarder_for(0)]
        # The chain 0-1-2-3-4 needs intermediate forwarders.
        assert len(forwarders) >= 1
        assert all(0 < f < 4 for f in forwarders)

    def test_data_delivered_to_all_members(self):
        sim, channel, agents, delivered = build_line()
        agents[0].send_join_query()
        sim.schedule(0.5, agents[0].send_join_query)
        sim.run(until=3.0)
        for k in range(3):
            agents[0].send_data("msg%d" % k, 20)
            sim.run(until=sim.now + 2.0)
        receivers = {r for r, _ in delivered}
        assert receivers == {1, 2, 3, 4}

    def test_data_without_mesh_reaches_only_neighbors(self):
        sim, channel, agents, delivered = build_line()
        # No JOIN QUERY: no forwarding group, so only direct neighbors of
        # the source can hear data.
        agents[0].send_data("orphan", 20)
        sim.run(until=2.0)
        receivers = {r for r, _ in delivered}
        assert 4 not in receivers

    def test_duplicate_data_not_delivered_twice(self):
        sim, channel, agents, delivered = build_line()
        agents[0].send_join_query()
        sim.run(until=3.0)
        agents[0].send_data("once", 20)
        sim.run(until=3.0 + 5.0)
        per_node = {}
        for receiver, body in delivered:
            per_node[receiver] = per_node.get(receiver, 0) + 1
        assert all(count == 1 for count in per_node.values())

    def test_fg_flag_expires(self, monkeypatch):
        monkeypatch.setattr(OdmrpNode, "FG_TIMEOUT_S", 5.0)
        sim, channel, agents, _ = build_line()
        agents[0].send_join_query()
        sim.run(until=3.0)
        had_fg = any(a.is_forwarder_for(0) for a in agents)
        sim.run(until=20.0)
        assert had_fg
        assert not any(a.is_forwarder_for(0) for a in agents)

    def test_non_source_cannot_originate(self):
        sim, channel, agents, _ = build_line()
        with pytest.raises(RuntimeError):
            agents[1].send_join_query()
        with pytest.raises(RuntimeError):
            agents[1].send_data("x", 10)

    def test_ttl_limits_flood_depth(self, monkeypatch):
        monkeypatch.setattr(OdmrpNode, "JQ_TTL", 2)
        sim, channel, agents, _ = build_line(n=6)
        agents[0].send_join_query()
        sim.run(until=5.0)
        # TTL 2: origin + one forward hop; nodes beyond hop 2 never hear it.
        assert 0 not in agents[5]._routes

    def test_stats_counted(self):
        sim, channel, agents, _ = build_line()
        agents[0].send_join_query()
        sim.run(until=3.0)
        agents[0].send_data("x", 20)
        sim.run(until=6.0)
        assert agents[0].stats.jq_originated == 1
        assert agents[0].stats.data_originated == 1
        assert sum(a.stats.jq_forwarded for a in agents) >= 1
        assert sum(a.stats.jr_sent for a in agents) >= 1


class TestMrmm:
    def test_mrmm_delivers_like_odmrp(self):
        for cls in (OdmrpNode, MrmmNode):
            sim, channel, agents, delivered = build_line(cls=cls)
            agents[0].send_join_query()
            sim.schedule(0.5, agents[0].send_join_query)
            sim.run(until=3.0)
            for k in range(3):
                agents[0].send_data(k, 20)
                sim.run(until=sim.now + 2.0)
            assert {r for r, _ in delivered} == {1, 2, 3, 4}

    def test_suppression_reduces_forwards_in_dense_network(self):
        """MRMM's pruning must cut transmissions in a dense mobile team
        without sacrificing delivery — the paper's §2.3 claim."""

        def run(cls):
            sim = Simulator()
            streams = RandomStreams(17)
            channel = BroadcastChannel(
                sim, PathLossModel(), streams.get("phy")
            )
            area = Rect.square(200.0)
            agents, delivered = [], []
            for i in range(25):
                mob = WaypointMobility(
                    area, streams.spawn("mob", i), v_max=2.0
                )
                interface = NetworkInterface(
                    sim,
                    i,
                    mob,
                    channel,
                    EnergyModel.wavelan_2mbps(),
                    streams.spawn("mac", i),
                )
                agent = cls(
                    sim,
                    interface,
                    streams.spawn("mc", i),
                    is_source=(i == 0),
                    is_member=(i != 0),
                    kinematics_provider=(
                        lambda m=mob: kinematics_of(m, sim.now)
                    ),
                )
                agent.on_data(
                    lambda body, rp: delivered.append((rp.receiver, body))
                )
                agents.append(agent)
            messages = 0
            t = 0.0
            while t < 120.0:
                sim.run(until=t)
                agents[0].send_join_query()
                sim.run(until=t + 1.0)
                agents[0].send_data(messages, 20)
                messages += 1
                sim.run(until=t + 2.0)
                t += 20.0
            total = sum(
                a.stats.jq_forwarded + a.stats.data_forwarded for a in agents
            )
            unique = len(set(delivered))
            return total, unique / (messages * 24.0)

        odmrp_forwards, odmrp_delivery = run(OdmrpNode)
        mrmm_forwards, mrmm_delivery = run(MrmmNode)
        assert mrmm_forwards < 0.7 * odmrp_forwards
        assert mrmm_delivery > odmrp_delivery - 0.05

    def test_mrmm_join_query_carries_kinematics(self):
        sim, channel, agents, _ = build_line(cls=MrmmNode)
        heard = []
        # Snoop on the raw packets at node 1.
        agents[1]._interface.on_receive(
            "odmrp_jq", lambda rp: heard.append(rp.packet.payload)
        )
        agents[0].send_join_query()
        sim.run(until=2.0)
        assert heard
        assert heard[0].kinematics is not None

    def test_plain_odmrp_join_query_has_no_kinematics(self):
        sim, channel, agents, _ = build_line(cls=OdmrpNode)
        heard = []
        agents[1]._interface.on_receive(
            "odmrp_jq", lambda rp: heard.append(rp.packet.payload)
        )
        agents[0].send_join_query()
        sim.run(until=2.0)
        assert heard
        assert heard[0].kinematics is None

    def test_mrmm_jq_larger_on_wire(self):
        assert MrmmNode._jq_bytes is not OdmrpNode._jq_bytes
        sim, _, agents, _ = build_line(cls=MrmmNode)
        assert agents[0]._jq_bytes() > 13


class TestMeshGraph:
    def test_connectivity_graph_edges(self):
        positions = {0: Vec2(0, 0), 1: Vec2(50, 0), 2: Vec2(200, 0)}
        graph = connectivity_graph(positions, 100.0)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(0, 2)
        assert graph.has_edge(1, 2) is False

    def test_edge_annotated_with_distance(self):
        graph = connectivity_graph({0: Vec2(0, 0), 1: Vec2(30, 40)}, 100.0)
        assert graph.edges[0, 1]["distance"] == pytest.approx(50.0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            connectivity_graph({0: Vec2(0, 0)}, 0.0)
