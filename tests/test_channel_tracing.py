"""Tests for channel-level tracing and RobotNode queries."""

import pytest

from repro.core.config import CoCoAConfig
from repro.core.team import CoCoATeam
from repro.energy.model import EnergyModel
from repro.mobility.base import StationaryMobility
from repro.net.channel import BroadcastChannel
from repro.net.interface import NetworkInterface
from repro.net.packet import Packet
from repro.net.phy import PathLossModel
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry.spans import SpanTracer
from repro.util.geometry import Vec2


def traced_network(categories):
    sim = Simulator()
    streams = RandomStreams(2)
    trace = SpanTracer(categories=categories)
    channel = BroadcastChannel(
        sim, PathLossModel(), streams.get("phy"), trace=trace
    )
    interfaces = [
        NetworkInterface(
            sim,
            i,
            StationaryMobility(pos),
            channel,
            EnergyModel.wavelan_2mbps(),
            streams.spawn("mac", i),
        )
        for i, pos in enumerate([Vec2(0, 0), Vec2(15, 0), Vec2(30, 0)])
    ]
    return sim, channel, interfaces, trace


class TestChannelTracing:
    def test_tx_and_rx_traced(self):
        sim, channel, interfaces, trace = traced_network(
            ["channel.tx", "channel.rx"]
        )
        interfaces[0].send_broadcast(
            Packet(src=0, kind="test", payload=None, payload_bytes=16)
        )
        sim.run(until=1.0)
        assert trace.count("channel.tx") == 1
        assert trace.count("channel.rx") == 2
        rx = trace.records("channel.rx")[0]
        assert rx.attrs["kind"] == "test"
        assert "rssi" in rx.attrs

    def test_collision_traced(self):
        sim, channel, interfaces, trace = traced_network(
            ["channel.collision"]
        )
        # Two equal-power frames overlap at the middle receiver.
        channel.transmit(
            0, Packet(src=0, kind="x", payload=None, payload_bytes=500)
        )
        channel.transmit(
            2, Packet(src=2, kind="x", payload=None, payload_bytes=500)
        )
        sim.run(until=1.0)
        assert trace.count("channel.collision") >= 1

    def test_disabled_categories_stay_silent(self):
        sim, channel, interfaces, trace = traced_network([])
        interfaces[0].send_broadcast(
            Packet(src=0, kind="test", payload=None, payload_bytes=16)
        )
        sim.run(until=1.0)
        assert len(trace) == 0


class TestRobotNodeQueries:
    @pytest.fixture(scope="class")
    def team(self, pdf_table):
        config = CoCoAConfig(
            n_robots=8,
            n_anchors=4,
            beacon_period_s=20.0,
            duration_s=45.0,
            master_seed=3,
        )
        team = CoCoATeam(config, pdf_table=pdf_table)
        team.run()
        return team

    def test_anchor_reports_device_position(self, team):
        anchor = team.nodes[1]
        t = team.sim.now
        assert anchor.is_anchor
        assert anchor.estimated_position(t) == anchor.true_position(t)
        assert anchor.localization_error(t) == pytest.approx(0.0)

    def test_unknown_reports_estimator_position(self, team):
        unknown = team.nodes[5]
        t = team.sim.now
        assert not unknown.is_anchor
        assert unknown.estimated_position(t) == unknown.estimator.estimate

    def test_localization_error_is_distance(self, team):
        unknown = team.nodes[6]
        t = team.sim.now
        expected = unknown.true_position(t).distance_to(
            unknown.estimated_position(t)
        )
        assert unknown.localization_error(t) == pytest.approx(expected)

    def test_node_role_invariants(self, team):
        from repro.core.node import RobotNode, RobotRole

        with pytest.raises(ValueError):
            RobotNode(
                node_id=99,
                role=RobotRole.ANCHOR,
                mobility=team.nodes[0].mobility,
                interface=team.nodes[0].interface,
            )
