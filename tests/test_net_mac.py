"""Unit tests for the CSMA/CA broadcast MAC and the network interface."""

import pytest

from repro.energy.model import EnergyModel
from repro.mobility.base import StationaryMobility
from repro.net.channel import BroadcastChannel
from repro.net.interface import NetworkInterface
from repro.net import mac
from repro.net.packet import Packet
from repro.net.phy import PathLossModel
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.util.geometry import Vec2


def build(positions, seed=1):
    sim = Simulator()
    streams = RandomStreams(seed)
    channel = BroadcastChannel(sim, PathLossModel(), streams.get("phy"))
    interfaces = []
    for i, pos in enumerate(positions):
        interfaces.append(
            NetworkInterface(
                sim,
                i,
                StationaryMobility(pos),
                channel,
                EnergyModel.wavelan_2mbps(),
                streams.spawn("mac", i),
            )
        )
    return sim, channel, interfaces


def packet(src=0):
    return Packet(src=src, kind="test", payload=None, payload_bytes=16)


class TestMacConfig:
    def test_defaults_valid(self):
        # 802.11b DCF timing at 2 Mbps DSSS.
        assert (mac.DIFS_S, mac.SLOT_S, mac.CW_SLOTS) == (50e-6, 20e-6, 31)
        assert mac.MAX_DEFERS >= 1


class TestCsmaMac:
    def test_frame_transmitted_after_backoff(self):
        sim, channel, interfaces = build([Vec2(0, 0), Vec2(10, 0)])
        interfaces[0].send_broadcast(packet())
        sim.run(until=0.1)
        assert interfaces[0].mac.frames_sent == 1
        assert channel.stats.frames_delivered == 1

    def test_backoff_delays_transmission(self):
        sim, channel, interfaces = build([Vec2(0, 0), Vec2(10, 0)])
        interfaces[0].send_broadcast(packet())
        # Nothing flies before DIFS.
        sim.run(until=40e-6)
        assert channel.stats.frames_sent == 0
        sim.run(until=0.1)
        assert channel.stats.frames_sent == 1

    def test_queue_drains_in_order(self):
        sim, channel, interfaces = build([Vec2(0, 0), Vec2(10, 0)])
        received = []
        interfaces[1].on_receive(
            "test", lambda rp: received.append(rp.packet.uid)
        )
        packets = [packet() for _ in range(5)]
        for p in packets:
            interfaces[0].send_broadcast(p)
        sim.run(until=1.0)
        assert received == [p.uid for p in packets]

    def test_frames_queued_while_asleep_dropped(self):
        sim, channel, interfaces = build([Vec2(0, 0), Vec2(10, 0)])
        interfaces[0].sleep()
        interfaces[0].send_broadcast(packet())
        sim.run(until=0.1)
        assert interfaces[0].mac.frames_dropped == 1
        assert channel.stats.frames_sent == 0

    def test_sleep_flushes_queue(self):
        sim, channel, interfaces = build([Vec2(0, 0), Vec2(10, 0)])
        for _ in range(3):
            interfaces[0].send_broadcast(packet())
        interfaces[0].sleep()
        sim.run(until=1.0)
        assert channel.stats.frames_sent == 0
        assert interfaces[0].mac.queue_length == 0

    def test_carrier_sense_defers_to_ongoing_transmission(self):
        sim, channel, interfaces = build([Vec2(0, 0), Vec2(10, 0), Vec2(20, 0)])
        received = []
        interfaces[2].on_receive(
            "test", lambda rp: received.append(rp.packet.src)
        )
        # Node 0 starts a long frame directly on the channel; node 1's MAC
        # must defer until it ends rather than collide.
        channel.transmit(0, Packet(src=0, kind="x", payload=None, payload_bytes=1500))
        interfaces[1].send_broadcast(packet(src=1))
        sim.run(until=1.0)
        assert interfaces[1].mac.frames_sent == 1
        assert received == [1]
        assert channel.stats.frames_collided == 0

    def test_two_contending_nodes_usually_avoid_collision(self):
        collisions = 0
        for seed in range(10):
            sim, channel, interfaces = build(
                [Vec2(0, 0), Vec2(10, 0), Vec2(5, 10)], seed=seed
            )
            interfaces[0].send_broadcast(packet(src=0))
            interfaces[1].send_broadcast(packet(src=1))
            sim.run(until=0.5)
            collisions += channel.stats.frames_collided
        # Random backoff should separate most attempts.
        assert collisions <= 4

    def test_max_defers_drops_frame(self, monkeypatch):
        monkeypatch.setattr(mac, "MAX_DEFERS", 2)
        sim, channel, interfaces = build([Vec2(0, 0), Vec2(10, 0)])
        # Keep the channel busy forever with back-to-back long frames.

        def jam():
            frame = Packet(src=0, kind="x", payload=None, payload_bytes=1500)
            channel.transmit(0, frame)
            sim.schedule(channel.airtime_s(frame.size_bytes), jam)

        jam()
        interfaces[1].send_broadcast(packet(src=1))
        sim.run(until=1.0)
        assert interfaces[1].mac.frames_dropped == 1

    def test_flush_cancels_pending(self):
        sim, channel, interfaces = build([Vec2(0, 0), Vec2(10, 0)])
        interfaces[0].send_broadcast(packet())
        interfaces[0].mac.flush()
        sim.run(until=1.0)
        assert channel.stats.frames_sent == 0


class TestNetworkInterface:
    def test_handlers_dispatch_by_kind(self):
        sim, channel, interfaces = build([Vec2(0, 0), Vec2(10, 0)])
        beacons, syncs = [], []
        interfaces[1].on_receive("beacon", lambda rp: beacons.append(rp))
        interfaces[1].on_receive("sync", lambda rp: syncs.append(rp))
        interfaces[0].send_broadcast(
            Packet(src=0, kind="beacon", payload=None, payload_bytes=16)
        )
        sim.run(until=0.5)
        assert len(beacons) == 1
        assert syncs == []

    def test_multiple_handlers_same_kind(self):
        sim, channel, interfaces = build([Vec2(0, 0), Vec2(10, 0)])
        a, b = [], []
        interfaces[1].on_receive("test", lambda rp: a.append(rp))
        interfaces[1].on_receive("test", lambda rp: b.append(rp))
        interfaces[0].send_broadcast(packet())
        sim.run(until=0.5)
        assert len(a) == 1 and len(b) == 1

    def test_finalize_bills_tail_energy(self):
        sim, channel, interfaces = build([Vec2(0, 0)])
        sim.run(until=10.0)
        interfaces[0].finalize()
        assert interfaces[0].meter.total_j == pytest.approx(9.0)
