"""Unit tests for the radio state machine and the broadcast channel."""

import pytest

from repro.energy.meter import EnergyMeter
from repro.energy.model import EnergyModel, RadioState
from repro.mobility.base import StationaryMobility
from repro.net.channel import BroadcastChannel
from repro.net.interface import NetworkInterface
from repro.net.packet import Packet
from repro.net.phy import PathLossModel, ReceiverModel
from repro.net.radio import Radio, RadioError
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.util.geometry import Vec2


def make_radio(sim=None):
    sim = sim or Simulator()
    meter = EnergyMeter(EnergyModel.wavelan_2mbps())
    return sim, Radio(sim, meter)


class TestRadioStates:
    def test_starts_idle_and_awake(self):
        _, radio = make_radio()
        assert radio.state is RadioState.IDLE
        assert radio.is_awake

    def test_sleep_wake_cycle(self):
        _, radio = make_radio()
        radio.sleep()
        assert radio.state is RadioState.SLEEP
        assert not radio.is_awake
        radio.wake()
        assert radio.state is RadioState.IDLE

    def test_sleep_idempotent(self):
        _, radio = make_radio()
        radio.sleep()
        transitions = radio.meter.transitions
        radio.sleep()
        assert radio.meter.transitions == transitions

    def test_wake_when_awake_is_noop(self):
        _, radio = make_radio()
        transitions = radio.meter.transitions
        radio.wake()
        assert radio.meter.transitions == transitions

    def test_transition_energy_charged(self):
        _, radio = make_radio()
        radio.sleep()
        radio.wake()
        assert radio.meter.transitions == 2
        assert radio.meter.breakdown.transition_j > 0

    def test_time_billed_to_previous_state(self):
        sim, radio = make_radio()
        sim.schedule(10.0, radio.sleep)
        sim.schedule(30.0, radio.wake)
        sim.run(until=40.0)
        radio.finalize()
        b = radio.meter.breakdown
        assert b.idle_j == pytest.approx(0.9 * 20.0)  # 10 s + final 10 s
        assert b.sleep_j == pytest.approx(0.05 * 20.0)

    def test_transmit_enters_tx_then_returns_to_idle(self):
        sim, radio = make_radio()
        radio.begin_transmit(0.001)
        assert radio.is_transmitting
        sim.run(until=0.01)
        assert radio.state is RadioState.IDLE

    def test_transmit_while_asleep_rejected(self):
        _, radio = make_radio()
        radio.sleep()
        with pytest.raises(RadioError):
            radio.begin_transmit(0.001)

    def test_double_transmit_rejected(self):
        _, radio = make_radio()
        radio.begin_transmit(0.001)
        with pytest.raises(RadioError):
            radio.begin_transmit(0.001)

    def test_receive_extends_busy_window(self):
        sim, radio = make_radio()
        radio.begin_receive(0.002)
        sim.schedule(0.001, radio.begin_receive, 0.002)
        # At the first frame's end the extended window is still open.
        sim.schedule(0.002, radio.finish_receive)
        sim.schedule(0.003, radio.finish_receive)
        sim.run(until=0.0025)
        assert radio.is_receiving
        sim.run(until=0.004)
        assert radio.state is RadioState.IDLE

    def test_receive_while_transmitting_ignored(self):
        _, radio = make_radio()
        radio.begin_transmit(0.001)
        radio.begin_receive(0.001)
        assert radio.is_transmitting

    def test_sleep_aborts_reception(self):
        sim, radio = make_radio()
        radio.begin_receive(0.01)
        radio.sleep()
        assert radio.state is RadioState.SLEEP
        # The frame's end must not wake it.
        sim.schedule(0.01, radio.finish_receive)
        sim.run(until=0.02)
        assert radio.state is RadioState.SLEEP

    def test_power_off(self):
        _, radio = make_radio()
        radio.power_off()
        assert radio.state is RadioState.OFF
        assert not radio.is_awake

    def test_invalid_airtimes_rejected(self):
        _, radio = make_radio()
        with pytest.raises(ValueError):
            radio.begin_transmit(0.0)
        with pytest.raises(ValueError):
            radio.begin_receive(-1.0)


def build_network(positions, seed=1, path_loss=None):
    """Wire stationary nodes onto a shared channel; returns everything."""
    sim = Simulator()
    streams = RandomStreams(seed)
    channel = BroadcastChannel(
        sim, path_loss or PathLossModel(), streams.get("phy")
    )
    model = EnergyModel.wavelan_2mbps()
    interfaces = []
    inbox = []
    for i, pos in enumerate(positions):
        interface = NetworkInterface(
            sim,
            i,
            StationaryMobility(pos),
            channel,
            model,
            streams.spawn("mac", i),
        )
        interface.on_receive(
            "test", lambda rp: inbox.append((rp.receiver, rp.packet.uid))
        )
        interfaces.append(interface)
    return sim, channel, interfaces, inbox


def make_test_packet(src=0, size=16):
    return Packet(src=src, kind="test", payload="x", payload_bytes=size)


class TestUnmanagedReceive:
    """begin_receive/finish_receive: an RX window no end event manages;
    the channel ends it from the frame's single delivery event."""

    def test_enters_rx_without_scheduling_an_event(self):
        sim, radio = make_radio()
        before = sim.pending_count
        radio.begin_receive(0.5)
        assert radio.state is RadioState.RX
        assert sim.pending_count == before

    def test_bills_idle_interval_on_entry(self):
        sim, radio = make_radio()
        sim.schedule(10.0, radio.begin_receive, 0.5)
        sim.run()
        assert radio.meter.state_durations_s[RadioState.IDLE] == 10.0

    def test_finish_bills_rx_and_returns_to_idle(self):
        sim, radio = make_radio()
        sim.schedule(10.0, radio.begin_receive, 0.5)
        sim.schedule(10.5, radio.finish_receive)
        sim.run()
        assert radio.state is RadioState.IDLE
        assert radio.meter.state_durations_s[RadioState.RX] == 0.5

    def test_finish_before_window_end_is_noop(self):
        sim, radio = make_radio()
        radio.begin_receive(0.5)
        # An overlapping frame extended the window; its own delivery
        # will finish the reception.
        radio.begin_receive(0.9)
        sim.schedule(0.5, radio.finish_receive)
        sim.run(until=0.5)
        assert radio.state is RadioState.RX
        sim.schedule(0.4, radio.finish_receive)
        sim.run()
        assert radio.state is RadioState.IDLE
        assert radio.meter.state_durations_s[RadioState.RX] == 0.9

    def test_finish_after_sleep_is_noop(self):
        sim, radio = make_radio()
        radio.begin_receive(0.5)
        radio.sleep()
        sim.schedule(0.5, radio.finish_receive)
        sim.run(until=0.5)
        assert radio.state is RadioState.SLEEP

    def test_ignored_while_transmitting_or_asleep(self):
        sim, radio = make_radio()
        radio.begin_transmit(0.2)
        radio.begin_receive(0.5)
        assert radio.state is RadioState.TX
        sim2, radio2 = make_radio()
        radio2.sleep()
        radio2.begin_receive(0.5)
        assert radio2.state is RadioState.SLEEP

    def test_non_positive_airtime_rejected(self):
        _, radio = make_radio()
        with pytest.raises(ValueError):
            radio.begin_receive(0.0)

    def test_billing_matches_charge_state(self):
        """The inlined billing books exactly what the meter's own
        charge_state would for the same timeline."""
        sim, radio = make_radio()
        sim.schedule(3.0, radio.begin_receive, 0.5)
        sim.schedule(3.5, radio.finish_receive)
        sim.run(until=4.0)
        radio.finalize()
        reference = EnergyMeter(EnergyModel.wavelan_2mbps())
        reference.charge_state(RadioState.IDLE, 3.0)
        reference.charge_state(RadioState.RX, 0.5)
        reference.charge_state(RadioState.IDLE, 0.5)
        assert (
            radio.meter.breakdown.as_dict()
            == reference.breakdown.as_dict()
        )
        assert radio.meter.state_durations_s == reference.state_durations_s


class TestBroadcastChannel:
    def test_airtime_scales_with_size(self):
        sim, channel, _, _ = build_network([Vec2(0, 0)])
        small = channel.airtime_s(56)
        large = channel.airtime_s(1500)
        assert large > small
        # 56 bytes at 2 Mbps = 224 us plus the 192 us preamble.
        assert small == pytest.approx(192e-6 + 224e-6)

    def test_nearby_node_receives(self):
        sim, channel, interfaces, inbox = build_network(
            [Vec2(0, 0), Vec2(10, 0)]
        )
        interfaces[0].send_broadcast(make_test_packet())
        sim.run(until=1.0)
        assert [r for r, _ in inbox] == [1]
        assert channel.stats.frames_delivered == 1

    def test_far_node_does_not_receive(self):
        sim, channel, interfaces, inbox = build_network(
            [Vec2(0, 0), Vec2(500, 0)]
        )
        interfaces[0].send_broadcast(make_test_packet())
        sim.run(until=1.0)
        assert inbox == []
        assert channel.stats.frames_below_sensitivity == 1

    def test_sender_does_not_receive_own_frame(self):
        sim, channel, interfaces, inbox = build_network([Vec2(0, 0)])
        interfaces[0].send_broadcast(make_test_packet())
        sim.run(until=1.0)
        assert inbox == []

    def test_sleeping_node_misses_frame(self):
        sim, channel, interfaces, inbox = build_network(
            [Vec2(0, 0), Vec2(10, 0)]
        )
        interfaces[1].sleep()
        interfaces[0].send_broadcast(make_test_packet())
        sim.run(until=1.0)
        assert inbox == []
        assert channel.stats.frames_missed_asleep == 1

    def test_offer_filters_count_each_miss_once(self):
        # Node 0 transmits to three neighbours in range: one asleep, one
        # browned out, one already on the air.  Each filter counts its
        # own miss, and no frame is left to deliver.
        sim, channel, interfaces, inbox = build_network(
            [Vec2(0, 0), Vec2(10, 0), Vec2(0, 10), Vec2(10, 10)]
        )
        interfaces[1].radio.sleep()
        interfaces[2].radio.receive_fault = lambda now: True
        interfaces[3].radio.begin_transmit(0.01)
        channel.transmit(0, make_test_packet(src=0))
        stats = channel.stats
        assert stats.frames_sent == 1
        assert stats.frames_offered == 3
        assert stats.frames_missed_asleep == 1
        assert stats.frames_missed_brownout == 1
        assert stats.frames_missed_half_duplex == 1
        assert stats.frames_below_sensitivity == 0
        sim.run(until=1.0)
        assert inbox == []
        assert stats.frames_delivered == 0

    def test_node_sleeping_mid_frame_misses_it(self):
        sim, channel, interfaces, inbox = build_network(
            [Vec2(0, 0), Vec2(10, 0)]
        )
        interfaces[0].send_broadcast(make_test_packet())
        # Sleep in the middle of the frame's airtime.
        sim.schedule(0.0002, interfaces[1].sleep)
        sim.run(until=1.0)
        assert inbox == []

    def test_rssi_attached_to_delivery(self):
        sim, channel, interfaces, _ = build_network(
            [Vec2(0, 0), Vec2(20, 0)]
        )
        got = []
        interfaces[1].on_receive("test", lambda rp: got.append(rp.rssi_dbm))
        interfaces[0].send_broadcast(make_test_packet())
        sim.run(until=1.0)
        assert len(got) == 1
        expected = channel.path_loss.mean_rssi(20.0)
        assert got[0] == pytest.approx(expected, abs=12.0)

    def test_simultaneous_transmissions_collide_at_equidistant_receiver(self):
        # Nodes 0 and 2 both 40 m from node 1; equal power -> no capture.
        positions = [Vec2(0, 0), Vec2(40, 0), Vec2(80, 0)]
        sim, channel, interfaces, inbox = build_network(positions)
        # Bypass the MAC (which would carrier-sense) to force overlap.
        channel.transmit(0, make_test_packet(src=0))
        channel.transmit(2, make_test_packet(src=2))
        sim.run(until=1.0)
        assert all(receiver != 1 for receiver, _ in inbox)
        assert channel.stats.frames_collided >= 1

    def test_capture_strong_frame_survives_weak_interferer(self):
        # Node 1 is 5 m from node 0 but 100 m from node 2: huge SINR.
        positions = [Vec2(0, 0), Vec2(5, 0), Vec2(105, 0)]
        sim, channel, interfaces, inbox = build_network(positions)
        channel.transmit(0, make_test_packet(src=0))
        channel.transmit(2, make_test_packet(src=2))
        sim.run(until=1.0)
        assert (1, channel.stats.frames_sent) or True
        received_by_1 = [uid for receiver, uid in inbox if receiver == 1]
        assert len(received_by_1) == 1

    def test_half_duplex_transmitter_cannot_receive(self):
        sim, channel, interfaces, inbox = build_network(
            [Vec2(0, 0), Vec2(10, 0)]
        )
        channel.transmit(0, make_test_packet(src=0))
        channel.transmit(1, make_test_packet(src=1))
        sim.run(until=1.0)
        assert inbox == []
        assert channel.stats.frames_missed_half_duplex >= 1

    def test_medium_busy_during_transmission(self):
        sim, channel, interfaces, _ = build_network(
            [Vec2(0, 0), Vec2(10, 0)]
        )
        channel.transmit(0, make_test_packet(src=0))
        assert channel.medium_busy(1)

    def test_medium_idle_after_transmission(self):
        sim, channel, interfaces, _ = build_network(
            [Vec2(0, 0), Vec2(10, 0)]
        )
        channel.transmit(0, make_test_packet(src=0))
        sim.run(until=1.0)
        assert not channel.medium_busy(1)

    def test_duplicate_registration_rejected(self):
        sim, channel, interfaces, _ = build_network([Vec2(0, 0)])
        with pytest.raises(ValueError):
            channel.register(
                0,
                StationaryMobility(Vec2(1, 1)),
                interfaces[0].radio,
                ReceiverModel(),
                lambda rp: None,
            )

    def test_out_of_order_registration_rejected(self):
        sim, channel, interfaces, _ = build_network([Vec2(0, 0)])
        with pytest.raises(ValueError):
            channel.register(
                2,
                StationaryMobility(Vec2(1, 1)),
                make_radio(sim)[1],
                ReceiverModel(),
                lambda rp: None,
            )

    def test_registration_adds_world_rows(self):
        sim, channel, interfaces, _ = build_network(
            [Vec2(0, 0), Vec2(10, 0), Vec2(0, 7)]
        )
        assert channel.world.n == 3
        xs, ys = channel.world.positions_at(0.0)
        assert (xs, ys) == ([0.0, 10.0, 0.0], [0.0, 0.0, 7.0])
        interfaces[1].sleep()
        assert channel.world.awake.tolist() == [True, False, True]

    def test_mobility_of_another_channel_rejected(self):
        sim, channel, interfaces, _ = build_network([Vec2(0, 0)])
        other = BroadcastChannel(
            sim, PathLossModel(), RandomStreams(2).get("phy")
        )
        with pytest.raises(ValueError):
            other.register(
                0,
                channel._nodes[0].mobility,
                make_radio(sim)[1],
                ReceiverModel(),
                lambda rp: None,
            )

    def test_radio_binds_to_one_world(self):
        sim, channel, interfaces, _ = build_network([Vec2(0, 0)])
        other = BroadcastChannel(
            sim, PathLossModel(), RandomStreams(2).get("phy")
        )
        with pytest.raises(ValueError):
            other.register(
                0,
                StationaryMobility(Vec2(1, 1)),
                interfaces[0].radio,
                ReceiverModel(),
                lambda rp: None,
            )

    def test_energy_charged_for_tx_and_rx(self):
        sim, channel, interfaces, _ = build_network(
            [Vec2(0, 0), Vec2(10, 0)]
        )
        interfaces[0].send_broadcast(make_test_packet())
        sim.run(until=1.0)
        assert interfaces[0].meter.packets_sent == 1
        assert interfaces[1].meter.packets_received == 1
        assert interfaces[0].meter.breakdown.packet_send_j > 0
        assert interfaces[1].meter.breakdown.packet_recv_j > 0
