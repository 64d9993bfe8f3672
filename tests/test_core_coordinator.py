"""Unit tests for the coordinator, beaconer and SYNC handling."""

import pytest

from repro.core.beaconing import BEACON_KIND, AnchorBeaconer
from repro.core.clock import DriftingClock
from repro.core.coordinator import Coordinator, SyncPayload
from repro.energy.model import EnergyModel
from repro.mobility.base import ScriptedMobility, StationaryMobility
from repro.net.channel import BroadcastChannel
from repro.net.interface import NetworkInterface
from repro.net.phy import PathLossModel
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.util.geometry import Vec2


def build_node(sim=None, position=Vec2(0, 0), node_id=0, seed=1, mobility=None):
    sim = sim or Simulator()
    streams = RandomStreams(seed)
    channel = getattr(sim, "_test_channel", None)
    if channel is None:
        channel = BroadcastChannel(sim, PathLossModel(), streams.get("phy"))
        sim._test_channel = channel
    mobility = mobility or StationaryMobility(position)
    interface = NetworkInterface(
        sim,
        node_id,
        mobility,
        channel,
        EnergyModel.wavelan_2mbps(),
        streams.spawn("mac", node_id),
    )
    return sim, channel, interface, mobility


class TestCoordinatorSchedule:
    def make(self, coordination=True, drift=0.0, **kwargs):
        sim, channel, interface, _ = build_node()
        events = []

        def recorder(name):
            return lambda: events.append((name, sim.now))

        coordinator = Coordinator(
            sim,
            DriftingClock(drift),
            interface,
            period_s=20.0,
            window_s=3.0,
            guard_s=1.0,
            sync_slack_s=0.5,
            coordination=coordination,
            **kwargs,
        )
        # The primary callbacks, registered first as the team's are.
        coordinator.add_window_open_hook(recorder("open"))
        coordinator.add_window_start_hook(recorder("start"))
        coordinator.add_window_close_hook(recorder("close"))
        return sim, interface, coordinator, events

    def test_first_window_opens_immediately(self):
        sim, interface, coordinator, events = self.make()
        coordinator.start()
        sim.run(until=0.5)
        assert ("open", 0.0) in events
        assert ("start", 0.0) in events

    def test_window_close_after_window_length(self):
        sim, interface, coordinator, events = self.make()
        coordinator.start()
        sim.run(until=5.0)
        closes = [t for name, t in events if name == "close"]
        assert closes == [pytest.approx(3.0)]

    def test_radio_sleeps_between_windows(self):
        sim, interface, coordinator, events = self.make()
        coordinator.start()
        sim.run(until=10.0)
        assert not interface.is_awake

    def test_radio_wakes_before_next_window(self):
        sim, interface, coordinator, events = self.make()
        coordinator.start()
        sim.run(until=19.5)  # next window starts at 20, guard 1 s
        assert interface.is_awake

    def test_periodic_cycle(self):
        sim, interface, coordinator, events = self.make()
        coordinator.start()
        sim.run(until=65.0)
        opens = [t for name, t in events if name == "open"]
        assert opens == [
            pytest.approx(0.0),
            pytest.approx(19.0),
            pytest.approx(39.0),
            pytest.approx(59.0),
        ]
        assert coordinator.windows_run == 4

    def test_without_coordination_radio_stays_awake(self):
        sim, interface, coordinator, events = self.make(coordination=False)
        coordinator.start()
        sim.run(until=50.0)
        assert interface.is_awake
        # Schedule still runs: estimators need their windows either way.
        assert coordinator.windows_run >= 3

    def test_drifting_clock_shifts_schedule(self):
        sim, interface, coordinator, events = self.make(drift=0.02)
        coordinator.start()
        sim.run(until=40.0)
        opens = [t for name, t in events if name == "open"]
        # Local window 2 at local t=19 (20 - guard): true = 19/1.02.
        assert opens[1] == pytest.approx(19.0 / 1.02, abs=0.01)

    def test_cannot_start_twice(self):
        sim, interface, coordinator, events = self.make()
        coordinator.start()
        with pytest.raises(RuntimeError):
            coordinator.start()

    def test_on_sync_adopts_parameters(self):
        sim, interface, coordinator, events = self.make()
        coordinator.start()
        sim.run(until=1.0)
        coordinator.on_sync(
            SyncPayload(
                period_s=40.0,
                window_s=5.0,
                seq=1,
                reference_local_time=1.2,
            )
        )
        assert coordinator.period_s == 40.0
        assert coordinator.window_s == 5.0
        assert coordinator.syncs_received == 1
        assert coordinator.clock.local_time(sim.now) == pytest.approx(1.2)

    def test_on_sync_rejects_nonsense_parameters(self):
        sim, interface, coordinator, events = self.make()
        coordinator.on_sync(
            SyncPayload(
                period_s=1.0, window_s=5.0, seq=1, reference_local_time=0.0
            )
        )
        assert coordinator.period_s == 20.0  # unchanged

    def test_invalid_construction(self):
        sim, channel, interface, _ = build_node()
        with pytest.raises(ValueError):
            Coordinator(
                sim, DriftingClock(0.0), interface, period_s=3.0, window_s=3.0,
                guard_s=1.0,
            )
        with pytest.raises(ValueError):
            Coordinator(
                sim, DriftingClock(0.0), interface, period_s=20.0,
                window_s=3.0, guard_s=-1.0,
            )

    def test_window_hooks_fire_after_primary_callbacks(self):
        sim, interface, coordinator, events = self.make()
        coordinator.add_window_start_hook(
            lambda: events.append(("hook-start", sim.now))
        )
        coordinator.add_window_close_hook(
            lambda: events.append(("hook-close", sim.now))
        )
        coordinator.start()
        sim.run(until=5.0)
        assert events.index(("start", 0.0)) < events.index(
            ("hook-start", 0.0)
        )
        assert events.index(("close", pytest.approx(3.0))) < events.index(
            ("hook-close", pytest.approx(3.0))
        )
        closes = [t for name, t in events if name == "hook-close"]
        assert closes == [pytest.approx(3.0)]

    def test_hooks_run_in_registration_order(self):
        sim, interface, coordinator, events = self.make()
        coordinator.add_window_start_hook(lambda: events.append(("h1", 0)))
        coordinator.add_window_start_hook(lambda: events.append(("h2", 0)))
        coordinator.start()
        sim.run(until=0.5)
        assert events.index(("h1", 0)) < events.index(("h2", 0))


class TestAnchorBeaconer:
    def test_sends_k_beacons_in_window(self):
        sim, channel, interface, mobility = build_node()
        # A listener 30 m away.
        _, _, listener, _ = build_node(sim=sim, position=Vec2(30, 0), node_id=1)
        heard = []
        listener.on_receive(BEACON_KIND, lambda rp: heard.append(rp))
        beaconer = AnchorBeaconer(
            sim,
            interface,
            mobility,
            RandomStreams(2).get("beacon"),
            k=3,
            window_s=3.0,
        )
        beaconer.start_window()
        sim.run(until=5.0)
        assert beaconer.beacons_sent == 3
        assert len(heard) == 3
        send_times = [rp.receive_time for rp in heard]
        assert max(send_times) <= 3.1

    def test_beacon_carries_current_position(self):
        sim = Simulator()
        mobility = ScriptedMobility([Vec2(0, 0), Vec2(100, 0)], speed=10.0)
        streams = RandomStreams(3)
        channel = BroadcastChannel(sim, PathLossModel(), streams.get("phy"))
        sim._test_channel = channel
        interface = NetworkInterface(
            sim, 0, mobility, channel, EnergyModel.wavelan_2mbps(),
            streams.spawn("mac", 0),
        )
        _, _, listener, _ = build_node(sim=sim, position=Vec2(20, 10), node_id=1)
        payloads = []
        listener.on_receive(
            BEACON_KIND, lambda rp: payloads.append(rp.packet.payload)
        )
        beaconer = AnchorBeaconer(
            sim, interface, mobility, streams.get("beacon"), k=3, window_s=3.0
        )
        beaconer.start_window()
        sim.run(until=4.0)
        assert len(payloads) == 3
        # The anchor moves at 10 m/s: successive beacons advertise
        # different positions, each matching the true position at send time.
        xs = [p.x for p in payloads]
        assert xs == sorted(xs)
        assert xs[-1] - xs[0] > 5.0

    def test_slam_error_perturbs_coordinates(self):
        sim, channel, interface, mobility = build_node()
        _, _, listener, _ = build_node(sim=sim, position=Vec2(10, 0), node_id=1)
        payloads = []
        listener.on_receive(
            BEACON_KIND, lambda rp: payloads.append(rp.packet.payload)
        )
        beaconer = AnchorBeaconer(
            sim,
            interface,
            mobility,
            RandomStreams(4).get("beacon"),
            k=3,
            window_s=3.0,
            slam_error_std_m=2.0,
        )
        beaconer.start_window()
        sim.run(until=4.0)
        offsets = [
            Vec2(p.x, p.y).distance_to(Vec2(0, 0)) for p in payloads
        ]
        assert any(offset > 0.1 for offset in offsets)

    def test_asleep_anchor_skips_beacons(self):
        sim, channel, interface, mobility = build_node()
        beaconer = AnchorBeaconer(
            sim, interface, mobility, RandomStreams(5).get("beacon"),
            k=3, window_s=3.0,
        )
        interface.sleep()
        beaconer.start_window()
        sim.run(until=4.0)
        assert beaconer.beacons_sent == 0

    def test_set_window_validates(self):
        sim, channel, interface, mobility = build_node()
        beaconer = AnchorBeaconer(
            sim, interface, mobility, RandomStreams(5).get("beacon")
        )
        beaconer.set_window(5.0)
        with pytest.raises(ValueError):
            beaconer.set_window(0.0)

    def test_invalid_construction(self):
        sim, channel, interface, mobility = build_node()
        rng = RandomStreams(5).get("beacon")
        with pytest.raises(ValueError):
            AnchorBeaconer(sim, interface, mobility, rng, k=0)
        with pytest.raises(ValueError):
            AnchorBeaconer(sim, interface, mobility, rng, window_s=0.0)
        with pytest.raises(ValueError):
            AnchorBeaconer(
                sim, interface, mobility, rng, slam_error_std_m=-1.0
            )
