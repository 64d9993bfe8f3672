"""Tests for online geographic routing (HELLO, neighbor tables, greedy)."""

import numpy as np
import pytest

from repro.core.config import CoCoAConfig
from repro.ext.online_routing import (
    GeoPayload,
    GeoRouter,
    NeighborTable,
    RoutingTeam,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.util.geometry import Vec2


class TestNeighborTable:
    def test_update_and_query(self):
        sim = Simulator()
        table = NeighborTable(sim, max_age_s=10.0)
        table.update(1, Vec2(5, 5))
        assert table.fresh_entries() == {1: Vec2(5, 5)}
        assert len(table) == 1

    def test_entries_expire(self):
        sim = Simulator()
        table = NeighborTable(sim, max_age_s=10.0)
        table.update(1, Vec2(5, 5))
        sim.run(until=11.0)
        assert table.fresh_entries() == {}

    def test_refresh_extends_life(self):
        sim = Simulator()
        table = NeighborTable(sim, max_age_s=10.0)
        table.update(1, Vec2(5, 5))
        sim.run(until=8.0)
        table.update(1, Vec2(6, 6))
        sim.run(until=15.0)
        assert table.fresh_entries() == {1: Vec2(6, 6)}

    def test_invalid_age_rejected(self):
        with pytest.raises(ValueError):
            NeighborTable(Simulator(), max_age_s=0.0)


def routing_config(**overrides):
    defaults = dict(
        n_robots=25,
        n_anchors=12,
        beacon_period_s=30.0,
        duration_s=245.0,
        master_seed=7,
        calibration_samples=30_000,
    )
    defaults.update(overrides)
    return CoCoAConfig(**defaults)


@pytest.fixture(scope="module")
def routed_run(pdf_table):
    """One RoutingTeam run with window-aligned random traffic."""
    team = RoutingTeam(routing_config(), pdf_table=pdf_table)
    rng = RandomStreams(50).get("traffic")
    attempts = []

    def traffic():
        if team.sim.now < 65.0:
            return  # let HELLO tables populate first
        ids = [n.node_id for n in team.nodes]
        for _ in range(4):
            src, dst = rng.choice(ids, size=2, replace=False)
            dest_pos = team.nodes[int(dst)].estimated_position(team.sim.now)
            team.routers[int(src)].send(int(dst), dest_pos)
            attempts.append((int(src), int(dst)))

    team.on_window(traffic, delay_s=1.0)
    result = team.run()
    return team, result, attempts


class TestRoutingTeam:
    def test_hello_populates_neighbor_tables(self, routed_run):
        team, _, _ = routed_run
        sizes = [len(t) for t in team.neighbor_tables.values()]
        # Over a 200 m arena with ~110 m range, most robots hear many.
        assert np.mean(sizes) > 8

    def test_most_messages_delivered(self, routed_run):
        team, _, attempts = routed_run
        stats = team.routing_stats()
        assert stats.originated == len(attempts)
        assert stats.delivered > 0.6 * stats.originated

    def test_drop_accounting_consistent(self, routed_run):
        team, _, _ = routed_run
        stats = team.routing_stats()
        accounted = (
            stats.delivered
            + stats.dropped_no_neighbor
            + stats.dropped_local_minimum
            + stats.dropped_ttl
        )
        # The remainder is genuine frame loss on the air.
        assert accounted <= stats.originated + stats.forwarded

    def test_multi_hop_paths_exist(self, routed_run):
        team, _, _ = routed_run
        hops = [p.hop_count for _, p in team.delivered_messages]
        assert hops
        assert max(hops) >= 2  # some pairs needed relaying

    def test_messages_delivered_to_correct_node(self, routed_run):
        team, _, _ = routed_run
        for receiver, payload in team.delivered_messages:
            assert receiver == payload.dest_id

    def test_localization_unaffected_by_routing(self, pdf_table):
        from repro.core.team import CoCoATeam

        plain = CoCoATeam(routing_config(), pdf_table=pdf_table).run()
        routed = RoutingTeam(routing_config(), pdf_table=pdf_table).run()
        assert routed.time_average_error() == pytest.approx(
            plain.time_average_error(), rel=0.25
        )


class TestGeoRouterUnits:
    def build_router(self, pdf_table=None):
        from repro.energy.model import EnergyModel
        from repro.mobility.base import StationaryMobility
        from repro.net.channel import BroadcastChannel
        from repro.net.interface import NetworkInterface
        from repro.net.phy import PathLossModel

        sim = Simulator()
        streams = RandomStreams(3)
        channel = BroadcastChannel(sim, PathLossModel(), streams.get("phy"))
        interface = NetworkInterface(
            sim,
            0,
            StationaryMobility(Vec2(0, 0)),
            channel,
            EnergyModel.wavelan_2mbps(),
            streams.spawn("mac", 0),
        )
        table = NeighborTable(sim, max_age_s=100.0)
        router = GeoRouter(sim, interface, table, lambda: Vec2(0, 0))
        return sim, table, router

    def test_send_without_neighbors_fails(self):
        sim, table, router = self.build_router()
        assert not router.send(9, Vec2(100, 0))
        assert router.stats.dropped_no_neighbor == 1

    def test_local_minimum_detected(self):
        sim, table, router = self.build_router()
        # Only neighbor is farther from the destination than we are.
        table.update(5, Vec2(-50, 0))
        assert not router.send(9, Vec2(100, 0))
        assert router.stats.dropped_local_minimum == 1

    def test_progress_neighbor_accepted(self):
        sim, table, router = self.build_router()
        table.update(5, Vec2(50, 0))
        assert router.send(9, Vec2(100, 0))
        assert router.stats.originated == 1

    def test_reliable_hop_preferred_over_long_shot(self):
        sim, table, router = self.build_router()
        table.update(5, Vec2(60, 0))     # reliable progress
        table.update(6, Vec2(95, 0))     # more progress, flaky range
        payload = GeoPayload(
            dest_id=9,
            dest_position=Vec2(100, 0),
            next_hop=-1,
            hop_count=0,
            body=None,
            body_bytes=4,
            msg_id=1,
        )
        assert router._pick_next_hop(table.fresh_entries(), payload) == 5

    def test_far_destination_routed_through_relay(self):
        sim, table, router = self.build_router()
        table.update(9, Vec2(100, 0))    # the destination, far away
        table.update(5, Vec2(55, 0))     # a reliable relay
        payload = GeoPayload(
            dest_id=9,
            dest_position=Vec2(100, 0),
            next_hop=-1,
            hop_count=0,
            body=None,
            body_bytes=4,
            msg_id=1,
        )
        assert router._pick_next_hop(table.fresh_entries(), payload) == 5

    def test_near_destination_direct(self):
        sim, table, router = self.build_router()
        table.update(9, Vec2(40, 0))
        table.update(5, Vec2(30, 0))
        payload = GeoPayload(
            dest_id=9,
            dest_position=Vec2(40, 0),
            next_hop=-1,
            hop_count=0,
            body=None,
            body_bytes=4,
            msg_id=1,
        )
        assert router._pick_next_hop(table.fresh_entries(), payload) == 9
