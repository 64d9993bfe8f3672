"""The LUT-tolerance gate and the fast-path unit tests.

Byte stability of whole runs is pinned absolutely by the golden digests
in ``test_science_digests.py``.  This module holds the gate the digests
cannot express — per-figure metrics from the LUT densities must stay
within 0.1 % relative of runs that evaluate
:meth:`~repro.core.pdf_table.DistanceDistribution.pdf` afresh — the
serial-against-pool sweep equality, and unit tests for the pieces the
fast path is built from: the batched RSSI sampler's draw-for-draw stream
equivalence, the carrier-sense distance band, the LUT densities, the
shared constraint-field cache, the pose memo and the structure-of-arrays
positions.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.seeds import run_seed_sweep
from repro.analysis.stats import mean_confidence_interval
from repro.core.bayes import GridBayesFilter
from repro.core.config import CoCoAConfig, LocalizationMode
from repro.core.constraint_cache import ConstraintFieldCache
from repro.core.pdf_table import PdfTable
from repro.core.team import CoCoATeam
from repro.energy.meter import EnergyMeter
from repro.energy.model import EnergyModel
from repro.experiments.metrics import summarize_errors
from repro.mobility.base import ScriptedMobility, StationaryMobility
from repro.mobility.waypoint import WaypointMobility
from repro.net.channel import BroadcastChannel
from repro.net.packet import Packet
from repro.net.phy import PathLossModel, ReceiverModel
from repro.net.radio import Radio
from repro.sim.engine import Simulator
from repro.telemetry.collect import collect_team_snapshot
from repro.util.geometry import Rect, Vec2


def tiny_config(**overrides):
    """A scenario small enough that a handful of runs takes seconds."""
    defaults = dict(
        area=Rect.square(60.0),
        n_robots=8,
        n_anchors=4,
        beacon_period_s=20.0,
        duration_s=45.0,
        calibration_samples=6000,
    )
    defaults.update(overrides)
    return CoCoAConfig(**defaults)


def run_tiny(seed):
    team = CoCoATeam(tiny_config(master_seed=seed))
    return team, team.run()


class ExactPdfTable(PdfTable):
    """Equation 1 evaluated afresh on every call: the reference the LUT
    densities are held to.  Its "index field" is the distance field
    itself, so the constraint-field memo runs unchanged on top of it."""

    def lut_index_for(self, distances_m):
        return np.asarray(distances_m, dtype=float)

    def pdf_from_index(self, key, index):
        return self._bins[key].pdf(index)

    def pdf_for_key(self, key, distances_m):
        return self._bins[key].pdf(distances_m)


class TestRngStreamEquivalence:
    """The identities the batched sampler's draw order is built on."""

    def test_scalar_normal_matches_size_one_draw(self):
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        for _ in range(50):
            assert a.normal(0.0, 1.0) == b.normal(0.0, 1.0, size=1)[0]
        assert a.random() == b.random()

    def test_scalar_random_matches_size_one_draw(self):
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        for _ in range(50):
            assert a.random() == b.random(size=1)[0]
        assert a.normal(0.0, 1.0) == b.normal(0.0, 1.0)


class TestScalarFastPaths:
    """phy's scalar branches must match the array ufuncs bit for bit."""

    def test_mean_rssi_scalar_matches_array(self):
        phy = PathLossModel()
        distances = np.linspace(0.2, 180.0, 173)
        array = phy.mean_rssi(distances)
        for d, expected in zip(distances.tolist(), array.tolist()):
            assert phy.mean_rssi(d) == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sample_rssi_scalar_matches_array_path(self, seed):
        phy = PathLossModel()
        shape_rng = np.random.default_rng(100 + seed)
        distances = shape_rng.uniform(1.0, 160.0, size=64).tolist()
        scalar_rng = np.random.default_rng(seed)
        array_rng = np.random.default_rng(seed)
        for d in distances:
            scalar = phy.sample_rssi(d, scalar_rng)
            array = phy.sample_rssi(np.asarray([d]), array_rng)[0]
            assert scalar == array
        # Same draws consumed: the streams stay in lockstep afterwards.
        assert scalar_rng.random() == array_rng.random()


class TestBatchedRssiSampling:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_bitwise_equal_to_sequential_scalar(self, seed):
        phy = PathLossModel()
        shape_rng = np.random.default_rng(200 + seed)
        # Mixed regimes: clusters near the transmitter, a far majority,
        # and exact boundary values.
        distances = np.concatenate(
            [
                shape_rng.uniform(1.0, 35.0, size=9),
                shape_rng.uniform(41.0, 160.0, size=30),
                np.asarray([phy.far_threshold_m, 1.0, 160.0]),
            ]
        )
        shape_rng.shuffle(distances)
        scalar_rng = np.random.default_rng(seed)
        batch_rng = np.random.default_rng(seed)
        scalar = np.asarray(
            [phy.sample_rssi(float(d), scalar_rng) for d in distances]
        )
        batch = phy.sample_rssi_batch(distances, batch_rng)
        assert scalar.tobytes() == batch.tobytes()
        assert scalar_rng.random() == batch_rng.random()

    def test_all_near_collapses_to_one_draw(self):
        phy = PathLossModel()
        distances = np.linspace(1.0, 39.0, 17)
        scalar_rng = np.random.default_rng(11)
        batch_rng = np.random.default_rng(11)
        scalar = np.asarray(
            [phy.sample_rssi(float(d), scalar_rng) for d in distances]
        )
        batch = phy.sample_rssi_batch(distances, batch_rng)
        assert scalar.tobytes() == batch.tobytes()
        assert scalar_rng.random() == batch_rng.random()

    def test_no_fade_model_still_matches(self):
        phy = PathLossModel(far_fade_prob=0.0)
        distances = np.asarray([5.0, 80.0, 120.0, 20.0])
        scalar_rng = np.random.default_rng(3)
        batch_rng = np.random.default_rng(3)
        scalar = np.asarray(
            [phy.sample_rssi(float(d), scalar_rng) for d in distances]
        )
        batch = phy.sample_rssi_batch(distances, batch_rng)
        assert scalar.tobytes() == batch.tobytes()

    def test_empty_input_draws_nothing(self):
        phy = PathLossModel()
        rng = np.random.default_rng(4)
        reference = np.random.default_rng(4)
        assert phy.sample_rssi_batch(np.empty(0), rng).size == 0
        assert rng.random() == reference.random()


class TestCarrierSenseBand:
    """medium_busy's distance guard band vs. the exact threshold test."""

    def make_channel(self, listener_distance):
        sim = Simulator()
        phy = PathLossModel()
        channel = BroadcastChannel(sim, phy, np.random.default_rng(9))
        receiver = ReceiverModel()
        for node_id, position in (
            (0, Vec2(0.0, 0.0)),
            (1, Vec2(listener_distance, 0.0)),
        ):
            radio = Radio(sim, EnergyMeter(EnergyModel.wavelan_2mbps()))
            channel.register(
                node_id,
                StationaryMobility(position),
                radio,
                receiver,
                lambda pkt: None,
            )
        return channel, phy, receiver

    @pytest.mark.parametrize("offset", [-2.0, -1e-4, 0.0, 1e-4, 2.0])
    def test_band_matches_exact_computation(self, offset):
        phy = PathLossModel()
        receiver = ReceiverModel()
        cs_dist = phy.distance_for_mean_rssi(receiver.carrier_sense_dbm)
        distance = cs_dist + offset
        channel, phy, receiver = self.make_channel(distance)
        channel.transmit(
            0, Packet(src=0, kind="test", payload="x", payload_bytes=100)
        )
        expected = receiver.senses_busy(phy.mean_rssi(distance))
        assert channel.medium_busy(1) == expected

    def test_own_transmission_is_not_busy(self):
        channel, _, _ = self.make_channel(5.0)
        channel.transmit(
            0, Packet(src=0, kind="test", payload="x", payload_bytes=100)
        )
        assert not channel.medium_busy(0)
        assert channel.medium_busy(1)


class TestPdfTableLut:
    def test_lut_density_within_tolerance(self, pdf_table):
        lo, hi = pdf_table.rssi_range
        distances = np.linspace(0.0, 1.5 * pdf_table.support_max_m, 4001)
        for rssi in np.linspace(lo, hi, 7):
            key = pdf_table.bin_key_for(float(rssi))
            exact = pdf_table.bin_for(float(rssi)).pdf(distances)
            lut = pdf_table.pdf_for_key(key, distances)
            # The 0.1 % contract is on figure metrics (pinned by the
            # sweep-tolerance gate in TestBitIdenticalGate); field-level
            # error is merely bounded: the nearest-node quantization
            # leaves ~1 % L1 on the narrowest Gaussian bin (sigma
            # 0.28 m) and larger pointwise error only in steep tails
            # whose mass the posterior normalization washes out.
            l1 = float(
                np.abs(lut / lut.sum() - exact / exact.sum()).sum()
            )
            assert l1 < 0.02
            assert float(np.max(np.abs(lut - exact) / exact)) < 0.25


class TestConstraintFieldCache:
    def test_grid_signature_mismatch_rejected(self):
        cache = ConstraintFieldCache()
        a = GridBayesFilter(Rect.square(60.0), 2.0)
        b = GridBayesFilter(Rect.square(80.0), 2.0)
        a.attach_constraint_cache(cache)
        with pytest.raises(ValueError):
            b.attach_constraint_cache(cache)

    def test_distance_store_hit_and_exact_token_guard(self, pdf_table):
        grid = GridBayesFilter(Rect.square(60.0), 2.0)
        cache = ConstraintFieldCache()
        key = pdf_table.bin_key_for(-60.0)
        first = cache.constraint_field(grid, Vec2(1.0, 2.0), pdf_table, key)
        distances = cache.distance_field(grid, Vec2(1.0, 2.0))
        assert not distances.flags.writeable
        assert (cache.distance_hits, cache.distance_misses) == (1, 1)
        # Only an exact (x, y) match reuses a field.
        nudged = cache.constraint_field(
            grid, Vec2(1.0 + 1e-8, 2.0), pdf_table, key
        )
        assert nudged is not first
        assert cache.distance_field(grid, Vec2(1.0 + 1e-8, 2.0)) is not distances
        assert (cache.hits, cache.misses) == (0, 2)
        assert (cache.distance_hits, cache.distance_misses) == (2, 2)
        assert cache.evictions == 1

    def test_constraint_key_is_bin_at_position(self, pdf_table):
        grid = GridBayesFilter(Rect.square(60.0), 2.0)
        cache = ConstraintFieldCache()
        lo, hi = pdf_table.rssi_range
        near, far = pdf_table.bin_key_for(hi), pdf_table.bin_key_for(lo)
        beacon = Vec2(10.0, 12.0)
        field = cache.constraint_field(grid, beacon, pdf_table, near)
        assert not field.flags.writeable
        assert cache.constraint_field(grid, beacon, pdf_table, near) is field
        # A second bin at the same position reuses the distance field.
        other = cache.constraint_field(grid, beacon, pdf_table, far)
        assert other is not field
        assert (cache.hits, cache.misses) == (1, 2)
        assert (cache.distance_hits, cache.distance_misses) == (1, 1)
        # Distance field, LUT index field and two constraints.
        assert len(cache) == 4

    def test_new_position_drops_memo(self, pdf_table):
        grid = GridBayesFilter(Rect.square(60.0), 2.0)
        cache = ConstraintFieldCache()
        key = pdf_table.bin_key_for(-60.0)
        a, b = Vec2(10.0, 12.0), Vec2(40.0, 7.0)
        first = cache.constraint_field(grid, a, pdf_table, key)
        assert len(cache) == 3  # distance, LUT index, one constraint
        cache.constraint_field(grid, b, pdf_table, key)
        assert len(cache) == 3
        # Back at A the field is computed afresh: nothing outlives a move.
        again = cache.constraint_field(grid, a, pdf_table, key)
        assert again is not first
        assert again.tobytes() == first.tobytes()
        assert cache.evictions == 2
        assert cache.index_misses == 3
        assert cache.hits == 0

    def test_direct_field_calls_follow_their_arguments(self, pdf_table):
        grid = GridBayesFilter(Rect.square(60.0), 2.0)
        cache = ConstraintFieldCache()
        key = pdf_table.bin_key_for(-60.0)
        a, b = Vec2(10.0, 12.0), Vec2(40.0, 7.0)
        cache.constraint_field(grid, a, pdf_table, key)
        # A direct distance lookup at B moves the memo instead of
        # returning A's field.
        at_b = cache.distance_field(grid, b)
        assert at_b.tobytes() == grid.compute_distance_field(b).tobytes()
        assert cache.evictions == 1
        assert len(cache) == 1
        # An index lookup for distances the memo does not hold is
        # computed afresh and not held.
        at_a = grid.compute_distance_field(a)
        index = cache.index_field(pdf_table, at_a)
        assert index.tobytes() == pdf_table.lut_index_for(at_a).tobytes()
        assert len(cache) == 1
        # The memo now serves B, and its field matches a fresh cache's.
        field = cache.constraint_field(grid, b, pdf_table, key)
        fresh = ConstraintFieldCache().constraint_field(
            grid, b, pdf_table, key
        )
        assert field.tobytes() == fresh.tobytes()
        assert (cache.distance_hits, cache.distance_misses) == (1, 2)

    def test_counters_keyed_as_telemetry_exports(self):
        assert sorted(ConstraintFieldCache().counters()) == [
            "kernel_cache_constraint_hits",
            "kernel_cache_constraint_misses",
            "kernel_cache_distance_hits",
            "kernel_cache_distance_misses",
            "kernel_cache_evictions",
            "kernel_cache_index_hits",
            "kernel_cache_index_misses",
        ]

    def test_cached_apply_beacon_bitwise_equal(self, pdf_table):
        area = Rect.square(60.0)
        lo, hi = pdf_table.rssi_range
        mid = (lo + hi) / 2.0
        beacons = [
            (Vec2(10.0, 12.0), mid),
            (Vec2(10.0, 12.0), mid),  # another hearer: the memo hit
            (Vec2(10.0, 12.0), lo + 3.0),  # another bin, same position
            (Vec2(40.0, 7.0), lo + 3.0),
            # A, B, A: a corrupted copy between two clean hearers of a
            # frame when CRC checking is off.
            (Vec2(10.0, 12.0), mid),
            (Vec2(0.0, 30.0), mid),
            (Vec2(-0.0, 30.0), mid),  # shares the 0.0 entry
            (Vec2(-0.0, 30.0), hi),
        ]
        bare = GridBayesFilter(area, 2.0)
        cached = [GridBayesFilter(area, 2.0) for _ in range(2)]
        cache = ConstraintFieldCache()
        for filt in cached:
            filt.attach_constraint_cache(cache)
        # Reference: Equations (1)-(2) evaluated afresh per beacon.
        reference = np.full(bare.shape, 1.0 / bare.posterior.size)
        for _ in range(2):  # the second round revisits every position
            for beacon, rssi in beacons:
                constraint = pdf_table.pdf(
                    rssi, bare.compute_distance_field(beacon)
                )
                reference *= constraint
                reference /= reference.sum()
                for filt in cached + [bare]:
                    filt.apply_beacon(beacon, rssi, pdf_table)
        assert cache.hits > 0
        for filt in cached + [bare]:
            assert filt.posterior.tobytes() == reference.tobytes()

    def test_team_run_holds_one_position(self):
        team, _ = run_tiny(1)
        cache = team.constraint_cache
        counters = cache.counters()
        assert counters["kernel_cache_constraint_hits"] > 0
        # Every new position dropped the previous one...
        assert (
            counters["kernel_cache_evictions"]
            == counters["kernel_cache_distance_misses"] - 1
        )
        # ...so the run ends holding one position's fields: its distance
        # and LUT index fields plus at most one constraint per hearer.
        assert len(cache) <= 2 + team.config.n_robots


class TestPoseMemo:
    def test_memoized_pose_is_bitwise_identical(self):
        area = Rect.square(60.0)
        memo = WaypointMobility(area, np.random.default_rng(5), v_max=2.0)
        reference = WaypointMobility(
            area, np.random.default_rng(5), v_max=2.0
        )
        times = np.random.default_rng(6).uniform(0.0, 120.0, size=200)
        for t in np.sort(times).tolist():
            want = reference.current_leg(t).position_at(t)
            # Repeat queries at the same instant: the memo's hit path.
            for _ in range(2):
                got = memo.position(t)
                assert (got.x, got.y) == (want.x, want.y)


class TestTeamKernelWiring:
    def test_kernels_on_wires_everything(self):
        team, result = run_tiny(1)
        assert team.constraint_cache is not None
        counters = team.constraint_cache.counters()
        assert counters["kernel_cache_constraint_hits"] > 0
        assert counters["kernel_cache_distance_hits"] > 0
        snapshot = collect_team_snapshot(team, result)
        metrics = snapshot.metrics
        assert (
            metrics["kernel_cache_constraint_hits"]
            == counters["kernel_cache_constraint_hits"]
        )

    def test_odometry_only_snapshot_has_no_cache_metrics(self):
        config = tiny_config(localization_mode=LocalizationMode.ODOMETRY_ONLY)
        team = CoCoATeam(config)
        result = team.run()
        assert team.constraint_cache is None
        snapshot = collect_team_snapshot(team, result)
        assert not any(
            key.startswith("kernel_cache") for key in snapshot.metrics
        )


class TestWorldStateSoA:
    @staticmethod
    def every_kind_of_model():
        route = [Vec2(5.0, 5.0), Vec2(60.0, 12.0), Vec2(30.0, 70.0)]
        return [
            WaypointMobility(
                Rect.square(80.0), np.random.default_rng(100 + i),
                rest_time_max=4.0 * (i % 3),
            )
            for i in range(6)
        ] + [
            StationaryMobility(Vec2(12.5, 40.0)),
            StationaryMobility(Vec2(3.0, 9.0), heading=1.0),
            ScriptedMobility(route, speed=1.3),
            ScriptedMobility(route, speed=0.7, loop=True),
            ScriptedMobility(route, speed=2.0, start_time=17.5),
            ScriptedMobility(route, speed=1.1, start_time=40.0, loop=True),
        ]

    def test_positions_bitwise_match_scalar_legs(self):
        """The SoA rows of every kind of model (waypoint, stationary,
        scripted: looping, delayed) read back as the model's own legs
        and pose(), bit for bit."""
        from repro.sim.world import WorldState

        world = WorldState()
        for row, mobility in enumerate(self.every_kind_of_model()):
            mobility.bind_world(world, row)
        reference = self.every_kind_of_model()
        rng = np.random.default_rng(7)
        t = 0.0
        # Any 0/0 or x/0 in the interpolation would raise here.
        with np.errstate(all="raise"):
            for _ in range(200):
                t += float(rng.choice([0.0, rng.uniform(0.0, 8.0)]))
                xs, ys = world.positions_at(t)
                _, _, headings = world.poses_at(t)
                for row, ref in enumerate(reference):
                    want = ref.current_leg(t).position_at(t)
                    assert xs[row] == want.x
                    assert ys[row] == want.y
                    pose = ref.pose(t)
                    assert (pose.position.x, pose.position.y) == (want.x, want.y)
                    assert headings[row] == pose.heading
        # The times ran past a delayed start and into a loop's second lap.
        assert t > 40.0
        assert len(reference[9]._legs) > 3


class TestBitIdenticalGate:
    """Sweep-level gates: pool workers and the LUT tolerance."""

    SEEDS = (1, 2, 3)

    def test_sweep_byte_equal_serial_and_pool(self):
        config = tiny_config()
        serial = run_seed_sweep(config, seeds=self.SEEDS)
        pool = run_seed_sweep(config, seeds=self.SEEDS, jobs=2)
        assert pool.error_time_averages_m == serial.error_time_averages_m
        assert pool.energy_totals_j == serial.energy_totals_j

    def test_lut_kernel_within_figure_tolerance(self):
        config = tiny_config()
        skip_s = min(1.1 * config.beacon_period_s + 5.0, config.duration_s / 2)
        lut = run_seed_sweep(config, seeds=self.SEEDS, skip_first_s=skip_s)
        exact_errors, exact_energies = [], []
        for seed in self.SEEDS:
            seeded = replace(config, master_seed=seed)
            table = CoCoATeam(seeded).pdf_table
            exact = ExactPdfTable(dict(table.items()), table.support_max_m)
            result = CoCoATeam(seeded, pdf_table=exact).run()
            exact_errors.append(
                summarize_errors(result.errors, skip_first_s=skip_s).time_average_m
            )
            exact_energies.append(result.total_energy_j())
        # The two runs must take different density paths, or the bound
        # below compares a path with itself.
        assert lut.error_time_averages_m != exact_errors
        assert lut.energy_totals_j == exact_energies
        exact_mean = mean_confidence_interval(exact_errors).mean
        relative = abs(lut.error_ci.mean - exact_mean) / exact_mean
        assert relative < 1e-3
