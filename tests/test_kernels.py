"""Hot-path kernel regression suite.

Byte stability of whole runs is pinned absolutely by the golden digests
in ``test_science_digests.py``.  This module holds the gate the digests
cannot express — with the LUT kernel on, per-figure metrics must stay
within 0.1 % relative of the exact evaluation — and unit tests for the
pieces the fast path is built from: kernel selection, the batched RSSI
sampler's draw-for-draw stream equivalence, the carrier-sense distance
band, LUT state handling, the shared constraint-field cache, the pose
memo and the structure-of-arrays positions.
"""

import numpy as np
import pytest

from repro.analysis.seeds import run_seed_sweep
from repro.core.bayes import GridBayesFilter
from repro.core.config import CoCoAConfig, LocalizationMode
from repro.core.constraint_cache import ConstraintFieldCache
from repro.core.team import CoCoATeam
from repro.energy.meter import EnergyMeter
from repro.energy.model import EnergyModel
from repro.experiments.runner import SharedCalibration
from repro.kernels import (
    KERNELS_OFF,
    KERNELS_ON,
    KERNELS_ENV_VAR,
    default_kernels,
    resolve_kernels,
    set_default_kernels,
    use_kernels,
)
from repro.mobility.base import StationaryMobility
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


@pytest.fixture(scope="module")
def calibration():
    return SharedCalibration()


def run_tiny(seed, kernels, calibration):
    config = tiny_config(master_seed=seed)
    team = CoCoATeam(
        config, pdf_table=calibration.table_for(config), kernels=kernels
    )
    return team, team.run()


@pytest.fixture(autouse=True)
def _clean_kernel_default():
    set_default_kernels(None)
    yield
    set_default_kernels(None)


class TestKernelResolution:
    def test_default_is_everything_on(self, monkeypatch):
        monkeypatch.delenv(KERNELS_ENV_VAR, raising=False)
        assert default_kernels() == KERNELS_ON

    def test_env_off(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "off")
        assert default_kernels() == KERNELS_OFF

    @pytest.mark.parametrize("value", [" On ", ""])
    def test_env_on_ignores_case_and_blanks(self, monkeypatch, value):
        monkeypatch.setenv(KERNELS_ENV_VAR, value)
        assert default_kernels() == KERNELS_ON

    @pytest.mark.parametrize("value", ["sideways", "bitexact"])
    def test_env_unknown_value_rejected(self, monkeypatch, value):
        # A leftover selection from an older release must not silently
        # pick a mode: the error names the accepted values.
        monkeypatch.setenv(KERNELS_ENV_VAR, value)
        with pytest.raises(ValueError, match="'on' or 'off'"):
            default_kernels()

    def test_process_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "off")
        with use_kernels(KERNELS_ON):
            assert default_kernels() == KERNELS_ON
        assert default_kernels() == KERNELS_OFF

    def test_use_kernels_restores_previous_override(self):
        set_default_kernels(KERNELS_OFF)
        with use_kernels(KERNELS_ON):
            assert default_kernels() == KERNELS_ON
        assert default_kernels() == KERNELS_OFF

    def test_resolve_prefers_explicit(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "off")
        assert resolve_kernels(KERNELS_ON) == KERNELS_ON
        assert resolve_kernels(None) == KERNELS_OFF

    def test_validation(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "off")
        assert default_kernels() == KERNELS_OFF
        # Explicit selections skip the environment entirely, so a bad
        # value only fails the runs that would have read it.
        monkeypatch.setenv(KERNELS_ENV_VAR, "bogus")
        assert resolve_kernels(KERNELS_ON) == KERNELS_ON
        with pytest.raises(ValueError):
            resolve_kernels(None)


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
    @pytest.fixture(autouse=True)
    def _restore_lut(self, pdf_table):
        yield
        pdf_table.set_lut(False)

    def test_disabled_by_default(self, pdf_table):
        assert not pdf_table.lut_enabled

    def test_entries_validated(self, pdf_table):
        with pytest.raises(ValueError):
            pdf_table.set_lut(True, entries=1)

    def test_lut_density_within_tolerance(self, pdf_table):
        lo, hi = pdf_table.rssi_range
        distances = np.linspace(0.0, 1.5 * pdf_table.support_max_m, 4001)
        for rssi in np.linspace(lo, hi, 7):
            key = pdf_table.bin_key_for(float(rssi))
            pdf_table.set_lut(False)
            exact = pdf_table.pdf_for_key(key, distances).copy()
            pdf_table.set_lut(True, 16384)
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

    def test_pickle_drops_luts_but_keeps_the_switch(self, pdf_table):
        import pickle

        lo, hi = pdf_table.rssi_range
        distances = np.linspace(0.0, 50.0, 100)
        pdf_table.set_lut(True, 4096)
        key = pdf_table.bin_key_for((lo + hi) / 2.0)
        expected = pdf_table.pdf_for_key(key, distances).copy()
        clone = pickle.loads(pickle.dumps(pdf_table))
        assert clone.lut_enabled
        assert not clone._luts  # derived data is rebuilt, not shipped
        assert clone.pdf_for_key(key, distances).tobytes() == (
            expected.tobytes()
        )

    def test_changing_entries_rebuilds(self, pdf_table):
        lo, _ = pdf_table.rssi_range
        distances = np.linspace(0.0, 50.0, 100)
        pdf_table.set_lut(True, 1024)
        key = pdf_table.bin_key_for(float(lo))
        coarse = pdf_table.pdf_for_key(key, distances).copy()
        pdf_table.set_lut(True, 16384)
        fine = pdf_table.pdf_for_key(key, distances)
        pdf_table.set_lut(False)
        exact = pdf_table.pdf_for_key(key, distances)
        assert np.max(np.abs(fine - exact)) <= np.max(
            np.abs(coarse - exact)
        )


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
        assert len(cache) == 3  # distance field + two constraints

    def test_new_position_drops_memo(self, pdf_table):
        pdf_table.set_lut(True)
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
        pdf_table.set_lut(True)
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
        for lut in (False, True):
            pdf_table.set_lut(lut)
            plain = GridBayesFilter(area, 2.0)
            cached = [GridBayesFilter(area, 2.0) for _ in range(2)]
            cache = ConstraintFieldCache()
            for filt in cached:
                filt.attach_constraint_cache(cache)
            for _ in range(2):  # the second round revisits every position
                for beacon, rssi in beacons:
                    plain.apply_beacon(beacon, rssi, pdf_table)
                    for filt in cached:
                        filt.apply_beacon(beacon, rssi, pdf_table)
            assert cache.hits > 0
            for filt in cached:
                assert filt.posterior.tobytes() == plain.posterior.tobytes()

    def test_team_run_holds_one_position(self, calibration):
        team, _ = run_tiny(1, KERNELS_ON, calibration)
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
        assert memo.legs_generated == reference.legs_generated


class TestTeamKernelWiring:
    def test_kernels_off_leaves_scalar_paths(self, calibration):
        team, _ = run_tiny(1, KERNELS_OFF, calibration)
        assert not team.pdf_table.lut_enabled

    def test_kernels_on_wires_everything(self, calibration):
        team, result = run_tiny(1, KERNELS_ON, calibration)
        assert team.pdf_table.lut_enabled
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
    def test_positions_bitwise_match_scalar_legs(self):
        """The SoA interpolation reproduces Leg.position_at bit for bit."""
        from repro.sim.world import WorldState

        area = Rect.square(80.0)
        n = 6
        world = WorldState(n)
        mirrored = [
            WaypointMobility(area, np.random.default_rng(100 + i))
            for i in range(n)
        ]
        reference = [
            WaypointMobility(area, np.random.default_rng(100 + i))
            for i in range(n)
        ]
        for row, mobility in enumerate(mirrored):
            mobility.bind_world(world, row)
        rng = np.random.default_rng(7)
        t = 0.0
        for _ in range(200):
            t += float(rng.uniform(0.0, 3.0))
            xs, ys = world.positions_at(t)
            for row, ref in enumerate(reference):
                want = ref.current_leg(t).position_at(t)
                assert xs[row] == want.x
                assert ys[row] == want.y


class TestBitIdenticalGate:
    """Sweep-level gates: pool workers and the LUT tolerance."""

    SEEDS = (1, 2, 3)

    def test_sweep_byte_equal_serial_and_pool(self, calibration, monkeypatch):
        config = tiny_config()
        with use_kernels(KERNELS_OFF):
            serial = run_seed_sweep(
                config, seeds=self.SEEDS, calibration=calibration
            )
        # Pool workers resolve kernels from the inherited environment.
        monkeypatch.setenv(KERNELS_ENV_VAR, "off")
        pool = run_seed_sweep(config, seeds=self.SEEDS, jobs=2)
        assert pool.error_time_averages_m == serial.error_time_averages_m
        assert pool.energy_totals_j == serial.energy_totals_j

    def test_lut_kernel_within_figure_tolerance(self, calibration):
        config = tiny_config()
        with use_kernels(KERNELS_OFF):
            exact = run_seed_sweep(
                config, seeds=self.SEEDS, calibration=calibration
            )
        with use_kernels(KERNELS_ON):
            lut = run_seed_sweep(
                config, seeds=self.SEEDS, calibration=calibration
            )
        assert lut.energy_totals_j == exact.energy_totals_j
        relative = abs(lut.error_ci.mean - exact.error_ci.mean) / (
            exact.error_ci.mean
        )
        assert relative < 1e-3
