"""Tests for the fault-injection layer and graceful-degradation defenses.

The load-bearing guarantee is bit-identity: a disabled fault plan (and a
zero-scaled one) must leave every simulation draw untouched, so baseline
results never move when the faults package is present.  On top of that,
the defense mechanics are exercised one by one: CRC drops corrupted
beacons before the estimator sees them, the gate and quarantine reject
inconsistent anchors, and the watchdog restores a poisoned posterior.
"""

import numpy as np
import pytest

from repro.core.config import CoCoAConfig, LocalizationMode
from repro.core.estimator import PositionEstimator
from repro.core.team import CoCoATeam
from repro.experiments.resilience import (
    DEFENDED_DEFAULTS,
    example_fault_plan,
)
from repro.faults.models import (
    BrownoutGenerator,
    GilbertElliottChannel,
    PayloadCorrupter,
    flip_float_bit,
)
from repro.faults.spec import (
    BrownoutSpec,
    BurstInterferenceSpec,
    DefenseConfig,
    FaultPlan,
    PayloadCorruptionSpec,
    RssiBiasSpec,
)
from repro.net.packet import Packet, payload_checksum
from repro.util.geometry import Rect, Vec2


def small_config(**overrides):
    defaults = dict(
        n_robots=16,
        n_anchors=6,
        beacon_period_s=30.0,
        duration_s=155.0,
        master_seed=7,
        calibration_samples=30_000,
    )
    defaults.update(overrides)
    return CoCoAConfig(**defaults)


class TestSpecValidation:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            BurstInterferenceSpec(bad_loss_prob=1.5)
        with pytest.raises(ValueError):
            BurstInterferenceSpec(mean_good_s=0.0)
        with pytest.raises(ValueError):
            RssiBiasSpec(bias_std_db=-1.0)
        with pytest.raises(ValueError):
            PayloadCorruptionSpec(corrupt_prob=-0.1)
        with pytest.raises(ValueError):
            BrownoutSpec(rate_per_hour=-1.0)
        with pytest.raises(ValueError):
            BrownoutSpec(rate_per_hour=1.0, mean_duration_s=0.0)
        with pytest.raises(ValueError):
            DefenseConfig(anchor_expiry_s=-5.0)

    def test_default_plan_is_noop(self):
        assert FaultPlan().is_noop()
        assert DefenseConfig().is_noop()

    def test_any_enabled_fault_breaks_noop(self):
        assert not FaultPlan(
            burst=BurstInterferenceSpec(bad_loss_prob=0.1)
        ).is_noop()
        assert not FaultPlan(
            rssi_bias=RssiBiasSpec(bias_std_db=1.0)
        ).is_noop()
        assert not FaultPlan(
            corruption=PayloadCorruptionSpec(corrupt_prob=0.1)
        ).is_noop()
        assert not FaultPlan(
            brownout=BrownoutSpec(rate_per_hour=1.0)
        ).is_noop()

    def test_zero_magnitude_specs_stay_noop(self):
        """Specs with rates but zero magnitudes can never fire."""
        plan = FaultPlan(
            burst=BurstInterferenceSpec(
                mean_good_s=10.0, mean_bad_s=5.0,
                bad_loss_prob=0.0, bad_noise_db=0.0,
            ),
            rssi_bias=RssiBiasSpec(fraction_affected=1.0),
            brownout=BrownoutSpec(rate_per_hour=0.0),
        )
        assert plan.is_noop()

    def test_scaling_is_linear_and_saturates(self):
        plan = FaultPlan(
            burst=BurstInterferenceSpec(
                bad_loss_prob=0.4, bad_noise_db=6.0
            ),
            rssi_bias=RssiBiasSpec(bias_std_db=2.0, drift_db_per_min=1.0),
            corruption=PayloadCorruptionSpec(corrupt_prob=0.6),
            brownout=BrownoutSpec(rate_per_hour=10.0),
        )
        half = plan.scaled(0.5)
        assert half.burst.bad_loss_prob == pytest.approx(0.2)
        assert half.rssi_bias.bias_std_db == pytest.approx(1.0)
        assert half.corruption.corrupt_prob == pytest.approx(0.3)
        assert half.brownout.rate_per_hour == pytest.approx(5.0)
        double = plan.scaled(3.0)
        assert double.burst.bad_loss_prob == 1.0
        assert double.corruption.corrupt_prob == 1.0
        assert plan.scaled(0.0).is_noop()
        with pytest.raises(ValueError):
            plan.scaled(-1.0)

    def test_node_ids_normalized_and_targeting(self):
        plan = FaultPlan(node_ids=(5, 1, 5, 3))
        assert plan.node_ids == (1, 3, 5)
        assert plan.targets(3) and not plan.targets(2)
        assert FaultPlan().targets(99)
        with pytest.raises(ValueError):
            FaultPlan(node_ids=(-1,))

    def test_example_plan_intensity_zero_is_noop(self):
        assert example_fault_plan(0.0).is_noop()
        assert example_fault_plan(-1.0).is_noop()
        assert not example_fault_plan(0.5).is_noop()


class TestFaultModels:
    def test_gilbert_elliott_deterministic(self):
        spec = BurstInterferenceSpec(
            mean_good_s=5.0, mean_bad_s=2.0,
            bad_loss_prob=0.5, bad_noise_db=3.0,
        )
        times = [0.1 * k for k in range(400)]
        a = GilbertElliottChannel(spec, np.random.default_rng(9))
        b = GilbertElliottChannel(spec, np.random.default_rng(9))
        assert [a.offer(t) for t in times] == [b.offer(t) for t in times]
        assert a.bad_time_entered > 0

    def test_gilbert_elliott_verdicts(self):
        spec = BurstInterferenceSpec(
            mean_good_s=5.0, mean_bad_s=5.0,
            bad_loss_prob=0.5, bad_noise_db=3.0,
        )
        channel = GilbertElliottChannel(spec, np.random.default_rng(3))
        verdicts = {channel.offer(0.5 * k) for k in range(1000)}
        # All three outcomes occur: clean, jammed, elevated noise floor.
        assert verdicts == {0.0, None, 3.0}

    def test_brownout_windows_toggle(self):
        spec = BrownoutSpec(rate_per_hour=120.0, mean_duration_s=20.0)
        generator = BrownoutGenerator(spec, np.random.default_rng(4))
        states = [generator.is_deaf(float(t)) for t in range(3600)]
        assert any(states) and not all(states)
        assert generator.windows_entered >= 1

    def test_brownout_unaffected_node_never_deaf(self):
        spec = BrownoutSpec(
            rate_per_hour=120.0, mean_duration_s=20.0,
            fraction_affected=0.0,
        )
        generator = BrownoutGenerator(spec, np.random.default_rng(4))
        assert not any(generator.is_deaf(float(t)) for t in range(3600))

    def test_flip_float_bit_is_involutive(self):
        for value in (1.0, -3.75, 123.456):
            for bit in (51, 52):
                flipped = flip_float_bit(value, bit)
                assert flipped != value
                assert flip_float_bit(flipped, bit) == value

    def test_corrupter_displacement_is_large_but_finite(self):
        from repro.core.beaconing import BeaconPayload

        corrupter = PayloadCorrupter(1.0, np.random.default_rng(5))
        original = BeaconPayload(anchor_id=1, x=120.0, y=80.0)
        for _ in range(50):
            damaged = corrupter.maybe_corrupt(original)
            assert damaged is not None
            moved = [
                (getattr(damaged, f), getattr(original, f))
                for f in ("x", "y")
                if getattr(damaged, f) != getattr(original, f)
            ]
            assert len(moved) == 1
            new, old = moved[0]
            assert np.isfinite(new)
            # One flipped high-mantissa/low-exponent bit moves the
            # coordinate by 25-100% of its magnitude.
            assert 0.2 <= abs(new - old) / abs(old) <= 1.0

    def test_corrupter_passes_through(self):
        rng = np.random.default_rng(6)
        assert PayloadCorrupter(0.0, rng).maybe_corrupt(object()) is None
        # Probability 1 but nothing to damage: opaque payloads survive.
        assert PayloadCorrupter(1.0, rng).maybe_corrupt("raw") is None

    def test_verdict_only_path_keeps_the_stream_in_step(self):
        """``corrupts`` (what the CRC defense uses) makes the same draws
        as ``maybe_corrupt``: same verdicts, same stream state after."""
        from repro.core.beaconing import BeaconPayload
        from repro.faults.injector import FaultInjector
        from repro.sim.rng import RandomStreams

        payload_rng = np.random.default_rng(11)
        packets = []
        for i in range(300):
            payload = BeaconPayload(
                anchor_id=i % 7,
                x=float(payload_rng.uniform(0.0, 200.0)),
                y=float(payload_rng.uniform(0.0, 200.0)),
            )
            # Non-beacon frames are never eligible and draw nothing.
            kind = "beacon" if i % 5 else "sync"
            packets.append(
                Packet(src=i % 7, kind=kind, payload=payload,
                       payload_bytes=24)
            )
        plan = FaultPlan(corruption=PayloadCorruptionSpec(corrupt_prob=0.35))
        copying = FaultInjector(plan, RandomStreams(3))
        verdict_only = FaultInjector(plan, RandomStreams(3), crc_check=True)
        damaged = 0
        for i, packet in enumerate(packets):
            dst = i % 4
            copy = copying.maybe_corrupt(float(i), dst, packet)
            verdict = verdict_only.corrupts(float(i), dst, packet)
            assert verdict == (copy is not None)
            damaged += verdict
        assert 0 < damaged < len(packets)
        for dst in range(4):
            assert (
                copying._corrupter_for(dst)._rng.bit_generator.state
                == verdict_only._corrupter_for(dst)._rng.bit_generator.state
            )
        # The same holds for the bare corrupter, opaque payloads included.
        a = PayloadCorrupter(0.5, np.random.default_rng(8))
        b = PayloadCorrupter(0.5, np.random.default_rng(8))
        for packet in packets[:100] + [Packet(src=0, kind="beacon",
                                              payload="raw",
                                              payload_bytes=3)] * 20:
            assert b.corrupts(packet.payload) == (
                a.maybe_corrupt(packet.payload) is not None
            )
        assert a._rng.bit_generator.state == b._rng.bit_generator.state


class TestPacketCrc:
    def test_fresh_packet_checks_out(self):
        from repro.core.beaconing import BeaconPayload

        packet = Packet(
            src=1, kind="beacon",
            payload=BeaconPayload(anchor_id=1, x=10.0, y=20.0),
            payload_bytes=20,
        )
        assert packet.payload_crc is None
        assert packet.crc_ok

    def test_damaged_copy_fails_crc(self):
        from repro.core.beaconing import BeaconPayload

        packet = Packet(
            src=1, kind="beacon",
            payload=BeaconPayload(anchor_id=1, x=10.0, y=20.0),
            payload_bytes=20,
        )
        damaged = packet.damaged_copy(
            BeaconPayload(anchor_id=1, x=10.0, y=21.0)
        )
        assert not damaged.crc_ok
        assert damaged.payload_crc == payload_checksum(packet.payload)
        assert damaged.uid == packet.uid


class TestZeroIntensityBitIdentity:
    """Enabled-but-zero faults must not move a single RNG draw."""

    def test_noop_plan_builds_no_injector(self, pdf_table):
        team = CoCoATeam(small_config(), pdf_table=pdf_table)
        assert team.faults is None

    def test_zero_magnitude_plan_bit_identical_to_baseline(self, pdf_table):
        baseline = CoCoATeam(small_config(), pdf_table=pdf_table).run()
        zeroed = CoCoATeam(
            small_config(
                faults=FaultPlan(
                    burst=BurstInterferenceSpec(
                        mean_good_s=10.0, mean_bad_s=5.0
                    ),
                    brownout=BrownoutSpec(rate_per_hour=0.0),
                )
            ),
            pdf_table=pdf_table,
        ).run()
        assert baseline.errors.tolist() == zeroed.errors.tolist()
        assert baseline.total_energy_j() == zeroed.total_energy_j()
        assert baseline.beacons_sent == zeroed.beacons_sent

    def test_faulted_run_differs_from_baseline(self, pdf_table):
        baseline = CoCoATeam(small_config(), pdf_table=pdf_table).run()
        faulted = CoCoATeam(
            small_config(faults=example_fault_plan(1.0)),
            pdf_table=pdf_table,
        ).run()
        assert baseline.errors.tolist() != faulted.errors.tolist()


class TestCrcDefense:
    PLAN = FaultPlan(corruption=PayloadCorruptionSpec(corrupt_prob=0.9))

    def test_corrupted_beacons_never_reach_estimator(self, pdf_table):
        """With CRC on, damaged frames die at the link layer."""
        result = CoCoATeam(
            small_config(
                faults=self.PLAN,
                defenses=DefenseConfig(crc_check=True),
            ),
            pdf_table=pdf_table,
        ).run()
        assert result.channel_stats.frames_crc_dropped > 0
        assert result.channel_stats.frames_corrupted == 0

    def test_without_crc_corrupted_beacons_delivered(self, pdf_table):
        result = CoCoATeam(
            small_config(faults=self.PLAN), pdf_table=pdf_table
        ).run()
        assert result.channel_stats.frames_corrupted > 0
        assert result.channel_stats.frames_crc_dropped == 0

    def test_crc_defense_reduces_error_under_corruption(self, pdf_table):
        # Moderate corruption with enough anchors that dropping damaged
        # beacons never starves a window: the regime where the CRC
        # defense is a clear win (at very high corruption rates dropping
        # 90% of beacons starves windows and degrades more gracefully
        # *without* the checksum — see EXPERIMENTS.md).
        plan = FaultPlan(
            corruption=PayloadCorruptionSpec(corrupt_prob=0.4)
        )
        undefended = CoCoATeam(
            small_config(n_anchors=10, faults=plan), pdf_table=pdf_table
        ).run()
        defended = CoCoATeam(
            small_config(
                n_anchors=10,
                faults=plan,
                defenses=DefenseConfig(crc_check=True),
            ),
            pdf_table=pdf_table,
        ).run()
        assert (
            defended.time_average_error()
            < undefended.time_average_error()
        )


class TestEstimatorDefenses:
    AREA = Rect.square(200.0)

    def make(self, pdf_table, **kwargs):
        return PositionEstimator(
            LocalizationMode.RF_ONLY, self.AREA,
            pdf_table=pdf_table, min_beacons_for_fix=3, **kwargs
        )

    def _run_clean_window(self, est, table, t=0.0):
        """Three consistent beacons around the area center -> a fix."""
        center = self.AREA.center
        rssi = -65.0
        ring = table.bin_for(rssi).mean_m
        est.on_window_open()
        for k, angle in enumerate((0.0, 2.1, 4.2)):
            anchor = center + Vec2(
                ring * np.cos(angle), ring * np.sin(angle)
            )
            est.on_beacon(anchor, rssi, anchor_id=k, t=t)
        est.on_window_close()

    def test_gate_rejects_inconsistent_beacon(self, pdf_table):
        est = self.make(
            pdf_table, beacon_gate_sigma=1.0, beacon_gate_slack_m=0.0
        )
        self._run_clean_window(est, pdf_table)
        assert est.fixes == 1 and est.beacons_gated == 0
        # An anchor claiming to be hundreds of meters away while the
        # RSSI implies a short range is geometrically impossible.
        rssi = -65.0
        impossible = est.estimate + Vec2(500.0, 0.0)
        est.on_window_open()
        est.on_beacon(impossible, rssi, anchor_id=9, t=1.0)
        assert est.beacons_gated == 1
        assert est.filter.beacons_applied == 0

    def test_gate_disarmed_until_first_fix(self, pdf_table):
        est = self.make(
            pdf_table, beacon_gate_sigma=1.0, beacon_gate_slack_m=0.0
        )
        est.on_window_open()
        est.on_beacon(self.AREA.center + Vec2(500.0, 0.0), -65.0)
        # No fix yet: the gate must not judge beacons against the
        # uninformed initial estimate.
        assert est.beacons_gated == 0

    def test_quarantined_anchor_is_ignored_then_readmitted(self, pdf_table):
        est = self.make(pdf_table, anchor_expiry_s=60.0)
        est._raise_suspicion(5, t=0.0, amount=5.0)
        est.on_window_open()
        est.on_beacon(self.AREA.center, -65.0, anchor_id=5, t=1.0)
        assert est.beacons_quarantined == 1
        assert est.filter.beacons_applied == 0
        # Suspicion decays: a few time constants later the anchor is
        # trusted again.
        est.on_beacon(self.AREA.center, -65.0, anchor_id=5, t=400.0)
        assert est.beacons_quarantined == 1
        assert est.filter.beacons_applied == 1

    def test_nonfinite_beacon_always_dropped(self, pdf_table):
        est = self.make(pdf_table)
        est.on_window_open()
        est.on_beacon(Vec2(float("nan"), 10.0), -65.0)
        est.on_beacon(Vec2(10.0, 10.0), float("inf"))
        assert est.filter.beacons_applied == 0
        assert est.beacons_heard == 0

    def test_watchdog_resets_poisoned_posterior(self, pdf_table):
        est = self.make(pdf_table, watchdog=True)
        before = est.estimate
        est.on_window_open()
        est.filter._posterior.fill(float("nan"))
        est.on_window_close()
        assert est.watchdog_resets == 1
        assert est.fixes == 0
        assert est.estimate == before
        posterior = est.filter.posterior
        assert np.isfinite(posterior).all()
        assert posterior.sum() == pytest.approx(1.0)

    def test_watchdog_off_by_default(self, pdf_table):
        est = self.make(pdf_table)
        est.on_window_open()
        est.filter._posterior.fill(float("nan"))
        est.on_window_close()
        assert est.watchdog_resets == 0


class TestDegradationInvariants:
    """NaN from dead robots plus faults never leaks into aggregates."""

    def test_resilient_team_with_faults_stays_finite(self, pdf_table):
        from repro.ext.failures import FailureSchedule, ResilientTeam

        team = ResilientTeam(
            small_config(
                faults=example_fault_plan(1.0),
                defenses=DEFENDED_DEFAULTS,
            ),
            FailureSchedule.of((50.0, 10), (80.0, 12)),
            failover=True,
            pdf_table=pdf_table,
        )
        result = team.run()
        assert team.dead == {10, 12}
        assert np.isfinite(result.time_average_error())
        assert np.isfinite(result.mean_error_series()).all()

    def test_defended_profile_counters_move(self, pdf_table):
        result = CoCoATeam(
            small_config(
                faults=example_fault_plan(1.0),
                defenses=DEFENDED_DEFAULTS,
            ),
            pdf_table=pdf_table,
        ).run()
        assert result.channel_stats.frames_crc_dropped > 0
        assert np.isfinite(result.time_average_error())
