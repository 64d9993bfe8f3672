"""Tests for the experiment harness: metrics, presets and figure runners.

Figure runners are exercised at miniature scale — enough to validate the
data shapes and the qualitative relationships without long runtimes (the
full-scale regeneration lives in benchmarks/).
"""

import numpy as np
import pytest

from repro.core.config import LocalizationMode
from repro.core.team import CoCoATeam
from repro.experiments.figures import (
    run_fig1,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig10,
    run_mrmm_ablation,
)
from repro.experiments.metrics import (
    cdf_points,
    summarize_errors,
)
from repro.experiments.presets import (
    fig4_config,
    fig6_config,
    fig7_config,
    fig9_config,
    fig10_config,
    headline_config,
)
from repro.experiments.runner import run_scenario


class TestMetrics:
    def test_summary_fields(self):
        errors = np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]])
        summary = summarize_errors(errors)
        assert summary.time_average_m == pytest.approx(3.0)
        assert summary.final_m == pytest.approx(4.0)
        assert summary.max_m == pytest.approx(4.0)
        assert summary.median_m == pytest.approx(3.0)

    def test_skip_initial_transient(self):
        errors = np.array([[100.0, 1.0, 1.0]])
        summary = summarize_errors(errors, skip_first_s=1.0)
        assert summary.time_average_m == pytest.approx(1.0)

    def test_skip_everything_rejected(self):
        with pytest.raises(ValueError):
            summarize_errors(np.ones((2, 3)), skip_first_s=10.0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            summarize_errors(np.ones(5))

    def test_cdf_points(self):
        xs, ys = cdf_points(np.array([3.0, 1.0, 2.0, 4.0]))
        assert list(xs) == [1.0, 2.0, 3.0, 4.0]
        assert ys[-1] == pytest.approx(1.0)
        assert ys[0] == pytest.approx(0.25)

    def test_cdf_empty(self):
        xs, ys = cdf_points(np.array([]))
        assert xs.size == 0 and ys.size == 0


class TestPresets:
    def test_headline_matches_paper(self):
        config = headline_config()
        assert config.n_robots == 50
        assert config.n_anchors == 25
        assert config.beacon_period_s == 100.0

    def test_fig4_is_odometry_only(self):
        config = fig4_config(v_max=0.5)
        assert config.localization_mode is LocalizationMode.ODOMETRY_ONLY
        assert config.n_anchors == 0
        assert not config.coordination
        assert config.v_max == 0.5

    def test_fig6_is_rf_only(self):
        config = fig6_config(50.0)
        assert config.localization_mode is LocalizationMode.RF_ONLY
        assert config.beacon_period_s == 50.0

    def test_fig7_modes(self):
        for mode in LocalizationMode:
            config = fig7_config(mode, v_max=2.0)
            assert config.localization_mode is mode

    def test_fig9_toggles_coordination(self):
        assert fig9_config(50.0, coordination=True).coordination
        assert not fig9_config(50.0, coordination=False).coordination

    def test_fig10_sets_anchor_count(self):
        assert fig10_config(15).n_anchors == 15


class TestRunScenario:
    def test_run_scenario_smoke(self):
        config = fig4_config(2.0, duration_s=30.0, master_seed=1)
        result = run_scenario(config)
        assert result.errors.shape == (50, 30)


class TestSharedCalibration:
    """The PDF table a run calibrates for itself from its own config."""

    def test_odometry_only_needs_no_table(self):
        config = fig4_config(2.0)
        assert config.localization_mode is LocalizationMode.ODOMETRY_ONLY
        assert CoCoATeam(config).pdf_table is None


class TestFigureRunners:
    def test_fig1_structure(self):
        result = run_fig1(n_samples=30_000)
        assert set(result["bins"]) == {-52, -86}
        near = result["bins"][-52]
        assert near["is_gaussian"]
        assert len(near["pdf_x_m"]) == len(near["pdf_y"])

    def test_fig4_structure(self):
        result = run_fig4(v_maxes=(2.0,), duration_s=120.0)
        assert 2.0 in result
        assert len(result[2.0]["mean_error"]) == 120

    def test_fig5_paths_aligned(self):
        result = run_fig5()
        assert len(result["true_path"]) == len(result["estimated_path"])
        assert result["errors"][0] == 0.0
        assert result["final_error_m"] >= 0.0

    def test_fig5_noiseless_error_is_discretization_only(self):
        from repro.mobility.odometry import OdometryNoise

        # With a perfect odometer the only residual is the 1 Hz sampling
        # of turns that fall mid-interval: well under a metre over 365 m.
        result = run_fig5(noise=OdometryNoise.noiseless())
        assert result["final_error_m"] < 1.0
        assert result["errors"].max() < 1.0

    def test_fig6_structure(self):
        result = run_fig6(beacon_periods_s=(30.0,), duration_s=70.0)
        assert 30.0 in result
        assert result[30.0]["summary"].time_average_m > 0

    def test_fig7_contains_three_modes(self):
        result = run_fig7(v_maxes=(2.0,), duration_s=70.0)
        assert set(result[2.0]) == {"odometry_only", "rf_only", "cocoa"}

    def test_fig8_three_instants(self):
        result = run_fig8(duration_s=260.0, window_index=2)
        assert set(result) == {
            "end_of_beacon_period",
            "end_of_transmit_window",
            "middle_of_beacon_period",
        }
        for data in result.values():
            assert data["errors"].shape == (25,)
            assert 0.0 <= data["time_s"] <= 260.0

    def test_fig10_structure(self):
        result = run_fig10(anchor_counts=(10,), duration_s=70.0)
        assert result[10]["summary"].time_average_m > 0

    def test_mrmm_ablation_structure(self):
        result = run_mrmm_ablation(duration_s=70.0)
        assert set(result) == {"odmrp", "mrmm"}
        for data in result.values():
            assert data["syncs_received"] >= 0
            assert data["total_energy_j"] > 0
