"""Unit tests for the energy model, meter and team report."""

import pytest

from repro.energy.meter import EnergyMeter
from repro.energy.model import EnergyModel, RadioState
from repro.energy.report import aggregate_meters


class TestEnergyModel:
    def test_paper_constants(self):
        model = EnergyModel.wavelan_2mbps()
        # The paper's §2.3 motivation: 900 mW idle versus 50 mW sleep.
        assert model.idle_power_mw == pytest.approx(900.0)
        assert model.sleep_power_mw == pytest.approx(50.0)

    def test_state_power_mapping(self):
        model = EnergyModel()
        assert model.state_power_mw(RadioState.TX) == model.tx_power_mw
        assert model.state_power_mw(RadioState.RX) == model.rx_power_mw
        assert model.state_power_mw(RadioState.IDLE) == model.idle_power_mw
        assert model.state_power_mw(RadioState.SLEEP) == model.sleep_power_mw
        assert model.state_power_mw(RadioState.OFF) == 0.0

    def test_send_cost_linear_in_size(self):
        model = EnergyModel()
        small = model.send_cost_j(0)
        large = model.send_cost_j(1000)
        assert small == pytest.approx(model.send_cost_fixed_uj * 1e-6)
        assert large - small == pytest.approx(
            model.send_cost_per_byte_uj * 1000 * 1e-6
        )

    def test_recv_cheaper_than_send(self):
        model = EnergyModel()
        assert model.recv_cost_j(56) < model.send_cost_j(56)

    def test_negative_size_rejected(self):
        model = EnergyModel()
        with pytest.raises(ValueError):
            model.send_cost_j(-1)
        with pytest.raises(ValueError):
            model.recv_cost_j(-1)

    def test_negative_constants_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(idle_power_mw=-1.0)


class TestEnergyMeter:
    def test_idle_hour_costs_paper_number(self):
        meter = EnergyMeter(EnergyModel.wavelan_2mbps())
        meter.charge_state(RadioState.IDLE, 1800.0)
        # 900 mW x 1800 s = 1620 J: the uncoordinated baseline per node.
        assert meter.total_j == pytest.approx(1620.0)
        assert meter.breakdown.idle_j == pytest.approx(1620.0)

    def test_sleep_is_eighteen_times_cheaper_than_idle(self):
        model = EnergyModel.wavelan_2mbps()
        idle = EnergyMeter(model)
        sleep = EnergyMeter(model)
        idle.charge_state(RadioState.IDLE, 100.0)
        sleep.charge_state(RadioState.SLEEP, 100.0)
        assert idle.total_j / sleep.total_j == pytest.approx(18.0)

    def test_categories_accumulate_separately(self):
        meter = EnergyMeter(EnergyModel())
        meter.charge_state(RadioState.TX, 1.0)
        meter.charge_state(RadioState.RX, 1.0)
        meter.charge_state(RadioState.IDLE, 1.0)
        meter.charge_state(RadioState.SLEEP, 1.0)
        b = meter.breakdown
        assert b.tx_j > b.rx_j > b.idle_j > b.sleep_j > 0

    def test_packet_charges_count_packets(self):
        meter = EnergyMeter(EnergyModel())
        meter.charge_send(56)
        meter.charge_send(56)
        meter.charge_recv(56)
        assert meter.packets_sent == 2
        assert meter.packets_received == 1
        assert meter.breakdown.packet_send_j > 0
        assert meter.breakdown.packet_recv_j > 0

    def test_transition_charges(self):
        meter = EnergyMeter(EnergyModel())
        meter.charge_wake_transition()
        meter.charge_sleep_transition()
        assert meter.transitions == 2
        assert meter.breakdown.transition_j == pytest.approx(
            (EnergyModel().wake_transition_uj + EnergyModel().sleep_transition_uj)
            * 1e-6
        )

    def test_negative_duration_rejected(self):
        meter = EnergyMeter(EnergyModel())
        with pytest.raises(ValueError):
            meter.charge_state(RadioState.IDLE, -1.0)

    def test_off_state_free_by_default(self):
        meter = EnergyMeter(EnergyModel())
        meter.charge_state(RadioState.OFF, 100.0)
        assert meter.total_j == 0.0

    def test_breakdown_as_dict_total(self):
        meter = EnergyMeter(EnergyModel())
        meter.charge_state(RadioState.IDLE, 2.0)
        d = meter.breakdown.as_dict()
        assert d["total_j"] == pytest.approx(meter.total_j)


class TestTeamReport:
    def test_aggregation_sums_nodes(self):
        model = EnergyModel()
        meters = [EnergyMeter(model) for _ in range(3)]
        for i, meter in enumerate(meters):
            meter.charge_state(RadioState.IDLE, float(i + 1))
        report = aggregate_meters(meters)
        assert report.total_j == pytest.approx(sum(m.total_j for m in meters))
        assert report.max_per_node_j == pytest.approx(meters[2].total_j)
        assert report.mean_per_node_j == pytest.approx(report.total_j / 3)

    def test_empty_report(self):
        report = aggregate_meters([])
        assert report.total_j == 0.0
        assert report.mean_per_node_j == 0.0
        assert report.max_per_node_j == 0.0

    def test_breakdown_categories_summed(self):
        model = EnergyModel()
        a, b = EnergyMeter(model), EnergyMeter(model)
        a.charge_state(RadioState.TX, 1.0)
        b.charge_state(RadioState.SLEEP, 10.0)
        report = aggregate_meters([a, b])
        assert report.breakdown.tx_j == pytest.approx(a.breakdown.tx_j)
        assert report.breakdown.sleep_j == pytest.approx(b.breakdown.sleep_j)
