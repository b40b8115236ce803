import math

import pytest

from vlcfed import (
    InfeasibleLinkError,
    computation_energy,
    computation_time,
    cost_breakdown,
    transmission_time,
)
from tests.conftest import make_user


REF = dict(cycles_per_sample=2e4, cpu_freq_hz=1e9, capacitance_coeff=2e-28, shard_size=9)


class TestComputationEnergy:
    def test_reference_value(self):
        # 1 * 2e-28 * 2e4 * 9 / 2 * (1e9)^2 * ln 2 = 1.8e-5 * ln 2
        user = make_user(**REF)
        expected = 1.8e-5 * math.log(2.0)
        assert computation_energy(user, 0.5, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_vanishes_as_accuracy_approaches_one(self):
        user = make_user(**REF)
        assert computation_energy(user, 1.0 - 1e-12, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_in_frequency(self):
        slow = make_user(**{**REF, "cpu_freq_hz": 1e9})
        fast = make_user(**{**REF, "cpu_freq_hz": 2e9})
        assert computation_energy(fast, 0.5, 1.0) == pytest.approx(
            4.0 * computation_energy(slow, 0.5, 1.0), rel=1e-12
        )

    def test_rejects_bad_accuracy(self):
        user = make_user(**REF)
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                computation_energy(user, bad, 1.0)


class TestComputationTime:
    def test_reference_value(self):
        user = make_user(**REF)
        expected = 2e4 * 9 * math.log(2.0) / 1e9
        assert computation_time(user, 0.5, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_inverse_in_frequency(self):
        slow = make_user(**{**REF, "cpu_freq_hz": 0.5e9})
        fast = make_user(**{**REF, "cpu_freq_hz": 1e9})
        assert computation_time(slow, 0.5, 1.0) == pytest.approx(
            2.0 * computation_time(fast, 0.5, 1.0), rel=1e-12
        )

    def test_vanishes_as_accuracy_approaches_one(self):
        user = make_user(**REF)
        assert computation_time(user, 1.0 - 1e-12, 1.0) == pytest.approx(0.0, abs=1e-12)


class TestTransmissionTime:
    def test_division(self):
        assert transmission_time(1e6, 8.6e6) == pytest.approx(0.11627906976744186)
        assert transmission_time(1e6, 30.6e6) == pytest.approx(0.032679738562091505)

    def test_zero_rate_is_infeasible(self):
        with pytest.raises(InfeasibleLinkError):
            transmission_time(1e6, 0.0)

    def test_rejects_negative_payload(self):
        with pytest.raises(ValueError):
            transmission_time(-1.0, 1e6)

    def test_linear_in_payload(self):
        assert transmission_time(2e6, 1e6) == pytest.approx(2 * transmission_time(1e6, 1e6))


class TestCostBreakdown:
    def test_indoor_round_time_includes_backhaul(self, config):
        user = make_user(indoor=True, **REF)
        cost = cost_breakdown(user, 8.6e6, 30.6e6, config, include_backhaul=True)
        expected = (
            1e6 / 30.6e6 + 1e6 / 8.6e6
            + computation_time(user, config.local_accuracy, config.nu)
            + config.backhaul_delay_s
        )
        assert cost.round_time == pytest.approx(expected, rel=1e-12)
        assert cost.backhaul_delay == config.backhaul_delay_s

    def test_outdoor_round_time_has_no_backhaul(self, config):
        user = make_user(indoor=False, **REF)
        cost = cost_breakdown(user, 8.6e6, 5.2e6, config, include_backhaul=False)
        expected = 1e6 / 5.2e6 + 1e6 / 8.6e6 + computation_time(
            user, config.local_accuracy, config.nu
        )
        assert cost.round_time == pytest.approx(expected, rel=1e-12)
        assert cost.backhaul_delay == 0.0

    def test_communication_energy_is_time_times_power(self, config):
        user = make_user(tx_power_w=0.25, **REF)
        cost = cost_breakdown(user, 4e6, 8e6, config, include_backhaul=False)
        assert cost.e_com == pytest.approx(cost.t_up * 0.25, rel=1e-12)

    def test_infeasible_link_propagates(self, config):
        user = make_user(**REF)
        with pytest.raises(InfeasibleLinkError):
            cost_breakdown(user, 0.0, 1e6, config, include_backhaul=False)

    def test_round_time_monotone_in_rates(self, config):
        user = make_user(**REF)
        slow = cost_breakdown(user, 1e6, 1e6, config, include_backhaul=False)
        fast = cost_breakdown(user, 2e6, 3e6, config, include_backhaul=False)
        assert fast.round_time < slow.round_time
        assert fast.total_energy < slow.total_energy
