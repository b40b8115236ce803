import math

import numpy as np
import pytest

from vlcfed.compute import _computation_energy, _computation_time, _round_costs
from vlcfed.topology import UserColumns
from tests.conftest import make_user


REF = dict(cycles_per_sample=2e4, cpu_freq_hz=1e9, capacitance_coeff=2e-28, shard_size=9)
LOG_HALF = math.log(1 / 0.5)


def one_user(**overrides):
    """The columns of one ``REF`` user, as the kernels take them."""
    return UserColumns.of([make_user(**{**REF, **overrides})])


def computation_terms(config):
    """A ``REF`` user's computation time and energy under ``config``, as floats."""
    log_inv_accuracy = math.log(1 / config.local_accuracy)
    users = one_user()
    return (
        _computation_time(users, log_inv_accuracy, config.nu).item(),
        _computation_energy(users, log_inv_accuracy, config.nu).item(),
    )


class TestComputationEnergy:
    def test_reference_value(self):
        # 1 * 2e-28 * 2e4 * 9 / 2 * (1e9)^2 * ln 2 = 1.8e-5 * ln 2
        expected = 1.8e-5 * math.log(2.0)
        assert _computation_energy(one_user(), LOG_HALF, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_vanishes_as_accuracy_approaches_one(self):
        assert _computation_energy(one_user(), math.log(1 / (1.0 - 1e-12)), 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_in_frequency(self):
        slow, fast = one_user(cpu_freq_hz=1e9), one_user(cpu_freq_hz=2e9)
        assert _computation_energy(fast, LOG_HALF, 1.0) == pytest.approx(
            4.0 * _computation_energy(slow, LOG_HALF, 1.0), rel=1e-12
        )

    def test_linear_in_capacitance(self):
        low, high = one_user(capacitance_coeff=1e-28), one_user(capacitance_coeff=3e-28)
        assert _computation_energy(high, LOG_HALF, 1.0) == pytest.approx(
            3.0 * _computation_energy(low, LOG_HALF, 1.0), rel=1e-12
        )

    def test_linear_in_local_iterations(self):
        assert _computation_energy(one_user(), LOG_HALF, 5.0) == pytest.approx(
            5.0 * _computation_energy(one_user(), LOG_HALF, 1.0), rel=1e-12
        )

    def test_columns_match_each_user_alone(self):
        users = [make_user(id=i, **{**REF, "cpu_freq_hz": f, "shard_size": d}) for i, (f, d) in
                 enumerate([(0.7e9, 4), (1.3e9, 9), (2.1e9, 15)])]
        together = _computation_energy(UserColumns.of(users), LOG_HALF, 2.0).tolist()
        alone = [_computation_energy(UserColumns.of([u]), LOG_HALF, 2.0).item() for u in users]
        assert together == alone

    def test_a_frequency_whose_square_overflows_names_the_user(self):
        users = UserColumns.of([make_user(id=2, **REF), make_user(**{**REF, "id": 3, "cpu_freq_hz": 1e200})])
        with pytest.raises(ValueError, match=r"^user 3: cpu_freq_hz=1e\+200 overflows"):
            _computation_energy(users, LOG_HALF, 1.0)


class TestComputationTime:
    def test_reference_value(self):
        expected = 2e4 * 9 * math.log(2.0) / 1e9
        assert _computation_time(one_user(), LOG_HALF, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_inverse_in_frequency(self):
        slow, fast = one_user(cpu_freq_hz=0.5e9), one_user(cpu_freq_hz=1e9)
        assert _computation_time(slow, LOG_HALF, 1.0) == pytest.approx(
            2.0 * _computation_time(fast, LOG_HALF, 1.0), rel=1e-12
        )

    def test_vanishes_as_accuracy_approaches_one(self):
        assert _computation_time(one_user(), math.log(1 / (1.0 - 1e-12)), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_linear_in_shard_size(self):
        small, large = one_user(shard_size=4), one_user(shard_size=12)
        assert _computation_time(large, LOG_HALF, 1.0) == pytest.approx(
            3.0 * _computation_time(small, LOG_HALF, 1.0), rel=1e-12
        )

    def test_linear_in_local_iterations(self):
        assert _computation_time(one_user(), LOG_HALF, 5.0) == pytest.approx(
            5.0 * _computation_time(one_user(), LOG_HALF, 1.0), rel=1e-12
        )

    def test_columns_match_each_user_alone(self):
        users = [make_user(id=i, **{**REF, "cpu_freq_hz": f, "shard_size": d}) for i, (f, d) in
                 enumerate([(0.7e9, 4), (1.3e9, 9), (2.1e9, 15)])]
        together = _computation_time(UserColumns.of(users), LOG_HALF, 2.0).tolist()
        alone = [_computation_time(UserColumns.of([u]), LOG_HALF, 2.0).item() for u in users]
        assert together == alone


class TestRoundCosts:
    def test_indoor_round_time_includes_backhaul(self, config):
        t_cmp, e_cmp = computation_terms(config)
        round_time, _ = _round_costs(t_cmp, e_cmp, 0.1, 8.6e6, 30.6e6, config.backhaul_delay_s, config)
        expected = 1e6 / 30.6e6 + 1e6 / 8.6e6 + t_cmp + config.backhaul_delay_s
        assert round_time == pytest.approx(expected, rel=1e-12)

    def test_outdoor_round_time_has_no_backhaul(self, config):
        t_cmp, e_cmp = computation_terms(config)
        round_time, _ = _round_costs(t_cmp, e_cmp, 0.1, 8.6e6, 5.2e6, 0.0, config)
        assert round_time == pytest.approx(1e6 / 5.2e6 + 1e6 / 8.6e6 + t_cmp, rel=1e-12)

    def test_communication_energy_is_uplink_time_times_power(self, config):
        t_cmp, e_cmp = computation_terms(config)
        _, energy = _round_costs(t_cmp, e_cmp, 0.25, 4e6, 8e6, 0.0, config)
        assert energy == pytest.approx(e_cmp + 1e6 / 4e6 * 0.25, rel=1e-12)

    def test_transmission_time_is_payload_over_rate(self, config):
        round_time, energy = _round_costs(0.0, 0.0, 0.0, 8.6e6, 30.6e6, 0.0, config)
        assert round_time == pytest.approx(0.11627906976744186 + 0.032679738562091505, rel=1e-15)
        assert energy == 0.0

    def test_communication_terms_are_linear_in_payload(self, config):
        one = _round_costs(0.0, 0.0, 0.25, 4e6, 8e6, 0.0, config.replace(payload_bits=1e6))
        two = _round_costs(0.0, 0.0, 0.25, 4e6, 8e6, 0.0, config.replace(payload_bits=2e6))
        assert two == pytest.approx((2.0 * one[0], 2.0 * one[1]), rel=1e-15)

    def test_a_zero_rate_costs_infinite_time_and_energy(self, config):
        t_cmp, e_cmp = computation_terms(config)
        ups, downs = np.array([0.0, 8.6e6, 8.6e6]), np.array([8.6e6, 0.0, 8.6e6])
        with np.errstate(divide="ignore"):
            round_time, energy = _round_costs(t_cmp, e_cmp, 0.1, ups, downs, 0.0, config)
        assert round_time[:2].tolist() == [math.inf, math.inf] and math.isfinite(round_time[2])
        # Only the uplink carries the transmit energy.
        assert energy[0] == math.inf and energy[1] == energy[2] < math.inf

    def test_round_costs_fall_as_the_rates_rise(self, config):
        t_cmp, e_cmp = computation_terms(config)
        ups, downs = np.array([1e6, 2e6, 2e6, 4e6]), np.array([1e6, 1e6, 3e6, 3e6])
        round_time, energy = _round_costs(t_cmp, e_cmp, 0.1, ups, downs, 0.0, config)
        assert (np.diff(round_time) < 0).all()
        # The uplink alone carries the transmit energy.
        assert energy[0] > energy[1] == energy[2] > energy[3]

    def test_backhaul_is_charged_only_where_it_is_passed(self, config):
        t_cmp, e_cmp = computation_terms(config)
        # Three users with equal terms; the second's downlink rides VLC.
        backhaul = np.array([0.0, config.backhaul_delay_s, 0.0])
        round_time, energy = _round_costs(t_cmp, e_cmp, 0.1, 8.6e6, 8.6e6, backhaul, config)
        without, energy_without = _round_costs(t_cmp, e_cmp, 0.1, 8.6e6, 8.6e6, 0.0, config)
        assert round_time.tolist() == [without, without + config.backhaul_delay_s, without]
        assert energy == energy_without
