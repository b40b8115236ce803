"""The cost terms of the link table: each user's CPU time and energy for one
round of local training, built once per (topology, config), and the round
costs a feasibility pass sums from them."""

import math
import struct
import types

import numpy as np
import pytest

from vlcfed import allocation
from vlcfed.allocation import MODES, _links
from tests.conftest import make_topology, make_user


# With SimConfig's defaults, nu = 1 and ln(1/accuracy) = ln 2.
REF = dict(cycles_per_sample=2e4, cpu_freq_hz=1e9, capacitance_coeff=2e-28, shard_size=9)
THREE_USERS = [(0.7e9, 4), (1.3e9, 9), (2.1e9, 15)]  # (cpu_freq_hz, shard_size)


def table(users, config):
    """The link table of ``users``; rf_only needs no optical terms."""
    return _links(make_topology(users), config, "rf_only")[0]


def terms(config, **overrides):
    """A ``REF`` user's computation time and energy under ``config``, as floats."""
    links = table([make_user(**{**REF, **overrides})], config)
    return links.t_cmp.item(), links.e_cmp.item()


def three_users():
    return [make_user(id=i, **{**REF, "cpu_freq_hz": f, "shard_size": d}) for i, (f, d) in enumerate(THREE_USERS)]


def _float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def least_budget(passes):
    """The least budget ``b >= 0`` with ``passes(b)``, for a ``passes`` that
    holds from some budget on; inf when only inf passes. The bit patterns of
    non-negative floats order as the floats do, so a bisection over them
    finds the exact float."""
    if passes(0.0):
        return 0.0
    lo, hi = 0, struct.unpack("<q", struct.pack("<d", math.inf))[0]  # passes(lo) fails, passes(hi) holds
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(_float(mid)) else (mid, hi)
    return _float(hi)


def round_costs(monkeypatch, links, n_vlc, down, up):
    """Each user's round time and energy in a pass of ``links`` whose first
    ``n_vlc`` downlinks ride VLC, when every downlink carries ``down`` bit/s
    and every uplink ``up`` (a float, or one per user): the least budgets
    under which the pass admits the user, the other budget being inf."""
    n = len(links.ids)
    rates = np.concatenate((np.broadcast_to(down, n), np.broadcast_to(up, n))).astype(float)
    monkeypatch.setattr(allocation, "_rf_rate", lambda *_: rates[n_vlc:])
    monkeypatch.setattr(allocation, "best_ap_sinr", lambda *_: None)
    monkeypatch.setattr(allocation, "_vlc_rate", lambda *_: rates[:n_vlc])
    config, budget = links.config, links.budget

    def admits(i, t_round_s, energy):
        # SimConfig keeps t_round_s finite; the pass reads it as an attribute.
        links.config = types.SimpleNamespace(**{**vars(config), "t_round_s": t_round_s})
        links.budget = np.full(n, energy)
        with np.errstate(divide="ignore"):  # a link without rate
            return bool(links.feasible(n_vlc, 1e6, 1e6, 1e6)[i])

    times = [least_budget(lambda t: admits(i, t, math.inf)) for i in range(n)]
    energies = [least_budget(lambda e: admits(i, math.inf, e)) for i in range(n)]
    links.config, links.budget = config, budget
    return times, energies


def transmission_only(users, config, tx_power_w=0.25):
    """The rf_only link table of ``users`` with no computation time or energy
    and ``tx_power_w`` watts of transmit power, which may be 0."""
    links = table(users, config)
    links.t_cmp, links.e_cmp = np.zeros(len(users)), np.zeros(len(users))
    links.tx_power = np.full(len(users), tx_power_w)
    return links


class TestComputationEnergy:
    def test_reference_value(self, config):
        # 1 * 2e-28 * 2e4 * 9 / 2 * (1e9)^2 * ln 2 = 1.8e-5 * ln 2
        assert terms(config)[1] == pytest.approx(1.8e-5 * math.log(2.0), rel=1e-12)

    def test_vanishes_as_accuracy_approaches_one(self, config):
        assert terms(config.replace(local_accuracy=1.0 - 1e-12))[1] == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_in_frequency(self, config):
        assert terms(config, cpu_freq_hz=2e9)[1] == pytest.approx(4.0 * terms(config)[1], rel=1e-12)

    def test_linear_in_capacitance(self, config):
        low, high = terms(config, capacitance_coeff=1e-28)[1], terms(config, capacitance_coeff=3e-28)[1]
        assert high == pytest.approx(3.0 * low, rel=1e-12)

    def test_linear_in_local_iterations(self, config):
        assert terms(config.replace(nu=5.0))[1] == pytest.approx(5.0 * terms(config)[1], rel=1e-12)

    def test_columns_match_each_user_alone(self, config):
        cfg = config.replace(nu=2.0)
        together = table(three_users(), cfg).e_cmp.tolist()
        assert together == [table([u], cfg).e_cmp.item() for u in three_users()]

    def test_a_frequency_whose_square_overflows_names_the_user(self, config):
        users = [make_user(id=2, **REF), make_user(**{**REF, "id": 3, "cpu_freq_hz": 1e200})]
        with pytest.raises(ValueError, match=r"^user 3: cpu_freq_hz=1e\+200 overflows"):
            table(users, config)


class TestComputationTime:
    def test_reference_value(self, config):
        assert terms(config)[0] == pytest.approx(2e4 * 9 * math.log(2.0) / 1e9, rel=1e-12)

    def test_inverse_in_frequency(self, config):
        slow, fast = terms(config, cpu_freq_hz=0.5e9)[0], terms(config, cpu_freq_hz=1e9)[0]
        assert slow == pytest.approx(2.0 * fast, rel=1e-12)

    def test_vanishes_as_accuracy_approaches_one(self, config):
        assert terms(config.replace(local_accuracy=1.0 - 1e-12))[0] == pytest.approx(0.0, abs=1e-12)

    def test_linear_in_shard_size(self, config):
        small, large = terms(config, shard_size=4)[0], terms(config, shard_size=12)[0]
        assert large == pytest.approx(3.0 * small, rel=1e-12)

    def test_linear_in_local_iterations(self, config):
        assert terms(config.replace(nu=5.0))[0] == pytest.approx(5.0 * terms(config)[0], rel=1e-12)

    def test_columns_match_each_user_alone(self, config):
        cfg = config.replace(nu=2.0)
        together = table(three_users(), cfg).t_cmp.tolist()
        assert together == [table([u], cfg).t_cmp.item() for u in three_users()]


class TestRoundCosts:
    """The round costs ``_LinkTable.feasible`` sums, at rates set in place of
    the channel's. The exact time and energy thresholds at the channel's rates
    are checked against a per-user reference in test_allocation
    (``TestLinkTableMatchesPerUserReference``)."""

    def test_indoor_round_time_includes_backhaul(self, config, monkeypatch):
        links, n_vlc = _links(make_topology([make_user(indoor=True, xy=(1.0, 0.5))]), config, "hybrid")
        assert n_vlc == 1
        (round_time,), _ = round_costs(monkeypatch, links, n_vlc, 30.6e6, 8.6e6)
        expected = 1e6 / 30.6e6 + 1e6 / 8.6e6 + links.t_cmp.item() + config.backhaul_delay_s
        assert round_time == pytest.approx(expected, rel=1e-12)

    def test_outdoor_round_time_has_no_backhaul(self, config, monkeypatch):
        links, n_vlc = _links(make_topology([make_user()]), config, "hybrid")
        assert n_vlc == 0
        (round_time,), _ = round_costs(monkeypatch, links, n_vlc, 5.2e6, 8.6e6)
        assert round_time == pytest.approx(1e6 / 5.2e6 + 1e6 / 8.6e6 + links.t_cmp.item(), rel=1e-12)

    def test_communication_energy_is_uplink_time_times_power(self, config, monkeypatch):
        links = table([make_user(tx_power_w=0.25)], config)
        _, (energy,) = round_costs(monkeypatch, links, 0, 8e6, 4e6)
        assert energy == pytest.approx(links.e_cmp.item() + 1e6 / 4e6 * 0.25, rel=1e-12)

    def test_transmission_time_is_payload_over_rate(self, config, monkeypatch):
        links = transmission_only([make_user()], config, tx_power_w=0.0)
        (round_time,), (energy,) = round_costs(monkeypatch, links, 0, 30.6e6, 8.6e6)
        assert round_time == pytest.approx(0.11627906976744186 + 0.032679738562091505, rel=1e-15)
        assert energy == 0.0

    def test_communication_terms_are_linear_in_payload(self, config, monkeypatch):
        one, two = (
            round_costs(monkeypatch, transmission_only([make_user()], config.replace(payload_bits=bits)), 0, 8e6, 4e6)
            for bits in (1e6, 2e6)
        )
        assert (two[0][0], two[1][0]) == pytest.approx((2.0 * one[0][0], 2.0 * one[1][0]), rel=1e-15)

    def test_a_zero_rate_costs_infinite_time_and_energy(self, config, monkeypatch):
        links = table([make_user(id=i) for i in range(3)], config)
        round_time, energy = round_costs(monkeypatch, links, 0, [8.6e6, 0.0, 8.6e6], [0.0, 8.6e6, 8.6e6])
        assert round_time[:2] == [math.inf, math.inf] and math.isfinite(round_time[2])
        # Only the uplink carries the transmit energy.
        assert energy[0] == math.inf and energy[1] == energy[2] < math.inf

    def test_round_costs_fall_as_the_rates_rise(self, config, monkeypatch):
        links = table([make_user(id=i) for i in range(4)], config)
        ups, downs = [1e6, 2e6, 2e6, 4e6], [1e6, 1e6, 3e6, 3e6]
        round_time, energy = round_costs(monkeypatch, links, 0, downs, ups)
        assert (np.diff(round_time) < 0).all()
        # The uplink alone carries the transmit energy.
        assert energy[0] > energy[1] == energy[2] > energy[3]

    @pytest.mark.parametrize("mode", MODES)
    def test_backhaul_is_charged_only_to_vlc_downlinks(self, config, mode):
        # A backhaul delay of the whole round budget fails every user who pays it.
        cfg = config.replace(backhaul_delay_s=config.t_round_s)
        users = [make_user(id=0, indoor=True, xy=(1.0, 0.5)), make_user(id=1, xy=(10.0, 0.0))]
        for c, expected in ((config, [True, True]), (cfg, [mode == "rf_only", True])):
            links, n_vlc = _links(make_topology(users), c, mode)
            with np.errstate(divide="ignore"):
                assert links.feasible(n_vlc, 1e6, 1e6, 1e6).tolist() == expected
