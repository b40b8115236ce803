import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlcfed import (
    RfParams,
    SimConfig,
    VlcParams,
    concentrator_gain,
    lambertian_order,
    rf_channel_gain,
    rf_rate,
    vlc_channel_gain,
    vlc_rate,
    vlc_sinr,
)
from vlcfed.channel import _cos_deg, best_ap_sinr, vlc_channel_gains, vlc_signal_powers
from vlcfed.topology import distance
from tests.conftest import make_topology, make_user


@pytest.fixture
def vlc(config):
    return VlcParams.from_config(config)


@pytest.fixture
def rf(config):
    return RfParams.from_config(config)


class TestLambertianOrder:
    def test_sixty_degrees_is_exactly_one(self):
        assert lambertian_order(60.0) == 1.0

    def test_forty_five_degrees(self):
        # -1/log2(sqrt(2)/2) = 2, exact in the reals
        assert lambertian_order(45.0) == pytest.approx(2.0, rel=1e-12)

    def test_thirty_degrees(self):
        assert lambertian_order(30.0) == pytest.approx(4.818841679306416, rel=1e-12)

    def test_rejects_degenerate_angles(self):
        for bad in (0.0, 90.0, 95.0, -10.0):
            with pytest.raises(ValueError):
                lambertian_order(bad)

    @given(st.floats(min_value=1.0, max_value=89.0))
    def test_monotone_decreasing(self, angle):
        assert lambertian_order(angle) > lambertian_order(angle + 0.5)


class TestConcentratorGain:
    def test_inside_fov(self):
        assert concentrator_gain(45.0, 90.0, 1.5) == pytest.approx(2.25)
        assert concentrator_gain(30.0, 60.0, 1.5) == pytest.approx(3.0)

    def test_outside_fov_is_zero(self):
        assert concentrator_gain(95.0, 90.0, 1.5) == 0.0
        assert concentrator_gain(60.0001, 60.0, 1.5) == 0.0

    def test_piecewise_constant_with_single_jump(self):
        inside = [concentrator_gain(a, 60.0, 1.5) for a in (1.0, 20.0, 45.0, 60.0)]
        assert len(set(inside)) == 1
        assert concentrator_gain(60.0, 60.0, 1.5) > 0.0

    def test_rejects_negative_incidence(self):
        with pytest.raises(ValueError):
            concentrator_gain(-1.0, 60.0, 1.5)


class TestVlcChannelGain:
    def test_reference_geometry(self, vlc):
        # 2.5 m drop, 1.66 m horizontal offset, default optics:
        # d = 3.000933, cos(theta) = 0.833074, g = 2.25, m = 1
        u = vlc_channel_gain((0.0, 0.0, 3.35), (0.0, 1.66, 0.85), vlc)
        assert u == pytest.approx(5.5193426496331765e-06, rel=1e-9)

    def test_zero_outside_fov(self, config):
        narrow = VlcParams.from_config(config.replace(fov_half_angle_deg=30.0))
        # offset >> drop puts the incidence angle way past 30 degrees
        assert vlc_channel_gain((0.0, 0.0, 3.35), (0.0, 10.0, 0.85), narrow) == 0.0

    def test_directly_underneath_closed_form(self, vlc):
        drop = 2.5
        u = vlc_channel_gain((0.0, 0.0, 0.85 + drop), (0.0, 0.0, 0.85), vlc)
        m = lambertian_order(vlc.half_intensity_angle_deg)
        g = concentrator_gain(0.0, vlc.fov_half_angle_deg, vlc.refractive_index)
        expected = (m + 1) * vlc.pd_area_m2 * vlc.filter_gain * g / (2 * math.pi * drop**2)
        assert u == pytest.approx(expected, rel=1e-12)

    def test_decreases_with_horizontal_offset(self, vlc):
        gains = [
            vlc_channel_gain((0.0, 0.0, 3.35), (0.0, off, 0.85), vlc)
            for off in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_rejects_coincident_and_below_plane(self, vlc):
        with pytest.raises(ValueError):
            vlc_channel_gain((0.0, 0.0, 0.85), (0.0, 0.0, 0.85), vlc)
        with pytest.raises(ValueError):
            vlc_channel_gain((0.0, 0.0, 0.5), (1.0, 0.0, 0.85), vlc)


class TestVlcSinr:
    def test_single_ap_reference_value(self, config, vlc):
        user = make_user(indoor=True, xy=(0.0, 1.66))
        topo = make_topology([user], aps=[(0.0, 0.0, 3.35)])
        s = vlc_sinr(user, topo, 4e6, vlc)
        # (0.53 * 5.5193e-6 * 9)^2 / (1e-21 * 4e6)
        sig = (0.53 * 5.5193426496331765e-06 * 9.0) ** 2
        assert s == pytest.approx(sig / 4e-15, rel=1e-9)
        assert s == pytest.approx(1.7328e5, rel=1e-3)

    def test_outdoor_user_rejected(self, config, vlc):
        user = make_user(indoor=False)
        topo = make_topology([user])
        with pytest.raises(ValueError):
            vlc_sinr(user, topo, 4e6, vlc)

    def test_out_of_fov_everywhere_gives_zero(self, config):
        narrow = VlcParams.from_config(config.replace(fov_half_angle_deg=10.0))
        user = make_user(indoor=True, xy=(30.0, 0.0))
        topo = make_topology([user], aps=[(0.0, 0.0, 3.35)])
        assert vlc_sinr(user, topo, 4e6, narrow) == 0.0

    def test_two_identical_aps_cap_sinr_below_one(self, config, vlc):
        user = make_user(indoor=True, xy=(0.0, 0.0))
        topo = make_topology(
            [user], aps=[(0.0, 1.0, 3.35), (0.0, -1.0, 3.35)]
        )
        s = vlc_sinr(user, topo, 4e6, vlc)
        sig = (0.53 * vlc_channel_gain((0.0, 1.0, 3.35), user.position, vlc) * 9.0) ** 2
        assert s == pytest.approx(sig / (4e-15 + sig), rel=1e-9)
        assert s < 1.0

    def test_never_exceeds_interference_free_serving_sinr(self, config, vlc):
        rng = np.random.default_rng(0)
        for _ in range(20):
            aps = [
                (float(x), float(y), 3.35)
                for x, y in rng.uniform(-10, 10, size=(4, 2))
            ]
            user = make_user(indoor=True, xy=tuple(rng.uniform(-10, 10, size=2)))
            topo = make_topology([user], aps=aps)
            s = vlc_sinr(user, topo, 4e6, vlc)
            best = max(
                (0.53 * vlc_channel_gain(ap, user.position, vlc) * 9.0) ** 2 / 4e-15
                for ap in aps
            )
            assert s <= best + 1e-12


class TestVlcRate:
    def test_zero_sinr_zero_rate(self):
        assert vlc_rate(0.0, 4e6) == 0.0

    def test_reference_value(self):
        sig = (0.53 * 5.5193426496331765e-06 * 9.0) ** 2
        s = sig / 4e-15
        expected = 2e6 * math.log2(1.0 + 2.0 / (math.pi * math.e) * s)
        assert vlc_rate(s, 4e6) == pytest.approx(expected, rel=1e-12)
        assert vlc_rate(s, 4e6) == pytest.approx(30.6e6, rel=1e-2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            vlc_rate(-1.0, 4e6)
        with pytest.raises(ValueError):
            vlc_rate(1.0, 0.0)


class TestRfChannelGain:
    def test_fifty_meters_outdoor(self, rf):
        # PL = 128.1 + 37.6*log10(0.05) = 79.181 dB
        assert rf_channel_gain(50.0, False, rf) == pytest.approx(
            1.2074600864055292e-08, rel=1e-12
        )

    def test_indoor_penetration_is_additive_db(self, rf):
        out = rf_channel_gain(50.0, False, rf)
        ind = rf_channel_gain(50.0, True, rf)
        assert ind == pytest.approx(out * 10 ** (-rf.indoor_penetration_db / 10.0), rel=1e-12)

    def test_monotone_decreasing_in_distance(self, rf):
        gains = [rf_channel_gain(d, False, rf) for d in (1.0, 5.0, 20.0, 50.0, 200.0)]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_rejects_non_positive_distance(self, rf):
        for bad in (0.0, -3.0):
            with pytest.raises(ValueError):
                rf_channel_gain(bad, False, rf)


class TestRfRate:
    def test_reference_value(self):
        # SNR = 0.1 * 1.2e-8 / (0.4e6 * 1e-21) = 3e6
        assert rf_rate(0.1, 1.2e-8, 0.0, 0.4e6, 1e-21) == pytest.approx(
            8606612.620377438, rel=1e-12
        )

    def test_vanishing_power_vanishing_rate(self):
        assert rf_rate(1e-30, 1.2e-8, 0.0, 0.4e6, 1e-21) < 1e-3

    def test_interference_strictly_reduces_rate(self):
        base = rf_rate(0.1, 1.2e-8, 0.0, 0.4e6, 1e-21)
        worse = rf_rate(0.1, 1.2e-8, 1e-12, 0.4e6, 1e-21)
        assert worse < base

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            rf_rate(0.0, 1e-8, 0.0, 1e6, 1e-21)
        with pytest.raises(ValueError):
            rf_rate(0.1, 1e-8, -1.0, 1e6, 1e-21)


class TestBandwidthMonotonicity:
    def test_vlc_rate_increases_with_block_width(self, config, vlc):
        # SINR must be recomputed at each width: wider blocks collect more
        # noise but the rate still grows.
        user = make_user(indoor=True, xy=(0.0, 1.0))
        topo = make_topology([user], aps=[(0.0, 0.0, 3.35)])
        widths = np.logspace(4, 7.6, 20)
        rates = [vlc_rate(vlc_sinr(user, topo, b, vlc), b) for b in widths]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_rf_rate_increases_with_block_width(self, rf):
        h = rf_channel_gain(30.0, False, rf)
        widths = np.logspace(3, 7.3, 20)
        rates = [
            rf_rate(0.1, h, rf.uplink_interference_w, b, rf.noise_psd) for b in widths
        ]
        assert all(a < b for a, b in zip(rates, rates[1:]))


def _scalar_gain(ap, user, p):
    """vlc_channel_gain as it was written before the batched form: one pair,
    np.linalg.norm and Python powers. Kept as the bit-exact reference."""
    d = distance(ap, user)
    cos_theta = (float(ap[2]) - float(user[2])) / d
    if cos_theta < _cos_deg(p.fov_half_angle_deg):
        return 0.0
    m = lambertian_order(p.half_intensity_angle_deg)
    g = concentrator_gain(0.0, p.fov_half_angle_deg, p.refractive_index)
    return (m + 1.0) * p.pd_area_m2 / (2.0 * math.pi * d * d) * p.filter_gain * g * cos_theta**m * cos_theta


def _scalar_sinr(signals, rb_bandwidth_hz, noise_psd):
    """The per-user best-AP loop that best_ap_sinr replaced."""
    noise = noise_psd * rb_bandwidth_hz
    total = sum(signals)
    best = 0.0
    for s in signals:
        if s > 0.0:
            best = max(best, s / (noise + (total - s)))
    return best


coord = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False)


class TestBatchedEqualsScalar:
    """The array forms must give the same bits as one scalar evaluation each."""

    @given(
        aps=st.lists(st.tuples(coord, coord, st.floats(min_value=2.0, max_value=6.0)), min_size=1, max_size=6),
        receivers=st.lists(st.tuples(coord, coord, st.floats(min_value=0.0, max_value=1.5)), min_size=1, max_size=8),
        half_angle=st.sampled_from([15.0, 30.0, 45.0, 60.0, 70.0]),
        fov=st.sampled_from([10.0, 30.0, 60.0, 90.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_channel_gains(self, aps, receivers, half_angle, fov):
        p = VlcParams.from_config(SimConfig(half_intensity_angle_deg=half_angle, fov_half_angle_deg=fov))
        got = vlc_channel_gains(aps, receivers, p)
        assert got.shape == (len(receivers), len(aps))
        for i, user in enumerate(receivers):
            for k, ap in enumerate(aps):
                assert got[i, k] == _scalar_gain(ap, user, p)
                assert vlc_channel_gain(ap, user, p) == got[i, k]

    @given(
        n_aps=st.integers(min_value=1, max_value=12),  # a pairwise sum would reorder from 8 APs on
        signals=st.lists(
            st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-30, max_value=1e-8)), min_size=12, max_size=12),
            min_size=0,
            max_size=6,
        ),
        width=st.floats(min_value=1.0, max_value=1e9),
    )
    @settings(max_examples=100, deadline=None)
    def test_best_ap_sinr(self, n_aps, signals, width):
        signals = [row[:n_aps] for row in signals]
        got = best_ap_sinr(np.array(signals).reshape(len(signals), n_aps), width, 1e-21)
        assert got.tolist() == [_scalar_sinr(row, width, 1e-21) for row in signals]

    @given(
        powers=st.lists(st.floats(min_value=1e-3, max_value=2.0), min_size=0, max_size=12),
        width=st.floats(min_value=1.0, max_value=1e8),
        interference=st.floats(min_value=0.0, max_value=1e-9),
    )
    @settings(max_examples=150, deadline=None)
    def test_rates(self, powers, width, interference):
        gains = [rf_channel_gain(5.0 + 4.0 * i, i % 2 == 0, RfParams.from_config(SimConfig())) for i in range(len(powers))]
        rates = rf_rate(np.array(powers), np.array(gains), interference, width, 1e-21)
        assert rates.tolist() == [rf_rate(pw, h, interference, width, 1e-21) for pw, h in zip(powers, gains)]
        sinrs = np.array(powers) * 1e5
        assert vlc_rate(sinrs, width).tolist() == [vlc_rate(s, width) for s in sinrs.tolist()]

    # 1 + sinr values at which np.log2 and math.log2 differ in the last bit
    # (numpy 2.4.6, x86-64 AVX-512); the array rate must follow math.log2.
    LOG2_SPLITS = ("0x1.dc04a5e27288ep+9", "0x1.88608fffc13b9p+9", "0x1.e0f28c85b8b9dp+8", "0x1.a3b68fc52d086p+5")

    def test_rates_take_math_log2(self):
        sinrs = np.array([float.fromhex(x) - 1.0 for x in self.LOG2_SPLITS])
        # tx * 1 / (0 + 1 * 1) is the sinr itself, and 1 + sinr is exact
        assert rf_rate(sinrs, np.ones(sinrs.size), 0.0, 1.0, 1.0).tolist() == [math.log2(1.0 + s) for s in sinrs]

    def test_signal_powers(self):
        # Python's x ** 2 (libm pow) and numpy's x * x differ on 9 of these
        # 10,000 amplitudes, so a vectorised square shows here.
        rng = np.random.default_rng(3)
        p = VlcParams.from_config(SimConfig())
        aps = [(x, y, 3.35) for x, y in rng.uniform(-20.0, 20.0, size=(4, 2))]
        users = [make_user(id=i, indoor=True, xy=tuple(xy)) for i, xy in enumerate(rng.uniform(-25.0, 25.0, (2500, 2)))]
        got = vlc_signal_powers(users, make_topology(users, aps=aps), p)
        expected = [
            [(p.conversion_efficiency * _scalar_gain(ap, u.position, p) * p.optical_power_w) ** 2 for ap in aps]
            for u in users
        ]
        assert got.tolist() == expected

    def test_array_rates_reject_bad_elements(self):
        with pytest.raises(ValueError):
            rf_rate(np.array([0.1, 0.0]), np.array([1e-9, 1e-9]), 0.0, 1e6, 1e-21)
        with pytest.raises(ValueError):
            vlc_rate(np.array([1.0, -1.0]), 1e6)
