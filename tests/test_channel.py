import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath  # the trig reference; a missing test extra fails the suite
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vlcfed
from vlcfed import (
    SimConfig,
    lambertian_order,
    rf_channel_gain,
    rf_rate,
    vlc_channel_gain,
    vlc_rate,
    vlc_sinr,
)
from vlcfed.channel import (
    _cos_deg,
    _rf_rate,
    _sin_deg,
    _vlc_rate,
    _vlc_signal_powers,
    best_ap_sinr,
    best_ap_terms,
    vlc_channel_gains,
)
from tests.conftest import make_topology, make_user


def _mpmath_deg(fn, angle_deg):
    with mpmath.workdps(40):
        value = fn(mpmath.mpf(angle_deg) * mpmath.pi / 180)
    # float(value) rounds to 53 bits first, and a subnormal result then once
    # more (sin 6.5463113837359344e-307 degrees); a Fraction rounds once.
    man, exp = value.man_exp  # of the magnitude: mpmath keeps the sign apart
    exact = Fraction(man) * Fraction(2) ** exp
    return float(-exact if value < 0 else exact)


class TestDegreeTrig:
    @given(st.floats(min_value=0.0, max_value=90.0, exclude_min=True, exclude_max=True))
    def test_equals_mpmath_inside_the_first_quadrant(self, angle):
        assert _cos_deg(angle) == _mpmath_deg(mpmath.cos, angle)
        assert _sin_deg(angle) == _mpmath_deg(mpmath.sin, angle)

    def test_equals_mpmath_on_the_hundredths_grid(self):
        for k in range(1, 9000, 7):
            angle = k / 100
            assert _cos_deg(angle) == _mpmath_deg(mpmath.cos, angle), angle
            assert _sin_deg(angle) == _mpmath_deg(mpmath.sin, angle), angle

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_equals_mpmath_on_any_angle_but_exact_zeros(self, angle):
        # mpmath's 40-digit pi leaves about 1e-43 where the exact value is 0:
        # cos at odd multiples of 90 degrees, sin at multiples of 180.
        for ours, fn, zero_at in ((_cos_deg, mpmath.cos, 90.0), (_sin_deg, mpmath.sin, 0.0)):
            exact_zero = math.fmod(abs(angle), 180.0) == zero_at
            assert ours(angle) == (0.0 if exact_zero else _mpmath_deg(fn, angle)), angle

    def test_anchors_are_exact(self):
        assert _cos_deg(60.0) == 0.5
        assert _sin_deg(30.0) == 0.5
        assert _sin_deg(90.0) == 1.0
        assert _cos_deg(90.0) == 0.0
        assert [_cos_deg(a) for a in (0.0, 180.0, 270.0, 360.0, -90.0)] == [1.0, -1.0, 0.0, 1.0, 0.0]
        assert [_sin_deg(a) for a in (0.0, 180.0, 270.0, 360.0, -90.0)] == [0.0, 0.0, -1.0, 0.0, -1.0]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_angles_raise(self, bad):
        for fn in (_cos_deg, _sin_deg):
            with pytest.raises(ValueError, match="angle must be finite"):
                fn(bad)


def test_import_and_dataset_load_leave_mpmath_unloaded():
    # mpmath is only the tests' trig reference; a fresh interpreter that
    # imports vlcfed and loads the bundled dataset must not load it.
    code = "import sys, vlcfed; vlcfed.load_bundled_dataset(); print('mpmath' in sys.modules)"
    src = str(Path(vlcfed.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


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


class TestVlcChannelGain:
    def test_reference_geometry(self, config):
        # 2.5 m drop, 1.66 m horizontal offset, default optics:
        # d = 3.000933, cos(theta) = 0.833074, g = 2.25, m = 1
        u = vlc_channel_gain((0.0, 0.0, 3.35), (0.0, 1.66, 0.85), config)
        assert u == pytest.approx(5.5193426496331765e-06, rel=1e-9)

    def test_zero_outside_fov(self, config):
        narrow = config.replace(fov_half_angle_deg=30.0)
        # offset >> drop puts the incidence angle way past 30 degrees
        assert vlc_channel_gain((0.0, 0.0, 3.35), (0.0, 10.0, 0.85), narrow) == 0.0

    def test_directly_underneath_closed_form(self, config):
        drop = 2.5
        u = vlc_channel_gain((0.0, 0.0, 0.85 + drop), (0.0, 0.0, 0.85), config)
        m = lambertian_order(config.half_intensity_angle_deg)
        g = config.refractive_index**2 / _sin_deg(config.fov_half_angle_deg) ** 2
        expected = (m + 1) * config.pd_area_m2 * config.filter_gain * g / (2 * math.pi * drop**2)
        assert u == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("fov", [10.0, 45.0, 60.0, 90.0])
    def test_the_concentrator_gain_is_n0_squared_over_sin_squared_fov_bit_for_bit(self, config, fov):
        cfg = config.replace(fov_half_angle_deg=fov, refractive_index=1.7)
        s = _sin_deg(fov)
        g = 1.7**2 / (s * s)
        # Straight below the AP: d = 2.5 exactly and cos(theta) = 1, so the
        # gain is the closed form's product with no cosine factor.
        u = vlc_channel_gain((3.0, -2.0, 2.5), (3.0, -2.0, 0.0), cfg)
        m = lambertian_order(cfg.half_intensity_angle_deg)
        assert u == (m + 1.0) * cfg.pd_area_m2 / (2.0 * math.pi * 2.5 * 2.5) * cfg.filter_gain * g

    def test_decreases_with_horizontal_offset(self, config):
        gains = [
            vlc_channel_gain((0.0, 0.0, 3.35), (0.0, off, 0.85), config)
            for off in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_rejects_coincident_and_below_plane(self, config):
        with pytest.raises(ValueError):
            vlc_channel_gain((0.0, 0.0, 0.85), (0.0, 0.0, 0.85), config)
        with pytest.raises(ValueError):
            vlc_channel_gain((0.0, 0.0, 0.5), (1.0, 0.0, 0.85), config)


class TestVlcSinr:
    def test_single_ap_reference_value(self, config):
        user = make_user(indoor=True, xy=(0.0, 1.66))
        topo = make_topology([user], aps=[(0.0, 0.0, 3.35)])
        s = vlc_sinr(user, topo, 4e6, config)
        # (0.53 * 5.5193e-6 * 9)^2 / (1e-21 * 4e6)
        sig = (0.53 * 5.5193426496331765e-06 * 9.0) ** 2
        assert s == pytest.approx(sig / 4e-15, rel=1e-9)
        assert s == pytest.approx(1.7328e5, rel=1e-3)

    def test_outdoor_user_rejected(self, config):
        user = make_user(indoor=False)
        topo = make_topology([user])
        with pytest.raises(ValueError, match="user 0 is outdoor; VLC serves indoor users only"):
            vlc_sinr(user, topo, 4e6, config)

    def test_out_of_fov_everywhere_gives_zero(self, config):
        narrow = config.replace(fov_half_angle_deg=10.0)
        user = make_user(indoor=True, xy=(30.0, 0.0))
        topo = make_topology([user], aps=[(0.0, 0.0, 3.35)])
        assert vlc_sinr(user, topo, 4e6, narrow) == 0.0

    def test_two_identical_aps_cap_sinr_below_one(self, config):
        user = make_user(indoor=True, xy=(0.0, 0.0))
        topo = make_topology(
            [user], aps=[(0.0, 1.0, 3.35), (0.0, -1.0, 3.35)]
        )
        s = vlc_sinr(user, topo, 4e6, config)
        sig = (0.53 * vlc_channel_gain((0.0, 1.0, 3.35), user.position, config) * 9.0) ** 2
        assert s == pytest.approx(sig / (4e-15 + sig), rel=1e-9)
        assert s < 1.0

    def test_never_exceeds_interference_free_serving_sinr(self, config):
        rng = np.random.default_rng(0)
        for _ in range(20):
            aps = [
                (float(x), float(y), 3.35)
                for x, y in rng.uniform(-10, 10, size=(4, 2))
            ]
            user = make_user(indoor=True, xy=tuple(rng.uniform(-10, 10, size=2)))
            topo = make_topology([user], aps=aps)
            s = vlc_sinr(user, topo, 4e6, config)
            best = max(
                (0.53 * vlc_channel_gain(ap, user.position, config) * 9.0) ** 2 / 4e-15
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
    def test_fifty_meters_outdoor(self, config):
        # PL = 128.1 + 37.6*log10(0.05) = 79.181 dB
        assert rf_channel_gain(50.0, False, config) == pytest.approx(
            1.2074600864055292e-08, rel=1e-12
        )

    def test_indoor_penetration_is_additive_db(self, config):
        out = rf_channel_gain(50.0, False, config)
        ind = rf_channel_gain(50.0, True, config)
        assert ind == pytest.approx(out * 10 ** (-config.indoor_penetration_db / 10.0), rel=1e-12)

    def test_monotone_decreasing_in_distance(self, config):
        gains = [rf_channel_gain(d, False, config) for d in (1.0, 5.0, 20.0, 50.0, 200.0)]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_rejects_non_positive_distance(self, config):
        for bad in (0.0, -3.0):
            with pytest.raises(ValueError):
                rf_channel_gain(bad, False, config)


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
    def test_vlc_rate_increases_with_block_width(self, config):
        # SINR must be recomputed at each width: wider blocks collect more
        # noise but the rate still grows.
        user = make_user(indoor=True, xy=(0.0, 1.0))
        topo = make_topology([user], aps=[(0.0, 0.0, 3.35)])
        widths = np.logspace(4, 7.6, 20)
        rates = [vlc_rate(vlc_sinr(user, topo, b, config), b) for b in widths]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_rf_rate_increases_with_block_width(self, config):
        h = rf_channel_gain(30.0, False, config)
        widths = np.logspace(3, 7.3, 20)
        rates = [
            rf_rate(0.1, h, config.uplink_interference_w, b, config.rf_noise_psd) for b in widths
        ]
        assert all(a < b for a, b in zip(rates, rates[1:]))


def _scalar_gain(ap, user, config):
    """vlc_channel_gain as it was written before the batched form: one pair,
    with the power as np.power. Kept as the bit-exact reference. The distance
    is summed in the fixed order the batched form uses, not by a BLAS dot."""
    dx, dy, dz = (float(a) - float(u) for a, u in zip(ap, user))
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    cos_theta = (float(ap[2]) - float(user[2])) / d
    if cos_theta < _cos_deg(config.fov_half_angle_deg):
        return 0.0
    m = lambertian_order(config.half_intensity_angle_deg)
    s = _sin_deg(config.fov_half_angle_deg)
    g = config.refractive_index**2 / (s * s)
    return (m + 1.0) * config.pd_area_m2 / (2.0 * math.pi * d * d) * config.filter_gain * g * float(np.power(cos_theta, m)) * cos_theta


def _scalar_sinr(signals, rb_bandwidth_hz, noise_psd):
    """The per-user best-AP loop that best_ap_sinr replaced."""
    noise = noise_psd * rb_bandwidth_hz
    total = sum(signals)
    best = 0.0
    for s in signals:
        if s > 0.0:
            best = max(best, s / (noise + (total - s)))
    return best


def _row_wise_sinr(signals, rb_bandwidth_hz, noise_psd):
    """The user-major form that the AP-major best_ap_sinr replaced: one row
    of signal powers per user, the interference taken per call."""
    noise = noise_psd * rb_bandwidth_hz
    total = np.cumsum(signals, axis=1)[:, -1:]
    return (signals / (noise + (total - signals))).max(axis=1, initial=0.0)


coord = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False)


def _layouts(x):
    """``x`` as a pass may hand it to a ufunc, each with the indices it holds:
    whole, one element, a strided view and a fancy-indexed copy."""
    reverse = np.arange(x.size)[::-1]
    return [(x, range(x.size)), (x[:1], range(x.size)[:1]), (x[::2], range(0, x.size, 2)), (x[reverse], reverse)]


class TestBatchedEqualsScalar:
    """The array forms must give the same bits as one scalar evaluation each."""

    @given(
        aps=st.lists(st.tuples(coord, coord, st.floats(min_value=2.0, max_value=6.0)), min_size=1, max_size=6),
        receivers=st.lists(st.tuples(coord, coord, st.floats(min_value=0.0, max_value=1.5)), min_size=1, max_size=8),
        half_angle=st.sampled_from([15.0, 30.0, 45.0, 60.0, 70.0]),
        fov=st.sampled_from([10.0, 30.0, 60.0, 90.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_channel_gains_equal_one_pair_calls(self, aps, receivers, half_angle, fov):
        cfg = SimConfig(half_intensity_angle_deg=half_angle, fov_half_angle_deg=fov)
        got = vlc_channel_gains(aps, receivers, cfg)
        assert got.shape == (len(receivers), len(aps))
        for i, user in enumerate(receivers):
            for k, ap in enumerate(aps):
                assert got[i, k] == _scalar_gain(ap, user, cfg)
                gain = vlc_channel_gain(ap, user, cfg)
                assert type(gain) is float and gain == got[i, k]

    @given(
        aps=st.lists(st.tuples(coord, coord, st.floats(min_value=2.0, max_value=6.0)), min_size=1, max_size=6),
        receivers=st.lists(st.tuples(coord, coord), min_size=1, max_size=24),
        half_angle=st.sampled_from([15.0, 30.0, 45.0, 60.0, 70.0]),
        fov=st.sampled_from([10.0, 30.0, 60.0, 90.0]),
        width=st.floats(min_value=1.0, max_value=1e9),
    )
    @settings(max_examples=150, deadline=None)
    def test_signal_powers_equal_one_user_calls(self, aps, receivers, half_angle, fov, width):
        cfg = SimConfig(half_intensity_angle_deg=half_angle, fov_half_angle_deg=fov)
        users = [make_user(id=i, indoor=True, xy=xy) for i, xy in enumerate(receivers)]
        topo = make_topology(users, aps=aps)
        positions = topo.users.position
        got = _vlc_signal_powers(positions, topo, cfg)
        sinrs = best_ap_sinr(*best_ap_terms(got), width, cfg.vlc_noise_psd)
        for i, user in enumerate(users):
            assert got[i].tolist() == _vlc_signal_powers(positions[i : i + 1], topo, cfg)[0].tolist()
            amplitudes = [cfg.conversion_efficiency * vlc_channel_gain(ap, user.position, cfg) * cfg.optical_power_w for ap in aps]
            assert got[i].tolist() == [float(np.power(a, 2)) for a in amplitudes]
            sinr = vlc_sinr(user, topo, width, cfg)
            assert type(sinr) is float and sinr == sinrs[i]
        # A mode's view takes a subset of the users, in any order.
        rows = list(range(len(users)))[::-2]
        assert _vlc_signal_powers(positions[rows], topo, cfg).tolist() == got[rows].tolist()

    def test_signal_powers_of_many_users(self):
        # Python's x ** 2 (libm pow) and numpy's x * x differ on 9 of these
        # 10,000 amplitudes, so a square taken another way for arrays shows here.
        rng = np.random.default_rng(3)
        cfg = SimConfig()
        aps = [(x, y, 3.35) for x, y in rng.uniform(-20.0, 20.0, size=(4, 2))]
        positions = np.column_stack((rng.uniform(-25.0, 25.0, (2500, 2)), np.full(2500, 0.85)))
        topo = make_topology([], aps=aps)
        got = _vlc_signal_powers(positions, topo, cfg)
        assert got.tolist() == [_vlc_signal_powers(p[None], topo, cfg)[0].tolist() for p in positions]

    @given(
        n_aps=st.integers(min_value=1, max_value=12),  # a pairwise sum would reorder from 8 APs on
        signals=st.lists(
            st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-30, max_value=1e-8)), min_size=12, max_size=12),
            min_size=0,
            max_size=6,
        ),
        widths=st.lists(st.floats(min_value=1.0, max_value=1e9), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_best_ap_sinr(self, n_aps, signals, widths):
        signals = np.array([row[:n_aps] for row in signals]).reshape(len(signals), n_aps)
        terms = best_ap_terms(signals)
        assert [t.shape for t in terms] == [(n_aps, len(signals))] * 2
        for width in widths:
            got = best_ap_sinr(*terms, width, 1e-21)
            assert got.tolist() == _row_wise_sinr(signals, width, 1e-21).tolist()
            assert got.tolist() == [_scalar_sinr(row, width, 1e-21) for row in signals.tolist()]
        # A (P, 1) column of widths gives one row per width, bit for bit.
        batched = best_ap_sinr(*terms, np.array(widths)[:, None], 1e-21)
        assert batched.tolist() == [best_ap_sinr(*terms, width, 1e-21).tolist() for width in widths]

    @given(
        powers=st.lists(st.floats(min_value=1e-3, max_value=2.0), min_size=0, max_size=40),
        width=st.floats(min_value=1.0, max_value=1e8),
        interference=st.floats(min_value=0.0, max_value=1e-9),
    )
    @settings(max_examples=150, deadline=None)
    def test_rates(self, powers, width, interference):
        gains = [rf_channel_gain(5.0 + 4.0 * i, i % 2 == 0, SimConfig()) for i in range(len(powers))]
        rf_rates = [rf_rate(pw, h, interference, width, 1e-21) for pw, h in zip(powers, gains)]
        assert rf_rate(np.array(powers), np.array(gains), interference, width, 1e-21).tolist() == rf_rates
        sinrs = np.array(powers) * 1e5
        vlc_rates = [vlc_rate(s, width) for s in sinrs.tolist()]
        assert vlc_rate(sinrs, width).tolist() == vlc_rates
        assert all(type(r) is float for r in rf_rates + vlc_rates)
        # The kernels as a pass calls them, on each layout it may hand them.
        for x, rows in _layouts(np.array(powers) * np.array(gains)):
            assert _rf_rate(x, interference, width, 1e-21).tolist() == [rf_rates[i] for i in rows]
        for x, rows in _layouts(sinrs):
            assert _vlc_rate(x, width).tolist() == [vlc_rates[i] for i in rows]

    # 1 + sinr values at which np.log2 and math.log2 differ in the last bit
    # (numpy 2.4.6, x86-64 AVX-512). Alone, inside a vector and in a loop's
    # tail, each must give the scalar rate, which follows np.log2.
    LOG2_SPLITS = ("0x1.dc04a5e27288ep+9", "0x1.88608fffc13b9p+9", "0x1.e0f28c85b8b9dp+8", "0x1.a3b68fc52d086p+5")

    @pytest.mark.parametrize("split", LOG2_SPLITS)
    def test_rates_agree_at_log2_splits(self, split):
        sinr = float.fromhex(split) - 1.0  # 1 + sinr is exact
        # tx * 1 / (0 + 1 * 1) is the sinr itself
        rate = rf_rate(sinr, 1.0, 0.0, 1.0, 1.0)
        assert rate == float(np.log2(float.fromhex(split)))
        scale = 2.0 / (math.pi * math.e)  # so that 1 + scale * sinr is near the split
        for x, rows in _layouts(np.full(19, sinr)):
            assert _rf_rate(x, 0.0, 1.0, 1.0).tolist() == [rate] * len(rows)
            assert _vlc_rate(x / scale, 2.0).tolist() == [vlc_rate(sinr / scale, 2.0)] * len(rows)

    def test_array_rates_reject_bad_elements(self):
        with pytest.raises(ValueError):
            rf_rate(np.array([0.1, 0.0]), np.array([1e-9, 1e-9]), 0.0, 1e6, 1e-21)
        with pytest.raises(ValueError):
            vlc_rate(np.array([1.0, -1.0]), 1e6)
