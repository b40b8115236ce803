"""Physical-layer models for both links.

VLC downlink: Lambertian line-of-sight optical gain
    u = (m + 1) * A_p / (2 pi d^2) * T_s * g(theta) * cos^m(phi) * cos(theta)
with Lambertian order m = -1 / log2(cos(theta_half)), concentrator gain
g(theta) = n0^2 / sin^2(FoV) inside the field of view and 0 outside. LEDs
face straight down and receivers straight up, so phi = theta and
cos(theta) = drop / d. Electrical SINR squares the photocurrent gamma*u*P_v;
the achievable-rate lower bound for amplitude-constrained optical OFDM is
    r = (B / 2) * log2(1 + (2 / (pi e)) * sinr).

RF up/downlink: deterministic log-distance path loss
    PL_dB = 128.1 + 37.6 * log10(d_km)  (+ penetration loss if indoor)
and the Shannon rate B * log2(1 + P h / (I + B N0)). Co-channel interference
from other cells enters as a constant power I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath

from .config import SimConfig
from .topology import Topology, UserNode, distance

# 2/(pi*e): peak-power penalty of the optical-OFDM capacity lower bound
_OPTICAL_SNR_SCALE = 2.0 / (math.pi * math.e)


@lru_cache(maxsize=256)
def _cos_deg(angle_deg: float) -> float:
    # Correctly rounded cosine of an angle given in degrees. Plain
    # cos(radians(x)) is off by an ulp at the anchors (cos 60 != 0.5), which
    # matters because the Lambertian order at 60 degrees must be exactly 1.
    with mpmath.workdps(40):
        return float(mpmath.cos(mpmath.mpf(angle_deg) * mpmath.pi / 180))


@lru_cache(maxsize=256)
def _sin_deg(angle_deg: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.sin(mpmath.mpf(angle_deg) * mpmath.pi / 180))


@dataclass(frozen=True)
class VlcParams:
    optical_power_w: float
    pd_area_m2: float
    half_intensity_angle_deg: float
    filter_gain: float
    fov_half_angle_deg: float
    refractive_index: float
    conversion_efficiency: float
    noise_psd: float            # A^2/Hz
    total_bandwidth_hz: float

    @classmethod
    def from_config(cls, config: SimConfig) -> "VlcParams":
        return cls(
            optical_power_w=config.optical_power_w,
            pd_area_m2=config.pd_area_m2,
            half_intensity_angle_deg=config.half_intensity_angle_deg,
            filter_gain=config.filter_gain,
            fov_half_angle_deg=config.fov_half_angle_deg,
            refractive_index=config.refractive_index,
            conversion_efficiency=config.conversion_efficiency,
            noise_psd=config.vlc_noise_psd,
            total_bandwidth_hz=config.vlc_total_bandwidth_hz,
        )


@dataclass(frozen=True)
class RfParams:
    bs_power_w: float
    noise_psd: float            # W/Hz
    total_bandwidth_hz: float
    uplink_interference_w: float
    downlink_interference_w: float
    indoor_penetration_db: float

    @classmethod
    def from_config(cls, config: SimConfig) -> "RfParams":
        return cls(
            bs_power_w=config.bs_tx_power_w,
            noise_psd=config.rf_noise_psd,
            total_bandwidth_hz=config.rf_total_bandwidth_hz,
            uplink_interference_w=config.uplink_interference_w,
            downlink_interference_w=config.downlink_interference_w,
            indoor_penetration_db=config.indoor_penetration_db,
        )


def lambertian_order(half_intensity_angle_deg: float) -> float:
    """Lambertian order m = -1 / log2(cos(theta_half)); m(60 deg) = 1."""
    if not 0.0 < half_intensity_angle_deg < 90.0:
        raise ValueError(
            f"half-intensity angle must lie in (0, 90) degrees, got {half_intensity_angle_deg!r}"
        )
    return -1.0 / math.log2(_cos_deg(half_intensity_angle_deg))


def concentrator_gain(incidence_deg: float, fov_half_angle_deg: float, refractive_index: float) -> float:
    """Optical concentrator gain: n0^2/sin^2(FoV) inside the FoV, else 0.

    The gain is extended continuously to normal incidence (0 degrees).
    """
    if incidence_deg < 0.0:
        raise ValueError(f"incidence angle must be >= 0, got {incidence_deg!r}")
    if incidence_deg > fov_half_angle_deg:
        return 0.0
    s = _sin_deg(fov_half_angle_deg)
    return refractive_index**2 / (s * s)


def vlc_channel_gain(ap, user, p: VlcParams) -> float:
    """Line-of-sight optical channel gain between a ceiling AP and a receiver.

    Both points are 3-D; the AP must sit strictly above the receiver plane.
    Returns 0 outside the receiver field of view.
    """
    d = distance(ap, user)
    if d == 0.0:
        raise ValueError("AP and receiver positions coincide")
    drop = float(ap[2]) - float(user[2])
    if drop <= 0.0:
        raise ValueError("AP must be strictly above the receiver plane")
    cos_theta = drop / d
    # Incidence inside the field of view <=> cos(theta) >= cos(FoV); comparing
    # cosines avoids a degree round-trip on every geometry evaluation.
    if cos_theta < _cos_deg(p.fov_half_angle_deg):
        return 0.0
    m = lambertian_order(p.half_intensity_angle_deg)
    g = concentrator_gain(0.0, p.fov_half_angle_deg, p.refractive_index)
    # Receiver faces up, LED faces down: irradiation angle equals incidence.
    return (
        (m + 1.0)
        * p.pd_area_m2
        / (2.0 * math.pi * d * d)
        * p.filter_gain
        * g
        * cos_theta**m
        * cos_theta
    )


def vlc_sinr(user: UserNode, topology: Topology, rb_bandwidth_hz: float, p: VlcParams) -> float:
    """Best-AP electrical SINR for an indoor user.

    Each AP k is scored as (gamma u_k P_v)^2 / (N0 B + sum_{l != k} (gamma u_l P_v)^2)
    and the maximum over APs is returned; the serving AP is the best one.
    """
    if not user.indoor:
        raise ValueError(f"user {user.id} is outdoor; VLC serves indoor users only")
    if rb_bandwidth_hz <= 0:
        raise ValueError("rb_bandwidth_hz must be > 0")
    if not topology.vlc_aps:
        raise ValueError("topology has no VLC APs")
    signals = []
    for ap in topology.vlc_aps:
        u = vlc_channel_gain(ap, user.position, p)
        signals.append((p.conversion_efficiency * u * p.optical_power_w) ** 2)
    noise = p.noise_psd * rb_bandwidth_hz
    total = sum(signals)
    best = 0.0
    for s in signals:
        if s > 0.0:
            best = max(best, s / (noise + (total - s)))
    return best


def vlc_rate(sinr: float, rb_bandwidth_hz: float) -> float:
    """Achievable-rate lower bound (bits/s) on one VLC resource block."""
    if sinr < 0:
        raise ValueError("sinr must be >= 0")
    if rb_bandwidth_hz <= 0:
        raise ValueError("rb_bandwidth_hz must be > 0")
    return rb_bandwidth_hz / 2.0 * math.log2(1.0 + _OPTICAL_SNR_SCALE * sinr)


def rf_channel_gain(dist_m: float, indoor: bool, p: RfParams) -> float:
    """Deterministic log-distance RF power gain (linear, dimensionless)."""
    if dist_m <= 0:
        raise ValueError(f"distance must be > 0, got {dist_m!r}")
    pl_db = 128.1 + 37.6 * math.log10(dist_m / 1000.0)
    if indoor:
        pl_db += p.indoor_penetration_db
    return 10.0 ** (-pl_db / 10.0)


def rf_rate(
    tx_power_w: float,
    channel_gain: float,
    interference_w: float,
    rb_bandwidth_hz: float,
    noise_psd: float,
) -> float:
    """Shannon rate (bits/s) on one RF resource block."""
    if tx_power_w <= 0 or channel_gain <= 0 or rb_bandwidth_hz <= 0 or noise_psd <= 0:
        raise ValueError("tx power, channel gain, bandwidth and noise PSD must be > 0")
    if interference_w < 0:
        raise ValueError("interference must be >= 0")
    sinr = tx_power_w * channel_gain / (interference_w + rb_bandwidth_hz * noise_psd)
    return rb_bandwidth_hz * math.log2(1.0 + sinr)
