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

Gains and signal powers do not depend on bandwidth, so a caller that tests
many block widths computes them once per user. The rate and SINR functions
also take arrays over users; they apply ``math.log2`` element by element
(``np.log2`` can differ in the last bit), so an array result holds the same
bits as the scalar calls.

The public rate functions check their arguments, then call a private kernel
(``_rf_rate``, ``_vlc_rate``) that holds the formula and checks nothing. A
caller that already guarantees the arguments, such as the link table's
feasibility pass, calls the kernel directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from .config import SimConfig
from .topology import Topology, UserNode

# 2/(pi*e): peak-power penalty of the optical-OFDM capacity lower bound
_OPTICAL_SNR_SCALE = 2.0 / (math.pi * math.e)

_RF_RATE_ARGS_ERROR = "tx power, channel gain, bandwidth and noise PSD must be > 0"


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
        )


@dataclass(frozen=True)
class RfParams:
    bs_power_w: float
    noise_psd: float            # W/Hz
    uplink_interference_w: float
    downlink_interference_w: float
    indoor_penetration_db: float

    @classmethod
    def from_config(cls, config: SimConfig) -> "RfParams":
        return cls(
            bs_power_w=config.bs_tx_power_w,
            noise_psd=config.rf_noise_psd,
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


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` applied to each element of ``x`` as a Python float.

    Used for logarithms and powers: their numpy ufuncs can differ from the
    scalar ``math`` and ``**`` results in the last bit.
    """
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def vlc_channel_gains(aps, receivers, p: VlcParams) -> np.ndarray:
    """Line-of-sight optical gain of every (receiver, AP) pair, as a (receivers, APs) array.

    Points are 3-D; each AP must sit strictly above every receiver plane.
    Gains are 0 outside the receiver field of view. Distances use the BLAS
    dot product that ``np.linalg.norm`` uses (``np.vecdot`` runs it per row)
    and powers are taken element by element, so each gain has the bits of a
    one-pair evaluation.
    """
    diff = np.asarray(aps, dtype=float).reshape(1, -1, 3) - np.asarray(receivers, dtype=float).reshape(-1, 1, 3)
    d = np.sqrt(np.vecdot(diff, diff))
    if (d == 0.0).any():
        raise ValueError("AP and receiver positions coincide")
    drop = diff[..., 2]
    if (drop <= 0.0).any():
        raise ValueError("AP must be strictly above the receiver plane")
    cos_theta = drop / d
    gains = np.zeros(d.shape)
    # Incidence inside the field of view <=> cos(theta) >= cos(FoV); comparing
    # cosines avoids a degree round-trip on every geometry evaluation.
    inside = cos_theta >= _cos_deg(p.fov_half_angle_deg)
    if inside.any():
        m = lambertian_order(p.half_intensity_angle_deg)
        g = concentrator_gain(0.0, p.fov_half_angle_deg, p.refractive_index)
        c, d = cos_theta[inside], d[inside]
        # Receiver faces up, LED faces down: irradiation angle equals incidence.
        gains[inside] = (
            (m + 1.0)
            * p.pd_area_m2
            / (2.0 * math.pi * d * d)
            * p.filter_gain
            * g
            * _elementwise(lambda x: x**m, c)
            * c
        )
    return gains


def vlc_channel_gain(ap, user, p: VlcParams) -> float:
    """Line-of-sight optical channel gain between a ceiling AP and a receiver.

    The one-pair case of ``vlc_channel_gains``.
    """
    return float(vlc_channel_gains([ap], [user], p)[0, 0])


def vlc_signal_powers(users, topology: Topology, p: VlcParams) -> np.ndarray:
    """Electrical signal power (gamma u_k P_v)^2 of each AP k at each indoor user.

    Returns a (users, APs) array; it does not depend on bandwidth.
    """
    for user in users:
        if not user.indoor:
            raise ValueError(f"user {user.id} is outdoor; VLC serves indoor users only")
    if users and not topology.vlc_aps:
        raise ValueError("topology has no VLC APs")
    gains = vlc_channel_gains(topology.vlc_aps, [u.position for u in users], p)
    return _elementwise(lambda x: x**2, p.conversion_efficiency * gains * p.optical_power_w)


def best_ap_sinr(signals: np.ndarray, rb_bandwidth_hz: float, noise_psd: float) -> np.ndarray:
    """Best-AP SINR of each row of a (users, APs) array of signal powers.

    Each AP k is scored as s_k / (N0 B + sum_{l != k} s_l), with the row sum
    taken left to right, and the maximum over APs with s_k > 0 is returned
    (0 when no AP is in view); the serving AP is the best one.
    """
    if rb_bandwidth_hz <= 0:
        raise ValueError("rb_bandwidth_hz must be > 0")
    noise = noise_psd * rb_bandwidth_hz
    total = np.cumsum(signals, axis=1)[:, -1:]  # sequential, unlike a pairwise np.sum
    scores = signals / (noise + (total - signals))
    return np.where(signals > 0.0, scores, 0.0).max(axis=1, initial=0.0)


def vlc_sinr(user: UserNode, topology: Topology, rb_bandwidth_hz: float, p: VlcParams) -> float:
    """Best-AP electrical SINR for an indoor user (see ``best_ap_sinr``)."""
    signals = vlc_signal_powers([user], topology, p)
    return float(best_ap_sinr(signals, rb_bandwidth_hz, p.noise_psd)[0])


def _log2(x):
    """math.log2 of a float, or of each element of an array."""
    return _elementwise(math.log2, x) if isinstance(x, np.ndarray) else math.log2(x)


def vlc_rate(sinr, rb_bandwidth_hz: float):
    """Achievable-rate lower bound (bits/s) on one VLC resource block.

    ``sinr`` may be an array over users.
    """
    if np.less(sinr, 0).any():
        raise ValueError("sinr must be >= 0")
    if rb_bandwidth_hz <= 0:
        raise ValueError("rb_bandwidth_hz must be > 0")
    return _vlc_rate(sinr, rb_bandwidth_hz)


def _vlc_rate(sinr, rb_bandwidth_hz: float):
    """``vlc_rate`` without the argument checks."""
    return rb_bandwidth_hz / 2.0 * _log2(1.0 + _OPTICAL_SNR_SCALE * sinr)


def rf_channel_gain(dist_m: float, indoor: bool, p: RfParams) -> float:
    """Deterministic log-distance RF power gain (linear, dimensionless)."""
    if dist_m <= 0:
        raise ValueError(f"distance must be > 0, got {dist_m!r}")
    pl_db = 128.1 + 37.6 * math.log10(dist_m / 1000.0)
    if indoor:
        pl_db += p.indoor_penetration_db
    return 10.0 ** (-pl_db / 10.0)


def rf_rate(
    tx_power_w,
    channel_gain,
    interference_w: float,
    rb_bandwidth_hz: float,
    noise_psd: float,
):
    """Shannon rate (bits/s) on one RF resource block.

    ``tx_power_w`` and ``channel_gain`` may be arrays over users.
    """
    if (
        np.less_equal(tx_power_w, 0).any()
        or np.less_equal(channel_gain, 0).any()
        or rb_bandwidth_hz <= 0
        or noise_psd <= 0
    ):
        raise ValueError(_RF_RATE_ARGS_ERROR)
    if interference_w < 0:
        raise ValueError("interference must be >= 0")
    return _rf_rate(tx_power_w * channel_gain, interference_w, rb_bandwidth_hz, noise_psd)


def _rf_rate(received_w, interference_w: float, rb_bandwidth_hz: float, noise_psd: float):
    """``rf_rate`` of the received power P h, without the argument checks."""
    sinr = received_w / (interference_w + rb_bandwidth_hz * noise_psd)
    return rb_bandwidth_hz * _log2(1.0 + sinr)
