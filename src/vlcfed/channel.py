"""Physical-layer models for both links.

VLC downlink: Lambertian line-of-sight optical gain
    u = (m + 1) * A_p / (2 pi d^2) * T_s * g(theta) * cos^m(phi) * cos(theta)
with Lambertian order m = -1 / log2(cos(theta_half)), concentrator gain
g(theta) = n0^2 / sin^2(FoV) inside the field of view (by the cosine test of
``vlc_channel_gains`` alone) and 0 outside. LEDs
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
also take arrays over users. On one value or many, each logarithm and power
is one numpy ufunc (``np.log2``, ``np.power``), so an array result holds the
same bits as the scalar calls, which return a Python float.

The public rate, RF-gain and SINR functions check their arguments,
then call a private kernel (``_rf_rate``, ``_vlc_rate``, ``_rf_channel_gain``,
``_vlc_signal_powers``) that holds the formula and checks nothing. A caller
that already guarantees the arguments calls the kernel directly: the link
table's build on each user's distance and on the indoor users' positions,
its feasibility pass on the rates, both RF directions in one ``_rf_rate``
call.

The link constants live only in ``SimConfig``: the gain, signal-power and
SINR functions take the validated config and read its fields by name, as
the link table's build and pass do.

Degree trigonometry (``_cos_deg``, ``_sin_deg``) is correctly rounded, so
the anchors are exact: cos 60 = 0.5 and m(60 deg) = 1. It comes from the
standard library's ``decimal``: the angle is reduced exactly with ``fmod``
and a Taylor series at 50 significant digits is rounded once to a float.
The tests check it against mpmath at 40 digits.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from .config import SimConfig
from .topology import Topology, UserNode

# 2/(pi*e): peak-power penalty of the optical-OFDM capacity lower bound
_OPTICAL_SNR_SCALE = 2.0 / (math.pi * math.e)

_RF_RATE_ARGS_ERROR = "tx power, channel gain, bandwidth and noise PSD must be > 0"


# pi to 62 significant digits, more than the 50 that _trig_deg works at
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _trig_deg(angle_deg: float, cosine: bool) -> float:
    """Correctly rounded sine or cosine of a finite angle given in degrees.

    ``fmod`` splits the angle exactly into quarter turns and an offset r in
    [0, 90), so multiples of 90 degrees give exact 0 and +-1.
    """
    if not math.isfinite(angle_deg):
        raise ValueError(f"angle must be finite, got {angle_deg!r}")
    a = abs(angle_deg)
    r = math.fmod(a, 90.0)
    quadrant = int(math.fmod(a, 360.0) - r) // 90 + cosine  # cos x = sin(x + 90)
    with localcontext() as ctx:
        ctx.prec = 50  # set here: localcontext(prec=...) needs Python 3.11
        x = Decimal(r) * _PI / 180
        # sin in quadrants 0 and 2, cos in 1 and 3; terms x^n / n!, n = 1, 3, ... or 0, 2, ...
        n = 1 - quadrant % 2
        term = total = x if n else Decimal(1)
        minus_x2 = -x * x
        while True:
            term = term * minus_x2 / ((n + 1) * (n + 2))
            n += 2
            if total + term == total:
                break
            total += term
        if quadrant % 4 >= 2:
            total = -total
        if angle_deg < 0 and not cosine:
            total = -total
    return float(total) + 0.0  # + 0.0 turns -0.0 into 0.0


@lru_cache(maxsize=256)
def _cos_deg(angle_deg: float) -> float:
    # Plain cos(radians(x)) is off by an ulp at the anchors (cos 60 != 0.5),
    # which matters because the Lambertian order at 60 degrees must be exactly 1.
    return _trig_deg(angle_deg, cosine=True)


@lru_cache(maxsize=256)
def _sin_deg(angle_deg: float) -> float:
    return _trig_deg(angle_deg, cosine=False)


def lambertian_order(half_intensity_angle_deg: float) -> float:
    """Lambertian order m = -1 / log2(cos(theta_half)); m(60 deg) = 1."""
    if not 0.0 < half_intensity_angle_deg < 90.0:
        raise ValueError(
            f"half-intensity angle must lie in (0, 90) degrees, got {half_intensity_angle_deg!r}"
        )
    return -1.0 / math.log2(_cos_deg(half_intensity_angle_deg))


def vlc_channel_gains(aps, receivers, config: SimConfig) -> np.ndarray:
    """Line-of-sight optical gain of every (receiver, AP) pair, as a (receivers, APs) array.

    Points are 3-D; each AP must sit strictly above every receiver plane.
    Gains are 0 outside the receiver field of view. Distances are
    sqrt(dx*dx + dy*dy + dz*dz) in that order on numpy ufuncs, not a BLAS
    dot, so each gain has the bits of a one-pair evaluation whatever BLAS
    kernel the CPU selects.
    """
    diff = np.asarray(aps, dtype=float).reshape(1, -1, 3) - np.asarray(receivers, dtype=float).reshape(-1, 1, 3)
    dx, dy, drop = diff[..., 0], diff[..., 1], diff[..., 2]
    d = np.sqrt(dx * dx + dy * dy + drop * drop)
    if (d == 0.0).any():
        raise ValueError("AP and receiver positions coincide")
    if (drop <= 0.0).any():
        raise ValueError("AP must be strictly above the receiver plane")
    cos_theta = drop / d
    gains = np.zeros(d.shape)
    # Incidence inside the field of view <=> cos(theta) >= cos(FoV); comparing
    # cosines avoids a degree round-trip on every geometry evaluation.
    inside = cos_theta >= _cos_deg(config.fov_half_angle_deg)
    if inside.any():
        m = lambertian_order(config.half_intensity_angle_deg)
        s = _sin_deg(config.fov_half_angle_deg)
        g = config.refractive_index**2 / (s * s)  # the concentrator gain inside the field of view
        c, d = cos_theta[inside], d[inside]
        # Receiver faces up, LED faces down: irradiation angle equals incidence.
        gains[inside] = (
            (m + 1.0)
            * config.pd_area_m2
            / (2.0 * math.pi * d * d)
            * config.filter_gain
            * g
            * np.power(c, m)
            * c
        )
    return gains


def vlc_channel_gain(ap, user, config: SimConfig) -> float:
    """Line-of-sight optical channel gain between a ceiling AP and a receiver.

    The one-pair case of ``vlc_channel_gains``.
    """
    return float(vlc_channel_gains([ap], [user], config)[0, 0])


def _vlc_signal_powers(receivers, topology: Topology, config: SimConfig) -> np.ndarray:
    """Electrical signal power (gamma u_k P_v)^2 of each AP k at each of n
    receiver positions, as an (n, APs) array.

    It does not depend on bandwidth, and it does not check that the
    receivers belong to indoor users.
    """
    if len(receivers) and not topology.vlc_aps:
        raise ValueError("topology has no VLC APs")
    gains = vlc_channel_gains(topology.vlc_aps, receivers, config)
    return np.power(config.conversion_efficiency * gains * config.optical_power_w, 2)


def best_ap_terms(signals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The width-free terms of ``best_ap_sinr`` from a (users, APs) array of signal powers.

    Returns the signals AP-major, as an (APs, users) array, and each one's
    interference: its user's total over all APs, summed in AP order (so
    never below one of its terms), minus the signal itself.
    """
    signals = np.ascontiguousarray(signals.T)
    return signals, np.cumsum(signals, axis=0)[-1:] - signals  # sequential, unlike a pairwise np.sum


def best_ap_sinr(signals: np.ndarray, interference: np.ndarray, rb_bandwidth_hz, noise_psd: float) -> np.ndarray:
    """Best-AP SINR of each user from the AP-major terms of ``best_ap_terms``.

    Each AP k is scored as s_k / (N0 B + sum_{l != k} s_l) >= 0 and the best
    score is returned: 0 when no AP is in view. The serving AP is the best one.
    A float width gives one SINR per user, its noise N0 B a Python float; a
    (P, 1) array of widths gives a (P, users) array whose row p holds, bit
    for bit, the SINRs at width p. The width is not checked. The best score
    is ``np.maximum.reduce``, the reduction ``ndarray.max`` runs through a
    Python wrapper.
    """
    noise = noise_psd * rb_bandwidth_hz
    if isinstance(noise, np.ndarray):
        noise = noise[..., None]  # broadcast over APs and users
    return np.maximum.reduce(signals / (noise + interference), axis=-2, initial=0.0)


def vlc_sinr(user: UserNode, topology: Topology, rb_bandwidth_hz: float, config: SimConfig) -> float:
    """Best-AP electrical SINR for an indoor user (see ``best_ap_sinr``)."""
    if rb_bandwidth_hz <= 0:
        raise ValueError("rb_bandwidth_hz must be > 0")
    if not user.indoor:
        raise ValueError(f"user {user.id} is outdoor; VLC serves indoor users only")
    terms = best_ap_terms(_vlc_signal_powers([user.position], topology, config))
    return float(best_ap_sinr(*terms, rb_bandwidth_hz, config.vlc_noise_psd)[0])


def _float_or_array(x):
    """A ufunc's 0-d result as a Python float; an array as it is."""
    return x if isinstance(x, np.ndarray) else float(x)


def vlc_rate(sinr, rb_bandwidth_hz: float):
    """Achievable-rate lower bound (bits/s) on one VLC resource block.

    ``sinr`` may be an array over users.
    """
    if np.less(sinr, 0).any():
        raise ValueError("sinr must be >= 0")
    if rb_bandwidth_hz <= 0:
        raise ValueError("rb_bandwidth_hz must be > 0")
    return _float_or_array(_vlc_rate(sinr, rb_bandwidth_hz))


def _vlc_rate(sinr, rb_bandwidth_hz: float):
    """``vlc_rate`` without the argument checks."""
    return rb_bandwidth_hz / 2.0 * np.log2(1.0 + _OPTICAL_SNR_SCALE * sinr)


def rf_channel_gain(dist_m: float, indoor: bool, config: SimConfig) -> float:
    """Deterministic log-distance RF power gain (linear, dimensionless)."""
    if dist_m <= 0:
        raise ValueError(f"distance must be > 0, got {dist_m!r}")
    return _rf_channel_gain(dist_m, indoor, config)


def _rf_channel_gain(dist_m: float, indoor: bool, config: SimConfig) -> float:
    """``rf_channel_gain`` without the distance check."""
    pl_db = 128.1 + 37.6 * math.log10(dist_m / 1000.0)
    if indoor:
        pl_db += config.indoor_penetration_db
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
    return _float_or_array(_rf_rate(tx_power_w * channel_gain, interference_w, rb_bandwidth_hz, noise_psd))


def _rf_rate(received_w, interference_w: float, rb_bandwidth_hz: float, noise_psd: float):
    """``rf_rate`` of the received power P h, without the argument checks.

    The received power, interference and width may each be an array over
    links: the link table's pass gives one row per RF link, both directions
    at once.
    """
    sinr = received_w / (interference_w + rb_bandwidth_hz * noise_psd)
    return rb_bandwidth_hz * np.log2(1.0 + sinr)
