"""Simulation configuration: physical constants, layout defaults, and run control.

Defaults reproduce the reference scenario (circular 50 m cell, 50 users, 80%
indoor, hybrid VLC downlink + shared RF band). Every physical quantity is
config-exposed so sweeps can override it; `validate()` rejects non-positive
and non-finite physical parameters by field name.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass
from typing import Optional


class ConfigError(ValueError):
    """Raised when a configuration value is out of its admissible range."""


# Fields that must be strictly positive.
_POSITIVE_FIELDS = (
    "optical_power_w",
    "vlc_total_bandwidth_hz",
    "pd_area_m2",
    "half_intensity_angle_deg",
    "filter_gain",
    "fov_half_angle_deg",
    "refractive_index",
    "conversion_efficiency",
    "vlc_noise_psd",
    "rf_noise_psd",
    "rf_total_bandwidth_hz",
    "bs_tx_power_w",
    "t_round_s",
    "energy_budget_j",
    "capacitance_coeff",
    "payload_bits",
    "cell_radius_m",
    "receiver_plane_height_m",
    "ap_height_above_plane_m",
    "indoor_spread_m",
    "nu",
    "learning_rate",
)

# Fields that must be >= 0.
_NON_NEGATIVE_FIELDS = (
    "uplink_interference_w",
    "downlink_interference_w",
    "indoor_penetration_db",
    "backhaul_delay_s",
    "test_size",
)


@dataclass(frozen=True)
class SimConfig:
    # --- radio / optical parameters ---
    optical_power_w: float = 9.0          # transmitted optical power per VLC AP
    vlc_total_bandwidth_hz: float = 40e6  # total VLC (LED modulation) bandwidth
    pd_area_m2: float = 1e-4              # photodiode physical area (1 cm^2)
    half_intensity_angle_deg: float = 60.0
    filter_gain: float = 1.0              # optical filter gain
    fov_half_angle_deg: float = 90.0      # receiver field-of-view half angle
    refractive_index: float = 1.5
    conversion_efficiency: float = 0.53   # optical-to-electric, A/W
    vlc_noise_psd: float = 1e-21          # A^2/Hz
    rf_noise_psd: float = 1e-21           # W/Hz
    rf_total_bandwidth_hz: float = 20e6
    bs_tx_power_w: float = 1.0
    n_users: int = 50
    t_round_s: float = 2.5                # per-round wall-clock budget
    energy_budget_j: float = 2.0          # per-user per-round energy cap
    capacitance_coeff: float = 2e-28      # effective switched-capacitance scale
    payload_bits: float = 1e6             # model-update size per link, per round

    # --- network layout ---
    cell_radius_m: float = 50.0
    indoor_fraction: float = 0.8
    n_vlc_aps: int = 4
    # One BS-distance per AP (cycled if fewer than n_vlc_aps); None staggers
    # them evenly over [0.2, 0.8] * cell_radius so indoor path loss spreads.
    ap_ring_radii_m: Optional[tuple[float, ...]] = None
    receiver_plane_height_m: float = 0.85
    ap_height_above_plane_m: float = 2.5  # vertical AP-to-receiver drop
    indoor_spread_m: float = 3.0          # indoor users land within this radius of an AP

    # --- per-user hardware draws ---
    tx_power_range_w: tuple[float, float] = (0.05, 1.0)  # log-uniform per user
    cycles_per_sample_range: tuple[float, float] = (1e7, 4e7)
    cpu_freq_range_hz: tuple[float, float] = (1e8, 1e9)
    samples_per_user: int = 9             # overwritten by the runner from the actual partition

    # --- RF propagation ---
    indoor_penetration_db: float = 10.0
    # Aggregate co-channel interference from neighboring cells, held constant.
    # The downlink sees a continuously transmitting neighbor BS (~-62 dBm);
    # the uplink sees sporadic handsets (~-70 dBm). Set both to 0.0 for an
    # isolated single-cell system.
    uplink_interference_w: float = 1e-10
    downlink_interference_w: float = 6e-10

    # --- computation / timing model ---
    nu: float = 1.0                       # local-iteration-count scale
    local_accuracy: float = 0.5           # target local accuracy, in (0, 1)
    backhaul_delay_s: float = 0.05        # BS -> home gateway fiber delay

    # --- federated training ---
    learning_rate: float = 0.6
    local_epochs: int = 5
    global_rounds: int = 300
    test_size: int = 17

    # --- selection/bandwidth iteration control ---
    max_iterations: int = 50
    initial_bandwidth: Optional[tuple[float, float, float]] = None  # (up, down, vlc); None = default_initial_bandwidth

    def validate(self) -> "SimConfig":
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
        for name in _NON_NEGATIVE_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
        if self.n_users < 1:
            raise ConfigError(f"n_users must be >= 1, got {self.n_users!r}")
        if not 0.0 <= self.indoor_fraction <= 1.0:
            raise ConfigError(
                f"indoor_fraction must lie in [0, 1], got {self.indoor_fraction!r}"
            )
        if self.n_vlc_aps < 1:
            raise ConfigError(f"n_vlc_aps must be >= 1, got {self.n_vlc_aps!r}")
        if not 0.0 < self.half_intensity_angle_deg < 90.0:
            raise ConfigError(
                "half_intensity_angle_deg must lie in (0, 90), got "
                f"{self.half_intensity_angle_deg!r}"
            )
        if not 0.0 < self.fov_half_angle_deg <= 90.0:
            raise ConfigError(
                f"fov_half_angle_deg must lie in (0, 90], got {self.fov_half_angle_deg!r}"
            )
        if not 0.0 < self.local_accuracy < 1.0:
            raise ConfigError(
                f"local_accuracy must lie in (0, 1), got {self.local_accuracy!r}"
            )
        for name in ("cycles_per_sample_range", "cpu_freq_range_hz", "tx_power_range_w"):
            bounds = getattr(self, name)
            if not isinstance(bounds, (tuple, list)) or len(bounds) != 2:
                raise ConfigError(f"{name} must hold exactly two values (low, high), got {bounds!r}")
            lo, hi = bounds
            if not (0 < lo <= hi):
                raise ConfigError(f"{name} must satisfy 0 < low <= high, got {(lo, hi)!r}")
        for name in ("samples_per_user", "local_epochs", "global_rounds", "max_iterations"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.ap_ring_radii_m is not None:
            if not self.ap_ring_radii_m or any(r <= 0 for r in self.ap_ring_radii_m):
                raise ConfigError(
                    f"ap_ring_radii_m must be positive values, got {self.ap_ring_radii_m!r}"
                )
        if self.initial_bandwidth is not None:
            if len(self.initial_bandwidth) != 3 or any(b <= 0 for b in self.initial_bandwidth):
                raise ConfigError(
                    f"initial_bandwidth must be three positive values, got {self.initial_bandwidth!r}"
                )
        return self

    def replace(self, **overrides) -> "SimConfig":
        return dataclasses.replace(self, **overrides).validate()


def _coerce(hint, raw: str):
    text = raw.strip()
    args = typing.get_args(hint)
    if type(None) in args:  # Optional[X]
        if text.lower() in ("none", ""):
            return None
        (hint,) = (a for a in args if a is not type(None))
    if typing.get_origin(hint) is tuple:
        return tuple(float(p) for p in text.replace(",", " ").split())
    if hint is int:
        value = float(text)  # accepts "1e1"
        if not value.is_integer():
            raise ValueError(f"expected an integer, got {text!r}")
        return int(value)
    return float(text)


def load_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` config file into an override mapping.

    Lines starting with ``#`` and blank lines are ignored. Unknown keys are
    rejected so typos do not silently fall back to defaults, and so are
    non-integral values of integer fields.
    """
    hints = typing.get_type_hints(SimConfig)
    overrides: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in hints:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                overrides[key] = _coerce(hints[key], value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return overrides


def build_config(file_path: Optional[str] = None, **cli_overrides) -> SimConfig:
    """Resolve a config: compiled defaults <- config file <- CLI overrides."""
    overrides = load_config_file(file_path) if file_path else {}
    overrides.update({k: v for k, v in cli_overrides.items() if v is not None})
    return SimConfig(**overrides).validate()
