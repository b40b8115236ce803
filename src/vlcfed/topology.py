"""Network layout generation: circular cell, center BS, ceiling VLC APs.

Users are dropped uniformly over the disk area. A configured fraction is
indoor; indoor users are re-positioned within a small radius of a uniformly
chosen VLC AP so that every indoor user has line-of-sight light coverage.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .config import SimConfig


@dataclass(frozen=True)
class UserNode:
    id: int
    position: tuple[float, float, float]  # receiver plane, meters
    indoor: bool
    shard_size: int                       # training samples held locally
    cycles_per_sample: float              # CPU cycles to process one sample
    cpu_freq_hz: float
    capacitance_coeff: float              # used as coeff/2 per cycle
    tx_power_w: float
    energy_budget_j: float

    def __post_init__(self):
        size = self.shard_size
        # Exact int first: a numbers ABC check costs a microsecond.
        if not (type(size) is int or (type(size) is not bool and isinstance(size, numbers.Integral))) or size < 1:
            raise ValueError(f"user {self.id}: shard_size must be an integer >= 1, got {size!r}")
        # Each chained comparison also fails on nan.
        if not 0.0 < self.cycles_per_sample < math.inf:
            self._reject("cycles_per_sample")
        if not 0.0 < self.cpu_freq_hz < math.inf:
            self._reject("cpu_freq_hz")
        if not 0.0 < self.capacitance_coeff < math.inf:
            self._reject("capacitance_coeff")
        if not 0.0 < self.tx_power_w < math.inf:
            self._reject("tx_power_w")
        if not 0.0 < self.energy_budget_j < math.inf:
            self._reject("energy_budget_j")
        x, y, z = self.position
        if not (-math.inf < x < math.inf and -math.inf < y < math.inf and -math.inf < z < math.inf):
            raise ValueError(f"user {self.id}: position must be finite, got {self.position!r}")

    def _reject(self, name: str):
        raise ValueError(f"user {self.id}: {name} must be finite and > 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class Topology:
    cell_radius_m: float
    bs_position: tuple[float, float]
    vlc_aps: tuple[tuple[float, float, float], ...]  # ceiling height, meters
    users: tuple[UserNode, ...]

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_indoor(self) -> int:
        return sum(1 for u in self.users if u.indoor)

    @property
    def n_outdoor(self) -> int:
        return sum(1 for u in self.users if not u.indoor)

    def indoor_users(self) -> list[UserNode]:
        return [u for u in self.users if u.indoor]

    def outdoor_users(self) -> list[UserNode]:
        return [u for u in self.users if not u.indoor]


def distance(a, b) -> float:
    """Euclidean distance between two points of equal dimension."""
    return float(np.linalg.norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


def ap_positions(config: SimConfig) -> tuple[tuple[float, float, float], ...]:
    """Ceiling AP coordinates: evenly spaced in angle, staggered in radius.

    Default radii span [0.2, 0.8] * cell_radius so indoor buildings sit at
    genuinely different distances from the BS.
    """
    k = config.n_vlc_aps
    z = config.receiver_plane_height_m + config.ap_height_above_plane_m
    if config.ap_ring_radii_m is not None:
        radii = [config.ap_ring_radii_m[i % len(config.ap_ring_radii_m)] for i in range(k)]
    elif k == 1:
        radii = [0.5 * config.cell_radius_m]
    else:
        lo, hi = 0.2 * config.cell_radius_m, 0.8 * config.cell_radius_m
        radii = [lo + (hi - lo) * i / (k - 1) for i in range(k)]
    offset = math.pi / k  # K=4 -> 45, 135, 225, 315 degrees
    out = []
    for i in range(k):
        ang = offset + i * (2.0 * math.pi / k)
        out.append((radii[i] * math.cos(ang), radii[i] * math.sin(ang), z))
    return tuple(out)


def generate_topology(config: SimConfig, seed: int) -> Topology:
    """Generate a deterministic layout for (config, seed).

    Positions are uniform over the disk area (radius sampled as r*sqrt(U)).
    Exactly round(indoor_fraction * n_users) users are indoor, listed first.
    """
    rng = np.random.default_rng(seed)
    n = config.n_users
    n_indoor = int(math.floor(config.indoor_fraction * n + 0.5))
    aps = ap_positions(config)
    z_plane = config.receiver_plane_height_m

    radii = config.cell_radius_m * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    xy = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)

    # Indoor users are re-drawn near a uniformly chosen AP so they are covered
    # by at least one light. AP ring + spread stays inside the cell.
    if n_indoor > 0:
        ap_choice = rng.integers(0, len(aps), size=n_indoor)
        spread_r = config.indoor_spread_m * np.sqrt(rng.uniform(0.0, 1.0, size=n_indoor))
        spread_a = rng.uniform(0.0, 2.0 * math.pi, size=n_indoor)
        for i in range(n_indoor):
            ap = aps[ap_choice[i]]
            xy[i, 0] = ap[0] + spread_r[i] * math.cos(spread_a[i])
            xy[i, 1] = ap[1] + spread_r[i] * math.sin(spread_a[i])

    cps_lo, cps_hi = config.cycles_per_sample_range
    f_lo, f_hi = config.cpu_freq_range_hz
    p_lo, p_hi = config.tx_power_range_w
    cycles = rng.uniform(cps_lo, cps_hi, size=n)
    freqs = rng.uniform(f_lo, f_hi, size=n)
    # Log-uniform: device power classes spread over decades, not linearly.
    powers = 10.0 ** rng.uniform(math.log10(p_lo), math.log10(p_hi), size=n)

    users = tuple(
        UserNode(
            id=i,
            position=(float(xy[i, 0]), float(xy[i, 1]), z_plane),
            indoor=i < n_indoor,
            shard_size=config.samples_per_user,
            cycles_per_sample=float(cycles[i]),
            cpu_freq_hz=float(freqs[i]),
            capacitance_coeff=config.capacitance_coeff,
            tx_power_w=float(powers[i]),
            energy_budget_j=config.energy_budget_j,
        )
        for i in range(n)
    )
    return Topology(
        cell_radius_m=config.cell_radius_m,
        bs_position=(0.0, 0.0),
        vlc_aps=aps,
        users=users,
    )
