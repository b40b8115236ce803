"""Network layout generation: circular cell, center BS, ceiling VLC APs.

Users are dropped uniformly over the disk area. A configured fraction is
indoor; indoor users are re-positioned within a small radius of a uniformly
chosen VLC AP so that every indoor user has line-of-sight light coverage.

A topology keeps its users as columns (``UserColumns``): one array per
``UserNode`` field. Link terms and selection read the columns, so they build
no ``UserNode``; the rows are built, through ``UserNode``'s constructor, when
a caller first reads one. A topology built from nodes keeps them as its rows
and takes its columns from them once, and rejects two nodes with one id.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .config import SimConfig


@dataclass(frozen=True, init=False)
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

    def __init__(self, id, position, indoor, shard_size, cycles_per_sample, cpu_freq_hz, capacitance_coeff,
                 tx_power_w, energy_budget_j):
        # One dict update: the generated frozen __init__ calls object.__setattr__ per field.
        self.__dict__.update(id=id, position=position, indoor=indoor, shard_size=shard_size,
                             cycles_per_sample=cycles_per_sample, cpu_freq_hz=cpu_freq_hz,
                             capacitance_coeff=capacitance_coeff, tx_power_w=tx_power_w,
                             energy_budget_j=energy_budget_j)
        self.__post_init__()

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


class UserColumns(Sequence):
    """Users as one read-only array per ``UserNode`` field, in user order.

    ``position`` is an (N, 3) array; the others hold one value per user. As a
    sequence it holds the ``UserNode`` rows, built on first read, and it
    compares and hashes as ``tuple(self)``.
    """

    __slots__ = ("id", "position", "indoor", "shard_size", "cycles_per_sample", "cpu_freq_hz",
                 "capacitance_coeff", "tx_power_w", "energy_budget_j", "_rows")

    def __init__(self, id, position, indoor, shard_size, cycles_per_sample, cpu_freq_hz, capacitance_coeff,
                 tx_power_w, energy_budget_j, rows=None):
        # The order is UserNode's field order; the arrays are not checked.
        columns = (id, position, indoor, shard_size, cycles_per_sample, cpu_freq_hz, capacitance_coeff,
                   tx_power_w, energy_budget_j)
        for name, column in zip(self.__slots__, columns):
            column.flags.writeable = False
            setattr(self, name, column)
        self._rows = rows

    @classmethod
    def of(cls, users) -> "UserColumns":
        """The columns of some ``UserNode``s, which stay the rows."""
        rows = tuple(users)
        return cls(
            np.array([u.id for u in rows], dtype=int),
            np.array([u.position for u in rows], dtype=float).reshape(-1, 3),
            np.array([u.indoor for u in rows], dtype=bool),
            np.array([u.shard_size for u in rows]),
            *(np.array([getattr(u, name) for u in rows], dtype=float) for name in cls.__slots__[4:-1]),
            rows=rows,
        )

    def _all_rows(self) -> tuple[UserNode, ...]:
        if self._rows is None:
            # Python values, as the draw made them: tolist() gives int, bool and float.
            self._rows = tuple(map(
                UserNode, self.id.tolist(), map(tuple, self.position.tolist()),
                *(getattr(self, name).tolist() for name in self.__slots__[2:-1]),
            ))
        return self._rows

    def __len__(self) -> int:
        return len(self.id)

    def __getitem__(self, index):
        return self._all_rows()[index]

    def __iter__(self):
        return iter(self._all_rows())

    def __eq__(self, other):
        if isinstance(other, UserColumns):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._all_rows())

    def __repr__(self) -> str:
        return repr(self._all_rows())

    def __reduce__(self):
        # Rebuilt through __init__, so a copy's columns are read-only too.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


@dataclass(frozen=True)
class Topology:
    cell_radius_m: float
    bs_position: tuple[float, float]
    vlc_aps: tuple[tuple[float, float, float], ...]  # ceiling height, meters
    users: Sequence[UserNode]  # kept as UserColumns, which compare and hash as a tuple of nodes
    # allocation's link-table cache: the users' bandwidth-free terms under the
    # last config used. Not part of the value, so equality and hashing ignore it.
    _link_terms: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.users, UserColumns):
            users = UserColumns.of(self.users)
            # A selection names its users by id, so two users must not share one.
            ids, counts = np.unique(users.id, return_counts=True)
            if (counts > 1).any():
                raise ValueError(f"user ids must be distinct, got id {ids[counts > 1][0]} more than once")
            object.__setattr__(self, "users", users)  # Topology is frozen

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_indoor(self) -> int:
        return int(np.count_nonzero(self.users.indoor))

    @property
    def n_outdoor(self) -> int:
        return len(self.users) - self.n_indoor

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
    The users are kept as ``UserColumns``, whose rows are built on first read.
    """
    rng = np.random.default_rng(seed)
    n = config.n_users
    n_indoor = int(math.floor(config.indoor_fraction * n + 0.5))
    aps = ap_positions(config)
    z_plane = config.receiver_plane_height_m

    radii = config.cell_radius_m * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    position = np.full((n, 3), z_plane, dtype=float)
    position[:, 0] = radii * np.cos(angles)
    position[:, 1] = radii * np.sin(angles)

    # Indoor users are re-drawn near a uniformly chosen AP so they are covered
    # by at least one light. AP ring + spread stays inside the cell.
    if n_indoor > 0:
        ap_choice = rng.integers(0, len(aps), size=n_indoor)
        spread_r = config.indoor_spread_m * np.sqrt(rng.uniform(0.0, 1.0, size=n_indoor))
        spread_a = rng.uniform(0.0, 2.0 * math.pi, size=n_indoor).tolist()
        # libm's cos and sin, which can differ from numpy's in the last bit;
        # the sums and products are IEEE operations, equal on either side.
        # A sum that overflows is caught by the check below.
        ap_xy = np.array(aps)[ap_choice]
        with np.errstate(over="ignore"):
            position[:n_indoor, 0] = ap_xy[:, 0] + spread_r * np.array(list(map(math.cos, spread_a)))
            position[:n_indoor, 1] = ap_xy[:, 1] + spread_r * np.array(list(map(math.sin, spread_a)))

    cps_lo, cps_hi = config.cycles_per_sample_range
    f_lo, f_hi = config.cpu_freq_range_hz
    p_lo, p_hi = config.tx_power_range_w
    cycles = rng.uniform(cps_lo, cps_hi, size=n)
    freqs = rng.uniform(f_lo, f_hi, size=n)
    # Log-uniform: device power classes spread over decades, not linearly.
    powers = 10.0 ** rng.uniform(math.log10(p_lo), math.log10(p_hi), size=n)

    # UserNode's rules hold without building a row. SimConfig's rules imply
    # most: shard sizes are a Count, the capacitance and energy budget are
    # Positive, and a uniform draw over a checked range lies in it, so its
    # cycles and frequencies are finite and > 0. A log-uniform power can
    # round to 0 or inf, and an AP ring plus the spread can overflow, so
    # these are checked here; if one fails, building the rows raises the
    # error of the first user that fails.
    ids = np.arange(n)
    users = UserColumns(
        ids, position, ids < n_indoor, np.full(n, config.samples_per_user), cycles, freqs,
        np.full(n, config.capacitance_coeff, dtype=float), powers,
        np.full(n, config.energy_budget_j, dtype=float),
    )
    if not (np.isfinite(position).all() and 0.0 < powers.min() and powers.max() < math.inf):
        users._all_rows()
    return Topology(
        cell_radius_m=config.cell_radius_m,
        bs_position=(0.0, 0.0),
        vlc_aps=aps,
        users=users,
    )
