"""Network layout generation: circular cell, center BS, ceiling VLC APs.

Users are dropped uniformly over the disk area. A configured fraction is
indoor; indoor users are re-positioned within a small radius of a uniformly
chosen VLC AP so that every indoor user has line-of-sight light coverage.

A topology keeps its users as columns (``UserColumns``): one array per
``UserNode`` field. Link terms and selection read the columns, so they build
no ``UserNode``. Every topology lists its indoor users first: one built from
nodes sorts them so, each kind in the order given, once ``UserNode`` has
checked each one, and rejects two nodes with one id; columns passed in must
already be in that order, as a drawn topology's are.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

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
        # UserColumns.of would silently truncate a float id, turn any value
        # into a flag and fail on a short position without naming the user.
        if not _is_integer(self.id):
            raise ValueError(f"user {self.id}: id must be an integer, got {self.id!r}")
        if not isinstance(self.indoor, bool):
            raise ValueError(f"user {self.id}: indoor must be a bool, got {self.indoor!r}")
        if not _is_integer(self.shard_size) or self.shard_size < 1:
            raise ValueError(f"user {self.id}: shard_size must be an integer >= 1, got {self.shard_size!r}")
        for name in ("cycles_per_sample", "cpu_freq_hz", "capacitance_coeff", "tx_power_w", "energy_budget_j"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # also fails on nan
                raise ValueError(f"user {self.id}: {name} must be finite and > 0, got {value!r}")
        xyz = self.position
        if not (isinstance(xyz, tuple) and len(xyz) == 3 and all(isinstance(v, numbers.Real) for v in xyz)):
            raise ValueError(f"user {self.id}: position must be a tuple of three numbers, got {xyz!r}")
        if not all(-math.inf < v < math.inf for v in xyz):
            raise ValueError(f"user {self.id}: position must be finite, got {xyz!r}")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class UserColumns:
    """Users as one read-only array per ``UserNode`` field, in user order.

    ``position`` is an (N, 3) array; the others hold one value per user. Two
    are equal when their columns hold equal values; copies are read-only too.
    """

    __slots__ = ("id", "position", "indoor", "shard_size", "cycles_per_sample", "cpu_freq_hz",
                 "capacitance_coeff", "tx_power_w", "energy_budget_j")

    def __init__(self, id, position, indoor, shard_size, cycles_per_sample, cpu_freq_hz, capacitance_coeff,
                 tx_power_w, energy_budget_j):
        # The order is UserNode's field order; the arrays are not checked.
        columns = (id, position, indoor, shard_size, cycles_per_sample, cpu_freq_hz, capacitance_coeff,
                   tx_power_w, energy_budget_j)
        for name, column in zip(self.__slots__, columns):
            column.flags.writeable = False
            setattr(self, name, column)

    @classmethod
    def of(cls, users) -> "UserColumns":
        """The columns of some ``UserNode``s."""
        users = tuple(users)
        return cls(
            np.array([u.id for u in users], dtype=int),
            np.array([u.position for u in users], dtype=float).reshape(-1, 3),
            np.array([u.indoor for u in users], dtype=bool),
            np.array([u.shard_size for u in users]),
            *(np.array([getattr(u, name) for u in users], dtype=float) for name in cls.__slots__[4:]),
        )

    def rows(self) -> tuple[UserNode, ...]:
        """The users as ``UserNode``s, built and checked anew on each call."""
        # Python values, as the draw made them: tolist() gives int, bool and float.
        return tuple(map(
            UserNode, self.id.tolist(), map(tuple, self.position.tolist()),
            *(getattr(self, name).tolist() for name in self.__slots__[2:]),
        ))

    def __len__(self) -> int:
        return len(self.id)

    def __eq__(self, other):
        if not isinstance(other, UserColumns):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in self.__slots__)

    def __reduce__(self):
        # Rebuilt through __init__, so a copy's columns are read-only too.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


@dataclass(frozen=True)
class Topology:
    cell_radius_m: float
    bs_position: tuple[float, float]
    vlc_aps: tuple[tuple[float, float, float], ...]  # ceiling height, meters
    users: UserColumns  # or UserNodes, which __post_init__ turns into columns
    # allocation's link table: the users' bandwidth-free terms under the last
    # config used. Not part of the value, so equality ignores it.
    _link_table: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        users = self.users
        if not isinstance(users, UserColumns):
            users = UserColumns.of(sorted(users, key=lambda u: not u.indoor))  # a stable sort
            # A selection names its users by id, so two users must not share one.
            ids, counts = np.unique(users.id, return_counts=True)
            if (counts > 1).any():
                raise ValueError(f"user ids must be distinct, got id {ids[counts > 1][0]} more than once")
            object.__setattr__(self, "users", users)  # Topology is frozen
        elif (late := users.indoor[np.count_nonzero(users.indoor):]).any():  # rows past the indoor count
            first = users.id[-len(late):][late][0]
            raise ValueError(f"indoor users must come first, got indoor user {first} after an outdoor user")

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_indoor(self) -> int:
        return int(np.count_nonzero(self.users.indoor))

    @property
    def n_outdoor(self) -> int:
        return len(self.users) - self.n_indoor


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
    The users are kept as ``UserColumns``.
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
        users.rows()
    return Topology(
        cell_radius_m=config.cell_radius_m,
        bs_position=(0.0, 0.0),
        vlc_aps=aps,
        users=users,
    )
