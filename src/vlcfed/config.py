"""Simulation configuration: physical constants, layout defaults, and run control.

Defaults reproduce the reference scenario (circular 50 m cell, 50 users, 80%
indoor, hybrid VLC downlink + shared RF band). Every physical quantity is
config-exposed so sweeps can override it. A `SimConfig` is valid by
construction: the constructor, `dataclasses.replace` and `build_config` run
`validate()` on every field, and `replace` runs the same rules on the fields
it changes. That suffices because each rule reads one field, so the fields a
copy keeps passed theirs already.

Each field's annotation carries its one rule. A scalar field has an admissible
interval, which also words its error; one loop over the scalar fields rejects,
by field name, a value that is not a real number (``bool`` included), lies
outside its interval (nan and inf included) or, where the field is annotated
``int``, is not an integer. Each tuple field has its own check. The scalars are
checked before the tuples, so a check of some fields names the same first
error as a check of all.
"""

from __future__ import annotations

import io
import numbers
import sys
import typing
from dataclasses import dataclass
from typing import Annotated, Optional


class ConfigError(ValueError):
    """Raised when a configuration value is out of its admissible range."""


# The largest float: a value at most this is finite, and an int too large to
# be a float is not.
_MAX_FLOAT = sys.float_info.max


class _Interval(typing.NamedTuple):
    """A scalar field's admissible values: low <(=) value <(=) high."""

    low: float
    high: float = _MAX_FLOAT
    closed_low: bool = False
    closed_high: bool = True

    def __str__(self) -> str:
        if self.high == _MAX_FLOAT:
            return f"{'>=' if self.closed_low else '>'} {self.low:g}"
        return f"in {'[' if self.closed_low else '('}{self.low:g}, {self.high:g}{']' if self.closed_high else ')'}"


def _check_reals(name: str, values) -> None:
    # bool is a numbers.Integral, but True is no quantity and no count.
    if not isinstance(values, (tuple, list)) or not all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values
    ):
        raise ConfigError(f"{name} must hold real numbers, got {values!r}")


def _check_range(name: str, bounds) -> None:
    if not isinstance(bounds, (tuple, list)) or len(bounds) != 2:
        raise ConfigError(f"{name} must hold exactly two values (low, high), got {bounds!r}")
    _check_reals(name, bounds)
    # An int too large to be a float lies below inf but above _MAX_FLOAT.
    if not (0 < bounds[0] <= bounds[1] <= _MAX_FLOAT):
        raise ConfigError(f"{name} must be finite and satisfy 0 < low <= high, got {tuple(bounds)!r}")


def _check_radii(name: str, radii) -> None:
    if radii is not None:
        _check_reals(name, radii)
        if not (radii and all(0 < r <= _MAX_FLOAT for r in radii)):
            raise ConfigError(f"{name} must be finite positive values, got {radii!r}")


def _check_widths(name: str, widths) -> None:
    if widths is not None:
        _check_reals(name, widths)
        if not (len(widths) == 3 and all(0 < w <= _MAX_FLOAT for w in widths)):
            raise ConfigError(f"{name} must be three finite positive values, got {widths!r}")


# Each field's annotation carries its one rule: an _Interval for a scalar
# (which must also be an integer where annotated int), a check for a tuple.
Positive = Annotated[float, _Interval(0.0)]
NonNegative = Annotated[float, _Interval(0.0, closed_low=True)]
Count = Annotated[int, _Interval(1, closed_low=True)]
Range = Annotated[tuple[float, float], _check_range]


@dataclass(frozen=True)
class SimConfig:
    # --- radio / optical parameters ---
    optical_power_w: Positive = 9.0          # transmitted optical power per VLC AP
    vlc_total_bandwidth_hz: Positive = 40e6  # total VLC (LED modulation) bandwidth
    pd_area_m2: Positive = 1e-4              # photodiode physical area (1 cm^2)
    half_intensity_angle_deg: Annotated[float, _Interval(0.0, 90.0, closed_high=False)] = 60.0
    filter_gain: Positive = 1.0              # optical filter gain
    # receiver field-of-view half angle
    fov_half_angle_deg: Annotated[float, _Interval(0.0, 90.0)] = 90.0
    refractive_index: Positive = 1.5
    conversion_efficiency: Positive = 0.53   # optical-to-electric, A/W
    vlc_noise_psd: Positive = 1e-21          # A^2/Hz
    rf_noise_psd: Positive = 1e-21           # W/Hz
    rf_total_bandwidth_hz: Positive = 20e6
    bs_tx_power_w: Positive = 1.0
    n_users: Count = 50
    t_round_s: Positive = 2.5                # per-round wall-clock budget
    energy_budget_j: Positive = 2.0          # per-user per-round energy cap
    capacitance_coeff: Positive = 2e-28      # effective switched-capacitance scale
    payload_bits: Positive = 1e6             # model-update size per link, per round

    # --- network layout ---
    cell_radius_m: Positive = 50.0
    indoor_fraction: Annotated[float, _Interval(0.0, 1.0, closed_low=True)] = 0.8
    n_vlc_aps: Count = 4
    # One BS-distance per AP (cycled if fewer than n_vlc_aps); None staggers
    # them evenly over [0.2, 0.8] * cell_radius so indoor path loss spreads.
    ap_ring_radii_m: Annotated[Optional[tuple[float, ...]], _check_radii] = None
    receiver_plane_height_m: Positive = 0.85
    ap_height_above_plane_m: Positive = 2.5  # vertical AP-to-receiver drop
    indoor_spread_m: Positive = 3.0          # indoor users land within this radius of an AP

    # --- per-user hardware draws ---
    tx_power_range_w: Range = (0.05, 1.0)    # log-uniform per user
    cycles_per_sample_range: Range = (1e7, 4e7)
    cpu_freq_range_hz: Range = (1e8, 1e9)
    samples_per_user: Count = 9              # overwritten by the runner from the actual partition

    # --- RF propagation ---
    indoor_penetration_db: NonNegative = 10.0
    # Aggregate co-channel interference from neighboring cells, held constant.
    # The downlink sees a continuously transmitting neighbor BS (~-62 dBm);
    # the uplink sees sporadic handsets (~-70 dBm). Set both to 0.0 for an
    # isolated single-cell system.
    uplink_interference_w: NonNegative = 1e-10
    downlink_interference_w: NonNegative = 6e-10

    # --- computation / timing model ---
    nu: Positive = 1.0                       # local-iteration-count scale
    local_accuracy: Annotated[float, _Interval(0.0, 1.0, closed_high=False)] = 0.5  # target local accuracy
    backhaul_delay_s: NonNegative = 0.05     # BS -> home gateway fiber delay

    # --- federated training ---
    learning_rate: Positive = 0.6
    local_epochs: Count = 5
    global_rounds: Count = 300
    test_size: Annotated[int, _Interval(0, closed_low=True)] = 17

    # --- selection/bandwidth iteration control ---
    max_iterations: Count = 50
    # (up, down, vlc); None = default_initial_bandwidth
    initial_bandwidth: Annotated[Optional[tuple[float, float, float]], _check_widths] = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> "SimConfig":
        _check_fields(self.__dict__)  # a dataclass keeps its fields, and only them, there
        return self

    def replace(self, **overrides) -> "SimConfig":
        """A copy with ``overrides`` set. Each rule reads its field alone, so
        only the overridden fields are checked; an unknown name raises
        TypeError, as ``dataclasses.replace`` does."""
        for name in overrides:
            if name not in _FIELD_NAMES:
                raise TypeError(f"SimConfig.replace() got an unexpected keyword argument {name!r}")
        _check_fields(overrides)
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, **overrides)  # what a frozen dataclass's __init__ sets
        return copy


def _split_rules():
    """(name, interval, annotated int) of each scalar field, (name, check) of
    each tuple field, and each field's plain type, as ``_coerce`` reads it."""
    scalars, tuples, hints = [], [], {}
    for name, hint in typing.get_type_hints(SimConfig, include_extras=True).items():
        base, rule = typing.get_args(hint)  # exactly one rule per field
        hints[name] = base
        if isinstance(rule, _Interval):
            scalars.append((name, rule, base is int))  # the int that _coerce reads
        else:
            tuples.append((name, rule))
    return tuple(scalars), tuple(tuples), hints


_SCALAR_RULES, _TUPLE_RULES, _HINTS = _split_rules()
_FIELD_NAMES = frozenset(_HINTS)
DERIVED_FIELD = "samples_per_user"  # the runner sets it from the dataset's shard size


def _check_fields(values: dict) -> None:
    """Run the rule of each field that ``values`` holds on its value: the
    scalar fields in declaration order, then the tuple fields, so the first
    rejected field is the one a full check would name."""
    for name, interval, integral in _SCALAR_RULES:
        if name not in values:
            continue
        value = values[name]
        kind = type(value)
        # Exact float and int first: a numbers ABC check costs a microsecond.
        # bool is a numbers.Integral, but True is no quantity and no count.
        if kind is not float and kind is not int and (kind is bool or not isinstance(value, numbers.Real)):
            raise ConfigError(f"{name} must be a real number, got {value!r}")
        low, high, closed_low, closed_high = interval
        # Both comparisons fail on nan, and inf lies above every high.
        if not (
            (low <= value if closed_low else low < value) and (value <= high if closed_high else value < high)
        ):
            raise ConfigError(f"{name} must be finite and {interval}, got {value!r}")
        if integral and kind is not int and not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    for name, check in _TUPLE_RULES:
        if name in values:
            check(name, values[name])


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


def build_config(file_path: Optional[str] = None) -> SimConfig:
    """Resolve a config: the compiled defaults, overridden by the config file if one is given.

    The file holds flat ``key = value`` lines; blank lines and lines starting
    with ``#`` are ignored. An unknown key (so that a typo does not fall back
    to a default), a value its field's type cannot read, a value
    ``SimConfig`` rejects and ``DERIVED_FIELD``, which the runner sets
    itself, are each named by ``path:line:``.
    """
    if not file_path:
        return SimConfig()
    overrides: dict = {}
    lines: dict = {}  # the line that set each key
    with open(file_path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{file_path}: line {lineno}: byte {exc.start}: not UTF-8 ({exc.reason})") from exc
    # Universal newlines, as reading the file in text mode splits it.
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{file_path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _HINTS:
            raise ConfigError(f"{file_path}:{lineno}: unknown config key {key!r}")
        try:
            overrides[key] = _coerce(_HINTS[key], value)
        except ValueError as exc:
            raise ConfigError(f"{file_path}:{lineno}: bad value for {key!r}: {exc}") from exc
        lines[key] = lineno
    if DERIVED_FIELD in lines:
        problem = f"{DERIVED_FIELD} is set by the runner, not by a config file"
        raise ConfigError(f"{file_path}:{lines[DERIVED_FIELD]}: {problem}")
    try:
        return SimConfig(**overrides)
    except ConfigError:
        # Each field's rule reads that field alone, so the line at fault is
        # the first whose value is rejected on its own.
        for key, lineno in sorted(lines.items(), key=lambda item: item[1]):
            try:
                _check_fields({key: overrides[key]})
            except ConfigError as exc:
                raise ConfigError(f"{file_path}:{lineno}: {exc}") from None
        raise
