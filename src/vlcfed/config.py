"""Simulation configuration: physical constants, layout defaults, and run control.

Defaults reproduce the reference scenario (circular 50 m cell, 50 users, 80%
indoor, hybrid VLC downlink + shared RF band). Every physical quantity is
config-exposed so sweeps can override it. A `SimConfig` is valid by
construction: the constructor and `dataclasses.replace` run `validate()` on
every field, `replace` runs the same rules on the fields it changes, and
`build_config` takes each value from `read_field`, which checks it. That
suffices because each rule reads one field, so the fields a copy keeps passed
theirs already.

Each field's annotation carries its one rule. A scalar field has an admissible
interval, which also words its error; one scalar rule rejects, by field name,
a value that is not a real number (``bool`` included), lies outside its
interval (nan and inf included) or, where annotated ``int``, is not an
integer. A tuple field's entries pass the ``Positive`` rule, and its shape
sets its length and whether it ascends. The scalars are checked before the
tuples, so a check of some fields names the same first error as a check of all.
"""

from __future__ import annotations

import codecs
import io
import math
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


class _Shape(typing.NamedTuple):
    """A tuple field's length (0: any length but 0) and whether its entries must ascend."""

    length: int = 0
    ascending: bool = False


# Each field's annotation carries its one rule: an _Interval for a scalar
# (which must also be an integer where annotated int), a _Shape for a tuple.
_POSITIVE = _Interval(0.0)
Positive = Annotated[float, _POSITIVE]
NonNegative = Annotated[float, _Interval(0.0, closed_low=True)]
Count = Annotated[int, _Interval(1, closed_low=True)]
Range = Annotated[tuple[float, float], _Shape(2, ascending=True)]


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
    ap_ring_radii_m: Annotated[Optional[tuple[float, ...]], _Shape()] = None
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
    initial_bandwidth: Annotated[Optional[tuple[float, float, float]], _Shape(3)] = None

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
    """(name, interval, annotated int) of each scalar field, (name, shape,
    optional) of each tuple field, and each field's plain type."""
    scalars, tuples, hints = [], [], {}
    for name, hint in typing.get_type_hints(SimConfig, include_extras=True).items():
        base, rule = typing.get_args(hint)  # exactly one rule per field
        hints[name] = base
        if isinstance(rule, _Interval):
            scalars.append((name, rule, base is int))  # the int that read_field reads
        else:
            tuples.append((name, rule, type(None) in typing.get_args(base)))
    return tuple(scalars), tuple(tuples), hints


_SCALAR_RULES, _TUPLE_RULES, _HINTS = _split_rules()
_FIELD_NAMES = frozenset(_HINTS)
DERIVED_FIELD = "samples_per_user"  # the runner sets it from the dataset's shard size


def _check_scalar(name: str, value, interval: _Interval, integral: bool) -> None:
    """The scalar rule: a real number in ``interval``, and an integer if ``integral``."""
    kind = type(value)
    # Exact float and int first: a numbers ABC check costs a microsecond.
    # bool is a numbers.Integral, but True is no quantity and no count.
    if kind is not float and kind is not int and (kind is bool or not isinstance(value, numbers.Real)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    low, high, closed_low, closed_high = interval
    # Compared as a Python float (an int exactly): against a numpy float32
    # the high of _MAX_FLOAT would be cast to float32, which makes it inf.
    try:
        number = value if kind is float or kind is int else float(value)
    except OverflowError:  # a Fraction beyond every float
        number = math.nan
    # Both comparisons fail on nan, and inf lies above every high.
    if not ((low <= number if closed_low else low < number) and (number <= high if closed_high else number < high)):
        raise ConfigError(f"{name} must be finite and {interval}, got {value!r}")
    if integral and kind is not int and not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_fields(values: dict) -> None:
    """Run the rule of each field that ``values`` holds on its value: the
    scalar fields in declaration order, then the tuple fields, so the first
    rejected field is the one a full check would name. A tuple field holds
    its shape's number of ``Positive`` entries, ascending if its shape says
    so, or None where it is optional."""
    for name, interval, integral in _SCALAR_RULES:
        if name in values:
            _check_scalar(name, values[name], interval, integral)
    for name, shape, optional in _TUPLE_RULES:
        if name not in values or values[name] is None and optional:
            continue
        value, (length, ascending) = values[name], shape
        if not isinstance(value, (tuple, list)) or not value or length and len(value) != length:
            raise ConfigError(f"{name} must hold {length or 'one or more'} values, got {value!r}")
        for entry in value:
            _check_scalar(name, entry, _POSITIVE, False)
        if ascending and any(low > high for low, high in zip(value, value[1:])):
            raise ConfigError(f"{name} must ascend, got {value!r}")


def read_field(name: str, text: str):
    """The value of field ``name`` that ``text`` spells, checked by the field's rule.

    ``text`` is a number (an int field also takes ``1e1``), a tuple's numbers
    separated by commas or spaces, or, for an optional field, ``none`` or
    nothing. An unknown name, a text the type cannot read and a rejected value
    each raise ConfigError naming the field.
    """
    if name not in _HINTS:
        raise ConfigError(f"unknown config key {name!r}")
    hint, text = _HINTS[name], text.strip()
    args = typing.get_args(hint)
    if type(None) in args:  # Optional[X]
        if text.lower() in ("none", ""):
            return None
        (hint,) = (a for a in args if a is not type(None))
    try:
        if typing.get_origin(hint) is tuple:
            value = tuple(float(p) for p in text.replace(",", " ").split())
        elif hint is int:
            value = float(text)  # accepts "1e1"
            if not value.is_integer():
                raise ValueError(f"expected an integer, got {text!r}")
            value = int(value)
        else:
            value = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name!r}: {exc}") from None
    _check_fields({name: value})
    return value


def read_text(path: str, error: type[ValueError]) -> tuple[bytes, str]:
    """The bytes of the file at ``path`` and their text as UTF-8, without a
    leading byte order mark. Bytes that are not UTF-8 raise ``error`` naming
    the path, the line and the byte's offset in the file, the mark counted.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    start = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    try:
        return raw, raw[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        at = start + exc.start
        lineno = raw.count(b"\n", 0, at) + 1
        raise error(f"{path}: line {lineno}: byte {at}: not UTF-8 ({exc.reason})") from exc


def build_config(file_path: Optional[str] = None) -> SimConfig:
    """Resolve a config: the compiled defaults, overridden by the config file if one is given.

    The file holds flat ``key = value`` lines; blank lines and lines starting
    with ``#`` are ignored. Each value is read and checked by ``read_field``
    as its line is read. A line that ``read_field`` rejects (an unknown key
    included, so that a typo does not fall back to a default), a key set
    twice and ``DERIVED_FIELD``, which the runner sets itself, are each
    named by ``path:line:``.
    """
    if not file_path:
        return SimConfig()
    overrides: dict = {}
    _, text = read_text(file_path, ConfigError)
    # Universal newlines, as reading the file in text mode splits it.
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        try:
            if not sep:
                raise ConfigError(f"expected 'key = value', got {line!r}")
            if key in overrides:
                raise ConfigError(f"{key} is set twice")
            if key == DERIVED_FIELD:
                raise ConfigError(f"{DERIVED_FIELD} is set by the runner, not by a config file")
            overrides[key] = read_field(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{file_path}:{lineno}: {exc}") from None
    config = SimConfig()
    config.__dict__.update(overrides)  # as replace sets them; each was checked as its line was read
    return config
