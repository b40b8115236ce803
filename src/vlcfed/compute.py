"""Per-user cost model: CPU time/energy for local training plus link times.

One round costs a user
    t_down + t_up + t_cmp (+ backhaul delay for VLC-served downlinks)
in time and e_cmp + e_com in energy, where e_com = t_up * P_n.

``computation_time``, ``computation_energy``, ``transmission_time`` and
``cost_breakdown`` check their arguments, then call a private kernel
(``_computation_time``, ``_computation_energy``, ``_transmission_time``,
``_link_costs``) that holds the formula and checks nothing. The computation
kernels take ln(1/accuracy), so a caller evaluating many users takes the
logarithm once: the link table's build does, on a config that already
guarantees the accuracy and ``nu``, and on the ``UserColumns`` of a
topology, for arrays over its users. Its feasibility pass calls
``_round_costs`` on every user, where a zero rate costs inf seconds and
joules; it returns only the round time and energy, which ``_round_time`` and
``_total_energy`` sum for the pass and for ``CostBreakdown`` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SimConfig
from .topology import UserNode


# The least float whose square overflows: (2**512)**2 = 2**1024.
_SQUARE_OVERFLOWS = 2.0**512


class InfeasibleLinkError(RuntimeError):
    """A required link carries zero rate, so no finite transmission time exists."""


@dataclass(frozen=True)
class CostBreakdown:
    t_cmp: float
    t_up: float
    t_down: float
    e_cmp: float
    e_com: float
    backhaul_delay: float  # 0 unless the downlink rides VLC behind the gateway

    @property
    def round_time(self) -> float:
        return _round_time(self.t_down, self.t_up, self.t_cmp, self.backhaul_delay)

    @property
    def total_energy(self) -> float:
        return _total_energy(self.e_cmp, self.e_com)


def _round_time(t_down, t_up, t_cmp, backhaul_delay):
    """A round's time, summed in this order for one user and for arrays alike."""
    return t_down + t_up + t_cmp + backhaul_delay


def _total_energy(e_cmp, e_com):
    """A round's energy."""
    return e_cmp + e_com


def _check_accuracy(local_accuracy: float, nu: float) -> None:
    if not 0.0 < local_accuracy < 1.0:
        raise ValueError(f"local_accuracy must lie in (0, 1), got {local_accuracy!r}")
    if nu <= 0:
        raise ValueError(f"nu must be > 0, got {nu!r}")


def computation_energy(user: UserNode, local_accuracy: float, nu: float) -> float:
    """CPU energy for one round of local training (joules).

    nu * (coeff/2) * cycles * samples * f^2 * ln(1/accuracy).
    """
    _check_accuracy(local_accuracy, nu)
    return _computation_energy(user, math.log(1.0 / local_accuracy), nu)


def _computation_energy(user, log_inv_accuracy: float, nu: float):
    """``computation_energy`` given ln(1/accuracy), without the checks.

    ``user`` may be a ``UserColumns``, for an array over its users. Each
    frequency is squared by CPython's float power: numpy squares an array
    by multiplying, which rounds some values differently.
    """
    cycles_total = user.cycles_per_sample * user.shard_size
    freq = user.cpu_freq_hz
    try:
        squared = np.array([f**2 for f in freq.tolist()]) if isinstance(freq, np.ndarray) else freq**2
        return nu * user.capacitance_coeff * cycles_total / 2.0 * squared * log_inv_accuracy
    except OverflowError:  # a UserNode allows any finite f; only ** raises, products give inf
        ids, freqs = np.atleast_1d(user.id).tolist(), np.atleast_1d(freq).tolist()
        i = next((i for i, f in enumerate(freqs) if abs(f) >= _SQUARE_OVERFLOWS), 0)
        raise ValueError(f"user {ids[i]}: cpu_freq_hz={freqs[i]!r} overflows a float when squared") from None


def computation_time(user: UserNode, local_accuracy: float, nu: float) -> float:
    """CPU time for one round of local training (seconds)."""
    _check_accuracy(local_accuracy, nu)
    return _computation_time(user, math.log(1.0 / local_accuracy), nu)


def _computation_time(user, log_inv_accuracy: float, nu: float):
    """``computation_time`` given ln(1/accuracy), without the checks; an
    array over the users of a ``UserColumns``."""
    return nu * user.cycles_per_sample * user.shard_size * log_inv_accuracy / user.cpu_freq_hz


def _check_link(payload_bits: float, rate_bps) -> None:
    if payload_bits < 0:
        raise ValueError(f"payload must be >= 0, got {payload_bits!r}")
    if np.less_equal(rate_bps, 0).any():
        raise InfeasibleLinkError(f"link rate {rate_bps!r} b/s cannot carry {payload_bits!r} bits")


def transmission_time(payload_bits: float, rate_bps):
    """Minimal time to move a payload over a link at the given rate(s)."""
    _check_link(payload_bits, rate_bps)
    return _transmission_time(payload_bits, rate_bps)


def _transmission_time(payload_bits: float, rate_bps):
    return payload_bits / rate_bps


def cost_breakdown(
    user: UserNode,
    uplink_rate_bps: float,
    downlink_rate_bps: float,
    config: SimConfig,
    include_backhaul: bool,
) -> CostBreakdown:
    """Assemble the full per-round cost for one user.

    `include_backhaul` marks a VLC-served downlink (adds the BS-to-gateway
    fiber delay). Raises InfeasibleLinkError when a needed link has no rate.
    """
    _check_link(config.payload_bits, uplink_rate_bps)
    _check_link(config.payload_bits, downlink_rate_bps)
    t_cmp = computation_time(user, config.local_accuracy, config.nu)
    e_cmp = computation_energy(user, config.local_accuracy, config.nu)
    t_up, t_down, e_com = _link_costs(user.tx_power_w, uplink_rate_bps, downlink_rate_bps, config)
    return CostBreakdown(
        t_cmp=t_cmp,
        t_up=t_up,
        t_down=t_down,
        e_cmp=e_cmp,
        e_com=e_com,
        backhaul_delay=config.backhaul_delay_s if include_backhaul else 0.0,
    )


def _link_costs(tx_power_w, uplink_rate_bps, downlink_rate_bps, config):
    """The uplink and downlink times and the uplink energy, without checks;
    a zero rate gives inf time and energy."""
    t_up = _transmission_time(config.payload_bits, uplink_rate_bps)
    t_down = _transmission_time(config.payload_bits, downlink_rate_bps)
    return t_up, t_down, t_up * tx_power_w


def _round_costs(t_cmp, e_cmp, tx_power_w, uplink_rate_bps, downlink_rate_bps, backhaul_delay_s, config):
    """``cost_breakdown``'s round time and total energy from the
    bandwidth-free terms: the computation time and energy, the transmit
    power and the backhaul delay (0 unless the downlink rides VLC), without
    checks and without building a ``CostBreakdown``.

    Every argument but `config` may be an array over users; the two results
    then are arrays too.
    """
    t_up, t_down, e_com = _link_costs(tx_power_w, uplink_rate_bps, downlink_rate_bps, config)
    return _round_time(t_down, t_up, t_cmp, backhaul_delay_s), _total_energy(e_cmp, e_com)
