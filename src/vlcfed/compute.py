"""Per-user cost model: CPU time/energy for local training plus link times.

One round costs a user
    t_down + t_up + t_cmp (+ backhaul delay for VLC-served downlinks)
in time and e_cmp + e_com in energy, where e_com = t_up * P_n.

``transmission_time`` and ``round_costs`` check their arguments, then call a
private kernel (``_transmission_time``, ``_round_costs``) that holds the
formula and checks nothing. The link table's feasibility pass calls
``_round_costs`` on rows whose rates it already knows to be positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SimConfig
from .topology import UserNode


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
        return self.t_down + self.t_up + self.t_cmp + self.backhaul_delay

    @property
    def total_energy(self) -> float:
        return self.e_cmp + self.e_com


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
    cycles_total = user.cycles_per_sample * user.shard_size
    return (
        nu
        * user.capacitance_coeff
        * cycles_total
        / 2.0
        * user.cpu_freq_hz**2
        * math.log(1.0 / local_accuracy)
    )


def computation_time(user: UserNode, local_accuracy: float, nu: float) -> float:
    """CPU time for one round of local training (seconds)."""
    _check_accuracy(local_accuracy, nu)
    return (
        nu
        * user.cycles_per_sample
        * user.shard_size
        * math.log(1.0 / local_accuracy)
        / user.cpu_freq_hz
    )


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
    return round_costs(
        computation_time(user, config.local_accuracy, config.nu),
        computation_energy(user, config.local_accuracy, config.nu),
        user.tx_power_w,
        uplink_rate_bps,
        downlink_rate_bps,
        config.backhaul_delay_s if include_backhaul else 0.0,
        config,
    )


def round_costs(
    t_cmp,
    e_cmp,
    tx_power_w,
    uplink_rate_bps,
    downlink_rate_bps,
    backhaul_delay_s,
    config: SimConfig,
) -> CostBreakdown:
    """``cost_breakdown`` from the bandwidth-free terms: the computation time
    and energy, the transmit power and the backhaul delay (0 unless the
    downlink rides VLC).

    Every argument but `config` may be an array over users; the fields of the
    result then are arrays too. Raises InfeasibleLinkError when a link has no
    rate.
    """
    _check_link(config.payload_bits, uplink_rate_bps)
    _check_link(config.payload_bits, downlink_rate_bps)
    return _round_costs(t_cmp, e_cmp, tx_power_w, uplink_rate_bps, downlink_rate_bps, backhaul_delay_s, config)


def _round_costs(t_cmp, e_cmp, tx_power_w, uplink_rate_bps, downlink_rate_bps, backhaul_delay_s, config):
    """``round_costs`` for rates known to be positive, without the checks."""
    t_up = _transmission_time(config.payload_bits, uplink_rate_bps)
    t_down = _transmission_time(config.payload_bits, downlink_rate_bps)
    return CostBreakdown(
        t_cmp=t_cmp,
        t_up=t_up,
        t_down=t_down,
        e_cmp=e_cmp,
        e_com=t_up * tx_power_w,
        backhaul_delay=backhaul_delay_s,
    )
