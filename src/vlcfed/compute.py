"""Per-user cost model: CPU time/energy for local training plus link times.

One round costs a user
    t_down + t_up + t_cmp (+ backhaul delay for VLC-served downlinks)
in time and e_cmp + e_com in energy, where e_com = t_up * P_n.

The computation terms take ln(1/accuracy), so a caller evaluating many
users takes the logarithm once: the link table's build does, on a config
that already guarantees the accuracy and ``nu``, and on the
``UserColumns`` of a topology, for arrays over its users. Its feasibility
pass calls ``_round_costs`` on every user, where a zero rate costs inf
seconds and joules. No function here checks its arguments.
"""

from __future__ import annotations

import numpy as np

# The least float whose square overflows: (2**512)**2 = 2**1024.
_SQUARE_OVERFLOWS = 2.0**512


def _computation_energy(users, log_inv_accuracy: float, nu: float):
    """CPU energy for one round of local training (joules), given
    ln(1/accuracy); an array over the users of a ``UserColumns``.

    nu * (coeff/2) * cycles * samples * f^2 * ln(1/accuracy).

    Each frequency is squared by CPython's float power: numpy squares an
    array by multiplying, which rounds some values differently.
    """
    cycles_total = users.cycles_per_sample * users.shard_size
    freqs = users.cpu_freq_hz.tolist()
    try:
        squared = np.array([f**2 for f in freqs])
    except OverflowError:  # a UserNode allows any finite f; only ** raises, products give inf
        i = next((i for i, f in enumerate(freqs) if abs(f) >= _SQUARE_OVERFLOWS), 0)
        raise ValueError(f"user {users.id[i]}: cpu_freq_hz={freqs[i]!r} overflows a float when squared") from None
    return nu * users.capacitance_coeff * cycles_total / 2.0 * squared * log_inv_accuracy


def _computation_time(users, log_inv_accuracy: float, nu: float):
    """CPU time for one round of local training (seconds), given
    ln(1/accuracy); an array over the users of a ``UserColumns``."""
    return nu * users.cycles_per_sample * users.shard_size * log_inv_accuracy / users.cpu_freq_hz


def _round_costs(t_cmp, e_cmp, tx_power_w, uplink_rate_bps, downlink_rate_bps, backhaul_delay_s, config):
    """A round's time and total energy from the bandwidth-free terms: the
    computation time and energy, the transmit power and the backhaul delay
    (0 unless the downlink rides VLC).

    Every argument but `config` may be an array over users; the two results
    then are arrays too.
    """
    t_up = config.payload_bits / uplink_rate_bps
    t_down = config.payload_bits / downlink_rate_bps
    return t_down + t_up + t_cmp + backhaul_delay_s, e_cmp + t_up * tx_power_w
