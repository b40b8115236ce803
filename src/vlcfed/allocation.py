"""Joint user selection and per-block bandwidth allocation.

The round-time and energy constraints couple through the bandwidth of each
resource block: selecting more users shrinks every block, which slows links,
which can make marginal users infeasible. The two subproblems have clean
solutions when the other side is fixed:

* ``get_s`` (selection at fixed bandwidth): the time/energy feasibility test
  is separable per user, so the sample-size objective is maximized by taking
  every feasible user.
* ``get_b`` (bandwidth at fixed selection): the rate of every selected user
  grows with its block width, so both band budgets are saturated exactly by
  ``block_widths``: uplink/downlink blocks get B_rf / (|S| + |S2|) each
  (uplink for everyone, RF downlink for outdoor users only) and VLC blocks
  get B_vlc / |S1|.

Feasibility runs on a link table (``_LinkTable``), built once per ``usba``,
``oracle_enumerate``, ``get_s`` or ``is_feasible`` call. It holds what does
not depend on bandwidth: each user's RF path gain, the per-AP optical signal
powers of VLC-served users, the computation time and energy, the transmit
power, the energy budget and the backhaul delay. The build checks the RF
gains once. One pass over the table at given block widths then calls the
unchecked rate and cost kernels, whose formulas live in ``channel`` and
``compute``: it computes every user's up/down rates and round cost as arrays
and yields one feasibility mask.

``usba`` alternates the two from the full-selection widths until the pair is a
fixed point, which it knows without a pass once the widths repeat. The
alternation can oscillate between an optimistic and a pessimistic state, so
each step also tests whether the state it steps from supports itself; a
revisit, an empty state or the iteration limit ends the alternation with the
best self-supporting state flagged non-converged.
``oracle_enumerate`` finds the exact optimum on small instances as an
independent check. Bandwidth depends only on the selection *counts*, and the
count pairs that can be filled at their own widths are closed downward, so it
walks their staircase boundary with at most N + 1 passes.

In ``rf_only`` mode VLC is disabled: indoor users take their downlink over
RF blocks too (so blocks shrink to B_rf / (2 |S|)), keep their penetration
loss, and drop the gateway backhaul delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# rf_rate, vlc_sinr and cost_breakdown are the checked, per-user forms of a
# pass; they stay importable from this module, where perfbench/spans.py
# probes them.
from .channel import (  # noqa: F401
    _RF_RATE_ARGS_ERROR,
    RfParams,
    VlcParams,
    _rf_rate,
    _vlc_rate,
    best_ap_sinr,
    rf_channel_gain,
    rf_rate,
    vlc_signal_powers,
    vlc_sinr,
)
from .compute import _round_costs, computation_energy, computation_time, cost_breakdown  # noqa: F401
from .config import SimConfig
from .topology import Topology, UserNode

MODES = ("hybrid", "rf_only")


class EmptySelectionError(ValueError):
    """Bandwidth allocation is undefined for an empty selection."""


@dataclass(frozen=True)
class BandwidthAllocation:
    b_up_hz: float
    b_down_hz: float
    b_vlc_hz: float

    def __post_init__(self):
        if not (0.0 < self.b_up_hz < math.inf and 0.0 < self.b_down_hz < math.inf and 0.0 < self.b_vlc_hz < math.inf):
            raise ValueError(f"all block widths must be finite and > 0, got {self}")


@dataclass(frozen=True)
class Selection:
    indoor_ids: frozenset[int]
    outdoor_ids: frozenset[int]

    def __post_init__(self):
        if self.indoor_ids & self.outdoor_ids:
            raise ValueError("indoor and outdoor selections must be disjoint")

    @property
    def all_ids(self) -> frozenset[int]:
        return self.indoor_ids | self.outdoor_ids

    @property
    def size(self) -> int:
        return len(self.indoor_ids) + len(self.outdoor_ids)

    def __bool__(self) -> bool:
        return self.size > 0


EMPTY_SELECTION = Selection(frozenset(), frozenset())


@dataclass(frozen=True)
class UsbaResult:
    selection: Selection
    bandwidth: BandwidthAllocation
    iterations: int
    converged: bool
    objective: float  # total training samples across selected users


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


class _LinkTable:
    """The bandwidth-free terms of some users, for feasibility passes.

    Uplink is always RF. Downlink is VLC for indoor users in hybrid mode and
    RF otherwise. A VLC downlink out of every AP's field of view has rate 0,
    which makes the user infeasible. Each term comes from the same scalar
    function, in the same order, as a per-user evaluation would use, and a
    pass only adds, multiplies, divides, compares and takes ``math.log2``
    element by element, so the mask holds exactly the per-user answers.

    The build raises ``rf_rate``'s ValueError on an RF gain that underflows to
    0 far enough from the BS. The user terms are checked by ``UserNode``, and
    the widths, noise PSDs and interference that a pass also uses by
    ``BandwidthAllocation`` and ``SimConfig``; only rows with positive rates
    reach the cost kernel, so a pass checks nothing.
    """

    def __init__(self, users, topology: Topology, config: SimConfig, mode: str):
        _check_mode(mode)
        self.config = config
        self.rf = rf = RfParams.from_config(config)
        vlc = VlcParams.from_config(config)
        self.vlc_noise_psd = vlc.noise_psd
        self.ids = np.array([u.id for u in users], dtype=int)
        self.indoor = np.array([u.indoor for u in users], dtype=bool)
        self.via_vlc = self.indoor & (mode == "hybrid")
        bx, by = topology.bs_position
        self.gain = np.array(
            [rf_channel_gain(math.hypot(u.position[0] - bx, u.position[1] - by), u.indoor, rf) for u in users]
        )
        self.tx_power = np.array([u.tx_power_w for u in users])
        self.budget = np.array([u.energy_budget_j for u in users])
        self.t_cmp = np.array([computation_time(u, config.local_accuracy, config.nu) for u in users])
        self.e_cmp = np.array([computation_energy(u, config.local_accuracy, config.nu) for u in users])
        # VLC users also pay the gateway backhaul.
        self.backhaul = np.where(self.via_vlc, config.backhaul_delay_s, 0.0)
        self.signals = vlc_signal_powers([u for u, v in zip(users, self.via_vlc) if v], topology, vlc)
        # Rows whose downlink is VLC, and rows whose downlink is RF.
        self.vlc_rows = np.flatnonzero(self.via_vlc)
        self.rf_rows = np.flatnonzero(~self.via_vlc)
        if (self.gain <= 0.0).any():
            raise ValueError(_RF_RATE_ARGS_ERROR)
        # Received RF powers P h, as rf_rate forms them.
        self.up_power = self.tx_power * self.gain
        self.down_power = rf.bs_power_w * self.gain[self.rf_rows]

    def feasible(self, bw: BandwidthAllocation) -> np.ndarray:
        """Boolean mask: which users finish a round within both budgets at ``bw``."""
        rf = self.rf
        up = _rf_rate(self.up_power, rf.uplink_interference_w, bw.b_up_hz, rf.noise_psd)
        down = np.empty_like(up)
        if self.vlc_rows.size:
            down[self.vlc_rows] = _vlc_rate(best_ap_sinr(self.signals, bw.b_vlc_hz, self.vlc_noise_psd), bw.b_vlc_hz)
        if self.rf_rows.size:
            down[self.rf_rows] = _rf_rate(self.down_power, rf.downlink_interference_w, bw.b_down_hz, rf.noise_psd)
        # A link without rate (a VLC user out of every AP's view) fails outright.
        linked = (up > 0.0) & (down > 0.0)
        rows = slice(None) if linked.all() else np.flatnonzero(linked)
        cost = _round_costs(
            self.t_cmp[rows], self.e_cmp[rows], self.tx_power[rows], up[rows], down[rows], self.backhaul[rows], self.config
        )
        mask = np.zeros(up.shape, dtype=bool)
        mask[rows] = (cost.round_time <= self.config.t_round_s) & (cost.total_energy <= self.budget[rows])
        return mask

    def select(self, bw: BandwidthAllocation) -> Selection:
        """Every feasible user at ``bw``."""
        mask = self.feasible(bw)
        return Selection(
            frozenset(self.ids[mask & self.indoor].tolist()),
            frozenset(self.ids[mask & ~self.indoor].tolist()),
        )


def is_feasible(
    user: UserNode,
    bw: BandwidthAllocation,
    topology: Topology,
    config: SimConfig,
    mode: str = "hybrid",
) -> bool:
    """Can this user finish a round within the time budget and energy cap?"""
    return bool(_LinkTable((user,), topology, config, mode).feasible(bw)[0])


def get_s(
    bw: BandwidthAllocation,
    topology: Topology,
    config: SimConfig,
    mode: str = "hybrid",
) -> Selection:
    """Select every user that is feasible at the given block widths."""
    return _LinkTable(topology.users, topology, config, mode).select(bw)


def block_widths(n_in: int, n_out: int, config: SimConfig, mode: str = "hybrid") -> BandwidthAllocation:
    """Block widths that spend both budgets on n_in indoor and n_out outdoor users.

    Every user takes an RF uplink block; outdoor users, and every user in
    ``rf_only`` mode, also take an RF downlink block. In hybrid mode the
    indoor users split B_vlc; with no VLC block issued the width is unused
    and reported as B_vlc. Callers pass a checked mode.
    """
    n = n_in + n_out
    rf_blocks = 2 * n if mode == "rf_only" else n + n_out
    vlc_blocks = n_in if mode == "hybrid" and n_in > 0 else 1
    b_rf = config.rf_total_bandwidth_hz / rf_blocks
    return BandwidthAllocation(b_rf, b_rf, config.vlc_total_bandwidth_hz / vlc_blocks)


def get_b(selection: Selection, config: SimConfig, mode: str = "hybrid") -> BandwidthAllocation:
    """Widest per-block bandwidths for a selection; both budgets saturate."""
    _check_mode(mode)
    if not selection:
        raise EmptySelectionError("cannot allocate bandwidth to an empty selection")
    return block_widths(len(selection.indoor_ids), len(selection.outdoor_ids), config, mode)


def selection_objective(selection: Selection, topology: Topology) -> float:
    """Total training samples contributed by the selected users."""
    by_id = {u.id: u for u in topology.users}
    return float(sum(by_id[i].shard_size for i in selection.all_ids))


def default_initial_bandwidth(topology: Topology, config: SimConfig) -> BandwidthAllocation:
    """Start widths: the hybrid widths of selecting every user, in both modes.

    ``rf_only`` thus starts wider than its own full-selection B_rf / 2N
    whenever some user is indoor. An empty topology gets the solo widths.
    """
    if not topology.users:
        return block_widths(1, 0, config)
    return block_widths(topology.n_indoor, topology.n_outdoor, config)


def usba(topology: Topology, config: SimConfig, mode: str = "hybrid") -> UsbaResult:
    """Alternate selection and bandwidth allocation to a fixed point.

    Starts from the configured (or default full-selection) block widths, then
    repeats B_n = get_b(S_{n-1}); S_n = get_s(B_n) until the widths repeat:
    each selection is every user feasible at its widths, so equal widths give
    the same selection again without a pass, and the pair is a fixed point.
    If the initial selection is empty the iteration restarts once from the
    widest solo allocation; if that is still empty (or there are no users),
    the empty result is itself the answer.

    The alternation can oscillate, and an optimistic state's members need not
    all finish a round at its own widths. So each step from a state S also
    tests whether S supports itself: every member is still feasible at
    get_b(S). A revisit, an empty state or the iteration limit then ends the
    run with the best self-supporting state (the first on ties) at its own
    widths, flagged non-converged, or empty if no state supports itself. A
    fixed point first reached by the step after the last iteration still ends
    non-converged.
    """
    if config.initial_bandwidth is not None:
        bw = BandwidthAllocation(*config.initial_bandwidth)
    else:
        bw = default_initial_bandwidth(topology, config)

    links = _LinkTable(topology.users, topology, config, mode)
    selection = links.select(bw)
    if not selection:
        widest = block_widths(1, 0, config)  # widest solo widths, B_rf and B_vlc
        selection = links.select(widest)
        if not selection:
            # Not even a solo allocation admits anyone: empty is a fixed point.
            return UsbaResult(EMPTY_SELECTION, bw, 0, True, 0.0)
        bw = widest

    best: tuple[Selection, BandwidthAllocation] | None = None
    best_obj = -1.0
    predecessors: set[Selection] = set()
    iterations = 0
    # selection == links.select(bw) holds here and after every step.
    while True:
        new_bw = get_b(selection, config, mode)
        new_selection = selection if new_bw == bw else links.select(new_bw)
        if selection.indoor_ids <= new_selection.indoor_ids and selection.outdoor_ids <= new_selection.outdoor_ids:
            obj = selection_objective(selection, topology)  # a self-supporting state
            if obj > best_obj:
                best, best_obj = (selection, new_bw), obj
        if iterations == config.max_iterations:
            break  # that step tested the last state
        iterations += 1
        if new_bw == bw:
            return UsbaResult(selection, bw, iterations, True, selection_objective(selection, topology))
        selection, bw, previous = new_selection, new_bw, selection
        if not selection or selection in predecessors:
            break  # empty states and revisits both mean the alternation cycles
        # The previous selection found again at other widths is no revisit:
        # the next step confirms it.
        predecessors.add(previous)

    selection, bw = best or (EMPTY_SELECTION, bw)
    return UsbaResult(selection, bw, iterations, False, selection_objective(selection, topology))


ORACLE_MAX_USERS = 14


def oracle_enumerate(topology: Topology, config: SimConfig, mode: str = "hybrid") -> UsbaResult:
    """Exact optimum by a walk over selection counts, for small instances.

    Block widths depend on the selection only through the indoor/outdoor
    counts (k1, k2). A pair passes when at least k1 indoor and k2 outdoor
    users are feasible at ``block_widths(k1, k2)``; its candidate takes the
    largest feasible shards of each kind. Widths shrink as either count grows
    and feasibility is monotone in width, so the passing pairs are closed
    downward: their boundary is a staircase that never rises as k1 grows.
    The walk takes k1 upward from 0 and lowers k2 from n_out until the pair
    passes, and the next row starts from that k2: at most N + 1 feasibility
    passes. With equal shards, which ``generate_topology`` always gives, the
    boundary pair is the best in its row. Otherwise the pairs below it are
    scored too. Ties go to the first pair in k1-then-k2 order.
    """
    if topology.n_users > ORACLE_MAX_USERS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_USERS} users, got {topology.n_users}"
        )
    indoor = topology.indoor_users()
    outdoor = topology.outdoor_users()
    # Largest shards first; id breaks ties deterministically.
    indoor.sort(key=lambda u: (-u.shard_size, u.id))
    outdoor.sort(key=lambda u: (-u.shard_size, u.id))
    links = _LinkTable(indoor + outdoor, topology, config, mode)

    def candidate(k1: int, k2: int):
        """The pair's widths and chosen users, or None if the pair fails."""
        bw = block_widths(k1, k2, config, mode)
        mask = links.feasible(bw)
        chosen_in = [u for u, ok in zip(indoor, mask[: len(indoor)]) if ok][:k1]
        chosen_out = [u for u, ok in zip(outdoor, mask[len(indoor) :]) if ok][:k2]
        if len(chosen_in) < k1 or len(chosen_out) < k2:
            return None
        return bw, chosen_in, chosen_out

    equal_shards = len({u.shard_size for u in topology.users}) <= 1
    best_obj = 0.0
    best_sel = EMPTY_SELECTION
    best_bw = None
    k2 = len(outdoor)
    for k1 in range(len(indoor) + 1):
        boundary = None
        while k2 >= 0 and (k1 or k2):  # (0, 0) passes and selects nobody
            boundary = candidate(k1, k2)
            if boundary:
                break
            k2 -= 1
        if k2 < 0:
            break  # not even (k1, 0) passes, so no larger k1 does either
        row = [] if equal_shards else [candidate(k1, j) for j in range(0 if k1 else 1, k2)]
        if boundary:
            row.append(boundary)
        for bw, chosen_in, chosen_out in row:
            obj = float(sum(u.shard_size for u in chosen_in + chosen_out))
            if obj > best_obj:
                best_obj = obj
                best_sel = Selection(
                    frozenset(u.id for u in chosen_in),
                    frozenset(u.id for u in chosen_out),
                )
                best_bw = bw
    if best_bw is None:
        best_bw = default_initial_bandwidth(topology, config)
    return UsbaResult(best_sel, best_bw, 0, True, best_obj)
