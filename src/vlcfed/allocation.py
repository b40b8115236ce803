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

``usba`` alternates the two from the full-selection widths until the pair is a
fixed point. The alternation can oscillate between an optimistic and a
pessimistic state, so revisited selections are detected and the best visited
state is returned flagged non-converged. ``oracle_enumerate`` exhaustively
scans selection *counts* (bandwidth depends only on counts) as an independent
check on small instances.

In ``rf_only`` mode VLC is disabled: indoor users take their downlink over
RF blocks too (so blocks shrink to B_rf / (2 |S|)), keep their penetration
loss, and drop the gateway backhaul delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import RfParams, VlcParams, rf_channel_gain, rf_rate, vlc_rate, vlc_sinr
from .compute import cost_breakdown
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
        if self.b_up_hz <= 0 or self.b_down_hz <= 0 or self.b_vlc_hz <= 0:
            raise ValueError(f"all block widths must be > 0, got {self}")


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


def _feasible(
    user: UserNode,
    bw: BandwidthAllocation,
    topology: Topology,
    config: SimConfig,
    rf: RfParams,
    vlc: VlcParams,
    mode: str,
) -> bool:
    """The one per-user time/energy test behind get_s, is_feasible and the oracle.

    Uplink is always RF. Downlink is VLC for indoor users in hybrid mode and
    RF otherwise. A VLC downlink out of every AP's field of view has rate 0,
    which makes the user infeasible.
    """
    d = math.hypot(
        user.position[0] - topology.bs_position[0],
        user.position[1] - topology.bs_position[1],
    )
    h = rf_channel_gain(d, user.indoor, rf)
    up = rf_rate(user.tx_power_w, h, rf.uplink_interference_w, bw.b_up_hz, rf.noise_psd)
    via_vlc = mode == "hybrid" and user.indoor  # VLC users also pay the gateway backhaul
    if via_vlc:
        sinr = vlc_sinr(user, topology, bw.b_vlc_hz, vlc)
        down = vlc_rate(sinr, bw.b_vlc_hz)
    else:
        down = rf_rate(rf.bs_power_w, h, rf.downlink_interference_w, bw.b_down_hz, rf.noise_psd)
    if up <= 0.0 or down <= 0.0:
        return False
    cost = cost_breakdown(user, up, down, config, via_vlc)
    return cost.round_time <= config.t_round_s and cost.total_energy <= user.energy_budget_j


def is_feasible(
    user: UserNode,
    bw: BandwidthAllocation,
    topology: Topology,
    config: SimConfig,
    mode: str = "hybrid",
) -> bool:
    """Can this user finish a round within the time budget and energy cap?"""
    _check_mode(mode)
    rf = RfParams.from_config(config)
    vlc = VlcParams.from_config(config)
    return _feasible(user, bw, topology, config, rf, vlc, mode)


def get_s(
    bw: BandwidthAllocation,
    topology: Topology,
    config: SimConfig,
    mode: str = "hybrid",
) -> Selection:
    """Select every user that is feasible at the given block widths."""
    _check_mode(mode)
    rf = RfParams.from_config(config)
    vlc = VlcParams.from_config(config)
    indoor, outdoor = set(), set()
    for user in topology.users:
        if _feasible(user, bw, topology, config, rf, vlc, mode):
            (indoor if user.indoor else outdoor).add(user.id)
    return Selection(frozenset(indoor), frozenset(outdoor))


def block_widths(n_in: int, n_out: int, config: SimConfig, mode: str = "hybrid") -> BandwidthAllocation:
    """Block widths that spend both budgets on n_in indoor and n_out outdoor users.

    Every user takes an RF uplink block; outdoor users, and every user in
    ``rf_only`` mode, also take an RF downlink block. In hybrid mode the
    indoor users split B_vlc; with no VLC block issued the width is unused
    and reported as B_vlc.
    """
    _check_mode(mode)
    n = n_in + n_out
    rf_blocks = 2 * n if mode == "rf_only" else n + n_out
    vlc_blocks = n_in if mode == "hybrid" and n_in > 0 else 1
    b_rf = config.rf_total_bandwidth_hz / rf_blocks
    return BandwidthAllocation(b_rf, b_rf, config.vlc_total_bandwidth_hz / vlc_blocks)


def get_b(selection: Selection, config: SimConfig, mode: str = "hybrid") -> BandwidthAllocation:
    """Widest per-block bandwidths for a selection; both budgets saturate."""
    if not selection:
        raise EmptySelectionError("cannot allocate bandwidth to an empty selection")
    return block_widths(len(selection.indoor_ids), len(selection.outdoor_ids), config, mode)


def selection_objective(selection: Selection, topology: Topology) -> float:
    """Total training samples contributed by the selected users."""
    by_id = {u.id: u for u in topology.users}
    return float(sum(by_id[i].shard_size for i in selection.all_ids))


def default_initial_bandwidth(topology: Topology, config: SimConfig, mode: str = "hybrid") -> BandwidthAllocation:
    """Start widths: the hybrid widths of selecting every user, in both modes.

    In hybrid mode this under-approximates, and the iteration then grows it.
    ``rf_only`` starts from the same B_rf / (N + N_out), which is wider than
    its own full-selection B_rf / 2N whenever some user is indoor (333 kHz
    against 200 kHz on the default 50-user topology), so its first selection
    pass can over-approximate. An empty topology gets the solo widths B_rf
    and B_vlc.
    """
    _check_mode(mode)
    if not topology.users:
        return block_widths(1, 0, config)
    return block_widths(topology.n_indoor, topology.n_outdoor, config)


def usba(topology: Topology, config: SimConfig, mode: str = "hybrid") -> UsbaResult:
    """Alternate selection and bandwidth allocation to a fixed point.

    Starts from the configured (or default full-selection) block widths, then
    repeats B_n = get_b(S_{n-1}); S_n = get_s(B_n) until the (selection,
    bandwidth) pair repeats itself exactly. If the initial selection is empty
    the iteration restarts once from the widest solo allocation; if that is
    still empty, the empty result is itself the answer. Oscillations are cut
    off by returning the best-objective visited state flagged non-converged.
    """
    _check_mode(mode)
    if config.initial_bandwidth is not None:
        bw = BandwidthAllocation(*config.initial_bandwidth)
    else:
        bw = default_initial_bandwidth(topology, config, mode)
    if topology.n_users == 0:
        return UsbaResult(EMPTY_SELECTION, bw, 0, True, 0.0)

    selection = get_s(bw, topology, config, mode)
    if not selection:
        widest = block_widths(1, 0, config)  # widest solo widths, B_rf and B_vlc
        selection = get_s(widest, topology, config, mode)
        if not selection:
            # Not even a solo allocation admits anyone: empty is a fixed point.
            return UsbaResult(EMPTY_SELECTION, bw, 0, True, 0.0)
        bw = widest

    history: list[tuple[Selection, BandwidthAllocation]] = [(selection, bw)]
    seen = {selection}
    iterations = 0
    converged = False
    for _ in range(config.max_iterations):
        iterations += 1
        new_bw = get_b(selection, config, mode)
        new_selection = get_s(new_bw, topology, config, mode)
        if new_selection == selection:
            if new_bw == bw:
                converged = True
                break
            # Same selection under a refreshed bandwidth (possible only on the
            # first pass, where bw is the arbitrary start): converges next pass.
            bw = new_bw
            history.append((selection, bw))
            continue
        selection, bw = new_selection, new_bw
        history.append((selection, bw))
        if not selection or selection in seen:
            break  # empty states and revisits both mean the alternation cycles
        seen.add(selection)

    if not converged:
        # An oscillation visits optimistic states whose members cannot all
        # finish a round at the state's own allocation; those would overstate
        # the objective. Keep only self-supporting states (every member still
        # feasible at get_b of the state) and report the best of them.
        best_sel, best_bw = EMPTY_SELECTION, bw
        best_obj = -1.0
        for cand, _ in history:
            if not cand:
                continue
            cand_bw = get_b(cand, config, mode)
            supported = get_s(cand_bw, topology, config, mode)
            if not (cand.indoor_ids <= supported.indoor_ids and cand.outdoor_ids <= supported.outdoor_ids):
                continue
            obj = selection_objective(cand, topology)
            if obj > best_obj:
                best_obj = obj
                best_sel, best_bw = cand, cand_bw
        selection, bw = best_sel, best_bw

    return UsbaResult(
        selection=selection,
        bandwidth=bw,
        iterations=iterations,
        converged=converged,
        objective=selection_objective(selection, topology),
    )


ORACLE_MAX_USERS = 14


def oracle_enumerate(topology: Topology, config: SimConfig, mode: str = "hybrid") -> UsbaResult:
    """Exhaustive reference optimizer for small instances.

    Block widths depend on the selection only through the indoor/outdoor
    counts, so it suffices to scan every count pair (k1, k2): compute the
    implied widths, check that at least k1 indoor and k2 outdoor users are
    feasible there, fill greedily with the largest shards, and keep the best
    total. Cost grows with the count grid, not with subsets.
    """
    _check_mode(mode)
    if topology.n_users > ORACLE_MAX_USERS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_USERS} users, got {topology.n_users}"
        )
    indoor = topology.indoor_users()
    outdoor = topology.outdoor_users()
    # Largest shards first; id breaks ties deterministically.
    indoor.sort(key=lambda u: (-u.shard_size, u.id))
    outdoor.sort(key=lambda u: (-u.shard_size, u.id))

    rf = RfParams.from_config(config)
    vlc = VlcParams.from_config(config)
    best_obj = 0.0
    best_sel = EMPTY_SELECTION
    best_bw = None
    for k1 in range(len(indoor) + 1):
        for k2 in range(len(outdoor) + 1):
            if k1 + k2 == 0:
                continue
            bw = block_widths(k1, k2, config, mode)
            feas_in = [u for u in indoor if _feasible(u, bw, topology, config, rf, vlc, mode)]
            feas_out = [u for u in outdoor if _feasible(u, bw, topology, config, rf, vlc, mode)]
            if len(feas_in) < k1 or len(feas_out) < k2:
                continue
            chosen_in = feas_in[:k1]
            chosen_out = feas_out[:k2]
            obj = float(sum(u.shard_size for u in chosen_in + chosen_out))
            if obj > best_obj:
                best_obj = obj
                best_sel = Selection(
                    frozenset(u.id for u in chosen_in),
                    frozenset(u.id for u in chosen_out),
                )
                best_bw = bw
    if best_bw is None:
        best_bw = default_initial_bandwidth(topology, config, mode)
    return UsbaResult(best_sel, best_bw, 0, True, best_obj)
