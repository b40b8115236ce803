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

Feasibility runs on a link table (``_LinkTable``) of what does not depend
on bandwidth, built once per (topology, config) from the topology's user
columns and kept on the topology, so ``usba``, ``oracle_enumerate`` and
``get_s`` share it in both modes. A topology lists its indoor users first,
so the modes differ only in ``n_vlc``, the number of leading users whose
downlink rides VLC: the indoor count in hybrid mode, 0 in ``rf_only``. A
pass takes ``n_vlc`` and block widths, as floats for one mask or as (P, 1)
arrays for P masks at once, and yields a feasibility mask in the topology's
user order. Nothing is remembered between passes: ``usba`` tests each
visited state once, and the oracle makes one batched pass. A link without
rate costs payload / 0 = inf, so each entry point (``get_s``, ``usba``,
``oracle_enumerate``) silences numpy's divide warning once for all its
passes.

``usba`` alternates the two from the full-selection widths until the pair is a
fixed point, which it knows without a pass once the widths repeat. Its state
is a pass's mask over the topology's users and its count, not a ``Selection``:
the counts that set the next widths, the self-support test (the members
still feasible at the next widths number as many as the state) and the
revisit key all read the mask, the widths are compared as tuples, and one
``Selection`` and ``BandwidthAllocation`` are built for the state it
returns. The alternation can oscillate between an optimistic and a
pessimistic state, so each step also tests whether the state it steps from
supports itself; a revisit, an empty state or the iteration limit ends the
alternation with the best self-supporting state flagged non-converged.
``oracle_enumerate`` finds the exact optimum on small instances as an
independent check. Bandwidth depends only on the selection *counts*, so it
scores every count pair from one pass batched over their widths.

In ``rf_only`` mode VLC is disabled: indoor users take their downlink over
RF blocks too (so blocks shrink to B_rf / (2 |S|)), keep their penetration
loss, and drop the gateway backhaul delay.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    _RF_RATE_ARGS_ERROR,
    _rf_channel_gain,
    _rf_rate,
    _vlc_rate,
    _vlc_terms,
    best_ap_sinr,
)
from .config import SimConfig
from .topology import Topology

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
    """The bandwidth-free link terms of a topology's users under one config,
    for feasibility passes in either mode.

    The build reads the topology's user columns, so it builds no
    ``UserNode``. Each term comes from the same scalar formula, in the same
    order, as a per-user evaluation would use: distances, logarithms, powers
    and squares are libm calls on Python floats, since numpy's can differ in
    the last bit, and sums, products and quotients run on the arrays, where
    IEEE arithmetic gives the same bits. The RF gains come from the
    unchecked kernel, user by user. The computation time and energy of a
    round of local training are
        t_cmp = nu * cycles * samples * ln(1/accuracy) / f
        e_cmp = nu * (coeff / 2) * cycles * samples * f^2 * ln(1/accuracy)
    on the columns, with ln(1/accuracy) taken once; ``SimConfig``
    guarantees the accuracy and ``nu``. It raises ValueError for a user at
    the BS, ``rf_rate``'s ValueError on an RF gain that underflows to 0 far
    enough from the BS, and a ValueError naming the user whose CPU frequency
    overflows a float when squared.

    Uplink is always RF. A pass sends the downlink of its first ``n_vlc``
    users over VLC and every other link over RF, so its RF links are the
    rows of ``rf_power`` and ``rf_interference`` from ``n_vlc`` on. The
    optical terms, ``signals`` and ``interference``, are None until
    ``_links`` sets them on the first hybrid call. A link without rate (no
    AP in view, or an RF SINR below 2**-53) costs inf seconds and joules, so
    its user fails. A pass calls the unchecked rate kernels of ``channel``
    and sums a round's costs itself (see ``feasible``). It only adds,
    multiplies, divides, compares, takes maxima and takes ``np.log2``, the
    ufunc the scalar rate functions run on one value, so the mask holds the
    per-user answers.

    The user terms are checked by ``UserNode`` or, for a drawn topology, by
    its draw, the widths by ``BandwidthAllocation`` or the count rule that
    gives them, and the noise PSDs and interference by ``SimConfig``, so a
    pass checks nothing.
    """

    def __init__(self, topology: Topology, config: SimConfig):
        self.config = config
        users = topology.users
        self.ids, self.indoor, self.shard_size = users.id, users.indoor, users.shard_size
        self.tx_power, self.budget = users.tx_power_w, users.energy_budget_j
        bx, by = topology.bs_position
        # A term that overflows is inf, as on Python floats, and fails its user.
        with np.errstate(over="ignore"):
            dx, dy = (users.position[:, 0] - bx).tolist(), (users.position[:, 1] - by).tolist()
            dist = list(map(math.hypot, dx, dy))
            if 0.0 in dist:  # a distance is never negative
                raise ValueError(f"user {users.id[dist.index(0.0)]}: distance must be > 0, got 0.0")
            gain = np.array(list(map(_rf_channel_gain, dist, users.indoor.tolist(), itertools.repeat(config))))
            log_inv_accuracy = math.log(1.0 / config.local_accuracy)
            nu, cycles, samples = config.nu, users.cycles_per_sample, users.shard_size
            self.t_cmp = nu * cycles * samples * log_inv_accuracy / users.cpu_freq_hz
            # CPython's float power squares each frequency: numpy squares an
            # array by multiplying, which rounds some values differently.
            freqs = users.cpu_freq_hz.tolist()
            try:
                squared = np.array([f**2 for f in freqs])
            except OverflowError:  # a UserNode allows any finite f; only ** raises, products give inf
                i = next(i for i, f in enumerate(freqs) if abs(f) >= 2.0**512)  # (2**512)**2 = 2**1024
                msg = f"user {users.id[i]}: cpu_freq_hz={freqs[i]!r} overflows a float when squared"
                raise ValueError(msg) from None
            self.e_cmp = nu * users.capacitance_coeff * (cycles * samples) / 2.0 * squared * log_inv_accuracy
            if (gain <= 0.0).any():
                raise ValueError(_RF_RATE_ARGS_ERROR)
            up_power = users.tx_power_w * gain
        # Every user's downlink, then every user's uplink: their received
        # powers P h, as rf_rate forms them, and their interference.
        self.rf_power = np.concatenate((config.bs_tx_power_w * gain, up_power))
        self.rf_interference = np.repeat((config.downlink_interference_w, config.uplink_interference_w), len(gain))
        # An indoor user pays the gateway backhaul when its downlink rides VLC.
        self.backhaul = np.where(users.indoor, config.backhaul_delay_s, 0.0)
        self.signals = self.interference = None

    def feasible(self, n_vlc: int, b_up, b_down, b_vlc) -> np.ndarray:
        """Boolean mask: which users finish a round within both budgets at
        these block widths when the first ``n_vlc`` users take their downlink
        over VLC, in the topology's order.

        One rate vector holds a pass's links, laid out [VLC down | RF down |
        RF up]: its first N entries are each user's downlink rate and its
        last N each user's uplink rate. Float widths give one mask over the
        users. (P, 1) arrays of widths give a (P, users) mask: every term
        broadcasts, so each element goes through the same operations and
        ufuncs as at float widths, and row p equals the mask at the p-th
        widths bit for bit.

        A round costs t_down + t_up + t_cmp (+ the backhaul delay for a
        VLC-served downlink) seconds and e_cmp + t_up * P_n joules, where each
        transfer takes payload / rate seconds; a user passes when both are
        within its budgets. A link without rate takes payload / 0 = inf
        seconds and joules, so it fails both tests like any slow link. The
        caller holds ``np.errstate(divide="ignore")`` for that division.
        """
        config = self.config
        n = len(self.ids)
        # One width for both RF directions; if they differ (or are two width
        # arrays), one width per RF row: b_down for downlinks, b_up for uplinks.
        b_rf = b_up
        if not (b_up is b_down or type(b_up) is float and b_up == b_down):
            b_rf = np.where(np.arange(n_vlc, 2 * n) >= n, b_up, b_down)
        rates = _rf_rate(self.rf_power[n_vlc:], self.rf_interference[n_vlc:], b_rf, config.rf_noise_psd)
        backhaul = 0.0
        if n_vlc:
            sinr = best_ap_sinr(self.signals, self.interference, b_vlc, config.vlc_noise_psd)
            rates = np.concatenate((_vlc_rate(sinr, b_vlc), rates), axis=-1)
            backhaul = self.backhaul
        t_link = config.payload_bits / rates  # one transfer time per rate
        t_down, t_up = t_link[..., :n], t_link[..., n:]
        round_time = t_down + t_up + self.t_cmp + backhaul
        return (round_time <= config.t_round_s) & (self.e_cmp + t_up * self.tx_power <= self.budget)

    def selection(self, mask: np.ndarray) -> Selection:
        """The users a mask marks."""
        return Selection(
            frozenset(self.ids[mask & self.indoor].tolist()),
            frozenset(self.ids[mask & ~self.indoor].tolist()),
        )


def _links(topology: Topology, config: SimConfig, mode: str) -> tuple[_LinkTable, int]:
    """The link table of ``topology``'s users under ``config``, and the number
    of its leading users whose downlink rides VLC in ``mode``.

    The topology keeps the table of the last config it was used with, so the
    calls on one (topology, config) share one build in both modes. The config
    is matched by identity, which a frozen ``SimConfig`` makes safe.
    """
    _check_mode(mode)
    links = topology._link_table
    if links is None or links.config is not config:
        links = _LinkTable(topology, config)
        object.__setattr__(topology, "_link_table", links)  # Topology is frozen
    if mode == "rf_only":
        return links, 0
    n_vlc = topology.n_indoor
    if links.signals is None:
        # Optical terms that fail to build are not kept, so rf_only stays usable.
        links.signals, links.interference = _vlc_terms(topology.users.position[:n_vlc], topology, config)
    return links, n_vlc


def get_s(
    bw: BandwidthAllocation,
    topology: Topology,
    config: SimConfig,
    mode: str = "hybrid",
) -> Selection:
    """Select every user that is feasible at the given block widths."""
    links, n_vlc = _links(topology, config, mode)
    with np.errstate(divide="ignore"):  # a link without rate; see _LinkTable.feasible
        mask = links.feasible(n_vlc, bw.b_up_hz, bw.b_down_hz, bw.b_vlc_hz)
    return links.selection(mask)


def block_widths(n_in: int, n_out: int, config: SimConfig, mode: str = "hybrid") -> BandwidthAllocation:
    """Block widths that spend both budgets on n_in indoor and n_out outdoor users.

    Every user takes an RF uplink block; outdoor users, and every user in
    ``rf_only`` mode, also take an RF downlink block. In hybrid mode the
    indoor users split B_vlc; with no VLC block issued the width is unused
    and reported as B_vlc. Callers pass a checked mode.
    """
    b_rf, b_vlc = _block_widths(n_in, n_out, config, mode)
    return BandwidthAllocation(b_rf, b_rf, b_vlc)


def _block_widths(n_in, n_out, config: SimConfig, mode: str):
    """``block_widths``' RF and VLC widths, for counts given as ints (giving
    floats) or as int arrays (giving arrays of the same float divisions)."""
    n = n_in + n_out
    rf_blocks = 2 * n if mode == "rf_only" else n + n_out
    vlc_blocks = n_in + (n_in == 0) if mode == "hybrid" else 1
    return config.rf_total_bandwidth_hz / rf_blocks, config.vlc_total_bandwidth_hz / vlc_blocks


def get_b(selection: Selection, config: SimConfig, mode: str = "hybrid") -> BandwidthAllocation:
    """Widest per-block bandwidths for a selection; both budgets saturate."""
    _check_mode(mode)
    if not selection:
        raise EmptySelectionError("cannot allocate bandwidth to an empty selection")
    return block_widths(len(selection.indoor_ids), len(selection.outdoor_ids), config, mode)


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

    Each state is the feasibility mask of a pass over the link table's users,
    which is what get_s(B) selects, with its count; widths are compared as
    (b_up, b_down, b_vlc) tuples. The result's ``Selection`` and
    ``BandwidthAllocation`` are built once, for the state it returns.
    """
    if config.initial_bandwidth is not None:
        bw = BandwidthAllocation(*config.initial_bandwidth)
    else:
        bw = default_initial_bandwidth(topology, config)

    links, n_vlc = _links(topology, config, mode)
    with np.errstate(divide="ignore"):  # a link without rate; see _LinkTable.feasible
        mask = links.feasible(n_vlc, bw.b_up_hz, bw.b_down_hz, bw.b_vlc_hz)
        n = int(np.count_nonzero(mask))
        if not n:
            widest = block_widths(1, 0, config)  # widest solo widths, B_rf and B_vlc
            if widest != bw:  # at the start's widths the mask is known
                mask = links.feasible(n_vlc, widest.b_up_hz, widest.b_down_hz, widest.b_vlc_hz)
                n = int(np.count_nonzero(mask))
            if not n:
                # Not even a solo allocation admits anyone: empty is a fixed point.
                return UsbaResult(EMPTY_SELECTION, bw, 0, True, 0.0)
            bw = widest

        widths = (bw.b_up_hz, bw.b_down_hz, bw.b_vlc_hz)
        best: tuple[np.ndarray, tuple] | None = None
        best_obj = -1.0
        predecessors: set[bytes] = set()
        iterations = 0
        # mask == links.feasible(n_vlc, *widths) and n == its count hold here and
        # after every step, so a step to the current widths takes the current
        # mask without a pass.
        while True:
            # get_b of the state, with the counts as Python ints, so the widths
            # are floats. The VLC-downlink users come first, so the state's
            # VLC users are a prefix count; rf_only has none, and there the
            # widths depend on n alone.
            n_vlc_users = int(np.count_nonzero(mask[:n_vlc]))
            b_rf, b_vlc = _block_widths(n_vlc_users, n - n_vlc_users, config, mode)
            new_widths = (b_rf, b_rf, b_vlc)
            fixed = new_widths == widths
            new_mask = mask if fixed else links.feasible(n_vlc, *new_widths)
            # A self-supporting state: every member is still feasible at its widths.
            if fixed or np.count_nonzero(mask & new_mask) == n:
                # Summed as Python ints, which are exact for any shard sizes.
                obj = float(sum(links.shard_size[mask].tolist()))
                if obj > best_obj:
                    best, best_obj = (mask, new_widths), obj
            if iterations == config.max_iterations:
                break  # that step tested the last state
            iterations += 1
            if fixed:  # then new_mask is mask, which supports itself and has obj
                return UsbaResult(links.selection(mask), BandwidthAllocation(*widths), iterations, True, obj)
            mask, widths, previous = new_mask, new_widths, mask
            n = int(np.count_nonzero(mask))
            if not n or mask.tobytes() in predecessors:
                break  # empty states and revisits both mean the alternation cycles
            # The previous state found again at other widths is no revisit:
            # the next step confirms it.
            predecessors.add(previous.tobytes())

    if best is None:
        return UsbaResult(EMPTY_SELECTION, BandwidthAllocation(*widths), iterations, False, 0.0)
    mask, widths = best
    return UsbaResult(links.selection(mask), BandwidthAllocation(*widths), iterations, False, best_obj)


ORACLE_MAX_USERS = 14


def oracle_enumerate(topology: Topology, config: SimConfig, mode: str = "hybrid") -> UsbaResult:
    """Exact optimum over selection counts, from one batched pass, for small instances.

    Block widths depend on the selection only through the indoor/outdoor
    counts (k1, k2), so one feasibility pass evaluates the widths of every
    pair but (0, 0) at once. Pair (k1, k2) is filled when at least k1 indoor
    and k2 outdoor users are feasible at its widths; it then takes the first
    k1 and k2 of them in the oracle's order (largest shards first) and scores
    their shard total. The best filled pair wins; ties go to the first pair
    in k1-then-k2 order. At ``ORACLE_MAX_USERS`` there are at most 63 pairs.
    Their number grows as N^2 / 4, so lifting the cap needs a search over the
    counts, not a larger pass.
    """
    if topology.n_users > ORACLE_MAX_USERS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_USERS} users, got {topology.n_users}"
        )
    links, n_vlc = _links(topology, config, mode)
    # Indoor first, then largest shards first; id breaks ties deterministically.
    # ``rows`` picks the table's columns in this order.
    rows = np.lexsort((links.ids, -links.shard_size, ~links.indoor))
    indoor = links.indoor[rows]
    n_in, n_out = topology.n_indoor, topology.n_outdoor
    # Every count pair but (0, 0), in k1-then-k2 order, as (P, 1) columns.
    k1, k2 = np.divmod(np.arange(1, (n_in + 1) * (n_out + 1))[:, None], n_out + 1)
    b_rf, b_vlc = _block_widths(k1, k2, config, mode)
    with np.errstate(divide="ignore"):  # a link without rate; see _LinkTable.feasible
        feasible = links.feasible(n_vlc, b_rf, b_rf, b_vlc)[:, rows]
    # Each feasible user's rank among the feasible users of its kind.
    rank = np.concatenate((feasible[:, :n_in].cumsum(axis=1), feasible[:, n_in:].cumsum(axis=1)), axis=1)
    chosen = feasible & (rank <= np.where(indoor, k1, k2))
    filled = chosen.sum(axis=1) == (k1 + k2)[:, 0]
    objectives = np.where(filled, chosen @ links.shard_size[rows], 0)
    if not objectives.any():
        return UsbaResult(EMPTY_SELECTION, default_initial_bandwidth(topology, config), 0, True, 0.0)
    best = int(objectives.argmax())  # the first of equal maxima
    ids, kinds = links.ids[rows][chosen[best]], indoor[chosen[best]]
    selection = Selection(frozenset(ids[kinds].tolist()), frozenset(ids[~kinds].tolist()))
    bw = block_widths(int(k1[best, 0]), int(k2[best, 0]), config, mode)
    return UsbaResult(selection, bw, 0, True, float(objectives[best]))
