import csv
import dataclasses
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlcfed import (
    BandwidthAllocation,
    ConfigError,
    EmptySelectionError,
    Selection,
    SimConfig,
    UsbaResult,
    UserNode,
    generate_topology,
    get_b,
    get_s,
    load_bundled_dataset,
    oracle_enumerate,
    rf_channel_gain,
    rf_rate,
    usba,
    vlc_rate,
    vlc_sinr,
)
from vlcfed.allocation import (
    EMPTY_SELECTION,
    MODES,
    ORACLE_MAX_USERS,
    _block_widths,
    _LinkTable,
    _links,
    block_widths,
    default_initial_bandwidth,
)
from vlcfed.channel import _vlc_terms, best_ap_sinr
from vlcfed.runner import run_experiment, shard_size
from tests.conftest import make_topology, make_user, random_instance
from tests.test_channel import _row_wise_sinr


def sel(indoor=(), outdoor=()):
    return Selection(frozenset(indoor), frozenset(outdoor))


class PassCounter:
    """Counts link-table feasibility passes while the test runs; a batched
    pass over many widths counts once."""

    def __init__(self, monkeypatch):
        self.count = 0
        feasible = _LinkTable.feasible

        def counted(table, *widths):
            self.count += 1
            return feasible(table, *widths)

        monkeypatch.setattr(_LinkTable, "feasible", counted)


def widths_of(bw):
    """A ``BandwidthAllocation``'s widths, as ``_LinkTable.feasible`` takes them."""
    return bw.b_up_hz, bw.b_down_hz, bw.b_vlc_hz


def staircase_oracle(topo, cfg, mode):
    """The oracle as a walk over the staircase of count pairs, one scalar pass
    per step, as it ran before the batched pass. Kept as the reference.

    A pair (k1, k2) passes when at least k1 indoor and k2 outdoor users are
    feasible at ``block_widths(k1, k2)``; its candidate takes the largest
    feasible shards of each kind. The passing pairs are closed downward, so
    the walk takes k1 upward from 0 and lowers k2 from n_out until the pair
    passes, and the next row starts from that k2. With equal shards the
    boundary pair is the best in its row; otherwise the pairs below it are
    scored too. Ties go to the first pair in k1-then-k2 order.
    """
    users = topo.users.rows()
    order = sorted(range(len(users)), key=lambda i: (not users[i].indoor, -users[i].shard_size, users[i].id))
    indoor = [users[i] for i in order if users[i].indoor]
    outdoor = [users[i] for i in order if not users[i].indoor]
    links, n_vlc = _links(topo, cfg, mode)

    def candidate(k1, k2):
        bw = block_widths(k1, k2, cfg, mode)
        with np.errstate(divide="ignore"):  # as the entry points hold it around their passes
            mask = links.feasible(n_vlc, *widths_of(bw))[order]
        chosen_in = [u for u, ok in zip(indoor, mask[: len(indoor)]) if ok][:k1]
        chosen_out = [u for u, ok in zip(outdoor, mask[len(indoor) :]) if ok][:k2]
        if len(chosen_in) < k1 or len(chosen_out) < k2:
            return None
        return bw, chosen_in, chosen_out

    equal_shards = len({u.shard_size for u in users}) <= 1
    best_obj, best_sel, best_bw = 0.0, EMPTY_SELECTION, None
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
        for bw, chosen_in, chosen_out in filter(None, row):
            obj = float(sum(u.shard_size for u in chosen_in + chosen_out))
            if obj > best_obj:
                best_obj, best_bw = obj, bw
                best_sel = sel([u.id for u in chosen_in], [u.id for u in chosen_out])
    return UsbaResult(best_sel, best_bw or default_initial_bandwidth(topo, cfg), 0, True, best_obj)


def selection_objective(selection, topo):
    """Total training samples contributed by the selected users."""
    shard_sizes = {u.id: u.shard_size for u in topo.users.rows()}
    return float(sum(shard_sizes[i] for i in selection.all_ids))


def reference_usba(topo, cfg, mode):
    """``usba`` with a ``Selection`` as its state, through the public
    ``get_s`` and ``get_b`` and the ``selection_objective`` above, as it ran
    before its state became a feasibility mask. Kept as the reference."""
    if cfg.initial_bandwidth is not None:
        bw = BandwidthAllocation(*cfg.initial_bandwidth)
    else:
        bw = default_initial_bandwidth(topo, cfg)
    selection = get_s(bw, topo, cfg, mode)
    if not selection:
        widest = block_widths(1, 0, cfg)
        if widest != bw:
            selection = get_s(widest, topo, cfg, mode)
        if not selection:
            return UsbaResult(EMPTY_SELECTION, bw, 0, True, 0.0)
        bw = widest
    best, best_obj = None, -1.0
    predecessors = set()
    iterations = 0
    while True:
        new_bw = get_b(selection, cfg, mode)
        new_selection = selection if new_bw == bw else get_s(new_bw, topo, cfg, mode)
        if selection.indoor_ids <= new_selection.indoor_ids and selection.outdoor_ids <= new_selection.outdoor_ids:
            obj = selection_objective(selection, topo)
            if obj > best_obj:
                best, best_obj = (selection, new_bw), obj
        if iterations == cfg.max_iterations:
            break
        iterations += 1
        if new_bw == bw:
            return UsbaResult(selection, bw, iterations, True, selection_objective(selection, topo))
        selection, bw, previous = new_selection, new_bw, selection
        if not selection or selection in predecessors:
            break
        predecessors.add(previous)
    selection, bw = best or (EMPTY_SELECTION, bw)
    return UsbaResult(selection, bw, iterations, False, selection_objective(selection, topo))


def with_unequal_shards(topo, rng, high=6):
    """The same topology with each shard size drawn from 1..high."""
    users = tuple(dataclasses.replace(u, shard_size=int(rng.integers(1, high + 1))) for u in topo.users.rows())
    return dataclasses.replace(topo, users=users)


class TestGetB:
    def test_reference_arithmetic(self):
        cfg = SimConfig()
        bw = get_b(sel(range(40), range(40, 50)), cfg)
        assert bw.b_up_hz == pytest.approx(20e6 / 60.0, rel=1e-15)
        assert bw.b_down_hz == bw.b_up_hz
        assert bw.b_vlc_hz == pytest.approx(1e6, rel=1e-15)

    def test_single_outdoor_user(self):
        bw = get_b(sel(outdoor=[3]), SimConfig())
        assert bw.b_up_hz == pytest.approx(10e6)
        assert bw.b_vlc_hz == 40e6  # unused, returned whole

    def test_single_indoor_user(self):
        bw = get_b(sel(indoor=[3]), SimConfig())
        assert bw.b_up_hz == pytest.approx(20e6)
        assert bw.b_vlc_hz == pytest.approx(40e6)

    def test_rf_only_mode_counts_downlinks_for_everyone(self):
        bw = get_b(sel(range(40), range(40, 50)), SimConfig(), mode="rf_only")
        assert bw.b_up_hz == pytest.approx(20e6 / 100.0)
        assert bw.b_vlc_hz == 40e6

    def test_empty_selection_rejected(self):
        with pytest.raises(EmptySelectionError):
            get_b(sel(), SimConfig())

    def test_budget_saturation_within_one_ulp(self):
        rng = np.random.default_rng(42)
        cfg = SimConfig()
        for _ in range(300):
            k1 = int(rng.integers(0, 60))
            k2 = int(rng.integers(0, 60))
            if k1 + k2 == 0:
                continue
            bw = get_b(sel(range(k1), range(100, 100 + k2)), cfg)
            blocks = (k1 + k2) + k2
            assert abs(blocks * bw.b_up_hz - cfg.rf_total_bandwidth_hz) <= math.ulp(
                cfg.rf_total_bandwidth_hz
            )
            if k1:
                assert abs(k1 * bw.b_vlc_hz - cfg.vlc_total_bandwidth_hz) <= math.ulp(
                    cfg.vlc_total_bandwidth_hz
                )

    def test_scale_equivariance(self):
        cfg = SimConfig()
        cfg2 = SimConfig(rf_total_bandwidth_hz=40e6, vlc_total_bandwidth_hz=80e6)
        s = sel(range(7), range(10, 15))
        a, b = get_b(s, cfg), get_b(s, cfg2)
        assert b.b_up_hz == pytest.approx(2 * a.b_up_hz, rel=1e-15)
        assert b.b_down_hz == pytest.approx(2 * a.b_down_hz, rel=1e-15)
        assert b.b_vlc_hz == pytest.approx(2 * a.b_vlc_hz, rel=1e-15)


class TestSelectionType:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            Selection(frozenset([1]), frozenset([1]))

    def test_counts(self):
        s = sel([1, 2], [3])
        assert s.size == 3
        assert s.all_ids == frozenset([1, 2, 3])
        assert bool(s) and not bool(sel())


class TestGetS:
    def test_huge_bandwidth_selects_compute_envelope(self, config):
        users = [
            make_user(id=0, xy=(5.0, 0.0)),
            make_user(id=1, xy=(20.0, 3.0)),
            make_user(id=2, xy=(1.0, 1.0), cycles_per_sample=1e9, cpu_freq_hz=1e8),
        ]
        topo = make_topology(users)
        huge = BandwidthAllocation(1e12, 1e12, 1e12)
        got = get_s(huge, topo, config)
        assert got == sel(outdoor=[0, 1])  # user 2 is compute-bound

    def test_tiny_bandwidth_selects_nobody(self, config):
        topo = generate_topology(SimConfig(n_users=20), seed=0)
        got = get_s(BandwidthAllocation(1.0, 1.0, 1.0), topo, config)
        assert got == sel()

    def test_empty_topology(self, config):
        got = get_s(BandwidthAllocation(1e6, 1e6, 1e6), make_topology([]), config)
        assert got == sel()

    def test_compute_time_alone_can_kill(self, config):
        topo = make_topology([make_user(indoor=False, cycles_per_sample=1e9, cpu_freq_hz=1e8)])  # ~62 s
        assert get_s(BandwidthAllocation(20e6, 20e6, 40e6), topo, config) == sel()

    def test_compute_energy_alone_can_kill(self, config):
        user = make_user(indoor=False, cpu_freq_hz=1e10, cycles_per_sample=3e7, energy_budget_j=0.5)
        assert get_s(BandwidthAllocation(20e6, 20e6, 40e6), make_topology([user]), config) == sel()

    def test_bandwidth_flips_indoor_feasibility(self, config):
        topo = make_topology([make_user(indoor=True, xy=(0.0, 1.0), tx_power_w=0.1)], aps=[(0.0, 0.0, 3.35)])
        assert get_s(BandwidthAllocation(1e6, 1e6, 40e6), topo, config) == sel(indoor=[0])
        assert get_s(BandwidthAllocation(1e3, 1e3, 40e6), topo, config) == sel()

    def test_monotone_in_bandwidth(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            topo, cfg = random_instance(rng)
            lo = np.array([rng.uniform(1e4, 5e5), rng.uniform(1e4, 5e5), rng.uniform(1e5, 2e7)])
            hi = lo * rng.uniform(1.0, 10.0, size=3)
            s_lo = get_s(BandwidthAllocation(*lo), topo, cfg)
            s_hi = get_s(BandwidthAllocation(*hi), topo, cfg)
            assert s_lo.indoor_ids <= s_hi.indoor_ids
            assert s_lo.outdoor_ids <= s_hi.outdoor_ids


class TestSelectionObjective:
    """The objective that ``usba`` and ``oracle_enumerate`` report: the
    training samples of the users they select."""

    @staticmethod
    def objectives(topo, cfg):
        return [usba(topo, cfg).objective, oracle_enumerate(topo, cfg).objective]

    def test_empty_is_zero(self, config):
        assert self.objectives(make_topology([]), config) == [0.0, 0.0]

    def test_equal_shards(self, config):
        users = [make_user(id=i, xy=(10.0 + i, 0.0), shard_size=9, energy_budget_j=1e3) for i in range(12)]
        assert self.objectives(make_topology(users), config.replace(t_round_s=1e5)) == [108.0, 108.0]

    def test_mixed_shards(self, config):
        users = [make_user(id=i, xy=(10.0 + i, 0.0), shard_size=d) for i, d in enumerate((3, 5, 7))]
        assert self.objectives(make_topology(users), config.replace(t_round_s=1e5)) == [15.0, 15.0]

    def test_an_unselected_user_adds_nothing(self, config):
        users = [
            make_user(id=0, xy=(10.0, 0.0), shard_size=3),
            make_user(id=1, xy=(11.0, 0.0), shard_size=5, cycles_per_sample=1e9, cpu_freq_hz=1e8),  # ~62 s of CPU
            make_user(id=2, xy=(12.0, 0.0), shard_size=7),
        ]
        topo = make_topology(users)
        result = usba(topo, config)
        assert result.selection == sel(outdoor=[0, 2])
        assert self.objectives(topo, config) == [10.0, 10.0]


class TestUsba:
    def test_all_feasible_converges_immediately(self):
        cfg = SimConfig(n_users=10, t_round_s=1e5)
        topo = generate_topology(cfg, seed=1)
        res = usba(topo, cfg)
        assert res.converged
        assert res.selection.size == 10
        assert res.iterations <= 2
        assert res.objective == 10 * cfg.samples_per_user

    def test_converged_result_is_fixed_point(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            topo, cfg = random_instance(rng)
            for mode in ("hybrid", "rf_only"):
                res = usba(topo, cfg, mode)
                if res.converged and res.selection:
                    again = get_s(get_b(res.selection, cfg, mode), topo, cfg, mode)
                    assert again == res.selection
                    checked += 1
        assert checked > 10

    def test_nobody_feasible_returns_empty_converged(self):
        cfg = SimConfig(n_users=5, t_round_s=1e-6)
        topo = generate_topology(cfg, seed=0)
        res = usba(topo, cfg)
        assert res.converged
        assert res.selection.size == 0
        assert res.objective == 0.0

    @staticmethod
    def oscillating_instance():
        """Identical outdoor users who all fit at wide blocks but all miss the
        deadline once everyone shares the band: the alternation flip-flops
        between everyone and nobody."""
        cfg = SimConfig(
            n_users=8,
            indoor_fraction=0.0,
            tx_power_range_w=(0.1, 0.1),
            cycles_per_sample_range=(2e4, 2e4),
            cpu_freq_range_hz=(1e9, 1e9),
            uplink_interference_w=1e-10,
            downlink_interference_w=1e-10,
            t_round_s=0.1,
        )
        topo = generate_topology(cfg, seed=12)
        # place all users at the same spot so they are exchangeable
        users = tuple(
            dataclasses.replace(u, position=(30.0, 0.0, 0.85)) for u in topo.users.rows()
        )
        return make_topology(users, aps=topo.vlc_aps), cfg

    def test_constructed_oscillation_reports_consistent_state(self):
        # The reported state must survive at its own allocation and never
        # exceed the exhaustive optimum.
        topo, cfg = self.oscillating_instance()
        res = usba(topo, cfg)
        assert not res.converged
        assert res.objective <= oracle_enumerate(topo, cfg).objective
        if res.selection:
            supported = get_s(get_b(res.selection, cfg), topo, cfg)
            assert res.selection.indoor_ids <= supported.indoor_ids
            assert res.selection.outdoor_ids <= supported.outdoor_ids

    def test_each_state_is_tested_once(self, monkeypatch):
        # At most one feasibility pass for the start, one for the solo
        # restart, one per step (which also tests the state it steps from)
        # and one for the step that tests the last state when the iterations
        # run out; the self-support test must not evaluate a visited state a
        # second time.
        passes = PassCounter(monkeypatch)
        instances = [self.oscillating_instance()]
        rng = np.random.default_rng(5)
        instances += [random_instance(rng, n_range=(4, 40)) for _ in range(12)]
        cfg = SimConfig(n_users=160, max_iterations=3)
        instances.append((generate_topology(cfg, 0), cfg))
        nonconverged = 0
        for topo, cfg in instances:
            for mode in MODES:
                passes.count = 0
                res = usba(topo, cfg, mode)
                assert passes.count <= res.iterations + 3, (mode, res)
                nonconverged += not res.converged
        assert nonconverged >= 5

    @staticmethod
    def start_passes(topo, cfg, mode):
        """Passes that ``usba`` makes before its first step: one at the start,
        and one at the solo widths of a restart unless they equal the start."""
        start = BandwidthAllocation(*cfg.initial_bandwidth) if cfg.initial_bandwidth else None
        start = start or default_initial_bandwidth(topo, cfg)
        restart = not get_s(start, topo, cfg, mode) and block_widths(1, 0, cfg) != start
        return 1 + restart, restart

    def test_a_fixed_point_is_confirmed_without_a_pass(self, monkeypatch):
        # A step whose widths equal the current ones finds the current
        # selection again without a pass. So a converged run makes one pass
        # at each distinct width it tests: the start, a solo restart's widths
        # and each iteration's but the last, which only confirms the fixed point.
        passes = PassCounter(monkeypatch)
        rng = np.random.default_rng(19)
        converged = restarted = 0
        for _ in range(60):
            topo, cfg = random_instance(rng, n_range=(1, 40))
            if rng.uniform() < 0.5:
                cfg = cfg.replace(initial_bandwidth=tuple(float(10 ** rng.uniform(3, 7.5)) for _ in range(3)))
            for mode in MODES:
                start_passes, restart = self.start_passes(topo, cfg, mode)
                passes.count = 0
                res = usba(topo, cfg, mode)
                if res.converged:
                    assert passes.count == start_passes + max(res.iterations - 1, 0), (mode, res)
                    converged += 1
                    restarted += restart
        assert converged >= 30
        assert restarted >= 5

    @pytest.mark.parametrize("mode", MODES)
    def test_a_restart_at_the_start_widths_costs_no_pass(self, monkeypatch, config, mode):
        # One indoor user starts at the solo widths, so its restart finds the
        # start's mask again. Infeasible everywhere, it gets the empty fixed point.
        topo = make_topology([make_user(indoor=True, xy=(0.0, 1.0), cycles_per_sample=1e9)])
        assert default_initial_bandwidth(topo, config) == block_widths(1, 0, config)
        assert self.start_passes(topo, config, mode) == (1, False)
        passes = PassCounter(monkeypatch)
        res = usba(topo, config, mode)
        assert (res.selection, res.iterations, res.converged) == (EMPTY_SELECTION, 0, True)
        assert passes.count == 1

    @pytest.mark.parametrize(
        "seed, mode, ids",
        [(5, "hybrid", {0, 15, 19}), (1071, "hybrid", {25}), (698, "rf_only", {1, 10, 13, 15, 17, 31, 32, 33})],
    )
    def test_ties_go_to_the_first_self_supporting_state(self, seed, mode, ids):
        # From these starts the iteration visits two self-supporting states of
        # equal objective before it stops; the first one visited is reported.
        rng = np.random.default_rng(seed)
        topo, cfg = random_instance(rng, n_range=(1, 40))
        start = tuple(float(10 ** rng.uniform(3, 7.5)) for _ in range(3))
        cfg = cfg.replace(initial_bandwidth=start, max_iterations=int(rng.integers(1, 6)))
        res = usba(topo, cfg, mode)
        assert not res.converged
        assert res.selection.all_ids == ids

    def test_determinism(self):
        cfg = SimConfig(n_users=30)
        topo = generate_topology(cfg, seed=3)
        a = usba(topo, cfg)
        b = usba(topo, cfg)
        assert a == b

    def test_hybrid_selects_more_than_rf_only_on_average(self):
        cfg = SimConfig(n_users=50)
        hy, rf = 0, 0
        for seed in range(8):
            topo = generate_topology(cfg, seed)
            hy += usba(topo, cfg, "hybrid").selection.size
            rf += usba(topo, cfg, "rf_only").selection.size
        assert hy > rf

    def test_respects_configured_initial_bandwidth(self):
        cfg = SimConfig(n_users=10, initial_bandwidth=(1e6, 1e6, 4e6))
        topo = generate_topology(cfg, seed=4)
        res = usba(topo, cfg)
        assert res.iterations >= 1  # ran the loop from the given start


def assert_usba_equals_reference(topo, cfg, mode):
    """``usba`` equals ``reference_usba`` field for field, and in repr, so
    the widths stay Python floats and the selections the same sets."""
    got, expected = usba(topo, cfg, mode), reference_usba(topo, cfg, mode)
    assert got == expected, (mode, cfg, topo)
    assert repr(got) == repr(expected)
    return got


class TestUsbaMatchesReference:
    @pytest.mark.parametrize("mode", MODES)
    def test_on_random_instances(self, mode):
        rng = np.random.default_rng(61)
        outcomes = set()
        for _ in range(500):
            topo, cfg = random_instance(rng, n_range=(1, ORACLE_MAX_USERS))
            res = assert_usba_equals_reference(topo, cfg, mode)
            outcomes.add((res.converged, bool(res.selection)))
        # Converged or not, empty or not: every exit is taken.
        assert outcomes == set(itertools.product((True, False), repeat=2))

    @pytest.mark.parametrize("mode", MODES)
    def test_at_the_default_config_over_n(self, mode):
        nonconverged = 0
        for seed, n_users in itertools.product(range(5), range(20, 201, 20)):
            cfg = SimConfig(n_users=n_users)
            cfg = cfg.replace(samples_per_user=shard_size(506, n_users, cfg.test_size))
            nonconverged += not assert_usba_equals_reference(generate_topology(cfg, seed), cfg, mode).converged
        assert nonconverged >= 10

    @pytest.mark.parametrize("max_iterations", [1, 2, 50])
    @pytest.mark.parametrize("mode", MODES)
    def test_from_configured_widths_and_short_runs(self, mode, max_iterations):
        rng = np.random.default_rng(67 + max_iterations)
        iterations = set()
        for _ in range(100):
            topo, cfg = random_instance(rng, n_range=(1, 40))
            start = tuple(float(10 ** rng.uniform(3, 7.5)) for _ in range(3))
            cfg = cfg.replace(initial_bandwidth=start, max_iterations=max_iterations)
            iterations.add(assert_usba_equals_reference(topo, cfg, mode).iterations)
        assert min(max_iterations, 2) in iterations

    @pytest.mark.parametrize("mode", MODES)
    def test_on_unequal_shards(self, mode):
        rng = np.random.default_rng(71)
        for _ in range(100):
            topo, cfg = random_instance(rng, n_range=(1, 40))
            assert_usba_equals_reference(with_unequal_shards(topo, rng, high=50), cfg, mode)

    @pytest.mark.parametrize("t_round_s", [2.5, 0.1, 0.05, 0.02])
    @pytest.mark.parametrize("max_iterations", [1, 50])
    @pytest.mark.parametrize("mode", MODES)
    def test_shards_near_two_to_the_63_sum_exactly(self, mode, max_iterations, t_round_s):
        # Two shards of 2**62 sum to 2**63, which an int64 sum would wrap to -2**63.
        big = 2**62
        users = [
            make_user(id=0, indoor=True, xy=(0.5, 0.0), shard_size=big, cycles_per_sample=1e-12),
            make_user(id=1, indoor=True, xy=(0.0, 0.5), shard_size=big, cycles_per_sample=1e-12),
            make_user(id=2, indoor=False, xy=(20.0, 0.0), shard_size=3),
            make_user(id=3, indoor=False, xy=(45.0, 0.0), shard_size=7, tx_power_w=0.02),
            make_user(id=4, indoor=True, xy=(1.0, 1.0), shard_size=5),
        ]
        topo = make_topology(users)
        cfg = SimConfig(t_round_s=t_round_s, max_iterations=max_iterations)
        res = assert_usba_equals_reference(topo, cfg, mode)
        shards = {u.id: u.shard_size for u in users}
        assert res.objective == float(sum(shards[i] for i in res.selection.all_ids))
        if {0, 1} <= res.selection.indoor_ids:
            assert res.objective >= 2.0**63


class TestOracle:
    def test_rejects_large_instances(self):
        cfg = SimConfig(n_users=15)
        topo = generate_topology(cfg, seed=0)
        with pytest.raises(ValueError):
            oracle_enumerate(topo, cfg)

    def test_single_feasible_user_gets_solo_bandwidth(self, config):
        user = make_user(id=0, indoor=False, xy=(10.0, 0.0), tx_power_w=0.5)
        topo = make_topology([user])
        res = oracle_enumerate(topo, config)
        assert res.selection == sel(outdoor=[0])
        assert res.bandwidth.b_up_hz == pytest.approx(config.rf_total_bandwidth_hz / 2)
        assert res.objective == user.shard_size

    def test_identical_users_objective_is_count_times_shard(self):
        cfg = SimConfig(
            n_users=6,
            indoor_fraction=0.0,
            tx_power_range_w=(0.5, 0.5),
            cycles_per_sample_range=(2e4, 2e4),
            cpu_freq_range_hz=(1e9, 1e9),
            samples_per_user=7,
        )
        topo = generate_topology(cfg, seed=2)
        res = oracle_enumerate(topo, cfg)
        assert res.objective % 7 == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_usba_never_beats_oracle_and_matches_when_converged(self, mode):
        rng = np.random.default_rng(23)
        matches = 0
        for _ in range(30):
            topo, cfg = random_instance(rng, n_range=(3, 10))
            res = usba(topo, cfg, mode)
            ref = oracle_enumerate(topo, cfg, mode)
            # The oracle's count scan and get_b share one block-width rule.
            if ref.selection:
                assert ref.bandwidth == get_b(ref.selection, cfg, mode)
            assert res.objective <= ref.objective + 1e-9
            if res.converged:
                assert res.objective == pytest.approx(ref.objective)
                matches += 1
        assert matches >= 10

    @staticmethod
    def brute_force_objective(topo, cfg, mode):
        """Best objective over every subset whose members are all feasible at
        the subset's own get_b widths."""
        best = 0.0
        feasible_at = {}
        for r in range(1, topo.n_users + 1):
            for subset in itertools.combinations(topo.users.rows(), r):
                s = sel([u.id for u in subset if u.indoor], [u.id for u in subset if not u.indoor])
                bw = get_b(s, cfg, mode)
                if bw not in feasible_at:
                    feasible_at[bw] = get_s(bw, topo, cfg, mode).all_ids
                if s.all_ids <= feasible_at[bw]:
                    best = max(best, float(sum(u.shard_size for u in subset)))
        return best

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_brute_force_over_subsets(self, mode):
        rng = np.random.default_rng(31)
        nonempty = 0
        for _ in range(30):
            topo, cfg = random_instance(rng, n_range=(1, 10))
            for t in (topo, with_unequal_shards(topo, rng)):
                res = oracle_enumerate(t, cfg, mode)
                assert res.objective == self.brute_force_objective(t, cfg, mode)
                nonempty += bool(res.selection)
        assert nonempty >= 20

    def test_at_most_one_pass_per_user_plus_one(self, monkeypatch):
        # One batched pass per call, over every (k1, k2) count pair, with
        # equal and with unequal shards.
        passes = PassCounter(monkeypatch)
        rng = np.random.default_rng(37)
        grid_larger = 0
        for _ in range(30):
            topo, cfg = random_instance(rng, n_range=(1, ORACLE_MAX_USERS))
            grid_larger += (topo.n_indoor + 1) * (topo.n_outdoor + 1) - 1 > topo.n_users + 1
            for t in (topo, with_unequal_shards(topo, rng)):
                for mode in MODES:
                    passes.count = 0
                    oracle_enumerate(t, cfg, mode)
                    assert passes.count == 1, (mode, topo.n_indoor, topo.n_outdoor)
        assert grid_larger >= 10

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_the_staircase_walk(self, mode):
        # 1,100 draws, each with equal and with unequal shards: 2,200
        # instances per mode, widths and objectives compared exactly.
        rng = np.random.default_rng(53)
        nonempty = 0
        for _ in range(1100):
            topo, cfg = random_instance(rng, n_range=(1, ORACLE_MAX_USERS))
            for t in (topo, with_unequal_shards(topo, rng)):
                got = oracle_enumerate(t, cfg, mode)
                assert got == staircase_oracle(t, cfg, mode), (mode, t)
                nonempty += bool(got.selection)
        assert nonempty >= 1000

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), mode=st.sampled_from(MODES))
    @settings(max_examples=80, deadline=None)
    def test_batched_rows_equal_passes_at_one_width(self, seed, mode):
        # Each row of a pass over (P, 1) width arrays is the mask at that
        # pair's widths, bit for bit, for every count pair.
        topo, cfg = random_instance(np.random.default_rng(seed), n_range=(1, ORACLE_MAX_USERS))
        links, n_vlc = _links(topo, cfg, mode)
        pairs = [(k1, k2) for k1 in range(topo.n_indoor + 1) for k2 in range(topo.n_outdoor + 1) if k1 or k2]
        k1, k2 = np.array(pairs).T[:, :, None]
        b_rf, b_vlc = _block_widths(k1, k2, cfg, mode)
        with np.errstate(divide="ignore"):  # as the entry points hold it around their passes
            batched = links.feasible(n_vlc, b_rf, b_rf, b_vlc)
        assert batched.shape == (len(pairs), topo.n_users)
        if mode == "hybrid" and topo.n_indoor:
            # The table's AP-major SINRs equal the user-major form bit for bit.
            got = best_ap_sinr(links.signals, links.interference, b_vlc, cfg.vlc_noise_psd)
            signals = _vlc_terms(topo.users.position[topo.users.indoor], topo, cfg)[0].T  # user-major
            for p, width in enumerate(b_vlc[:, 0].tolist()):
                assert got[p].tolist() == _row_wise_sinr(signals, width, cfg.vlc_noise_psd).tolist()
        b_vlc = np.broadcast_to(b_vlc, b_rf.shape)  # a float in rf_only mode
        for p, (n_in, n_out) in enumerate(pairs):
            bw = block_widths(n_in, n_out, cfg, mode)
            assert (b_rf[p, 0], b_vlc[p, 0]) == (bw.b_up_hz, bw.b_vlc_hz)
            with np.errstate(divide="ignore"):
                assert batched[p].tolist() == links.feasible(n_vlc, *widths_of(bw)).tolist()
        # Distinct up and down widths give each RF row its own width, batched
        # or not; row p is still the pass at its own widths.
        up = 1.5 * b_rf
        with np.errstate(divide="ignore"):
            split = links.feasible(n_vlc, up, b_rf, b_vlc)
            for p, widths in enumerate(zip(up[:, 0].tolist(), b_rf[:, 0].tolist(), b_vlc[:, 0].tolist())):
                assert split[p].tolist() == links.feasible(n_vlc, *widths).tolist()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), mode=st.sampled_from(MODES))
    @settings(max_examples=60, deadline=None)
    def test_passing_count_pairs_are_down_closed(self, seed, mode):
        # (k1, k2) passes when at least k1 indoor and k2 outdoor users are
        # feasible at block_widths(k1, k2). Widths shrink as either count
        # grows and feasibility is monotone in width, so a passing pair's
        # lower neighbours pass too. The oracle scores every pair without
        # relying on this; ``staircase_oracle``, its reference, still does.
        topo, cfg = random_instance(np.random.default_rng(seed), n_range=(1, ORACLE_MAX_USERS))
        links, n_vlc = _links(topo, cfg, mode)
        indoor = links.indoor  # in the topology's order, as its masks are
        passes = np.ones((topo.n_indoor + 1, topo.n_outdoor + 1), dtype=bool)
        for k1, k2 in itertools.product(range(topo.n_indoor + 1), range(topo.n_outdoor + 1)):
            if k1 or k2:
                with np.errstate(divide="ignore"):  # as the entry points hold it around their passes
                    mask = links.feasible(n_vlc, *widths_of(block_widths(k1, k2, cfg, mode)))
                passes[k1, k2] = mask[indoor].sum() >= k1 and mask[~indoor].sum() >= k2
        assert (passes[1:, :] <= passes[:-1, :]).all()
        assert (passes[:, 1:] <= passes[:, :-1]).all()

    def test_greedy_prefers_large_shards(self, config):
        users = [
            make_user(id=0, indoor=False, xy=(10.0, 0.0), shard_size=3, tx_power_w=0.5),
            make_user(id=1, indoor=False, xy=(10.0, 1.0), shard_size=20, tx_power_w=0.5),
        ]
        topo = make_topology(users)
        tight = config.replace(t_round_s=2.5)
        res = oracle_enumerate(topo, tight)
        if res.selection.size == 1:
            assert 1 in res.selection.outdoor_ids


# oracle_small instances (perfbench seed / instance 103 / 1916, 758608277 / 525
# and 1910711124 / 1513) on which hybrid usba converges below the optimum:
# 45 against 60, 24 against 27 and 56 against 70. Each is its config's
# non-default fields and its topology seed.
USBA_BELOW_OPTIMUM = [
    (
        dict(
            n_users=6,
            indoor_fraction=0.4350909891717893,
            t_round_s=2.242517438827912,
            payload_bits=1144426.4350972006,
            rf_total_bandwidth_hz=3486601.4586075656,
            vlc_total_bandwidth_hz=35679622.973026544,
            uplink_interference_w=4.173945708038415e-10,
            downlink_interference_w=4.502229110882024e-10,
            energy_budget_j=0.8178710556668733,
            samples_per_user=15,
        ),
        2063252053,
    ),
    (
        dict(
            n_users=12,
            indoor_fraction=0.7318914231394931,
            t_round_s=2.456788099571151,
            payload_bits=1968182.0001435205,
            rf_total_bandwidth_hz=13406710.553926298,
            vlc_total_bandwidth_hz=37302117.08612262,
            uplink_interference_w=1.1669042220820773e-10,
            downlink_interference_w=4.7150179014297455e-11,
            energy_budget_j=0.11309237780083596,
            samples_per_user=3,
        ),
        438820253,
    ),
    (
        dict(
            n_users=10,
            indoor_fraction=0.766019714086894,
            t_round_s=2.7656894958634832,
            payload_bits=412557.4632484111,
            rf_total_bandwidth_hz=13148044.0306093,
            vlc_total_bandwidth_hz=25760223.04275846,
            uplink_interference_w=1.4608894476047787e-10,
            downlink_interference_w=2.8252858923189945e-10,
            energy_budget_j=0.02255449037500706,
            samples_per_user=14,
        ),
        2092220527,
    ),
]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="usba can converge to a fixed point below the optimum")
def test_converged_usba_equals_the_oracle_on_known_reproducers():
    # perfbench's oracle_small check: a converged result must be optimal.
    outcomes = []
    for fields, topo_seed in USBA_BELOW_OPTIMUM:
        cfg = SimConfig(**fields)
        topo = generate_topology(cfg, topo_seed)
        found, best = usba(topo, cfg, "hybrid"), oracle_enumerate(topo, cfg, "hybrid")
        outcomes.append((found.converged, found.objective, best.objective))
    assert all(found == best for converged, found, best in outcomes if converged), outcomes


any_seed = st.integers(min_value=0, max_value=2**32 - 1)
log_width = st.floats(min_value=2.0, max_value=8.0)
log_widths = st.tuples(log_width, log_width, log_width)


class TestAllocationProperties:
    """Properties of usba, the oracle and get_s over random_instance draws."""

    @given(seed=any_seed, mode=st.sampled_from(MODES))
    @settings(max_examples=100, deadline=None)
    def test_usba_never_beats_the_oracle(self, seed, mode):
        topo, cfg = random_instance(np.random.default_rng(seed), n_range=(1, ORACLE_MAX_USERS))
        assert usba(topo, cfg, mode).objective <= oracle_enumerate(topo, cfg, mode).objective

    @given(seed=any_seed, mode=st.sampled_from(MODES), start=st.none() | log_widths)
    @settings(max_examples=100, deadline=None)
    def test_a_converged_result_is_a_fixed_point(self, seed, mode, start):
        topo, cfg = random_instance(np.random.default_rng(seed), n_range=(1, 40))
        if start is not None:
            cfg = cfg.replace(initial_bandwidth=tuple(10.0**w for w in start))
        res = usba(topo, cfg, mode)
        if res.converged:
            assert get_s(res.bandwidth, topo, cfg, mode) == res.selection
            if res.selection:
                assert get_b(res.selection, cfg, mode) == res.bandwidth

    @given(
        seed=any_seed,
        mode=st.sampled_from(MODES),
        low=log_widths,
        factors=st.tuples(*[st.floats(min_value=1.0, max_value=10.0)] * 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_get_s_is_monotone_in_the_widths(self, seed, mode, low, factors):
        topo, cfg = random_instance(np.random.default_rng(seed), n_range=(1, 40))
        low = [10.0**w for w in low]
        narrow = get_s(BandwidthAllocation(*low), topo, cfg, mode)
        wide = get_s(BandwidthAllocation(*(w * f for w, f in zip(low, factors))), topo, cfg, mode)
        assert narrow.indoor_ids <= wide.indoor_ids and narrow.outdoor_ids <= wide.outdoor_ids


class TestInitialBandwidth:
    def test_conservative_rule(self):
        cfg = SimConfig(n_users=50)
        topo = generate_topology(cfg, seed=0)
        bw = default_initial_bandwidth(topo, cfg)
        assert bw.b_up_hz == pytest.approx(20e6 / (50 + topo.n_outdoor))
        assert bw.b_vlc_hz == pytest.approx(40e6 / topo.n_indoor)
        # rf_only starts from these hybrid widths too, which are wider than
        # its own full-selection widths B_rf / 2N (333 kHz against 200 kHz here).
        ids, indoor = topo.users.id, topo.users.indoor
        everyone = sel(ids[indoor].tolist(), ids[~indoor].tolist())
        assert bw.b_up_hz > get_b(everyone, cfg, "rf_only").b_up_hz == 20e6 / 100

    def test_empty_topology_starts_from_solo_widths(self, config):
        bw = default_initial_bandwidth(make_topology([]), config)
        assert bw == BandwidthAllocation(
            config.rf_total_bandwidth_hz, config.rf_total_bandwidth_hz, config.vlc_total_bandwidth_hz
        )


def _reference_cost(user, bw, topo, cfg, mode):
    """One user's round time and energy, or None when a link has no rate: the
    per-user evaluation that the link table replaced. The rates come from the
    public scalar channel functions; the costs are written out here on Python
    floats, so a pass that sums or multiplies in another order fails."""
    d = math.hypot(user.position[0] - topo.bs_position[0], user.position[1] - topo.bs_position[1])
    h = rf_channel_gain(d, user.indoor, cfg)
    up = rf_rate(user.tx_power_w, h, cfg.uplink_interference_w, bw.b_up_hz, cfg.rf_noise_psd)
    via_vlc = mode == "hybrid" and user.indoor
    if via_vlc:
        down = vlc_rate(vlc_sinr(user, topo, bw.b_vlc_hz, cfg), bw.b_vlc_hz)
    else:
        down = rf_rate(cfg.bs_tx_power_w, h, cfg.downlink_interference_w, bw.b_down_hz, cfg.rf_noise_psd)
    if up <= 0.0 or down <= 0.0:
        return None
    t_cmp, e_cmp = _reference_computation(user, cfg)
    t_up, t_down = cfg.payload_bits / up, cfg.payload_bits / down
    backhaul = cfg.backhaul_delay_s if via_vlc else 0.0
    return t_down + t_up + t_cmp + backhaul, e_cmp + t_up * user.tx_power_w


def _reference_computation(user, cfg):
    """One user's CPU time and energy for a round of local training."""
    log_inv_accuracy = math.log(1.0 / cfg.local_accuracy)
    t_cmp = cfg.nu * user.cycles_per_sample * user.shard_size * log_inv_accuracy / user.cpu_freq_hz
    cycles_total = user.cycles_per_sample * user.shard_size
    e_cmp = cfg.nu * user.capacitance_coeff * cycles_total / 2.0 * user.cpu_freq_hz ** 2 * log_inv_accuracy
    return t_cmp, e_cmp


def _reference_selection(bw, topo, cfg, mode):
    indoor, outdoor = set(), set()
    for user in topo.users.rows():
        cost = _reference_cost(user, bw, topo, cfg, mode)
        if cost and cost[0] <= cfg.t_round_s and cost[1] <= user.energy_budget_j:
            (indoor if user.indoor else outdoor).add(user.id)
    return sel(indoor, outdoor)


class TestLinkTableMatchesPerUserReference:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fov=st.sampled_from([20.0, 45.0, 90.0]),
        half_angle=st.sampled_from([60.0, 15.0, 30.0, 45.0, 70.0]),
        widths=st.tuples(log_width, log_width, log_width),
        mode=st.sampled_from(MODES),
        backhaul=st.sampled_from([0.05, math.inf, math.nan]),
    )
    @settings(max_examples=200, deadline=None)
    def test_get_s_equals_reference(self, seed, fov, half_angle, widths, mode, backhaul):
        topo, cfg = random_instance(np.random.default_rng(seed), n_range=(1, 40))
        # Narrow views give VLC users rate 0, and away from 60 degrees the
        # Lambertian order is not 1, so each optical gain takes a real power.
        # A SimConfig rejects a non-finite backhaul delay when it is built, so
        # the delay is set on the frozen instance afterwards; the table must
        # still charge such a delay to the VLC-served users only.
        cfg = cfg.replace(fov_half_angle_deg=fov, half_intensity_angle_deg=half_angle)
        object.__setattr__(cfg, "backhaul_delay_s", backhaul)
        bw = BandwidthAllocation(*(10.0**w for w in widths))
        expected = _reference_selection(bw, topo, cfg, mode)
        assert get_s(bw, topo, cfg, mode) == expected

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "first, second, values, others",
        [
            (
                "rf_noise_psd",
                "vlc_noise_psd",
                (1e-21, 1e-16),
                {"uplink_interference_w": 0.0, "downlink_interference_w": 0.0},
            ),
            ("uplink_interference_w", "downlink_interference_w", (1e-10, 1e-8), {}),
        ],
        ids=["noise_psd", "interference"],
    )
    def test_twin_link_constants_are_read_by_name(self, first, second, values, others, mode):
        # At default settings reading one twin in place of the other changes
        # nothing: both noise PSDs are 1e-21 and the interference dominates.
        # Here the swapped config selects differently, so a swap shows.
        topo = generate_topology(SimConfig(), 0)
        selections = []
        for a, b in (values, values[::-1]):
            cfg = SimConfig(**others, **{first: a, second: b})
            bw = default_initial_bandwidth(topo, cfg)
            selections.append(get_s(bw, topo, cfg, mode))
            assert selections[-1] == _reference_selection(bw, topo, cfg, mode)
        assert selections[0] != selections[1]

    @pytest.mark.parametrize("mode", MODES)
    def test_an_rf_link_without_rate_fails_like_a_slow_link(self, config, mode):
        # 2,000 km from the BS the default interference drowns the signal: the
        # SINR falls below 2**-53, so both RF rates are exactly 0.
        near, far = make_user(id=0, xy=(20.0, 0.0)), make_user(id=1, xy=(2e6, 0.0))
        topo = make_topology([near, far])
        bw = BandwidthAllocation(1e6, 1e6, 1e6)
        h = rf_channel_gain(2e6, False, config)
        assert rf_rate(far.tx_power_w, h, config.uplink_interference_w, bw.b_up_hz, config.rf_noise_psd) == 0.0
        assert rf_rate(config.bs_tx_power_w, h, config.downlink_interference_w, bw.b_down_hz, config.rf_noise_psd) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_s(bw, topo, config, mode) == _reference_selection(bw, topo, config, mode) == sel(outdoor=[0])
            assert usba(topo, config, mode).selection == sel(outdoor=[0])
            assert oracle_enumerate(topo, config, mode).selection == sel(outdoor=[0])

    def test_a_vlc_link_without_rate_fails_like_a_slow_link(self, config):
        # A 45-degree field of view leaves an indoor user 30 m from the only AP
        # out of its view: its SINR and so its VLC rate are exactly 0, while
        # the indoor user under the AP is served.
        cfg = config.replace(fov_half_angle_deg=45.0)
        served, dark = make_user(id=0, indoor=True, xy=(1.0, 0.5)), make_user(id=1, indoor=True, xy=(30.0, 0.0))
        topo = make_topology([served, dark])
        bw = BandwidthAllocation(1e6, 1e6, 1e6)
        assert vlc_sinr(dark, topo, bw.b_vlc_hz, cfg) == 0.0 < vlc_sinr(served, topo, bw.b_vlc_hz, cfg)
        assert vlc_rate(0.0, bw.b_vlc_hz) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_s(bw, topo, cfg, "hybrid") == _reference_selection(bw, topo, cfg, "hybrid") == sel([0])
            assert usba(topo, cfg, "hybrid").selection == sel([0])
            assert oracle_enumerate(topo, cfg, "hybrid").selection == sel([0])

    @pytest.mark.parametrize("mode", MODES)
    def test_round_time_equal_to_budget_is_feasible(self, mode):
        cfg = SimConfig(n_users=12, energy_budget_j=1e9)
        topo = generate_topology(cfg, seed=5)
        bw = default_initial_bandwidth(topo, cfg)
        user = topo.users.rows()[3]
        round_time, _ = _reference_cost(user, bw, topo, cfg, mode)
        assert user.id in get_s(bw, topo, cfg.replace(t_round_s=round_time), mode).all_ids
        below = math.nextafter(round_time, 0.0)
        assert user.id not in get_s(bw, topo, cfg.replace(t_round_s=below), mode).all_ids

    @pytest.mark.parametrize("mode", MODES)
    def test_energy_equal_to_budget_is_feasible(self, mode):
        cfg = SimConfig(n_users=12, t_round_s=1e9)
        topo = generate_topology(cfg, seed=5)
        bw = default_initial_bandwidth(topo, cfg)
        users = list(topo.users.rows())
        user = users[3]
        _, energy = _reference_cost(user, bw, topo, cfg, mode)

        def with_budget(budget):
            users[3] = dataclasses.replace(user, energy_budget_j=budget)
            return dataclasses.replace(topo, users=tuple(users))

        assert user.id in get_s(bw, with_budget(energy), cfg, mode).all_ids
        assert user.id not in get_s(bw, with_budget(math.nextafter(energy, 0.0)), cfg, mode).all_ids

    @pytest.mark.parametrize("mode", MODES)
    def test_build_terms_equal_the_per_user_reference(self, mode):
        # The build calls the kernels on the user columns; each term must keep
        # the bits of the per-user formula on Python floats.
        rng = np.random.default_rng(1313)
        for i in range(80):
            topo, cfg = random_instance(rng, n_range=(1, 40))
            cfg = cfg.replace(
                local_accuracy=float(rng.uniform(0.01, 0.99)),
                nu=float(rng.uniform(0.1, 5.0)),
                indoor_penetration_db=float(rng.uniform(0.0, 20.0)),
            )
            if i % 3 == 0:
                topo = with_unequal_shards(topo, rng, high=30)
            links, _ = _links(topo, cfg, mode)
            bx, by = topo.bs_position
            users = topo.users.rows()
            dists = [math.hypot(u.position[0] - bx, u.position[1] - by) for u in users]
            gains = [rf_channel_gain(d, u.indoor, cfg) for u, d in zip(users, dists)]
            # Every user's received downlink power, then every user's uplink power.
            assert links.rf_power.tolist() == (
                [cfg.bs_tx_power_w * g for g in gains] + [u.tx_power_w * g for u, g in zip(users, gains)]
            )
            reference = [_reference_computation(u, cfg) for u in users]
            assert links.t_cmp.tolist() == [t_cmp for t_cmp, _ in reference]
            assert links.e_cmp.tolist() == [e_cmp for _, e_cmp in reference]


class TestSharedLinkTable:
    """One build per (topology, config), shared by both modes."""

    @staticmethod
    def count_calls(monkeypatch, cls):
        calls = []
        init = cls.__init__

        def counted(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
        return calls

    @staticmethod
    def outcomes(topo, cfg):
        bw = BandwidthAllocation(2e5, 3e5, 4e6)
        return [(usba(topo, cfg, m), oracle_enumerate(topo, cfg, m), get_s(bw, topo, cfg, m)) for m in MODES]

    def test_both_modes_of_usba_and_the_oracle_share_one_build(self, monkeypatch):
        builds = self.count_calls(monkeypatch, _LinkTable)
        rng = np.random.default_rng(41)
        for _ in range(10):
            topo, cfg = random_instance(rng, n_range=(1, ORACLE_MAX_USERS))
            builds.clear()
            for mode in MODES:
                usba(topo, cfg, mode)
                oracle_enumerate(topo, cfg, mode)
            assert len(builds) == 1

    @pytest.mark.parametrize(
        "change",
        [
            {"t_round_s": 0.4},
            {"payload_bits": 5e6},
            {"local_accuracy": 0.01},
            {"uplink_interference_w": 1e-8},
            {"backhaul_delay_s": 1.0},
            {"vlc_total_bandwidth_hz": 6e6},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_a_changed_config_gives_what_a_fresh_topology_gives(self, change):
        # The topology keeps one table, for the last config; a config that
        # differs in one field gets a table of its own.
        rng = np.random.default_rng(43)
        for _ in range(8):
            topo, cfg = random_instance(rng, n_range=(1, ORACLE_MAX_USERS))
            # Copies made before any call: equal users, no table yet.
            fresh, fresh_again = dataclasses.replace(topo), dataclasses.replace(topo)
            before = self.outcomes(topo, cfg)
            other = cfg.replace(**change)
            assert self.outcomes(topo, other) == self.outcomes(fresh, other)
            assert self.outcomes(topo, cfg) == before == self.outcomes(fresh_again, cfg)

    def test_rf_only_needs_no_aps_before_or_after_hybrid_fails(self, config):
        topo = TestLoudFailures.no_ap_topology()
        expected = usba(topo, config, "rf_only")
        assert expected.selection == sel([0], [1])
        for call in (usba, oracle_enumerate):
            with pytest.raises(ValueError, match="no VLC APs"):
                call(topo, config, "hybrid")
            assert usba(topo, config, "rf_only") == expected
            assert oracle_enumerate(topo, config, "rf_only").selection == expected.selection

    def test_rf_only_after_a_failed_hybrid_call_equals_a_fresh_topology(self, config):
        # The failed hybrid call builds and keeps the table but not its
        # optical terms; rf_only on that same object answers as on a fresh one.
        bw = BandwidthAllocation(2e5, 3e5, 4e6)
        for call in (lambda *args: get_s(bw, *args), usba, oracle_enumerate):
            topo = TestLoudFailures.no_ap_topology()
            with pytest.raises(ValueError, match="no VLC APs"):
                call(topo, config, "hybrid")
            assert topo._link_table is not None and topo._link_table.signals is None
            fresh = TestLoudFailures.no_ap_topology()
            assert get_s(bw, topo, config, "rf_only") == get_s(bw, fresh, config, "rf_only")
            assert usba(topo, config, "rf_only") == usba(fresh, config, "rf_only")

    def test_an_allocated_topology_keeps_its_value(self):
        cfg = SimConfig(n_users=20)
        used, untouched = generate_topology(cfg, 3), generate_topology(cfg, 3)
        for mode in MODES:
            usba(used, cfg, mode)
        assert used._link_table is not None
        assert used == untouched


class TestColumnPath:
    """Selection reads a drawn topology's user columns and builds no UserNode;
    a topology built from nodes takes the same path to the same results."""

    @staticmethod
    def count_nodes(monkeypatch):
        built = []
        init = UserNode.__init__

        def counted(self, *args):
            built.append(args[0])
            init(self, *args)

        monkeypatch.setattr(UserNode, "__init__", counted)
        return built

    def test_selection_builds_no_user_node(self, monkeypatch):
        built = self.count_nodes(monkeypatch)
        report = run_experiment(SimConfig(n_users=60), [0, 1], load_bundled_dataset(), train=False)
        assert len(report.records) == 4 and all(r.n_selected for r in report.records)
        rng = np.random.default_rng(51)
        for _ in range(10):
            topo, cfg = random_instance(rng, n_range=(1, ORACLE_MAX_USERS))
            for mode in MODES:
                usba(topo, cfg, mode)
                oracle_enumerate(topo, cfg, mode)
                get_s(BandwidthAllocation(2e5, 3e5, 4e6), topo, cfg, mode)
            default_initial_bandwidth(topo, cfg)
        assert built == []

    @staticmethod
    def results(topo, cfg):
        return [
            (usba(topo, cfg, mode), oracle_enumerate(topo, cfg, mode) if topo.n_users <= ORACLE_MAX_USERS else None)
            for mode in MODES
        ]

    def test_a_copy_built_from_nodes_gives_the_same_results(self):
        draws = [(generate_topology(SimConfig(n_users=n), 11), SimConfig(n_users=n)) for n in (1, 13, 50, 200)]
        draws += [
            random_instance(np.random.default_rng(seed))
            for seed in np.random.default_rng(53).integers(0, 2**31, size=20).tolist()
        ]
        for drawn, cfg in draws:
            copy = dataclasses.replace(drawn, users=drawn.users.rows())
            assert self.results(copy, cfg) == self.results(drawn, cfg)
            assert copy == drawn


class TestIndoorFirst:
    """Every topology lists its indoor users first. One built from nodes
    whose indoor and outdoor users interleave sorts them so, each kind in
    the order given, and must select as the drawn order does."""

    @staticmethod
    def interleaved(topo, rng):
        """``topo``'s ``UserNode``s in a shuffled order in which an outdoor
        user comes before an indoor one."""
        users = topo.users.rows()
        assert 0 < topo.n_indoor < topo.n_users
        while True:
            users = [users[i] for i in rng.permutation(len(users)).tolist()]
            indoor = [u.indoor for u in users]
            if indoor != sorted(indoor, reverse=True):
                return tuple(users)

    @staticmethod
    def draws(rng, count):
        """Drawn topologies with indoor and outdoor users: default configs at
        N = 13, 50 and 200, then small random instances, half of them with
        unequal shards."""
        for n in (13, 50, 200):
            yield generate_topology(SimConfig(n_users=n), 7), SimConfig(n_users=n)
        while count:
            topo, cfg = random_instance(rng, n_range=(2, ORACLE_MAX_USERS))
            if 0 < topo.n_indoor < topo.n_users:
                count -= 1
                yield (with_unequal_shards(topo, rng) if count % 2 else topo), cfg

    def test_a_topology_from_interleaved_nodes_lists_indoor_users_first(self):
        rng = np.random.default_rng(2601)
        for drawn, _ in self.draws(rng, 10):
            nodes = self.interleaved(drawn, rng)
            copy = dataclasses.replace(drawn, users=nodes)
            indoor, outdoor = [u for u in nodes if u.indoor], [u for u in nodes if not u.indoor]
            assert copy.users.rows() == tuple(indoor + outdoor)
            assert copy.n_indoor == drawn.n_indoor

    @pytest.mark.parametrize("mode", MODES)
    def test_get_s_equals_reference_at_distinct_widths(self, mode):
        rng = np.random.default_rng(2602)
        for drawn, cfg in self.draws(rng, 20):
            copy = dataclasses.replace(drawn, users=self.interleaved(drawn, rng))
            start = default_initial_bandwidth(drawn, cfg)
            for up, down, vlc in ((0.6, 1.7, 1.0), (1.9, 0.8, 0.4), (3.0, 0.5, 2.5)):
                bw = BandwidthAllocation(start.b_up_hz * up, start.b_down_hz * down, start.b_vlc_hz * vlc)
                expected = _reference_selection(bw, copy, cfg, mode)
                assert get_s(bw, copy, cfg, mode) == expected == get_s(bw, drawn, cfg, mode), (mode, bw, copy)

    @pytest.mark.parametrize("mode", MODES)
    def test_usba_and_the_oracle_equal_the_drawn_order(self, mode):
        rng = np.random.default_rng(2603)
        for i, (drawn, cfg) in enumerate(self.draws(rng, 40)):
            if i % 3 == 0:  # configured start widths, up and down distinct
                start = default_initial_bandwidth(drawn, cfg)
                cfg = cfg.replace(initial_bandwidth=(start.b_up_hz * 1.5, start.b_down_hz * 0.5, start.b_vlc_hz))
            copy = dataclasses.replace(drawn, users=self.interleaved(drawn, rng))
            assert usba(copy, cfg, mode) == usba(drawn, cfg, mode), (mode, copy)
            if drawn.n_users <= ORACLE_MAX_USERS:
                assert oracle_enumerate(copy, cfg, mode) == oracle_enumerate(drawn, cfg, mode), (mode, copy)


class TestLoudFailures:
    """A hybrid topology with indoor users but no VLC APs is a broken input."""

    @staticmethod
    def no_ap_topology(indoor=True):
        users = [make_user(id=0, indoor=indoor, xy=(0.0, 1.0)), make_user(id=1, xy=(20.0, 0.0))]
        return make_topology(users, aps=())

    def test_get_s_names_the_missing_aps(self, config):
        with pytest.raises(ValueError, match="no VLC APs"):
            get_s(BandwidthAllocation(1e6, 1e6, 1e6), self.no_ap_topology(), config)

    def test_usba_names_the_missing_aps(self, config):
        with pytest.raises(ValueError, match="no VLC APs"):
            usba(self.no_ap_topology(), config)

    def test_oracle_names_the_missing_aps(self, config):
        with pytest.raises(ValueError, match="no VLC APs"):
            oracle_enumerate(self.no_ap_topology(), config)

    def test_aps_are_not_needed_without_vlc_users(self, config):
        bw = BandwidthAllocation(1e6, 1e6, 1e6)
        assert get_s(bw, self.no_ap_topology(), config, "rf_only") == sel([0], [1])
        assert get_s(bw, self.no_ap_topology(indoor=False), config) == sel(outdoor=[0, 1])
        assert usba(self.no_ap_topology(), config, "rf_only").selection == sel([0], [1])

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "call",
        [
            lambda topo, cfg, mode: get_s(BandwidthAllocation(1e6, 1e6, 1e6), topo, cfg, mode),
            usba,
            oracle_enumerate,
        ],
        ids=["get_s", "usba", "oracle_enumerate"],
    )
    def test_underflowed_rf_gain_is_rejected(self, config, call, mode):
        far = make_user(id=1, xy=(1e90, 0.0))
        assert rf_channel_gain(1e90, False, config) == 0.0
        topo = make_topology([make_user(id=0, xy=(20.0, 0.0)), far])
        with pytest.raises(ValueError, match="channel gain"):
            call(topo, config, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "call",
        [
            lambda topo, cfg, mode: get_s(BandwidthAllocation(1e6, 1e6, 1e6), topo, cfg, mode),
            usba,
            oracle_enumerate,
        ],
        ids=["get_s", "usba", "oracle_enumerate"],
    )
    def test_a_user_at_the_bs_is_rejected(self, config, call, mode):
        topo = make_topology([make_user(id=0, xy=(20.0, 0.0)), make_user(id=1, xy=(0.0, 0.0))])
        with pytest.raises(ValueError, match="user 1: distance must be > 0, got 0.0"):
            call(topo, config, mode)

    @pytest.mark.parametrize("call", [usba, oracle_enumerate], ids=["usba", "oracle_enumerate"])
    def test_a_squared_frequency_overflow_names_the_user(self, call):
        cfg = SimConfig(cpu_freq_range_hz=(1e200, 1e200), n_users=5)
        with pytest.raises(ValueError, match=r"user 0: cpu_freq_hz=1e\+200 overflows"):
            call(generate_topology(cfg, 0), cfg)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e6])
    @pytest.mark.parametrize("field", range(3))
    def test_non_finite_or_non_positive_widths_are_rejected(self, config, field, bad):
        widths = [1e6, 1e6, 1e6]
        widths[field] = bad
        topo = generate_topology(SimConfig(), 0)
        with pytest.raises(ValueError, match="block widths must be finite and > 0"):
            get_s(BandwidthAllocation(*widths), topo, config)

    @pytest.mark.parametrize(
        "call",
        [
            lambda topo, cfg: get_s(BandwidthAllocation(1e6, 1e6, 1e6), topo, cfg, "other"),
            lambda topo, cfg: get_b(Selection(frozenset(), frozenset({0})), cfg, "other"),
            lambda topo, cfg: usba(topo, cfg, "other"),
            lambda topo, cfg: oracle_enumerate(topo, cfg, "other"),
        ],
        ids=["get_s", "get_b", "usba", "oracle_enumerate"],
    )
    def test_every_entry_point_rejects_an_unknown_mode(self, config, call):
        with pytest.raises(ValueError, match="mode must be one of"):
            call(make_topology([make_user()]), config)


class TestInvalidConfig:
    """A config is checked when it is built, so usba and the oracle never see a bad one."""

    def test_usba_rejects_zero_iterations(self):
        topo = generate_topology(SimConfig(n_users=60), seed=0)
        with pytest.raises(ConfigError, match="max_iterations"):
            usba(topo, SimConfig(n_users=60, max_iterations=0))

    def test_oracle_rejects_a_negative_round_budget(self):
        topo = generate_topology(SimConfig(n_users=6), seed=0)
        with pytest.raises(ConfigError, match="t_round_s"):
            oracle_enumerate(topo, SimConfig(n_users=6, t_round_s=-1.0))


REFERENCE_SELECTIONS = Path(__file__).parent / "data" / "reference_selections.csv"
REFERENCE_FIELDS = (
    "n_users", "seed", "mode", "indoor_ids", "outdoor_ids", "b_up_hz", "b_vlc_hz", "iterations", "converged",
)


def _result_row(res):
    """A usba result as strings: ids, widths as float.hex, iterations, flags, objective."""
    return {
        "indoor_ids": ";".join(map(str, sorted(res.selection.indoor_ids))),
        "outdoor_ids": ";".join(map(str, sorted(res.selection.outdoor_ids))),
        "b_up_hz": res.bandwidth.b_up_hz.hex(),
        "b_down_hz": res.bandwidth.b_down_hz.hex(),
        "b_vlc_hz": res.bandwidth.b_vlc_hz.hex(),
        "iterations": str(res.iterations),
        "converged": str(res.converged).lower(),
        "objective": repr(res.objective),
    }


def _selection_rows():
    """usba on the default config for N = 20..200 in steps of 20, seeds 0-2, both modes."""
    for n in range(20, 201, 20):
        cfg = SimConfig(n_users=n)
        for seed in range(3):
            topo = generate_topology(cfg, seed)
            for mode in MODES:
                row = {"n_users": str(n), "seed": str(seed), "mode": mode, **_result_row(usba(topo, cfg, mode))}
                yield {field: row[field] for field in REFERENCE_FIELDS}


def _write_rows(path, fields, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def write_reference_selections(path=REFERENCE_SELECTIONS):
    _write_rows(path, REFERENCE_FIELDS, _selection_rows())


class TestReferenceSelections:
    """tests/data/reference_selections.csv was written by
    ``write_reference_selections()`` with the per-user feasibility loop that
    preceded the link table; widths are stored as float.hex, so the match is
    exact to the bit. Half the rows are non-converged, which covers the
    oscillating path that the N=20 reference run never reaches."""

    def test_matches_stored_selections(self):
        with open(REFERENCE_SELECTIONS, newline="") as fh:
            expected = list(csv.DictReader(fh))
        got = list(_selection_rows())
        assert len(got) == len(expected) == 60
        assert sum(row["converged"] == "false" for row in expected) >= 20
        for row, ref in zip(got, expected):
            assert row == ref


REFERENCE_EXHAUSTED = Path(__file__).parent / "data" / "reference_usba_exhausted.csv"
EXHAUSTED_FIELDS = (
    "n_users", "seed", "mode", "max_iterations", "indoor_ids", "outdoor_ids",
    "b_up_hz", "b_down_hz", "b_vlc_hz", "iterations", "converged", "objective",
)


def _exhausted_rows():
    """usba on the default config with max_iterations in {1, 2, 3, 5}, for
    N in {60, 100, 160, 200}, seeds 0-2 and both modes."""
    for n in (60, 100, 160, 200):
        for max_iterations in (1, 2, 3, 5):
            cfg = SimConfig(n_users=n, max_iterations=max_iterations)
            for seed in range(3):
                topo = generate_topology(cfg, seed)
                for mode in MODES:
                    yield {
                        "n_users": str(n),
                        "seed": str(seed),
                        "mode": mode,
                        "max_iterations": str(max_iterations),
                        **_result_row(usba(topo, cfg, mode)),
                    }


def write_reference_exhausted(path=REFERENCE_EXHAUSTED):
    _write_rows(path, EXHAUSTED_FIELDS, _exhausted_rows())


class TestReferenceExhausted:
    """tests/data/reference_usba_exhausted.csv was written by
    ``write_reference_exhausted()`` before usba tested each state inside its
    loop. Most rows stop because the iterations ran out, so the match pins
    the extra pass that tests the last state."""

    def test_matches_stored_results(self):
        with open(REFERENCE_EXHAUSTED, newline="") as fh:
            expected = list(csv.DictReader(fh))
        got = list(_exhausted_rows())
        assert len(got) == len(expected) == 96
        exhausted = [
            row for row in expected
            if row["converged"] == "false" and row["iterations"] == row["max_iterations"]
        ]
        assert len(exhausted) == 71
        for row, ref in zip(got, expected):
            assert row == ref


REFERENCE_ORACLE = Path(__file__).parent / "data" / "reference_oracle.csv"
ORACLE_FIELDS = (
    "n_users", "instance", "shards", "mode", "indoor_ids", "outdoor_ids", "b_up_hz", "b_down_hz", "b_vlc_hz",
    "objective",
)


def _oracle_rows():
    """oracle_enumerate on four random_instance draws for each N = 1..14, each
    with its equal shards and again with shards drawn from 1..6, in both modes."""
    rng = np.random.default_rng(61)
    for n in range(1, ORACLE_MAX_USERS + 1):
        for instance in range(4):
            topo, cfg = random_instance(rng, n_range=(n, n))
            for shards, t in (("equal", topo), ("unequal", with_unequal_shards(topo, rng))):
                for mode in MODES:
                    row = {
                        "n_users": str(n),
                        "instance": str(instance),
                        "shards": shards,
                        "mode": mode,
                        **_result_row(oracle_enumerate(t, cfg, mode)),
                    }
                    yield {field: row[field] for field in ORACLE_FIELDS}


def write_reference_oracle(path=REFERENCE_ORACLE):
    _write_rows(path, ORACLE_FIELDS, _oracle_rows())


class TestReferenceOracle:
    """tests/data/reference_oracle.csv was written by ``write_reference_oracle()``
    with the oracle that scanned every (k1, k2) count pair; widths are stored
    as float.hex. Unequal shards make the best pair of a row lie below the
    staircase boundary, and small shard sizes make objectives tie."""

    def test_matches_stored_results(self):
        with open(REFERENCE_ORACLE, newline="") as fh:
            expected = list(csv.DictReader(fh))
        got = list(_oracle_rows())
        assert len(got) == len(expected) == 224
        assert sum(row["indoor_ids"] == row["outdoor_ids"] == "" for row in expected) >= 3
        for row, ref in zip(got, expected):
            assert row == ref


REFERENCE_STARTS = Path(__file__).parent / "data" / "reference_usba_starts.csv"
STARTS_FIELDS = (
    "instance", "mode", "start", "max_iterations", "indoor_ids", "outdoor_ids",
    "b_up_hz", "b_down_hz", "b_vlc_hz", "iterations", "converged", "objective",
)


def _start_rows():
    """usba on 150 random_instance draws with N = 1..60, in both modes. Every
    other draw starts from configured widths, drawn log-uniform over
    1e3..3e7 Hz; max_iterations is drawn from 1..7."""
    rng = np.random.default_rng(83)
    for instance in range(150):
        topo, cfg = random_instance(rng, n_range=(1, 60))
        start = None
        if instance % 2:
            start = tuple(float(10 ** rng.uniform(3.0, math.log10(3e7))) for _ in range(3))
        cfg = cfg.replace(initial_bandwidth=start, max_iterations=int(rng.integers(1, 8)))
        for mode in MODES:
            yield {
                "instance": str(instance),
                "mode": mode,
                "start": ";".join(w.hex() for w in start) if start else "default",
                "max_iterations": str(cfg.max_iterations),
                **_result_row(usba(topo, cfg, mode)),
            }


def write_reference_starts(path=REFERENCE_STARTS):
    _write_rows(path, STARTS_FIELDS, _start_rows())


class TestReferenceStarts:
    """tests/data/reference_usba_starts.csv was written by
    ``write_reference_starts()`` while usba still ran a feasibility pass to
    confirm each fixed point. Configured starts reach the solo restart and
    fixed points found at other widths than their own; the rows cover every
    way the alternation ends."""

    def test_matches_stored_results(self):
        with open(REFERENCE_STARTS, newline="") as fh:
            expected = list(csv.DictReader(fh))
        got = list(_start_rows())
        assert len(got) == len(expected) == 300
        nonconverged = [row for row in expected if row["converged"] == "false"]
        spent = [row for row in nonconverged if row["iterations"] == row["max_iterations"]]
        assert len(nonconverged) < len(expected)  # converged
        assert spent  # the iterations ran out
        assert len(spent) < len(nonconverged)  # a revisit or an empty state ended the run
        for row, ref in zip(got, expected):
            assert row == ref
